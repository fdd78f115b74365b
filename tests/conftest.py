"""Shared pytest configuration: a deterministic hypothesis profile, and a
fixture that counts the helper threads the package starts."""

import threading
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from feedbackcast import kernels

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def started_threads(monkeypatch):
    """One entry per thread that ``kernels`` starts during the test: every
    helper thread of the package, ``rolling_ols``'s and the game player's."""
    started = []

    def counted(*args, **kwargs):
        started.append(1)
        return threading.Thread(*args, **kwargs)

    monkeypatch.setattr(kernels, "threading", SimpleNamespace(Thread=counted))
    return started
