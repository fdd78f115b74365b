"""Brute-force minimizers that cross-check the closed forms.

None of these uses the optimal-forecast formula: the exact oracle solves the
first-order condition numerically from MSE evaluations, the Monte Carlo
oracle minimizes a simulated objective in closed form from its sample
moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _numpy as np

from . import kernels
from .errors import (
    SingularDenominator,
    _check_conjecture,
    _require_finite,
    _require_int,
    _require_positive,
)
from .model import LinearRule, ModelParams, mse_decomposition
from .simulate import PolicyShockSpec, _require_matching_shock, sample_policy_shock

__all__ = [
    "OracleConfig",
    "exact_mse_minimizer",
    "mc_mse_minimizer",
]


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the stochastic oracle.

    The minimizer does not read ``tolerance``; callers that compare its
    answer with a closed form add it to their bound as slack.
    """

    sample_count: int = 100_000
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        count = _require_int("sample_count", self.sample_count, 10_000)
        object.__setattr__(self, "sample_count", count)
        object.__setattr__(self, "tolerance", _require_positive("tolerance", self.tolerance))
        object.__setattr__(self, "seed", _require_int("seed", self.seed, 0))


def exact_mse_minimizer(theta: float, conjecture: LinearRule, params: ModelParams) -> float:
    """Minimize the exact conditional MSE in f by solving its linear FOC
    numerically.

    The objective is quadratic, so three evaluations pin down the vertex;
    three Newton re-centerings (central differences are exact for
    quadratics) then remove the cancellation error the first fit picks up
    when the curvature is small. The step is 1 + |theta|, the scale of the
    minimizer, so the differences of MSE values of size theta**2 keep their
    digits at any theta. Raises ValueError naming ``theta`` when the MSE
    leaves the float range.
    """
    theta = _require_finite("theta", theta)
    h = 1.0 + abs(theta)

    def at(f):
        lo, mid, hi = (
            mse_decomposition(f + d, theta, conjecture, params).total for d in (-h, 0.0, h)
        )
        curv = hi + lo - 2.0 * mid
        if not math.isfinite(curv):
            raise ValueError(
                f"theta {theta!r} puts the conditional MSE past the float range"
            )
        return lo, hi, curv

    lo, hi, curv = at(0.0)
    if curv <= 0.0:
        raise SingularDenominator(
            "conditional MSE is not strictly convex in the forecast"
        )
    f = 0.5 * (lo - hi) / curv * h
    for _ in range(3):
        lo, hi, curv = at(f)
        if curv <= 0.0:
            break
        f -= 0.5 * (hi - lo) / curv * h
    return f


def mc_mse_minimizer(
    theta: float,
    conjecture: LinearRule,
    params: ModelParams,
    dist: PolicyShockSpec,
    cfg: OracleConfig,
    with_stderr: bool = False,
):
    """Minimizer of the Monte-Carlo-estimated conditional MSE.

    The same (x, eps) draws score every candidate forecast (common random
    numbers), so the estimated objective is an exact quadratic in f, and its
    minimizer is a ratio of two sample moments, deterministic given the seed.
    With ``with_stderr`` the return value is ``(minimizer, stderr)``, where
    the standard error comes from the delta method applied to that ratio.
    Raises SingularDenominator when the objective is flat (the reaction is a
    point mass at -c), and ValueError when a moment leaves the float range.
    """
    _require_matching_shock(dist, params)
    b, c = _check_conjecture(conjecture)
    theta = _require_finite("theta", theta)

    ss = np.random.SeedSequence(cfg.seed)
    seed_x, seed_eps = ss.spawn(2)
    x = sample_policy_shock(dist, cfg.sample_count, seed_x)
    eps = np.random.default_rng(seed_eps).normal(
        0.0, math.sqrt(params.sigma2), cfg.sample_count
    )

    with kernels._float_range("the oracle's sample moments"):
        # numpy scalars, so the conjecture's own arithmetic is guarded too
        b, c = np.float64(b), np.float64(c)
        # e_i(f) = A_i - (1 + B_i) f, so mean(e^2) = mean(A^2) - 2 f mean(u)
        # + f^2 mean(v) with u = A(1+B) and v = (1+B)^2, least at mean(u) / mean(v)
        a_i = theta + x * ((c * params.y_target + b) / c) + eps
        w_i = 1.0 + x / c
        u = a_i * w_i
        v = w_i * w_i
        u_bar = np.mean(u)
        v_bar = np.mean(v)
        if v_bar == 0.0:
            raise SingularDenominator(
                "the reaction is a point mass at -c; the forecast objective is flat"
            )
        f_hat = u_bar / v_bar
        if not with_stderr:
            return float(f_hat)
        resid = u - f_hat * v
        stderr = np.std(resid, ddof=1) / (v_bar * math.sqrt(len(u)))
    return float(f_hat), float(stderr)
