"""Spans around calls into feedbackcast, recorded from outside the package.

``Recorder.install`` replaces each public function of the package's layer
modules with a timing wrapper, in every namespace that binds it: a
``from .x import y`` binding is wrapped in the importing module, because that
is where the caller looks the name up. Each span records a name, a start, an
end and its parent; spans stay in memory until ``summary`` folds them into
per-name call counts, durations and self times (duration minus the part
covered by child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from types import FunctionType

LAYERS = ("model", "simulate", "oracle", "evaluate", "kernels")
# backend selection runs inside every kernel call; it is not work of its own
SKIP = {"kernels.active_backend", "kernels.set_backend"}


def _rolling_ols(counters, record, args, result):
    n, window = len(args[0]), int(args[2])
    counters["kernels.rolling_ols.window_elems"] += (n - window + 1) * window


def _mse_at(counters, record, args, result):
    counters["kernels.mse_at.bytes"] += 16 * len(args[5])


def _sample_policy_shock(counters, record, args, result):
    record[0] += "." + args[0].family
    if result is not None:
        counters["simulate.sample_policy_shock.draws"] += len(result)


def _ingest_csv(counters, record, args, result):
    if result is not None:
        counters["evaluate.ingest_csv.rows"] += len(result)


# counters read from a call's arguments and result, keyed by span name
NOTES = {
    "kernels.rolling_ols": _rolling_ols,
    "kernels.mse_at": _mse_at,
    "simulate.sample_policy_shock": _sample_policy_shock,
    "evaluate.ingest_csv": _ingest_csv,
}
COUNTERS = (
    "kernels.rolling_ols.window_elems",
    "kernels.mse_at.bytes",
    "simulate.sample_policy_shock.draws",
    "evaluate.ingest_csv.rows",
)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters = dict.fromkeys(COUNTERS, 0)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span timed by the caller."""
        self.spans.append([name, start, end, -1])

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[2] = clock()
                stack.pop()
                if note is not None:
                    note(self.counters, record, args, result)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every loaded feedbackcast layer module."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "feedbackcast" or n.startswith("feedbackcast.")]
        wrapped = {}
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, FunctionType):
                    continue
                package, _, layer = obj.__module__.partition(".")
                name = f"{layer}.{obj.__name__}"
                if package != "feedbackcast" or layer not in LAYERS or name in SKIP:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self.wrap(name, obj)
                setattr(module, attr, wrapped[obj])
                self._undo.append((module, attr, obj))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, obj = self._undo.pop()
            setattr(module, attr, obj)

    def summary(self) -> dict:
        """{"spans": {name: [calls, seconds, self seconds]}, "counters": {...}}"""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[i]
        return {"spans": totals, "counters": dict(self.counters)}


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of scipy modules in a ``python -X importtime``
    log, counting each scipy subtree once, at its outermost scipy module."""
    entries = []
    for line in importtime_log.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        cumulative = fields[1].strip()
        if not cumulative.isdigit():
            continue  # the header line
        name = fields[2].strip()
        depth = (len(fields[2]) - len(fields[2].lstrip()) - 1) // 2
        entries.append((depth, name, int(cumulative)))
    # the log lists a module after its imports; reversed, parents come first
    total_us = 0
    ancestors: list[tuple[int, bool]] = []  # (depth, inside a scipy subtree)
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        inside = bool(ancestors) and ancestors[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative
        ancestors.append((depth, inside or is_scipy))
    return total_us / 1e6
