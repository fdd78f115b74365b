"""Brute-force minimizers that cross-check the closed forms.

None of these uses the optimal-forecast formula: the exact oracle solves the
first-order condition numerically from MSE evaluations, the Monte Carlo
oracle minimizes a simulated objective in closed form from its sample
moments, and the action oracle grid-searches the DM problem.
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
    _require_t_cost,
)
from .model import LinearRule, ModelParams, mse_decomposition
from .simulate import PolicyShockSpec, _require_matching_shock, sample_policy_shock

__all__ = [
    "OracleConfig",
    "exact_mse_minimizer",
    "mc_mse_minimizer",
    "grid_action_minimizer",
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


def grid_action_minimizer(
    forecast_value: float,
    t_cost: float,
    conjecture: LinearRule,
    params: ModelParams,
) -> float:
    """Grid-plus-refinement minimizer of the DM objective

        (theta_hat + a - y_target)^2 + sigma2 + t * a^2

    with theta_hat the conjecture-implied state (f - b)/c. The search runs in
    units of scale = |gap| + 1, gap = y_target - theta_hat: with a = scale * u
    the objective is scale**2 * ((u - gap/scale)^2 + t * u^2) plus sigma2, a
    constant left out, so no value overflows for any finite gap. Two staged
    grids narrow the bracket and a final parabola through the best three
    points lands on the vertex, within about 1e-7 * scale of the exact action
    for t >= -1/2. Raises ValueError naming ``forecast_value`` when the gap or
    the action is past the float range.
    """
    t = _require_t_cost(t_cost)
    b, c = _check_conjecture(conjecture)
    f = _require_finite("forecast_value", forecast_value)
    gap = params.y_target - (f - b) / c
    if not math.isfinite(gap):
        raise ValueError(
            f"forecast_value {f!r} puts the implied state's gap to the target "
            "past the float range"
        )
    scale = abs(gap) + 1.0
    g = gap / scale

    def objective(u):
        miss = u - g
        return miss * miss + t * u * u

    half = max(1.0, 1.0 / (1.0 + t))
    lo, hi = -half, half
    points = 1601
    for _ in range(2):
        grid = np.linspace(lo, hi, points)
        i = int(np.argmin(objective(grid)))
        lo = float(grid[max(i - 1, 0)])
        hi = float(grid[min(i + 1, points - 1)])
    grid = np.linspace(lo, hi, points)
    values = objective(grid)
    i = int(np.argmin(values))
    i = min(max(i, 1), points - 2)
    g0, g1, g2 = grid[i - 1 : i + 2].tolist()
    j0, j1, j2 = values[i - 1 : i + 2].tolist()
    num = (g1 - g0) * (g1 - g0) * (j1 - j2) - (g1 - g2) * (g1 - g2) * (j1 - j0)
    den = (g1 - g0) * (j1 - j2) - (g1 - g2) * (j1 - j0)
    # near the minimum the three values differ by rounding alone, and their
    # parabola can put the vertex far outside the bracket; keep it inside
    u = g1 if den == 0.0 else min(max(g1 - 0.5 * num / den, g0), g2)
    action = scale * u
    if not math.isfinite(action):
        raise ValueError(
            f"forecast_value {f!r} with t_cost {t!r} gives an action past the float range"
        )
    return action
