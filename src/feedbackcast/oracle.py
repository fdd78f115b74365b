"""Brute-force minimizers that cross-check the closed forms.

None of these reuse the optimal-forecast formula as the answer: the exact
oracle solves the first-order condition numerically from MSE evaluations, the
Monte Carlo oracle golden-sections a simulated objective, and the action
oracle grid-searches the DM problem. The closed form only supplies the pilot
point around which the stochastic search brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _numpy as np

from .errors import (
    BracketFailure,
    SingularDenominator,
    _check_conjecture,
    _require_finite,
    _require_int,
    _require_positive,
    _require_t_cost,
)
from .model import LinearRule, ModelParams, mse_decomposition, optimal_forecast
from .simulate import PolicyShockSpec, _require_matching_shock, sample_policy_shock

__all__ = [
    "OracleConfig",
    "exact_mse_minimizer",
    "mc_mse_minimizer",
    "grid_action_minimizer",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_GOLDEN_ITER = 200


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the stochastic oracle.

    bracket_halfwidth of None means auto: max(1, 10 * |pilot|) around the
    pilot point, wide enough that the truth is always interior.
    """

    sample_count: int = 100_000
    bracket_halfwidth: float | None = None
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        count = _require_int("sample_count", self.sample_count, 10_000)
        object.__setattr__(self, "sample_count", count)
        if self.bracket_halfwidth is not None:
            hw = _require_positive("bracket_halfwidth", self.bracket_halfwidth)
            object.__setattr__(self, "bracket_halfwidth", hw)
        object.__setattr__(self, "tolerance", _require_positive("tolerance", self.tolerance))
        object.__setattr__(self, "seed", _require_int("seed", self.seed, 0))


def _mse_total(f: float, theta: float, conjecture: LinearRule, params: ModelParams) -> float:
    variance_term, bias_sq_term = mse_decomposition(f, theta, conjecture, params)
    return variance_term + bias_sq_term


def exact_mse_minimizer(theta: float, conjecture: LinearRule, params: ModelParams) -> float:
    """Minimize the exact conditional MSE in f by solving its linear FOC
    numerically.

    The objective is quadratic, so three evaluations pin down the vertex; two
    Newton re-centerings (central differences with unit step are exact for
    quadratics) then remove the cancellation error the first fit picks up
    when the curvature is small.
    """
    m_lo = _mse_total(-1.0, theta, conjecture, params)
    m_mid = _mse_total(0.0, theta, conjecture, params)
    m_hi = _mse_total(1.0, theta, conjecture, params)
    curv = m_hi + m_lo - 2.0 * m_mid
    if curv <= 0.0:
        raise SingularDenominator(
            "conditional MSE is not strictly convex in the forecast"
        )
    f = (m_lo - m_hi) / (2.0 * curv)
    for _ in range(2):
        hi = _mse_total(f + 1.0, theta, conjecture, params)
        lo = _mse_total(f - 1.0, theta, conjecture, params)
        mid = _mse_total(f, theta, conjecture, params)
        curv = hi + lo - 2.0 * mid
        if curv <= 0.0:
            break
        f = f - (hi - lo) / (2.0 * curv)
    return f


def _golden_section(objective, lo: float, hi: float, tolerance: float) -> float:
    """Standard golden-section descent on [lo, hi]; assumes the bracket holds
    an interior minimum (checked by the caller)."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = objective(c)
    fd = objective(d)
    for _ in range(_MAX_GOLDEN_ITER):
        if b - a <= tolerance:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


def mc_mse_minimizer(
    theta: float,
    conjecture: LinearRule,
    params: ModelParams,
    dist: PolicyShockSpec,
    cfg: OracleConfig,
    with_stderr: bool = False,
):
    """Golden-section minimizer of the Monte-Carlo-estimated conditional MSE.

    The same (x, eps) draws score every candidate forecast (common random
    numbers), so the estimated objective is an exact quadratic in f, scored
    from sample moments taken once, and the search is deterministic given the
    seed. With ``with_stderr`` the return value is ``(minimizer, stderr)``,
    where the standard error comes from the delta method applied to the ratio
    form of the sample minimizer.
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

    # e_i(f) = A_i - (1 + B_i) f, so mean(e^2) = mean(A^2) - 2 f mean(u)
    # + f^2 mean(v) with u = A(1+B) and v = (1+B)^2
    a_i = theta + x * ((c * params.y_target + b) / c) + eps
    w_i = 1.0 + x / c
    u = a_i * w_i
    v = w_i * w_i
    a2_bar = float(np.mean(a_i * a_i))
    u_bar = float(np.mean(u))
    v_bar = float(np.mean(v))

    def objective(f: float) -> float:
        return a2_bar - 2.0 * f * u_bar + f * f * v_bar

    pilot = optimal_forecast(conjecture, params)(theta)
    half = cfg.bracket_halfwidth
    if half is None:
        half = max(1.0, 10.0 * abs(pilot))
    lo, hi = pilot - half, pilot + half
    if not (objective(pilot) <= objective(lo) and objective(pilot) <= objective(hi)):
        raise BracketFailure(
            f"bracket [{lo:.6g}, {hi:.6g}] does not contain the sample minimum"
        )
    f_hat = _golden_section(objective, lo, hi, cfg.tolerance)
    if not with_stderr:
        return f_hat

    # the sample minimizer is u_bar / v_bar; the delta method gives its stderr
    ratio = u_bar / v_bar
    resid = u - ratio * v
    stderr = float(np.std(resid, ddof=1)) / (v_bar * math.sqrt(len(u)))
    return f_hat, stderr


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
