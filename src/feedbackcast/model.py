"""Closed forms for the forecaster / decision-maker feedback game.

A forecaster observes the state ``theta`` and publishes a forecast ``f`` of
the outcome

    y = theta + a + eps,        eps ~ (0, sigma2)

A decision maker (DM) with target ``y_target`` reads the forecast through a
conjectured affine rule ``f = b + c * theta``, backs out the implied state
``(f - b) / c``, and moves the outcome toward the target with strength ``x``:

    a(f) = x * (y_target - (f - b) / c)

``x`` is private to the DM; the forecaster knows only its mean ``mu`` and
variance ``tau2`` and minimizes mean squared error taking the reaction into
account. Everything in this module is an exact formula. Monte Carlo and
brute-force counterparts live in :mod:`feedbackcast.oracle` and
:mod:`feedbackcast.simulate`; they exist to check these expressions, not to
replace them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DegenerateEquilibrium,
    NoEquilibrium,
    SingularDenominator,
    SingularMZ,
    _check_conjecture,
    _require_finite,
    _require_menu,
    _require_nonnegative,
    _require_positive,
    _require_root_index,
    _require_t_cost,
)

__all__ = [
    "ModelParams",
    "LinearRule",
    "MZLine",
    "BiasLine",
    "EquilibriumRoot",
    "EquilibriumSolution",
    "MseSplit",
    "TAYLOR_RULE",
    "optimal_forecast",
    "solve_equilibria",
    "bias_line",
    "mz_line",
    "equilibrium_bias_and_mz",
    "mse_decomposition",
    "conditional_bias_and_mz",
    "constrained_dm_choice",
]


@dataclass(frozen=True)
class ModelParams:
    """Primitives of the game.

    mu, tau2
        Mean and variance of the DM's reaction strength ``x``. The strength
        is positive, so ``mu > 0``; ``tau2 >= 0``.
    sigma2
        Variance of the outcome noise ``eps``; strictly positive.
    y_target
        The DM's target for the outcome.
    """

    mu: float
    tau2: float
    sigma2: float = 1.0
    y_target: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mu", _require_positive("mu", self.mu))
        object.__setattr__(self, "tau2", _require_nonnegative("tau2", self.tau2))
        object.__setattr__(self, "sigma2", _require_positive("sigma2", self.sigma2))
        object.__setattr__(self, "y_target", _require_finite("y_target", self.y_target))


@dataclass(frozen=True)
class LinearRule:
    """Affine map ``value = intercept + slope * argument``."""

    intercept: float
    slope: float

    def __post_init__(self):
        object.__setattr__(self, "intercept", _require_finite("intercept", self.intercept))
        object.__setattr__(self, "slope", _require_finite("slope", self.slope))

    def __call__(self, argument: float) -> float:
        return self.intercept + self.slope * argument


#: The naive conjecture under which the DM believes forecasts reveal the
#: state one for one (f = theta).
TAYLOR_RULE = LinearRule(0.0, 1.0)


@dataclass(frozen=True)
class MZLine(LinearRule):
    """Population regression of outcome on forecast, E[y | f] = intercept + slope * f.

    A forecast is efficient in the Mincer-Zarnowitz sense when intercept = 0
    and slope = 1. Under feedback the optimal forecast is deliberately off
    that benchmark.
    """


@dataclass(frozen=True)
class BiasLine:
    """Conditional forecast error E[y - f | theta] = coef_theta * theta + coef_const."""

    coef_theta: float
    coef_const: float

    def __post_init__(self):
        object.__setattr__(self, "coef_theta", _require_finite("coef_theta", self.coef_theta))
        object.__setattr__(self, "coef_const", _require_finite("coef_const", self.coef_const))

    def __call__(self, theta: float) -> float:
        return self.coef_const + self.coef_theta * theta


class MseSplit(NamedTuple):
    """Conditional MSE of a forecast split into noise and squared bias."""

    variance_term: float
    bias_sq_term: float

    @property
    def total(self) -> float:
        return self.variance_term + self.bias_sq_term


def optimal_forecast(conjecture: LinearRule, params: ModelParams) -> LinearRule:
    """MSE-optimal forecast rule f*(theta) = d + e * theta given the DM's conjecture.

    With s = mu + c and D = tau2 + s**2,

        e = c * s / D
        d = (tau2 + mu * s) / D * (c * y_target + b)

    The slope shrinks toward zero as tau2 grows: uncertainty about how hard
    the DM will react makes state-revealing forecasts expensive.
    """
    b, c = _check_conjecture(conjecture)
    s = params.mu + c
    denom = params.tau2 + s * s
    if denom == 0.0:
        raise SingularDenominator(
            "tau2 + (mu + c)^2 = 0; the forecast objective is flat"
        )
    k = (params.tau2 + params.mu * s) / denom
    return LinearRule(intercept=k * (c * params.y_target + b), slope=c * s / denom)


class EquilibriumRoot(NamedTuple):
    """One self-confirming rule f = intercept + slope*theta, with its
    best-response constant ``k``: 1 - slope, or 1 + mu, its limit, where
    s = mu + slope is 0. ``intercept`` is k * y_target, or None when the
    root is ``degenerate`` (``_root``'s verdict). The fields are, in order,
    the keys ``solve`` writes for the root.
    """

    index: int
    slope: float
    intercept: float | None
    k: float
    degenerate: bool


@dataclass(frozen=True)
class EquilibriumSolution:
    """Self-confirming forecast rules: rules that are optimal against the
    conjecture they themselves induce.

    ``roots`` holds root 1 and root 2 when ``exists`` (tau2 <= 1/4), and is
    empty otherwise. ``repeated`` is set at tau2 = 1/4, where the two
    records differ only in ``index``.
    """

    exists: bool
    roots: tuple[EquilibriumRoot, ...] = ()
    repeated: bool = False

    def rule(self, index: int = 1) -> LinearRule:
        """Return the equilibrium rule with 1-based ``index`` (default: root
        1, the first self-confirming rule, which solve, sweep and simulate
        report), raising if it does not exist or is degenerate."""
        index = _require_root_index("equilibrium index", index)
        if not self.exists:
            raise NoEquilibrium("tau2 > 1/4: no self-confirming rule exists")
        root = self.roots[index - 1]
        if root.degenerate:
            raise DegenerateEquilibrium(
                f"equilibrium root {index} is degenerate and has no usable rule"
            )
        return LinearRule(intercept=root.intercept, slope=root.slope)


def _root(mu: float, tau2: float, index: int) -> tuple[float, float, float, bool] | None:
    """None when no self-confirming rule exists (tau2 > 1/4); otherwise
    (slope, s, wedge, degenerate) for root ``index``, with r = sqrt(1 - 4*tau2),
    s1 = (1 + r)/2, s2 = tau2/s1, slope 1/2 - mu +/- r/2 and wedge = (1 - mu)*s.

    The slope and wedge - tau2 are c and c*s in exact arithmetic, but in
    floats either can round to zero without the other; the root is
    degenerate when either does (at tau2 = 0, s2 = 0 makes the wedge tau2).
    Both roots take this one verdict from the same expressions, so they
    agree at tau2 = 1/4, and solve, sweep and simulate agree through
    ``solve_equilibria`` and ``_equilibrium_coefficients``. The verdict never
    re-forms s as mu + c, which cancels. Plain arithmetic: sweep calls it
    once per grid point.
    """
    if tau2 > 0.25:
        return None
    r = math.sqrt(1.0 - 4.0 * tau2)
    s1 = 0.5 + 0.5 * r
    if index == 1:
        slope, s = 0.5 - mu + 0.5 * r, s1
    else:
        slope, s = 0.5 - mu - 0.5 * r, tau2 / s1
    wedge = (1.0 - mu) * s
    return slope, s, wedge, slope == 0.0 or wedge == tau2


def solve_equilibria(params: ModelParams) -> EquilibriumSolution:
    """Solve for the self-confirming rules of the game.

    A rule f = b + c*theta is self-confirming when ``optimal_forecast``
    against it returns the rule itself. Matching slopes forces
    tau2 + (mu + c)**2 = mu + c, a quadratic in s = mu + c with real roots
    s = (1 +/- sqrt(1 - 4*tau2)) / 2 iff tau2 <= 1/4. There the
    best-response constant k = (tau2 + mu*s) / (tau2 + s**2) is 1 - c, and
    matching intercepts gives b = k * c * y_target / (1 - k) = k * y_target.

    Each root's record is built from ``_root``. A listed slope is within an
    ulp of max(1/2, mu) even where ``optimal_forecast``, which forms mu + c,
    cannot map the rule back to itself: root 2 at tiny tau2, or root 1 once
    mu passes about 2**53.
    """
    roots = []
    for index in (1, 2):
        root = _root(params.mu, params.tau2, index)
        if root is None:
            return EquilibriumSolution(exists=False)
        slope, s, _, degenerate = root
        k = 1.0 + params.mu if s == 0.0 else 1.0 - slope
        intercept = None if degenerate else _require_finite("intercept", k * params.y_target)
        roots.append(EquilibriumRoot(index, slope, intercept, k, degenerate))
    return EquilibriumSolution(
        exists=True, roots=tuple(roots), repeated=params.tau2 == 0.25
    )


def bias_line(conjecture: LinearRule, params: ModelParams) -> BiasLine:
    """Conditional bias of the optimal forecast against ``conjecture``:

        E[y - f* | theta] = G * (theta - c*y_target - b),  G = tau2 / (tau2 + (mu+c)**2)

    The optimal forecast under-delivers exactly when the state sits above the
    level the conjecture associates with the target.
    """
    b, c = _check_conjecture(conjecture)
    s = params.mu + c
    denom = params.tau2 + s * s
    if denom == 0.0:
        raise SingularDenominator("tau2 + (mu + c)^2 = 0; bias is undefined")
    g = params.tau2 / denom
    return BiasLine(coef_theta=g, coef_const=-g * (c * params.y_target + b) + 0.0)


def mz_line(conjecture: LinearRule, params: ModelParams) -> MZLine:
    """Population regression line of outcome on the optimal forecast:

        E[y | f*] = -tau2 * (c*y_target + b) / (c*(mu+c))  +  (tau2 + c*(mu+c)) / (c*(mu+c)) * f*

    The slope exceeds one whenever c*(mu+c) > 0 and tau2 > 0; a researcher
    regressing outcomes on these forecasts would call them inefficient even
    though they minimize MSE.
    """
    b, c = _check_conjecture(conjecture)
    s = params.mu + c
    if s == 0.0:
        raise SingularMZ("mu + c = 0; the regression of outcome on forecast is undefined")
    cs = c * s
    return MZLine(
        intercept=-params.tau2 * (c * params.y_target + b) / cs + 0.0,
        slope=(params.tau2 + cs) / cs,
    )


def _equilibrium_coefficients(
    mu: float, tau2: float, y_target: float
) -> tuple[float, float, float]:
    """(g, intercept, slope) at the first self-confirming rule, as plain
    floats: g is the bias line's coefficient on theta, and intercept and
    slope are the MZ line's. With root 1's s and wedge from ``_root``,

        g          = tau2 / s
        intercept  = tau2 / (tau2 - wedge) * y_target
        slope      = wedge / (wedge - tau2)

    Raises NoEquilibrium or DegenerateEquilibrium on ``_root``'s verdict.
    The arguments are taken as already checked and the results are not
    checked: ``equilibrium_bias_and_mz`` wraps them in validated lines, and
    sweep, which calls this once per grid point, checks the MZ pair.
    """
    root = _root(mu, tau2, 1)
    if root is None:
        raise NoEquilibrium("tau2 > 1/4: no self-confirming rule exists")
    _, s, wedge, degenerate = root
    if degenerate:
        raise DegenerateEquilibrium(
            "first equilibrium root has slope zero; its MZ line is undefined"
        )
    return (
        tau2 / s,
        tau2 / (tau2 - wedge) * y_target + 0.0,
        wedge / (wedge - tau2) + 0.0,
    )


def equilibrium_bias_and_mz(params: ModelParams) -> tuple[BiasLine, MZLine]:
    """Bias and MZ lines evaluated at the first self-confirming rule: the
    coefficients of ``_equilibrium_coefficients``, which holds their closed
    forms, wrapped in checked lines.

    At mu = 1 the MZ slope is exactly 0 and the intercept exactly y_target:
    the forecast absorbs the feedback completely and the outcome stops
    responding to it. Lines for the second root follow from ``bias_line`` /
    ``mz_line`` applied to ``solve_equilibria(params).rule(2)``.
    """
    g, intercept, slope = _equilibrium_coefficients(params.mu, params.tau2, params.y_target)
    bias = BiasLine(coef_theta=g + 0.0, coef_const=-g * params.y_target + 0.0)
    return bias, MZLine(intercept=intercept, slope=slope)


def mse_decomposition(
    forecast: float, theta: float, conjecture: LinearRule, params: ModelParams
) -> MseSplit:
    """Split the conditional MSE of announcing ``forecast`` in state ``theta``.

    With adj = y_target - (forecast - b)/c (the gap the DM perceives),

        variance_term = tau2 * adj**2 + sigma2
        bias_sq_term  = (theta + mu * adj - forecast)**2

    The first term is noise the forecast injects through the uncertain
    reaction; the second is systematic error. Minimizing the sum, not the
    bias alone, is what tilts the optimal rule.
    """
    b, c = _check_conjecture(conjecture)
    forecast = _require_finite("forecast", forecast)
    theta = _require_finite("theta", theta)
    adj = (c * params.y_target - forecast + b) / c
    bias = theta + params.mu * adj - forecast
    return MseSplit(
        variance_term=params.tau2 * adj * adj + params.sigma2,
        bias_sq_term=bias * bias,
    )


def conditional_bias_and_mz(
    assumed_action: float, conjecture: LinearRule, params: ModelParams
) -> tuple[BiasLine, MZLine]:
    """Bias and MZ lines when the published forecast is theta + a0, with
    a0 = ``assumed_action``, but the DM still reacts through ``conjecture``.

        E[y - f | theta] = mu*(y_target + b/c) - (mu+c)/c * a0 - (mu/c) * theta
        E[y | f]         = mu*(y_target + b/c) - a0 + (c - mu)/c * f

    The MZ slope (c - mu)/c no longer depends on tau2: conditioning on the
    action removes reaction risk but leaves the inversion distortion.
    """
    b, c = _check_conjecture(conjecture)
    a0 = _require_finite("assumed_action", assumed_action)
    s = params.mu + c
    level = params.mu * (c * params.y_target + b) / c
    bias = BiasLine(
        coef_theta=-params.mu / c,
        coef_const=level - s * a0 / c,
    )
    mz = MZLine(intercept=level - a0, slope=(c - params.mu) / c)
    return bias, mz


def _prefers_first(f0, f1, a0, a1, t, y_target):
    """Whether a DM with action cost ``t`` takes menu action ``a0``, announced
    with conditional forecast ``f0``, over ``a1`` with ``f1``: true when
    (f0 - y_target)**2 + t * a0**2 <= (f1 - y_target)**2 + t * a1**2, so ties
    go to ``a0``. ``f0``, ``f1`` and ``t`` may be numpy arrays, one entry per
    DM.

    The arithmetic is plain products, never float ``**``. An action near the
    float limit squares to inf, which still orders the two costs
    (inf <= -inf is false: the cheap action wins). On a symmetric menu the
    cost gap is exactly 0, so t = inf (a draw at the subnormal floor) keeps
    the tie instead of making inf * 0 = nan. Where overflow leaves a side
    nan (inf - inf), the comparison is false both ways: this call and the one
    with the actions swapped both return false.
    """
    d0 = f0 - y_target
    d1 = f1 - y_target
    gap = a1 * a1 - a0 * a0
    return d0 * d0 - d1 * d1 <= (t * gap if gap != 0.0 else 0.0)


def constrained_dm_choice(
    f0: float,
    f1: float,
    menu: tuple[float, float],
    t_cost: float,
    params: ModelParams,
) -> int:
    """Index (0 or 1) of the action in the two-action ``menu`` that a DM with
    quadratic action cost ``t_cost`` prefers, given the conditional forecast
    announced for each. ``t_cost`` must exceed -1, so the DM problem stays
    convex.

    The DM compares (f_i - y_target)**2 + t * a_i**2 and takes action 0 on
    ties. Raises ValueError when both costs overflow the float range, so
    neither can be ranked.
    """
    f0 = _require_finite("f0", f0)
    f1 = _require_finite("f1", f1)
    a0, a1 = menu = _require_menu(menu)
    t = _require_t_cost(t_cost)
    y = params.y_target
    if _prefers_first(f0, f1, a0, a1, t, y):
        return 0
    if _prefers_first(f1, f0, a1, a0, t, y):
        return 1
    raise ValueError(
        f"the DM's costs overflow at f0 = {f0!r}, f1 = {f1!r} with menu {menu}; "
        "neither action can be ranked"
    )
