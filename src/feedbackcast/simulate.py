"""Monte Carlo engine that plays the feedback game end to end.

Draws (theta, x, eps) from explicit specs, forms forecasts under a scenario's
rule, applies the DM reaction, realizes outcomes, and summarizes the sample
(OLS of outcome on forecast, OLS of error on state, MSE split). Sample
statistics exist to be compared against the closed forms in
:mod:`feedbackcast.model`; the engine never substitutes a formula where the
game can be played.

Determinism: every run derives three independent substreams (theta, x, eps)
from its single seed via ``numpy.random.SeedSequence.spawn``, so identical
(run, seed) reproduce bit-identical records no matter what else has been
sampled in the process.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import _numpy as np

from . import kernels
from .errors import (
    InsufficientData,
    MomentMatchInfeasible,
    ZeroVariance,
    _check_conjecture,
    _require_finite,
    _require_int,
    _require_menu,
    _require_nonnegative,
    _require_pair,
    _require_positive,
    _require_root_index,
)
from .model import (
    TAYLOR_RULE,
    BiasLine,
    LinearRule,
    ModelParams,
    MZLine,
    optimal_forecast,
    solve_equilibria,
)

__all__ = [
    "SCENARIOS",
    "FAMILIES",
    "PolicyShockSpec",
    "StateNoiseSpec",
    "SimulationRun",
    "SimulationSummary",
    "SimulationOutput",
    "MzFit",
    "BiasFit",
    "BestResponseTrace",
    "sample_policy_shock",
    "play_game",
    "ols_mz",
    "best_response_iteration",
]

SCENARIOS = (
    "conjecture_rule",
    "equilibrium",
    "taylor_rule",
    "conditional",
    "constrained_menu",
)

FAMILIES = ("beta_scaled", "truncated_normal", "degenerate")


@dataclass(frozen=True)
class PolicyShockSpec:
    """Distribution of the DM's reaction strength x, matched to (mean, var).

    Families: ``beta_scaled`` (Beta rescaled to a bounded support, default
    (0, 1)), ``truncated_normal`` (normal truncated to [lo, hi), default
    (0, inf), parent parameters solved numerically), and ``degenerate``
    (point mass, requires zero variance, default support (0, inf)). After
    construction ``support`` always holds the bounds, the family's default
    when none was given, so a spec given its default support equals one
    given none. Draws are strictly positive in all families, as the game
    requires.

    Feasibility is checked here, so an infeasible pair never reaches
    sampling: after the support checks, the spec builds its sampler once,
    and building it is the verdict. The sampler solves the Beta shapes for
    beta_scaled (after rescaling the support to (0, 1), the variance must
    stay below m(1 - m)) and searches the parent for truncated_normal; a
    play builds it again, so the spec holds no sampler.
    """

    family: str
    target_mean: float
    target_var: float
    support: tuple[float, float] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        object.__setattr__(self, "target_mean", _require_positive("target_mean", self.target_mean))
        tv = _require_nonnegative("target_var", self.target_var)
        object.__setattr__(self, "target_var", tv)
        support = self.support
        if support is None:
            support = (0.0, 1.0) if self.family == "beta_scaled" else (0.0, math.inf)
        object.__setattr__(self, "support", _require_pair("support", support))

        if self.family == "degenerate":
            if tv != 0.0:
                raise ValueError("degenerate family requires target_var = 0")
        elif tv == 0.0:
            raise ValueError(
                f"{self.family} requires target_var > 0; use the degenerate family"
            )
        lo, hi = self.support
        _require_nonnegative("support lower bound", lo)
        if self.family == "beta_scaled" and not math.isfinite(hi):
            raise ValueError("beta_scaled requires a finite upper bound")
        if not (lo < self.target_mean < hi):
            raise ValueError(
                f"target_mean {self.target_mean} outside support ({lo}, {hi})"
            )
        _shock_sampler(self)


def _beta_shape(mean: float, var: float, lo: float, hi: float) -> tuple[float, float]:
    """Shapes (a, b) of the Beta on (lo, hi) with the given mean and variance.

    The one feasibility verdict for beta_scaled, reached through
    ``_shock_sampler``: after rescaling to (0, 1) the variance v must lie
    in (0, m(1 - m)), and both shapes must come out positive and finite.
    """
    width = hi - lo
    m = (mean - lo) / width
    v = var / (width * width)
    spread = m * (1.0 - m)
    a = b = math.nan
    if 0.0 < v < spread:
        nu = spread / v - 1.0
        a, b = m * nu, (1.0 - m) * nu
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise MomentMatchInfeasible(
            f"no Beta on ({lo}, {hi}) has mean {mean} and variance {var}"
        )
    return a, b


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _truncnorm_moments(m: float, s: float, lo: float, hi: float) -> tuple[float, float]:
    # scipy is imported where the truncated normal needs it, so importing the
    # package (and every other family) does not pay for it
    from scipy import special

    alpha = (lo - m) / s
    beta = (hi - m) / s
    pa = float(special.ndtr(alpha))
    pb = float(special.ndtr(beta))  # 1 at hi = inf
    z = pb - pa
    if z <= 0.0:
        return math.nan, math.nan
    phi_a = _phi(alpha)
    phi_b = _phi(beta)
    # phi_b is 0 at hi = inf, where beta * phi_b would be nan
    tb = beta * phi_b if phi_b else 0.0
    ratio = (phi_a - phi_b) / z
    mean = m + s * ratio
    var = s * s * (1.0 + (alpha * phi_a - tb) / z - ratio * ratio)
    return mean, var


def _truncnorm_parent(
    mean: float, var: float, lo: float, hi: float
) -> tuple[float, float]:
    """Parent (m, s) of the truncated normal matching (mean, var) on [lo, hi).

    The one feasibility verdict for truncated_normal, reached through
    ``_shock_sampler``. A pair at or past the Bhatia-Davis bound
    (mean - lo)(hi - mean), which no distribution on (lo, hi) reaches (on
    the half-line, the CV < 1 limit (mean - lo)**2), is rejected before the
    search. A root of the search is accepted only when
    its mean and its variance are each within 1e-9 of their own target
    (relative where the target exceeds 1).
    """
    above = mean - lo
    cap = above * (hi - mean) if math.isfinite(hi) else above * above
    if var >= cap:
        raise MomentMatchInfeasible(
            f"target_var {var} not attainable on ({lo}, {hi}) "
            f"with mean {mean} (bound {cap:.6g})"
        )
    from scipy import optimize

    sd = math.sqrt(var)

    def residual(p):
        # Python floats, so a far-off iterate overflows to inf without a warning
        m, log_s = map(float, p)
        mo, vo = _truncnorm_moments(m, math.exp(log_s), lo, hi)
        if not (math.isfinite(mo) and math.isfinite(vo)):
            return [1e6, 1e6]
        return [mo - mean, vo - var]

    starts = [
        (mean, math.log(sd)),
        (mean - sd, math.log(sd)),
        (mean + sd, math.log(sd)),
        (mean, math.log(sd) - math.log(2.0)),
        (mean, math.log(sd) + math.log(2.0)),
    ]
    for x0 in starts:
        sol = optimize.root(residual, x0, method="hybr")
        if sol.success:
            res = residual(sol.x)
            # each moment to its own scale, so a variance far above the
            # mean cannot excuse a mean that is off
            if abs(res[0]) < 1e-9 * max(1.0, mean) and abs(res[1]) < 1e-9 * max(1.0, var):
                return float(sol.x[0]), float(math.exp(sol.x[1]))
    raise MomentMatchInfeasible(
        f"truncated normal on ({lo}, {hi}) cannot match mean {mean}, var {var}"
    )


def _require_match(what: str, got: float, field: str, want: float) -> None:
    """Reject an input ``got`` that is not, within 1e-9 relative, the
    ``params.<field>`` value ``want`` the forecaster optimizes against."""
    if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(f"{what} {got} does not match params.{field} {want}")


def _require_matching_shock(shock: PolicyShockSpec, params: ModelParams) -> None:
    """Reject a reaction distribution whose (mean, var) is not (mu, tau2)."""
    _require_match("shock mean", shock.target_mean, "mu", params.mu)
    _require_match("shock variance", shock.target_var, "tau2", params.tau2)


def sample_policy_shock(spec: PolicyShockSpec, n: int, seed) -> np.ndarray:
    """Draw ``n`` strictly positive reaction strengths from ``spec``.

    ``seed`` may be an integer or a ``numpy.random.SeedSequence``.
    """
    n = _require_int("n", n, 1)
    return _shock_sampler(spec)(np.random.default_rng(seed), np.empty(n))


def _shock_sampler(spec: PolicyShockSpec):
    """A function ``(rng, out)`` filling the array ``out`` with reaction
    strengths drawn from ``spec`` and returning it, with the Beta shapes or
    the truncated-normal parent solved once. The only code that solves them,
    so building the sampler is the spec's feasibility verdict: an infeasible
    pair raises ``MomentMatchInfeasible`` here. Each draw depends only on its
    place in ``rng``'s stream, so draws taken in blocks equal the draws of
    one call. The draws are scaled in ``out``, with the operations of
    ``lo + (hi - lo) * u`` in the same order, so they round alike without
    the temporaries."""
    if spec.family == "degenerate":

        def fill(rng, out):
            out.fill(spec.target_mean)
            return out

        return fill
    lo, hi = spec.support
    # on the half-line, cap is the largest float, past every draw
    floor, cap = np.nextafter(lo, hi), np.nextafter(hi, lo)
    if spec.family == "beta_scaled":
        a, b = _beta_shape(spec.target_mean, spec.target_var, lo, hi)

        def draw_beta(rng, out):
            np.multiply(rng.beta(a, b, out.shape[0]), hi - lo, out=out)
            out += lo
            return np.clip(out, floor, cap, out=out)

        return draw_beta
    from scipy import special

    m, s = _truncnorm_parent(spec.target_mean, spec.target_var, lo, hi)
    p_lo = float(special.ndtr((lo - m) / s))
    p_hi = float(special.ndtr((hi - m) / s))
    p_floor, p_cap = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)

    def draw(rng, out):
        p = rng.random(out=out)
        p *= p_hi - p_lo
        p += p_lo
        np.clip(p, p_floor, p_cap, out=p)
        x = special.ndtri(p, out=p)
        x *= s
        x += m
        return np.clip(x, floor, cap, out=x)

    return draw


@dataclass(frozen=True)
class StateNoiseSpec:
    """Distributions of the state theta ~ Normal(theta_mean, theta_var) and
    the outcome noise eps ~ Normal(0, noise_var); theta, eps, and x are drawn
    mutually independently."""

    theta_mean: float = 0.0
    theta_var: float = 1.0
    noise_var: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "theta_mean", _require_finite("theta_mean", self.theta_mean))
        object.__setattr__(self, "theta_var", _require_nonnegative("theta_var", self.theta_var))
        object.__setattr__(self, "noise_var", _require_positive("noise_var", self.noise_var))


@dataclass(frozen=True)
class SimulationRun:
    """What to play and how many times.

    Scenarios:

    conjecture_rule
        Forecaster best-responds to ``conjecture``; DM reacts through it.
    equilibrium
        Self-confirming rule (root ``equilibrium_index``, default 1, the
        first self-confirming rule) on both sides.
    taylor_rule
        DM conjectures f = theta (b=0, c=1); forecaster best-responds.
    conditional
        Published forecast is theta + assumed_action. With
        ``dm_applies_assumed`` the DM carries out that action; otherwise the
        DM reacts through ``conjecture`` as usual.
    constrained_menu
        Forecaster announces theta + a for both menu actions; each DM picks
        the cheaper one under its own cost t = 1/x - 1 and the recorded
        forecast is the one matching the chosen action.

    A field the scenario does not use must stay unset, so a run is never
    quietly a different game from the one asked for.
    """

    draw_count: int
    seed: int
    scenario: str
    conjecture: LinearRule | None = None
    equilibrium_index: int | None = None
    assumed_action: float | None = None
    dm_applies_assumed: bool = False
    menu: tuple[float, float] | None = None

    def __post_init__(self):
        count = _require_int("draw_count", self.draw_count, 1, InsufficientData)
        object.__setattr__(self, "draw_count", count)
        object.__setattr__(self, "seed", _require_int("seed", self.seed, 0))
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")

        conditional = self.scenario == "conditional"
        needs_conjecture = self.scenario == "conjecture_rule" or (
            conditional and not self.dm_applies_assumed
        )
        fields = {
            "conjecture": (self.conjecture is not None, needs_conjecture),
            "assumed_action": (self.assumed_action is not None, conditional),
            "dm_applies_assumed": (self.dm_applies_assumed, conditional),
            "menu": (self.menu is not None, self.scenario == "constrained_menu"),
            "equilibrium_index": (
                self.equilibrium_index is not None, self.scenario == "equilibrium"
            ),
        }
        for name, (given, used) in fields.items():
            if given and not used:
                raise ValueError(
                    f"scenario {self.scenario!r} does not use {name}, but it was set"
                )
        for name in ("conjecture", "assumed_action", "menu"):
            given, used = fields[name]
            if used and not given:
                raise ValueError(f"scenario {self.scenario!r} requires {name}")
        if needs_conjecture:
            _check_conjecture(self.conjecture)
        if self.equilibrium_index is not None:
            index = _require_root_index("equilibrium_index", self.equilibrium_index)
            object.__setattr__(self, "equilibrium_index", index)
        if conditional:
            action = _require_finite("assumed_action", self.assumed_action)
            object.__setattr__(self, "assumed_action", action)
        if self.menu is not None:
            object.__setattr__(self, "menu", _require_menu(self.menu))


class MzFit(NamedTuple):
    """Sample regression of outcome on forecast."""

    line: MZLine
    stderrs: tuple[float, float]
    r_squared: float


class BiasFit(NamedTuple):
    """Sample regression of forecast error on the state."""

    line: BiasLine
    stderrs: tuple[float, float]
    r_squared: float


@dataclass(frozen=True)
class SimulationSummary:
    draw_count: int
    mean_error: float
    mse: float
    variance_component: float
    bias_sq_component: float
    mz: MzFit | None
    bias_fit: BiasFit | None


@dataclass
class SimulationOutput:
    """Per-draw records plus their summary; records fully determine the
    summary (nothing is computed that could not be recomputed from them)."""

    theta: np.ndarray
    x: np.ndarray
    forecast: np.ndarray
    action: np.ndarray
    outcome: np.ndarray
    error: np.ndarray
    summary: SimulationSummary
    run: SimulationRun


class _FitSums(NamedTuple):
    """Count, means, centred sums and least-squares line of y on x of a
    sample of (x, y) pairs, as ``kernels._window_sums`` forms them
    (one-element arrays): enough to report the fit, and to merge with the
    sums of another sample."""

    n: int
    xb: np.ndarray
    yb: np.ndarray
    sxx: np.ndarray
    sxy: np.ndarray
    syy: np.ndarray
    ssr: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray

    @classmethod
    def of(cls, xs: np.ndarray, ys: np.ndarray) -> _FitSums:
        n = xs.shape[0]
        a_buf, b_buf = np.empty((1, n)), np.empty((1, n))
        with kernels._float_range("the fit's sums"):
            return cls(n, *kernels._window_sums(xs[None], ys[None], a_buf, b_buf))

    def merge(self, other: _FitSums) -> _FitSums:
        """The sums of both samples, by the pairwise update of Chan, Golub
        and LeVeque (1979). The residual sum is taken about the merged line
        as a sum of nonnegative terms, never as syy - slope * sxy; a sample
        with sxx = 0 adds its syy (the ssr ``_window_sums`` gives it)."""
        n = self.n + other.n
        w = self.n * other.n / n
        with kernels._float_range("the fit's sums"):
            dx = other.xb - self.xb
            dy = other.yb - self.yb
            xb = self.xb + dx * (other.n / n)
            yb = self.yb + dy * (other.n / n)
            sxx = self.sxx + other.sxx + w * dx * dx
            sxy = self.sxy + other.sxy + w * dx * dy
            slope = kernels._slope(sxy, sxx)
            ssr = (
                self.ssr + other.ssr
                + self.sxx * (self.slope - slope) ** 2
                + other.sxx * (other.slope - slope) ** 2
                + w * (dy - slope * dx) ** 2
            )
            syy = self.syy + other.syy + w * dy * dy
            return _FitSums(n, xb, yb, sxx, sxy, syy, ssr, slope, yb - slope * xb)

    def fit(self) -> tuple[float, float, float, float, float]:
        """(intercept, slope, intercept_se, slope_se, r_squared); raises
        InsufficientData below 3 points and ZeroVariance where the xs have
        no spread (all equal, or sxx = 0)."""
        if self.n < 3:
            raise InsufficientData(f"need at least 3 observations, got {self.n}")
        with kernels._float_range("the fit's sums"):
            *values, flat = kernels._fit_columns(self.n, *self[1:])
        if flat[0]:
            raise ZeroVariance("regressor is constant; OLS line is undefined")
        return tuple(float(v[0]) for v in values)


def ols_mz(forecasts, outcomes) -> MzFit:
    """Least-squares line of outcomes on forecasts with classical standard
    errors; the full-sample case of the rolling fit (same arithmetic, so the
    two agree exactly when the window spans the sample). Raises ValueError
    where the fit's sums leave the float range."""
    xs = np.ascontiguousarray(forecasts, dtype=np.float64)
    ys = np.ascontiguousarray(outcomes, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("inputs must be 1-D arrays of equal length")
    if xs.shape[0] < 3:
        # checked before the sums too, which an empty sample cannot form
        raise InsufficientData(f"need at least 3 observations, got {xs.shape[0]}")
    return _mz_fit(*_FitSums.of(xs, ys).fit())


def _mz_fit(intercept, slope, intercept_se, slope_se, r_squared) -> MzFit:
    return MzFit(MZLine(intercept=intercept, slope=slope), (intercept_se, slope_se), r_squared)


class _GameSums(NamedTuple):
    """What a block of plays adds to the summary: the sums of the MZ fit
    (outcome on forecast) and of the bias fit (error on theta), whose y side
    holds the error mean and centred square sum, and the sum of squared
    errors."""

    mz: _FitSums
    bias: _FitSums
    sq: np.ndarray

    @classmethod
    def of(cls, theta, forecast, outcome, error) -> _GameSums:
        # summed first, under the game's guard, so an error whose square
        # overflows is reported as the game's value, before any fit's sums
        sq = np.sum(error * error)
        return cls(_FitSums.of(forecast, outcome), _FitSums.of(theta, error), sq)

    def merge(self, other: _GameSums) -> _GameSums:
        with kernels._float_range("the game's values"):
            sq = self.sq + other.sq
        return _GameSums(self.mz.merge(other.mz), self.bias.merge(other.bias), sq)

    def summary(self) -> SimulationSummary:
        n, mean_error = self.bias.n, float(self.bias.yb[0])
        mz = bias_fit = None
        with contextlib.suppress(InsufficientData, ZeroVariance):
            mz = _mz_fit(*self.mz.fit())
        with contextlib.suppress(InsufficientData, ZeroVariance):
            intercept, slope, i_se, s_se, r2 = self.bias.fit()
            bias_fit = BiasFit(BiasLine(coef_theta=slope, coef_const=intercept), (i_se, s_se), r2)
        return SimulationSummary(
            draw_count=n,
            mean_error=mean_error,
            mse=float(self.sq / n),
            variance_component=float(self.bias.syy[0] / n),
            bias_sq_component=mean_error * mean_error,
            mz=mz,
            bias_fit=bias_fit,
        )


def _reaction(run: SimulationRun, params: ModelParams):
    """The play of ``run``'s scenario, as a function (theta, x, eps) ->
    (forecast, action, outcome, error), with its rule solved once."""
    y_target = params.y_target
    if run.scenario == "constrained_menu":
        a0, a1 = run.menu
        return lambda theta, x, eps: kernels.menu_play(theta, x, eps, a0, a1, y_target)
    if run.dm_applies_assumed:  # only ever set under "conditional"
        a0 = run.assumed_action

        def applied(theta, x, eps):
            forecast = theta + a0
            outcome = forecast + eps
            return forecast, np.full(theta.shape[0], float(a0)), outcome, outcome - forecast

        return applied
    # the published rule and the conjecture the DM reads it through
    if run.scenario == "equilibrium":
        rule = cj = solve_equilibria(params).rule(run.equilibrium_index or 1)
    elif run.scenario == "conditional":
        rule, cj = LinearRule(run.assumed_action, 1.0), run.conjecture
    else:
        cj = TAYLOR_RULE if run.scenario == "taylor_rule" else run.conjecture
        rule = optimal_forecast(cj, params)
    return lambda theta, x, eps: kernels.react_play(
        theta, x, eps, rule.intercept, rule.slope, cj.intercept, cj.slope, y_target
    )


# rows of the game played and summed at a time, by ``play_game`` and by the
# ``simulate`` command, which also writes them a block at a time
_PLAY_ROWS = 1 << 16


def _fill_normal(rng, sd, out):
    """``rng.normal(0.0, sd, len(out))``, drawn into ``out``: the same
    standard normals, scaled as ``normal`` forms 0 + sd * z."""
    rng.standard_normal(out=out)
    out *= sd
    out += 0.0
    return out


def _player(
    run: SimulationRun,
    shock: PolicyShockSpec,
    sn: StateNoiseSpec,
    params: ModelParams,
):
    """Check the inputs and solve the rule and the shock's shape for ``run``,
    then return ``play``.

    ``play(emit)`` plays ``run`` in blocks of at most ``_PLAY_ROWS`` rounds,
    passes each block's (theta, x, forecast, action, outcome, error) to
    ``emit`` in order, and returns the summary of the whole run, merged from
    the blocks' ``_GameSums``. The three streams are drawn in order across
    blocks, so every block size gives the same rows; each block is played
    and summed under the float-range guard.

    With more than one block and more than one usable CPU, one helper thread
    draws the next block's x and eps while the calling thread draws theta,
    plays, sums and emits the block before it. Each stream is drawn by one
    thread at a time, in block order, so the rows do not depend on the
    helper. An error in the helper is raised by ``play`` unless the calling
    thread raised its own, and ``play`` joins its helper before it returns
    or raises.
    """
    _require_matching_shock(shock, params)
    _require_match("noise variance", sn.noise_var, "sigma2", params.sigma2)
    draw_x = _shock_sampler(shock)
    # numpy raises where the play leaves the float range, rather than
    # warning and handing on inf or nan; the fits raise their own error
    with kernels._float_range("the game's values"):
        react = _reaction(run, params)
    rng_theta, rng_x, rng_eps = map(
        np.random.default_rng, np.random.SeedSequence(run.seed).spawn(3)
    )
    sd_theta, sd_eps = math.sqrt(sn.theta_var), math.sqrt(sn.noise_var)
    n = run.draw_count
    sizes = [min(_PLAY_ROWS, n - start) for start in range(0, n, _PLAY_ROWS)]
    ahead = len(sizes) > 1 and kernels._usable_cpus() > 1

    def draw_rest(x, eps):
        # the helper's work when there is one: only the sampler closure and
        # the generators
        return draw_x(rng_x, x), _fill_normal(rng_eps, sd_eps, eps)

    def ahead_of(k):
        # the arrays come from the calling thread, so the helper's own
        # allocator arena keeps no block resident
        return kernels._Helper(draw_rest, np.empty(k), np.empty(k))

    def play(emit) -> SimulationSummary:
        pending = ahead_of(sizes[0]) if ahead else None
        total = None
        try:
            for i, k in enumerate(sizes):
                theta = rng_theta.normal(sn.theta_mean, sd_theta, k)
                if pending is None:
                    x, eps = draw_rest(np.empty(k), np.empty(k))
                else:
                    x, eps = pending.result()
                    if i + 1 < len(sizes):
                        pending = ahead_of(sizes[i + 1])
                with kernels._float_range("the game's values"):
                    forecast, action, outcome, error = react(theta, x, eps)
                    sums = _GameSums.of(theta, forecast, outcome, error)
                emit((theta, x, forecast, action, outcome, error))
                total = sums if total is None else total.merge(sums)
        finally:
            if pending is not None:
                pending.join()
        return total.summary()

    return play


def play_game(
    run: SimulationRun,
    shock: PolicyShockSpec,
    sn: StateNoiseSpec,
    params: ModelParams,
) -> SimulationOutput:
    """Play ``run.draw_count`` independent rounds of the game.

    The shock spec must target the same (mu, tau2) the forecaster optimizes
    against, and the state spec's noise variance must be params.sigma2; a
    mismatch would silently decouple the game played from the model being
    verified, so it is rejected.

    The rounds are played in ``_PLAY_ROWS``-row blocks, as ``simulate``
    plays them, into six record arrays allocated once, and the summary
    merges the blocks' sums as ``simulate`` does, so the two agree bit for
    bit at every ``draw_count``.
    """
    play = _player(run, shock, sn, params)
    records = tuple(np.empty(run.draw_count) for _ in range(6))
    start = 0

    def copy(columns):
        nonlocal start
        stop = start + columns[0].shape[0]
        for record, column in zip(records, columns):
            record[start:stop] = column
        start = stop

    summary = play(copy)
    return SimulationOutput(*records, summary=summary, run=run)


@dataclass
class BestResponseTrace:
    """Iterates of repeated best-responding, excluding the starting rule."""

    start: LinearRule
    rules: list[LinearRule]
    residuals: list[float]
    # "fixed_point" | "attenuated" | "zero_slope" | "diverged" | "max_iter"
    status: str

    @property
    def converged(self) -> bool:
        return self.status == "fixed_point"


def _listed_root(rule: LinearRule, params: ModelParams, tol: float) -> bool:
    """Whether ``rule`` is, within sqrt(tol) relative, a self-confirming
    rule that ``solve_equilibria`` lists."""
    eps = math.sqrt(tol)
    return any(
        not root.degenerate
        and math.isclose(rule.intercept, root.intercept, rel_tol=eps, abs_tol=eps)
        and math.isclose(rule.slope, root.slope, rel_tol=eps, abs_tol=eps)
        for root in solve_equilibria(params).roots
    )


def best_response_iteration(
    start: LinearRule,
    params: ModelParams,
    max_iter: int = 100,
    tol: float = 1e-12,
) -> BestResponseTrace:
    """Repeatedly apply the optimal-forecast map and record the iterates.

    Diagnostic only: convergence toward the first self-confirming rule is an
    empirical observation, not a guarantee. Stops where a step moves the
    rule by less than ``tol`` (sup norm; ``tol`` must be positive and
    finite): at a "fixed_point" when the rule is one ``solve_equilibria``
    lists (within sqrt(tol) relative), and otherwise "attenuated", the flat
    limit the slope shrinks to (slope near zero, the intercept where the
    path left it), which no self-confirming rule matches. Also stops at a
    zero-slope iterate (the next application would be undefined), before an
    iterate past the float range ("diverged"; the trace keeps the finite
    ones), or after ``max_iter`` steps. Only "fixed_point" counts as
    converged.
    """
    max_iter = _require_int("max_iter", max_iter, 1)
    tol = _require_positive("tol", tol)
    rules: list[LinearRule] = []
    residuals: list[float] = []
    status = "max_iter"
    current = start
    for _ in range(max_iter):
        try:
            nxt = optimal_forecast(current, params)
        except ValueError:  # LinearRule rejects a coefficient past the float range
            status = "diverged"
            break
        resid = max(
            abs(nxt.intercept - current.intercept), abs(nxt.slope - current.slope)
        )
        rules.append(nxt)
        residuals.append(resid)
        if resid < tol:
            status = "fixed_point" if _listed_root(nxt, params, tol) else "attenuated"
            break
        if nxt.slope == 0.0:
            status = "zero_slope"
            break
        current = nxt
    return BestResponseTrace(start=start, rules=rules, residuals=residuals, status=status)
