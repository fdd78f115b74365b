"""One table of malformed arguments over every public constructor and entry
point.

Each per-argument rule (finite, integer count, exactly two values, an
invertible conjecture, t_cost > -1) has one implementation in
``feedbackcast.errors``; this table checks that every caller applies it. A
bad value raises ValueError or a FeedbackcastError whose message names the
argument: never OverflowError, ZeroDivisionError or TypeError, and never a
silently truncated or repaired value.
"""

import math

import numpy as np
import pytest

from feedbackcast.errors import DegenerateConjecture, FeedbackcastError
from feedbackcast.evaluate import ForecastSeries, rolling_mz
from feedbackcast.model import (
    TAYLOR_RULE,
    BiasLine,
    LinearRule,
    ModelParams,
    MZLine,
    bias_line,
    conditional_bias_and_mz,
    constrained_dm_choice,
    mse_decomposition,
    mz_line,
    optimal_forecast,
    solve_equilibria,
)
from feedbackcast.oracle import (
    OracleConfig,
    exact_mse_minimizer,
    mc_mse_minimizer,
)
from feedbackcast.simulate import (
    PolicyShockSpec,
    SimulationRun,
    StateNoiseSpec,
    best_response_iteration,
    sample_policy_shock,
)

P = ModelParams(mu=0.5, tau2=0.1)
SHOCK = PolicyShockSpec(family="beta_scaled", target_mean=0.5, target_var=0.1)
CFG = OracleConfig(sample_count=10_000)
FLAT = LinearRule(1.0, 0.0)
_rng = np.random.default_rng(0)
SERIES = ForecastSeries(
    periods=tuple(f"p{i:02d}" for i in range(10)),
    forecast=_rng.normal(2.0, 1.0, 10),
    realization=_rng.normal(2.0, 1.0, 10),
)


def _run(**kwargs):
    return SimulationRun(**{"draw_count": 10, "seed": 0, "scenario": "taylor_rule", **kwargs})


def _menu_run(menu):
    return _run(scenario="constrained_menu", menu=menu)


# (argument name, call with the value in that argument's place)
FLOAT_ARGS = [
    ("mu", lambda v: ModelParams(mu=v, tau2=0.1)),
    ("tau2", lambda v: ModelParams(mu=0.5, tau2=v)),
    ("sigma2", lambda v: ModelParams(mu=0.5, tau2=0.1, sigma2=v)),
    ("y_target", lambda v: ModelParams(mu=0.5, tau2=0.1, y_target=v)),
    ("intercept", lambda v: LinearRule(v, 1.0)),
    ("slope", lambda v: LinearRule(0.0, v)),
    ("intercept", lambda v: MZLine(v, 1.0)),
    ("slope", lambda v: MZLine(0.0, v)),
    ("coef_theta", lambda v: BiasLine(v, 0.0)),
    ("coef_const", lambda v: BiasLine(0.0, v)),
    ("assumed_action", lambda v: conditional_bias_and_mz(v, TAYLOR_RULE, P)),
    ("menu[0]", lambda v: constrained_dm_choice(0.0, 0.0, (v, 1.0), 0.5, P)),
    ("menu[1]", lambda v: constrained_dm_choice(0.0, 0.0, (0.0, v), 0.5, P)),
    ("t_cost", lambda v: constrained_dm_choice(0.0, 0.0, (0.0, 1.0), v, P)),
    ("target_mean", lambda v: PolicyShockSpec("beta_scaled", v, 0.1)),
    ("target_var", lambda v: PolicyShockSpec("beta_scaled", 0.5, v)),
    ("theta_mean", lambda v: StateNoiseSpec(theta_mean=v)),
    ("theta_var", lambda v: StateNoiseSpec(theta_var=v)),
    ("noise_var", lambda v: StateNoiseSpec(noise_var=v)),
    ("assumed_action", lambda v: _run(scenario="conditional", assumed_action=v,
                                      dm_applies_assumed=True)),
    ("menu[0]", lambda v: _menu_run((v, 1.0))),
    ("menu[1]", lambda v: _menu_run((0.0, v))),
    ("tolerance", lambda v: OracleConfig(tolerance=v)),
    ("forecast", lambda v: mse_decomposition(v, 0.0, TAYLOR_RULE, P)),
    ("theta", lambda v: mse_decomposition(0.0, v, TAYLOR_RULE, P)),
    ("f0", lambda v: constrained_dm_choice(v, 0.0, (0.0, 1.0), 0.5, P)),
    ("f1", lambda v: constrained_dm_choice(0.0, v, (0.0, 1.0), 0.5, P)),
    ("theta", lambda v: exact_mse_minimizer(v, TAYLOR_RULE, P)),
    ("theta", lambda v: mc_mse_minimizer(v, TAYLOR_RULE, P, SHOCK, CFG)),
    ("tol", lambda v: best_response_iteration(TAYLOR_RULE, P, tol=v)),
]

# arguments that must be strictly positive: zero and negatives are rejected
POSITIVE_ARGS = [
    ("mu", lambda v: ModelParams(mu=v, tau2=0.1)),
    ("sigma2", lambda v: ModelParams(mu=0.5, tau2=0.1, sigma2=v)),
    ("target_mean", lambda v: PolicyShockSpec("beta_scaled", v, 0.1)),
    ("noise_var", lambda v: StateNoiseSpec(noise_var=v)),
    ("tolerance", lambda v: OracleConfig(tolerance=v)),
    ("tol", lambda v: best_response_iteration(TAYLOR_RULE, P, tol=v)),
]

# arguments that may be zero but not negative
NONNEGATIVE_ARGS = [
    ("tau2", lambda v: ModelParams(mu=0.5, tau2=v)),
    ("target_var", lambda v: PolicyShockSpec("degenerate", 0.5, v)),
    ("theta_var", lambda v: StateNoiseSpec(theta_var=v)),
    ("support lower bound",
     lambda v: PolicyShockSpec("truncated_normal", 0.5, 0.1, support=(v, math.inf))),
]

INT_ARGS = [
    ("draw_count", lambda v: _run(draw_count=v)),
    ("seed", lambda v: _run(seed=v)),
    ("sample_count", lambda v: OracleConfig(sample_count=v)),
    ("seed", lambda v: OracleConfig(seed=v)),
    ("n", lambda v: sample_policy_shock(SHOCK, v, 0)),
    ("window", lambda v: rolling_mz(SERIES, v)),
    ("max_iter", lambda v: best_response_iteration(TAYLOR_RULE, P, max_iter=v)),
    ("equilibrium index", lambda v: solve_equilibria(P).rule(v)),
    ("equilibrium_index", lambda v: _run(scenario="equilibrium", equilibrium_index=v)),
]

# each INT_ARGS row with the least value its argument takes
INT_MINIMUMS = [
    (name, call, least)
    for (name, call), least in zip(INT_ARGS, [1, 0, 10_000, 0, 1, 3, 1, 1, 1], strict=True)
]

PAIR_ARGS = [
    ("menu", lambda v: constrained_dm_choice(0.0, 0.0, v, 0.5, P)),
    ("menu", _menu_run),
    ("support", lambda v: PolicyShockSpec("beta_scaled", 0.5, 0.1, support=v)),
    ("support", lambda v: PolicyShockSpec("truncated_normal", 0.5, 0.1, support=v)),
    ("support", lambda v: PolicyShockSpec("degenerate", 0.5, 0.0, support=v)),
]

FLAT_CONJECTURE = [
    lambda: optimal_forecast(FLAT, P),
    lambda: bias_line(FLAT, P),
    lambda: mz_line(FLAT, P),
    lambda: mse_decomposition(1.0, 0.0, FLAT, P),
    lambda: conditional_bias_and_mz(0.5, FLAT, P),
    lambda: _run(scenario="conjecture_rule", conjecture=FLAT),
    lambda: _run(scenario="conditional", assumed_action=0.5, conjecture=FLAT),
    lambda: best_response_iteration(FLAT, P),
    lambda: exact_mse_minimizer(0.0, FLAT, P),
    lambda: mc_mse_minimizer(0.0, FLAT, P, SHOCK, CFG),
]


def _rejects(call, value, name):
    with pytest.raises((ValueError, FeedbackcastError)) as exc:
        call(value)
    assert name in str(exc.value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name,call", FLOAT_ARGS)
def test_non_finite_float_is_rejected_by_name(name, call, value):
    _rejects(call, value, name)


@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["huge", "-huge"])
@pytest.mark.parametrize("name,call", FLOAT_ARGS)
def test_integer_past_the_float_range_is_rejected_by_name(name, call, value):
    _rejects(call, value, name)


@pytest.mark.parametrize("value", [0.0, -1.0])
@pytest.mark.parametrize("name,call", POSITIVE_ARGS)
def test_non_positive_value_is_rejected_by_name(name, call, value):
    _rejects(call, value, name)


@pytest.mark.parametrize("value", [-1.0, -5e-324])
@pytest.mark.parametrize("name,call", NONNEGATIVE_ARGS)
def test_negative_value_is_rejected_by_name(name, call, value):
    _rejects(call, value, name)


@pytest.mark.parametrize("name,call", NONNEGATIVE_ARGS)
def test_zero_is_accepted_where_nonnegative(name, call):
    assert call(0.0) is not None


# target_mean is left out: a mean at the subnormal floor leaves no room for
# its variance inside the support
@pytest.mark.parametrize(
    "name,call", [(name, call) for name, call in POSITIVE_ARGS if name != "target_mean"]
)
def test_smallest_positive_value_is_accepted(name, call):
    assert call(5e-324) is not None


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.5, np.float64(3.7)])
@pytest.mark.parametrize("name,call", INT_ARGS)
def test_non_integral_count_is_rejected_by_name(name, call, value):
    _rejects(call, value, name)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16, float])
@pytest.mark.parametrize("name,call", INT_ARGS)
def test_integral_count_of_any_type_is_accepted(name, call, kind):
    good = {"sample_count": 10_000, "window": 3}.get(name, 1 if "index" in name else 5)
    assert call(kind(good)) is not None


@pytest.mark.parametrize("name,call,least", INT_MINIMUMS)
def test_count_below_its_least_value_is_rejected_by_name(name, call, least):
    _rejects(call, least - 1, name)
    assert call(least) is not None


def test_integral_counts_are_stored_as_int():
    run = _run(draw_count=np.int64(7), seed=np.uint32(2))
    assert (run.draw_count, run.seed) == (7, 2)
    assert type(run.draw_count) is int and type(run.seed) is int
    cfg = OracleConfig(sample_count=np.int64(10_000), seed=3.0)
    assert type(cfg.sample_count) is int and type(cfg.seed) is int
    run = _run(scenario="equilibrium", equilibrium_index=np.uint16(2))
    assert run.equilibrium_index == 2 and type(run.equilibrium_index) is int


@pytest.mark.parametrize(
    "value",
    [(0.25, 0.75, 1.0), (0.25,), (), 0.5, np.array([0.25, 0.75, 1.0])],
    ids=["three", "one", "empty", "scalar", "array-of-three"],
)
@pytest.mark.parametrize("name,call", PAIR_ARGS)
def test_pair_needs_exactly_two_values(name, call, value):
    _rejects(call, value, name)


def test_degenerate_support_passes_the_support_rule():
    with pytest.raises(ValueError, match="support lower bound"):
        PolicyShockSpec("degenerate", 0.5, 0.0, support=(-1.0, 1.0))
    with pytest.raises(ValueError, match="outside support"):
        PolicyShockSpec("degenerate", 0.5, 0.0, support=(0.5, 0.5))
    spec = PolicyShockSpec("degenerate", 0.5, 0.0, support=(0, 1))
    assert spec.support == (0.0, 1.0)
    # the cap (mean - lo) * (hi - mean) underflows to 0 here
    tiny = PolicyShockSpec("degenerate", 1.5e-300, 0.0, support=(1e-300, 2e-300))
    assert np.array_equal(sample_policy_shock(tiny, 3, 0), [1.5e-300] * 3)


def test_half_line_cap_takes_a_large_mean():
    # the cap (mean - lo)**2 overflows to inf, which bounds nothing
    spec = PolicyShockSpec("truncated_normal", 1e200, 1.0)
    assert spec.support == (0.0, math.inf)


@pytest.mark.parametrize("call", FLAT_CONJECTURE)
def test_flat_conjecture_is_degenerate(call):
    with pytest.raises(DegenerateConjecture):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda t: constrained_dm_choice(0.0, 0.0, (0.0, 1.0), t, P),
    ],
)
def test_t_cost_must_exceed_minus_one(call):
    for t in (-1.0, -2.0):
        _rejects(call, t, "t_cost")
    assert call(-0.99) is not None
