"""Randomized invariants of the closed-form layer."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from feedbackcast.model import (
    LinearRule,
    ModelParams,
    bias_line,
    constrained_dm_choice,
    mse_decomposition,
    mz_line,
    optimal_forecast,
    solve_equilibria,
)
from feedbackcast.simulate import PolicyShockSpec

mus = st.floats(0.05, 2.0)
# exactly 0.0 too: the s = 0 root of tau2 = 0 must never be listed as a rule
tau2_eq = st.floats(1e-6, 0.249) | st.just(0.0)
tau2_any = st.floats(0.0, 0.5)
slopes = st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3)
intercepts = st.floats(-5.0, 5.0)
thetas = st.floats(-10.0, 10.0)
targets = st.floats(-5.0, 5.0)


@given(mu=mus, tau2=tau2_eq, y_target=targets)
def test_equilibrium_rules_are_fixed_points(mu, tau2, y_target):
    params = ModelParams(mu=mu, tau2=tau2, y_target=y_target)
    sol = solve_equilibria(params)
    assume(sol.exists)
    for root in sol.roots:
        if root.degenerate or abs(root.slope) < 1e-6:
            continue
        rule = sol.rule(root.index)
        nxt = optimal_forecast(rule, params)
        scale = 1.0 + abs(rule.intercept) + abs(rule.slope)
        assert abs(nxt.slope - rule.slope) < 1e-9 * scale
        assert abs(nxt.intercept - rule.intercept) < 1e-9 * scale


@given(mu=mus, tau2=tau2_eq, y_target=targets)
def test_equilibrium_intercept_tracks_the_target(mu, tau2, y_target):
    sol = solve_equilibria(ModelParams(mu=mu, tau2=tau2, y_target=y_target))
    assume(sol.exists)
    for root in sol.roots:
        if root.degenerate:
            continue
        assert root.intercept == pytest.approx(
            (1.0 - root.slope) * y_target, rel=1e-9, abs=1e-9
        )


@given(mu=mus, tau2=st.floats(0.251, 2.0), b=intercepts, c=slopes)
def test_best_response_attenuates_when_uncertainty_dominates(mu, tau2, b, c):
    params = ModelParams(mu=mu, tau2=tau2)
    rule = optimal_forecast(LinearRule(b, c), params)
    assert abs(rule.slope) < abs(c)


@given(
    f=st.floats(-20.0, 20.0),
    theta=thetas,
    b=intercepts,
    c=slopes,
    mu=mus,
    tau2=tau2_any,
    y_target=targets,
)
def test_decomposition_sums_to_the_expanded_quadratic(f, theta, b, c, mu, tau2, y_target):
    params = ModelParams(mu=mu, tau2=tau2, y_target=y_target)
    split = mse_decomposition(f, theta, LinearRule(b, c), params)
    adj = y_target - (f - b) / c
    gap = theta - f
    want = gap * gap + 2.0 * gap * mu * adj + (tau2 + mu * mu) * adj * adj + params.sigma2
    assert split.total == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(
    theta=thetas,
    b=intercepts,
    c=slopes,
    mu=mus,
    tau2=tau2_any,
    y_target=targets,
    delta=st.sampled_from((1e-3, 1e-2, 1e-1)),
)
def test_optimal_forecast_beats_its_neighbors(theta, b, c, mu, tau2, y_target, delta):
    params = ModelParams(mu=mu, tau2=tau2, y_target=y_target)
    conjecture = LinearRule(b, c)
    rule = optimal_forecast(conjecture, params)
    f_star = rule.intercept + rule.slope * theta
    best = mse_decomposition(f_star, theta, conjecture, params).total
    for sign in (-1.0, 1.0):
        other = mse_decomposition(f_star + sign * delta, theta, conjecture, params).total
        assert best <= other + 1e-9 * (1.0 + abs(best))


@given(b=intercepts, c=slopes, mu=mus, tau2=tau2_any, y_target=targets)
def test_mz_slope_is_one_plus_the_bias_ratio(b, c, mu, tau2, y_target):
    params = ModelParams(mu=mu, tau2=tau2, y_target=y_target)
    conjecture = LinearRule(b, c)
    rule = optimal_forecast(conjecture, params)
    assume(abs(rule.slope) > 1e-8)
    bias = bias_line(conjecture, params)
    mz = mz_line(conjecture, params)
    want = 1.0 + bias.coef_theta / rule.slope
    assert mz.slope == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(mu=st.floats(0.05, 0.95), frac=st.floats(0.01, 0.99))
def test_feasible_unit_interval_shock_implies_equilibrium(mu, frac):
    tau2 = frac * mu * (1.0 - mu)
    spec = PolicyShockSpec(family="beta_scaled", target_mean=mu, target_var=tau2)
    assert spec.support == (0.0, 1.0)
    assert solve_equilibria(ModelParams(mu=mu, tau2=tau2)).exists


@given(
    theta=thetas,
    a0=st.floats(-2.0, 2.0),
    a1=st.floats(-2.0, 2.0),
    t_cost=st.floats(-0.9, 5.0),
    y_target=targets,
)
def test_constrained_choice_minimizes_the_stated_objective(theta, a0, a1, t_cost, y_target):
    params = ModelParams(mu=0.5, tau2=0.1, y_target=y_target)
    f0 = theta + a0
    f1 = theta + a1
    idx = constrained_dm_choice(f0, f1, (a0, a1), t_cost, params)
    cost0 = (f0 - y_target) ** 2 + t_cost * a0 * a0
    cost1 = (f1 - y_target) ** 2 + t_cost * a1 * a1
    slack = 1e-9 * (1.0 + abs(cost0) + abs(cost1))
    if idx == 0:
        assert cost0 <= cost1 + slack
    else:
        assert cost1 < cost0 + slack
