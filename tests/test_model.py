"""Closed-form layer: formulas, equilibria, and their edge cases."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from feedbackcast import kernels
from feedbackcast.errors import (
    DegenerateConjecture,
    DegenerateEquilibrium,
    NoEquilibrium,
    SingularDenominator,
    SingularMZ,
)
from feedbackcast.model import (
    TAYLOR_RULE,
    LinearRule,
    ModelParams,
    MseSplit,
    bias_line,
    conditional_bias_and_mz,
    constrained_dm_choice,
    equilibrium_bias_and_mz,
    mse_decomposition,
    mz_line,
    optimal_forecast,
    solve_equilibria,
)

P_BASE = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=2.0)


def _near_zero_slope(count, seed):
    """Seeded (mu, tau2) on and up to four ulps of mu either side of the
    curve mu = (1 + sqrt(1 - 4*tau2)) / 2, where the first root's slope is
    zero, plus two points where the slope and (1 - mu)*s - tau2, equal in
    exact arithmetic, round differently."""
    rng = np.random.default_rng(seed)
    points = [(0.6989064904206899, 0.210436208068524), (0.883767940337973, 0.10272216796875)]
    for tau2 in rng.uniform(0.0, 0.25, count).tolist():
        curve = (1.0 + math.sqrt(1.0 - 4.0 * tau2)) / 2.0
        points += [(mu, tau2) for mu in _within_ulps(curve, 4)]
    return points


def _within_ulps(value, ulps):
    """``value`` and the ``ulps`` floats either side of it."""
    values = [value]
    for _ in range(ulps):
        values = [math.nextafter(values[0], 0.0), *values, math.nextafter(values[-1], math.inf)]
    return values


def _seeded_games(count, seed):
    """Seeded (mu, tau2, y_target) with mu in (0.05, 2), tau2 in (0, 1/4)
    and y_target in (-3, 3)."""
    rng = np.random.default_rng(seed)
    bounds = ((0.05, 2.0), (0.0, 0.25), (-3.0, 3.0))
    return list(zip(*(rng.uniform(lo, hi, count).tolist() for lo, hi in bounds)))


class TestParams:
    def test_defaults(self):
        p = ModelParams(mu=1.0, tau2=0.0)
        assert p.sigma2 == 1.0 and p.y_target == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0.0, tau2=0.1),
            dict(mu=-0.5, tau2=0.1),
            dict(mu=0.5, tau2=-0.01),
            dict(mu=0.5, tau2=0.1, sigma2=0.0),
            dict(mu=0.5, tau2=0.1, sigma2=-1.0),
            dict(mu=math.nan, tau2=0.1),
            dict(mu=0.5, tau2=math.inf),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_linear_rule_is_callable_and_finite(self):
        rule = LinearRule(intercept=1.0, slope=-2.0)
        assert rule(3.0) == -5.0
        with pytest.raises(ValueError):
            LinearRule(intercept=math.inf, slope=1.0)

    def test_taylor_rule_constant(self):
        assert TAYLOR_RULE.intercept == 0.0
        assert TAYLOR_RULE.slope == 1.0


class TestOptimalForecast:
    def test_reference_point(self):
        rule = optimal_forecast(TAYLOR_RULE, P_BASE)
        assert rule.intercept == pytest.approx(0.7234042553191489, abs=1e-15)
        assert rule.slope == pytest.approx(0.6382978723404255, abs=1e-15)
        # 5-digit display values
        assert rule.intercept == pytest.approx(0.72340, abs=5e-6)
        assert rule.slope == pytest.approx(0.63830, abs=5e-6)

    @pytest.mark.parametrize("mu", [0.3, 1.0, 2.5])
    def test_no_uncertainty_limit(self, mu):
        p = ModelParams(mu=mu, tau2=0.0, y_target=2.0)
        rule = optimal_forecast(TAYLOR_RULE, p)
        assert rule.slope == pytest.approx(1.0 / (mu + 1.0), rel=1e-15)
        assert rule.intercept == pytest.approx(mu * p.y_target / (mu + 1.0), rel=1e-15)

    def test_equilibrium_rule_is_a_fixed_point(self):
        p = ModelParams(mu=0.98, tau2=0.1, y_target=2.0)
        rule = solve_equilibria(p).rule(1)
        image = optimal_forecast(rule, p)
        assert abs(image.intercept - rule.intercept) < 1e-10
        assert abs(image.slope - rule.slope) < 1e-10

    def test_degenerate_and_singular_errors(self):
        with pytest.raises(DegenerateConjecture):
            optimal_forecast(LinearRule(1.0, 0.0), P_BASE)
        with pytest.raises(SingularDenominator):
            optimal_forecast(
                LinearRule(0.0, -0.5), ModelParams(mu=0.5, tau2=0.0)
            )


class TestSolveEquilibria:
    def test_reference_roots(self):
        sol = solve_equilibria(ModelParams(mu=0.98, tau2=0.1))
        assert sol.exists and not sol.repeated
        c1, c2 = sol.roots[0].slope, sol.roots[1].slope
        assert c1 == pytest.approx(-0.09270166537925828, abs=1e-15)
        assert c2 == pytest.approx(-0.8672983346207417, abs=1e-15)
        # quoted 4-5 digit approximations
        assert c1 == pytest.approx(-0.09272, abs=5e-5)
        assert c2 == pytest.approx(-0.86728, abs=5e-5)
        k1, k2 = sol.roots[0].k, sol.roots[1].k
        assert k1 == pytest.approx(1.0927016653792583, abs=1e-14)
        assert k2 == pytest.approx(1.8672983346207417, abs=1e-14)

    def test_zero_uncertainty_roots(self):
        for mu in (0.3, 0.7, 2.0):
            sol = solve_equilibria(ModelParams(mu=mu, tau2=0.0))
            assert sol.roots[0].slope == pytest.approx(1.0 - mu, rel=1e-15)
            assert sol.roots[1].slope == pytest.approx(-mu, rel=1e-15)
            # the second root cancels the mean reaction exactly; the
            # best-response map is flat against it, so no rule is usable
            assert sol.roots[1].degenerate
            with pytest.raises(DegenerateEquilibrium):
                sol.rule(2)
            assert sol.rule(1).slope == pytest.approx(1.0 - mu, rel=1e-15)

    def test_root_two_is_degenerate_at_zero_uncertainty(self):
        # s2 = tau2 / s1 is exactly 0; below mu = 1/4 the slope 0.5 - mu - 0.5
        # rounds, so mu + c2 can come out as +/-1e-17 instead
        for mu in [i / 100 for i in range(1, 501)] + [1e17]:
            sol = solve_equilibria(ModelParams(mu=mu, tau2=0.0, y_target=2.0))
            assert sol.roots[1].degenerate and sol.roots[1].intercept is None, mu
            with pytest.raises(DegenerateEquilibrium):
                sol.rule(2)
            assert sol.roots[1].k == 1.0 + mu, mu

    def test_intercept_identity(self):
        # b = (1 - c) * y_target holds at both roots, and is how b is formed
        p = ModelParams(mu=0.98, tau2=0.1, y_target=2.0)
        sol = solve_equilibria(p)
        for i in (1, 2):
            rule = sol.rule(i)
            assert rule.intercept == (1.0 - rule.slope) * p.y_target

    @pytest.mark.parametrize(
        "points",
        [
            [(0.5, 0.0, 2.0), (0.7, 0.0, -1.5)],
            [(0.3, 0.25, 2.0), (1.2, 0.25, -0.5)],
            [(0.6989064904206899, 0.210436208068524, 2.0)],
            _seeded_games(500, 7),
        ],
        ids=["no-uncertainty", "repeated", "zero-slope-first-root", "seeded-grid"],
    )
    def test_each_root_is_one_minus_its_slope(self, points):
        # at a root tau2 + s**2 = s, so k = 1 - c and b = (1 - c) * y_target
        for mu, tau2, y_target in points:
            p = ModelParams(mu=mu, tau2=tau2, y_target=y_target)
            sol = solve_equilibria(p)
            assert (sol.roots[0].k, sol.roots[1].k) == (
                1.0 - sol.roots[0].slope, 1.0 - sol.roots[1].slope
            )
            if tau2 == 0.0:
                # the s = 0 root: degenerate, with k at its limit 1 + mu
                assert sol.roots[1].degenerate and sol.roots[1].k == 1.0 + mu
            for root in sol.roots:
                if root.degenerate:
                    continue
                rule = sol.rule(root.index)
                c = rule.slope
                assert rule.intercept == (1.0 - c) * y_target
                # optimal_forecast maps the rule back to itself, within a few
                # ulp times the cancellation in forming s = mu + c
                image = optimal_forecast(rule, p)
                scale = 16 * (mu + abs(c)) / abs(mu + c)
                assert abs(image.slope - c) <= scale * math.ulp(c)
                assert abs(image.intercept - rule.intercept) <= scale * math.ulp(rule.intercept)

    def test_root_two_keeps_its_digits_at_small_uncertainty(self):
        # here s = mu + c2 is about tau2, and the intercept formed as
        # k * c * y_target / (1 - k) lost 138,446 ulp
        mu, tau2, y_target = 1.6223257790351355, 2.1011748983501555e-06, -0.6649647023037124
        sol = solve_equilibria(ModelParams(mu=mu, tau2=tau2, y_target=y_target))
        with localcontext() as ctx:
            ctx.prec = 60
            k = Decimal("0.5") + Decimal(mu) + (1 - 4 * Decimal(tau2)).sqrt() / 2
            for got, want in ((sol.rule(2).intercept, k * Decimal(y_target)), (sol.roots[1].k, k)):
                assert abs(Decimal(got) - want) <= 16 * Decimal(math.ulp(float(want)))

    def test_nonexistence(self):
        sol = solve_equilibria(ModelParams(mu=0.5, tau2=0.26))
        assert not sol.exists
        assert sol.roots == ()
        with pytest.raises(NoEquilibrium):
            sol.rule()

    def test_repeated_root_at_quarter(self):
        sol = solve_equilibria(ModelParams(mu=0.3, tau2=0.25))
        assert sol.exists and sol.repeated
        assert sol.roots[0].slope == sol.roots[1].slope == pytest.approx(0.2, rel=1e-15)
        assert sol.rule(1) == sol.rule(2)

    @pytest.mark.parametrize("mu", _within_ulps(0.5, 8) + [0.1, 0.9, 1.3])
    def test_repeated_root_takes_one_verdict(self, mu):
        # at tau2 = 1/4 both roots are the same root; within 8 ulps of
        # mu = 1/2 its slope rounds to a few 1e-17 and its wedge to tau2
        sol = solve_equilibria(ModelParams(mu=mu, tau2=0.25, y_target=2.0))
        assert sol.repeated
        first, second = sol.roots
        assert (first.index, second.index) == (1, 2)
        assert first._replace(index=2) == second
        if first.degenerate:
            for index in (1, 2):
                with pytest.raises(DegenerateEquilibrium):
                    sol.rule(index)
        else:
            assert sol.rule(1) == sol.rule(2)

    def test_root_two_is_degenerate_where_its_wedge_rounds_to_tau2(self):
        # root 2's slope is 5.6e-17 here, but (1 - mu)*s2 rounds to tau2:
        # its MZ slope would be 1.45e16, so the root takes root 1's verdict
        sol = solve_equilibria(ModelParams(mu=0.19373299400379257, tau2=0.15620052103811907))
        assert not sol.roots[0].degenerate
        assert sol.roots[1].degenerate and sol.roots[1].intercept is None
        assert 0.0 < sol.roots[1].slope < 1e-16
        with pytest.raises(DegenerateEquilibrium):
            sol.rule(2)

    def test_degenerate_first_root(self):
        # mu = 3/4, tau2 = 3/16: dyadic values make the first slope land on
        # exactly zero; the second root stays usable
        sol = solve_equilibria(ModelParams(mu=0.75, tau2=0.1875, y_target=3.0))
        assert (sol.roots[0].degenerate, sol.roots[1].degenerate) == (True, False)
        assert sol.roots[0].intercept is None
        with pytest.raises(DegenerateEquilibrium):
            sol.rule(1)
        second = sol.rule(2)
        assert second.slope == -0.5
        assert second.intercept == pytest.approx(1.5 * 3.0, rel=1e-15)

    def test_default_rule_and_index_validation(self):
        sol = solve_equilibria(ModelParams(mu=0.98, tau2=0.1))
        assert sol.rule() == sol.rule(1)
        with pytest.raises(ValueError):
            sol.rule(3)


class TestBiasLine:
    def test_reference_point(self):
        line = bias_line(TAYLOR_RULE, P_BASE)
        assert line(3.0) == pytest.approx(0.04255, abs=5e-6)
        assert line.coef_theta == pytest.approx(0.1 / (0.1 + 2.25), rel=1e-15)

    def test_vanishes_without_uncertainty(self):
        line = bias_line(TAYLOR_RULE, ModelParams(mu=0.5, tau2=0.0, y_target=2.0))
        assert line.coef_theta == 0.0
        assert line.coef_const == 0.0

    def test_singular_without_uncertainty_at_mu_plus_c_zero(self):
        # tau2 = 0 and mu + c = 0 make the denominator tau2 + (mu + c)^2 zero
        with pytest.raises(SingularDenominator):
            bias_line(LinearRule(0.0, -0.5), ModelParams(mu=0.5, tau2=0.0))

    def test_equilibrium_conjecture_at_quarter(self):
        # at tau2 = 1/4 the bias coefficient is exactly 1/2
        p = ModelParams(mu=0.3, tau2=0.25, y_target=0.0)
        rule = solve_equilibria(p).rule(1)
        line = bias_line(rule, p)
        assert line(1.0) == 0.5


class TestMzLine:
    def test_reference_point(self):
        line = mz_line(TAYLOR_RULE, P_BASE)
        assert line.slope == pytest.approx(1.0666666666666667, abs=1e-15)
        assert line.intercept == pytest.approx(-0.13333333333333333, abs=1e-15)

    def test_taylor_slope_near_one_mu(self):
        line = mz_line(TAYLOR_RULE, ModelParams(mu=0.98, tau2=0.1))
        assert line.slope == pytest.approx(1.0505050505050506, abs=1e-15)
        assert line.slope == pytest.approx(1.05, abs=5e-3)

    def test_identity_without_uncertainty(self):
        line = mz_line(TAYLOR_RULE, ModelParams(mu=0.7, tau2=0.0, y_target=2.0))
        assert line.slope == 1.0
        assert line.intercept == 0.0

    def test_singular_when_reaction_cancels_slope(self):
        with pytest.raises(SingularMZ):
            mz_line(LinearRule(0.0, -0.5), ModelParams(mu=0.5, tau2=0.1))


class TestEquilibriumLines:
    def test_reference_point(self):
        bias, mz = equilibrium_bias_and_mz(ModelParams(mu=0.98, tau2=0.1, y_target=2.0))
        assert mz.slope == pytest.approx(-0.2157458543832693, abs=1e-15)
        assert mz.intercept == pytest.approx(2.4314917087665386, abs=1e-14)
        assert bias.coef_theta == pytest.approx(0.11270166537925831, abs=1e-15)
        assert bias.coef_const == pytest.approx(-0.22540333075851662, abs=1e-15)

    def test_agrees_with_generic_lines_at_the_first_root(self):
        p = ModelParams(mu=0.7, tau2=0.12, y_target=-1.0)
        rule = solve_equilibria(p).rule(1)
        bias, mz = equilibrium_bias_and_mz(p)
        generic_bias = bias_line(rule, p)
        generic_mz = mz_line(rule, p)
        assert bias.coef_theta == pytest.approx(generic_bias.coef_theta, rel=1e-12)
        assert bias.coef_const == pytest.approx(generic_bias.coef_const, rel=1e-12)
        assert mz.slope == pytest.approx(generic_mz.slope, rel=1e-12)
        assert mz.intercept == pytest.approx(generic_mz.intercept, rel=1e-12)

    def test_zero_uncertainty(self):
        bias, mz = equilibrium_bias_and_mz(ModelParams(mu=0.5, tau2=0.0, y_target=2.0))
        assert (bias.coef_theta, bias.coef_const) == (0.0, 0.0)
        assert (mz.intercept, mz.slope) == (0.0, 1.0)

    def test_no_equilibrium(self):
        with pytest.raises(NoEquilibrium):
            equilibrium_bias_and_mz(ModelParams(mu=0.5, tau2=0.3))

    def test_degenerate_first_root(self):
        # mu = 0.75, tau2 = 3/16: all quantities dyadic, first slope exactly 0
        with pytest.raises(DegenerateEquilibrium):
            equilibrium_bias_and_mz(ModelParams(mu=0.75, tau2=0.1875))
        sol = solve_equilibria(ModelParams(mu=0.75, tau2=0.1875))
        assert (sol.roots[0].degenerate, sol.roots[1].degenerate) == (True, False)

    def test_degenerate_exactly_where_solve_says_so(self):
        flagged = 0
        for mu, tau2 in _near_zero_slope(300, 11):
            p = ModelParams(mu=mu, tau2=tau2, y_target=2.0)
            degenerate = solve_equilibria(p).roots[0].degenerate
            try:
                _, mz = equilibrium_bias_and_mz(p)
            except DegenerateEquilibrium:
                assert degenerate, (mu, tau2)
                flagged += 1
            else:
                assert not degenerate, (mu, tau2)
                assert math.isfinite(mz.slope) and math.isfinite(mz.intercept)
        assert flagged > 2


class TestMseDecomposition:
    def test_only_noise_without_uncertainty(self):
        p = ModelParams(mu=0.5, tau2=0.0, sigma2=1.0, y_target=2.0)
        for f in (-1.0, 0.0, 2.7):
            split = mse_decomposition(f, 1.0, TAYLOR_RULE, p)
            assert split.variance_term == 1.0

    def test_unbiased_rule_kills_the_bias_term(self):
        # f = (theta + mu * (y_target + b/c)) * c / (mu + c) has zero bias
        cj = LinearRule(0.3, 1.4)
        b, c, mu = cj.intercept, cj.slope, P_BASE.mu
        for theta in (-2.0, 0.5, 3.0):
            f = (theta + mu * (P_BASE.y_target + b / c)) * c / (mu + c)
            split = mse_decomposition(f, theta, cj, P_BASE)
            assert split.bias_sq_term < 1e-24

    def test_total_matches_expanded_quadratic(self):
        theta = 3.0
        f = optimal_forecast(TAYLOR_RULE, P_BASE)(theta)
        split = mse_decomposition(f, theta, TAYLOR_RULE, P_BASE)
        b, c = TAYLOR_RULE.intercept, TAYLOR_RULE.slope
        adj = (c * P_BASE.y_target - f + b) / c
        expanded = (
            (theta - f) ** 2
            + 2.0 * (theta - f) * P_BASE.mu * adj
            + (P_BASE.mu**2 + P_BASE.tau2) * adj**2
            + P_BASE.sigma2
        )
        assert split.total == pytest.approx(expanded, rel=1e-12)

    def test_total_property(self):
        split = MseSplit(variance_term=1.25, bias_sq_term=0.5)
        assert split.total == 1.75

    def test_zero_slope_rejected(self):
        with pytest.raises(DegenerateConjecture):
            mse_decomposition(0.0, 0.0, LinearRule(1.0, 0.0), P_BASE)


class TestConditional:
    def test_rational_dm_bias(self):
        # conjecture b = a0, c = 1 gives bias -a0 + mu * (y_target - theta)
        p = ModelParams(mu=0.8, tau2=0.1, y_target=2.0)
        a0 = 0.4
        bias, _ = conditional_bias_and_mz(a0, LinearRule(a0, 1.0), p)
        for theta in (-1.0, 2.0, 3.5):
            expected = -a0 + p.mu * (p.y_target - theta)
            assert bias(theta) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_rational_dm_on_target_is_unbiased(self):
        p = ModelParams(mu=1.0, tau2=0.1, y_target=2.0)
        bias, _ = conditional_bias_and_mz(0.0, LinearRule(0.0, 1.0), p)
        assert bias(p.y_target) == 0.0

    def test_taylor_dm_at_mu_one(self):
        p = ModelParams(mu=1.0, tau2=0.2, y_target=2.0)
        for a0 in (0.0, 0.25, -1.0):
            _, mz = conditional_bias_and_mz(a0, TAYLOR_RULE, p)
            assert mz.slope == 0.0
            assert mz.intercept == -a0 + p.y_target

    def test_worked_bias_value(self):
        p = ModelParams(mu=0.5, tau2=0.1, y_target=2.0)
        bias, _ = conditional_bias_and_mz(0.2, TAYLOR_RULE, p)
        assert bias.coef_theta == pytest.approx(-0.5, rel=1e-15)
        assert bias.coef_const == pytest.approx(0.7, rel=1e-15)
        assert bias(1.0) == pytest.approx(0.2, rel=1e-12)

    def test_argument_validation(self):
        p = ModelParams(mu=0.5, tau2=0.1)
        with pytest.raises(ValueError):
            constrained_dm_choice(1.0, 2.0, (0.0, 1.0), -1.0, p)
        with pytest.raises(ValueError):
            constrained_dm_choice(1.0, 2.0, (0.0, 1.0, 2.0), 1.0, p)
        with pytest.raises(ValueError):
            conditional_bias_and_mz(math.nan, TAYLOR_RULE, p)


class TestConstrainedChoice:
    def test_costless_dm_takes_the_closer_forecast(self):
        p = ModelParams(mu=0.5, tau2=0.1, y_target=2.0)
        assert constrained_dm_choice(1.5, 2.4, (0.0, 0.5), 0.0, p) == 1

    def test_tie_breaks_to_first_action(self):
        p = ModelParams(mu=0.5, tau2=0.1, y_target=2.0)
        assert constrained_dm_choice(1.0, 1.0, (0.5, -0.5), 1.0, p) == 0

    def test_on_target_forecast_wins_when_costless(self):
        p = ModelParams(mu=0.5, tau2=0.1, y_target=2.0)
        assert constrained_dm_choice(2.0, 2.6, (0.0, 1.0), 0.0, p) == 0

    def test_missing_menu(self):
        p = ModelParams(mu=0.5, tau2=0.1)
        with pytest.raises(ValueError, match="menu"):
            constrained_dm_choice(1.0, 2.0, None, 0.5, p)

    def test_a_cost_past_the_float_limit_still_ranks(self):
        p = ModelParams(mu=0.5, tau2=0.1)
        assert constrained_dm_choice(1e200, 0.0, (1e200, 0.0), 0.5, p) == 1
        assert constrained_dm_choice(0.0, 1e200, (1e200, 0.0), 0.5, p) == 0

    def test_costs_overflowing_on_both_sides_are_rejected(self):
        p = ModelParams(mu=0.5, tau2=0.1)
        with pytest.raises(ValueError, match="overflow"):
            constrained_dm_choice(1e200, -1e200, (0.0, 1.0), 0.5, p)

    @pytest.mark.parametrize("t", [-0.5, 0.0, 1.0, 99.0])
    @pytest.mark.parametrize("menu", [(0.0, 1.0), (-0.5, 0.5)])
    def test_takes_the_action_that_costs_less(self, menu, t):
        # the costs written out: (f_i - y_target)**2 + t * a_i**2
        rng = np.random.default_rng(23)
        p = ModelParams(mu=0.5, tau2=0.1, y_target=2.0)
        for theta in rng.normal(2.0, 1.5, 200).tolist():
            f0, f1 = theta + menu[0], theta + menu[1]
            cost = [(f - p.y_target) ** 2 + t * a * a for f, a in zip((f0, f1), menu)]
            if cost[0] != cost[1]:
                assert constrained_dm_choice(f0, f1, menu, t, p) == cost.index(min(cost))

    @pytest.mark.parametrize(
        "menu", [(0.0, 0.5), (-0.5, 0.5), (1.0, -2.0), (1e200, 0.0), (1e308, 1.0)]
    )
    def test_agrees_with_the_menu_kernel(self, menu):
        # each draw's DM has cost t = 1/x - 1, as in the simulated game
        rng = np.random.default_rng(31)
        n = 300
        p = ModelParams(mu=0.5, tau2=0.1, y_target=2.0)
        theta = rng.normal(2.0, 1.0, n)
        theta[:20] = 2.0  # ties on the symmetric menu
        x = rng.uniform(0.01, 3.0, n)
        _, action, _, _ = kernels.menu_play(theta, x, np.zeros(n), *menu, p.y_target)
        for th, xi, taken in zip(theta.tolist(), x.tolist(), action.tolist()):
            choice = constrained_dm_choice(th + menu[0], th + menu[1], menu, 1.0 / xi - 1.0, p)
            assert taken == menu[choice]


def test_mz_bias_consistency_identity():
    # slope of E[y|f] - f in f equals coef_theta / e* for any conjecture
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = float(rng.uniform(0.2, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        params = ModelParams(
            mu=float(rng.uniform(0.1, 2.0)), tau2=float(rng.uniform(0.0, 0.5))
        )
        if abs(params.mu + c) < 0.1:
            continue
        cj = LinearRule(float(rng.uniform(-2.0, 2.0)), c)
        mz = mz_line(cj, params)
        bias = bias_line(cj, params)
        e_star = optimal_forecast(cj, params).slope
        if e_star == 0.0:
            continue
        assert mz.slope - 1.0 == pytest.approx(
            bias.coef_theta / e_star, rel=1e-9, abs=1e-12
        )
