"""Sampling, game playing, sample regressions, and best-response traces."""

import math
import sys
import threading

import numpy as np
import pytest

from feedbackcast import kernels, simulate
from feedbackcast.errors import (
    DegenerateConjecture,
    InsufficientData,
    MomentMatchInfeasible,
    ZeroVariance,
)
from feedbackcast.model import LinearRule, ModelParams, solve_equilibria
from feedbackcast.simulate import (
    BestResponseTrace,
    PolicyShockSpec,
    SimulationRun,
    StateNoiseSpec,
    best_response_iteration,
    ols_mz,
    play_game,
    sample_policy_shock,
)
from feedbackcast.simulate import _beta_shape, _truncnorm_parent


class TestPolicyShockSpec:
    def test_beta_half_half_moments_give_symmetric_shape(self):
        a, b = _beta_shape(0.5, 0.05, 0.0, 1.0)
        assert a == pytest.approx(2.0, rel=1e-12)
        assert b == pytest.approx(2.0, rel=1e-12)

    def test_beta_infeasible_variance(self):
        with pytest.raises(MomentMatchInfeasible):
            PolicyShockSpec(family="beta_scaled", target_mean=0.5, target_var=0.3)

    def test_truncnorm_infeasible_on_half_line(self):
        # coefficient of variation must stay below 1 when the support is
        # unbounded above
        with pytest.raises(MomentMatchInfeasible):
            PolicyShockSpec(
                family="truncated_normal", target_mean=0.5, target_var=0.25
            )

    @pytest.mark.parametrize(
        "mean,var,support",
        [(0.5, 0.0834, (0.0, 1.0)), (0.2, 0.05, (0.0, 1.0)), (1.0, 0.95, None)],
        ids=["mid-interval", "low-interval", "half-line"],
    )
    def test_truncnorm_the_sampler_cannot_reach_is_rejected_up_front(self, mean, var, support):
        # inside the Bhatia-Davis bound, but past what a truncated normal
        # reaches: the verdict is the parent search's, made at construction
        with pytest.raises(MomentMatchInfeasible, match="cannot match"):
            PolicyShockSpec("truncated_normal", mean, var, support=support)

    def test_truncnorm_mean_is_matched_to_its_own_scale(self):
        # (1, 0.5) scaled by 1e100: the search ends at a root with the
        # variance matched and the mean 15% high, which one tolerance scaled
        # by the variance would accept. With a tolerance per moment the pair
        # is rejected, although a truncated normal reaches it exactly
        with pytest.raises(MomentMatchInfeasible, match="cannot match"):
            PolicyShockSpec("truncated_normal", 1e100, 5e199)

    @pytest.mark.parametrize("mean,var", [(1.0, 1e20), (1.0, 1e300), (1e10, 1e25)])
    def test_truncnorm_past_the_bound_is_rejected_before_the_search(self, mean, var):
        # the search would divide by zero or accept a far-off match here
        with pytest.raises(MomentMatchInfeasible, match="not attainable"):
            PolicyShockSpec("truncated_normal", mean, var)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="weibull", target_mean=0.5, target_var=0.1),
            dict(family="beta_scaled", target_mean=-0.5, target_var=0.1),
            dict(family="beta_scaled", target_mean=0.5, target_var=-0.1),
            dict(family="beta_scaled", target_mean=0.5, target_var=0.0),
            dict(family="degenerate", target_mean=0.5, target_var=0.1),
            dict(family="degenerate", target_mean=0.5, target_var=0.0, support=(1.0, 2.0)),
            dict(family="beta_scaled", target_mean=0.5, target_var=0.1, support=(-1.0, 1.0)),
            dict(family="beta_scaled", target_mean=0.5, target_var=0.1, support=(1.0, 1.0)),
            dict(family="beta_scaled", target_mean=3.0, target_var=0.1, support=(0.0, 2.0)),
            dict(family="beta_scaled", target_mean=0.5, target_var=0.1, support=(0.0, math.inf)),
        ],
    )
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises((ValueError, MomentMatchInfeasible)):
            PolicyShockSpec(**kwargs)

    def test_every_beta_that_constructs_samples_near_the_cap(self):
        # targets 0-4 ulps below the Bhatia-Davis cap (mean - lo)(hi - mean)
        # on supports other than (0, 1), where the rescaled check rounds
        # differently
        rng = np.random.default_rng(29)
        built = 0
        for _ in range(200):
            lo = float(rng.choice([0.0, 0.5]))
            hi = lo + float(rng.choice([0.7, 2.0, 3.0, 5.0]))
            mean = float(rng.uniform(lo, hi))
            var = (mean - lo) * (hi - mean)
            for _ in range(5):
                try:
                    spec = PolicyShockSpec("beta_scaled", mean, var, support=(lo, hi))
                except MomentMatchInfeasible:
                    pass
                else:
                    draws = sample_policy_shock(spec, 20, built)
                    assert np.all((draws > lo) & (draws < hi)), (mean, var, lo, hi)
                    built += 1
                var = math.nextafter(var, 0.0)
        assert built > 100

    @pytest.mark.parametrize(
        "mean,var,support",
        [(0.09, 0.26189999999999997, (0.0, 3.0)), (0.5, 1e-310, None)],
        ids=["rounds-past-the-cap", "shape-overflows"],
    )
    def test_beta_the_sampler_cannot_reach_is_rejected_up_front(self, mean, var, support):
        with pytest.raises(MomentMatchInfeasible):
            PolicyShockSpec("beta_scaled", mean, var, support=support)

    def test_default_bounds_per_family(self):
        beta = PolicyShockSpec(family="beta_scaled", target_mean=0.5, target_var=0.1)
        assert beta.bounds == (0.0, 1.0)
        tn = PolicyShockSpec(family="truncated_normal", target_mean=0.5, target_var=0.1)
        assert tn.bounds == (0.0, math.inf)


class TestSamplePolicyShock:
    def test_degenerate_is_a_point_mass(self):
        spec = PolicyShockSpec(family="degenerate", target_mean=0.5, target_var=0.0)
        draws = sample_policy_shock(spec, 100, 0)
        assert (draws == 0.5).all()

    def test_beta_moments_and_support(self):
        spec = PolicyShockSpec(family="beta_scaled", target_mean=0.4, target_var=0.1)
        draws = sample_policy_shock(spec, 1_000_000, 123)
        assert abs(float(draws.mean()) - 0.4) < 2e-3
        assert abs(float(draws.var()) - 0.1) < 2e-3
        assert (draws > 0.0).all() and (draws < 1.0).all()

    def test_beta_scaled_support(self):
        spec = PolicyShockSpec(
            family="beta_scaled", target_mean=1.3, target_var=0.05, support=(0.0, 2.0)
        )
        draws = sample_policy_shock(spec, 500_000, 7)
        assert abs(float(draws.mean()) - 1.3) < 2e-3
        assert abs(float(draws.var()) - 0.05) < 2e-3
        assert (draws > 0.0).all() and (draws < 2.0).all()

    def test_truncnorm_moments_half_line(self):
        spec = PolicyShockSpec(
            family="truncated_normal", target_mean=0.5, target_var=0.2
        )
        draws = sample_policy_shock(spec, 500_000, 11)
        assert abs(float(draws.mean()) - 0.5) < 3e-3
        assert abs(float(draws.var()) - 0.2) < 3e-3
        assert (draws > 0.0).all()

    def test_truncnorm_moments_bounded(self):
        spec = PolicyShockSpec(
            family="truncated_normal",
            target_mean=1.3,
            target_var=0.05,
            support=(0.0, 2.0),
        )
        draws = sample_policy_shock(spec, 500_000, 13)
        assert abs(float(draws.mean()) - 1.3) < 2e-3
        assert abs(float(draws.var()) - 0.05) < 2e-3
        assert (draws > 0.0).all() and (draws < 2.0).all()

    @pytest.mark.parametrize(
        "mean,var,support",
        [(1e200, 1.0, None), (0.5, 1e-320, (0.0, 1.0))],
        ids=["far-off-mean", "subnormal-variance"],
    )
    def test_truncnorm_match_runs_without_a_numpy_warning(self, mean, var, support):
        # a far mean or a tiny spread puts the normal density's z past 1e154
        # during the match, where z * z overflows; that must not print a
        # RuntimeWarning, which the suite turns into an error. The cache is
        # cleared so that the match runs here, whatever ran before.
        _truncnorm_parent.cache_clear()
        spec = PolicyShockSpec("truncated_normal", mean, var, support=support)
        lo, hi = spec.bounds
        draws = sample_policy_shock(spec, 3, 0)
        assert np.all((draws > lo) & (draws < hi))

    def test_seed_types_and_validation(self):
        spec = PolicyShockSpec(family="beta_scaled", target_mean=0.5, target_var=0.1)
        a = sample_policy_shock(spec, 50, 42)
        b = sample_policy_shock(spec, 50, np.random.SeedSequence(42))
        assert np.array_equal(a, b)
        with pytest.raises(ValueError):
            sample_policy_shock(spec, 0, 1)


class TestRunValidation:
    def test_draw_count_must_be_positive(self):
        with pytest.raises(InsufficientData):
            SimulationRun(draw_count=0, seed=1, scenario="taylor_rule")

    def test_seed_must_be_nonnegative_integer(self):
        with pytest.raises(ValueError):
            SimulationRun(draw_count=10, seed=-1, scenario="taylor_rule")

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            SimulationRun(draw_count=10, seed=1, scenario="mystery")

    def test_conjecture_requirements(self):
        with pytest.raises(ValueError):
            SimulationRun(draw_count=10, seed=1, scenario="conjecture_rule")
        with pytest.raises(DegenerateConjecture):
            SimulationRun(
                draw_count=10,
                seed=1,
                scenario="conjecture_rule",
                conjecture=LinearRule(1.0, 0.0),
            )

    def test_conditional_needs_assumed_action(self):
        with pytest.raises(ValueError):
            SimulationRun(
                draw_count=10,
                seed=1,
                scenario="conditional",
                conjecture=LinearRule(0.0, 1.0),
            )

    def test_menu_and_index_requirements(self):
        with pytest.raises(ValueError):
            SimulationRun(draw_count=10, seed=1, scenario="constrained_menu")
        with pytest.raises(ValueError):
            SimulationRun(
                draw_count=10, seed=1, scenario="equilibrium", equilibrium_index=3
            )


    @pytest.mark.parametrize(
        "scenario,settings,field",
        [
            ("equilibrium", dict(conjecture=LinearRule(1.0, 2.0)), "conjecture"),
            ("taylor_rule", dict(conjecture=LinearRule(0.0, 1.0)), "conjecture"),
            (
                "constrained_menu",
                dict(menu=(0.0, 1.0), conjecture=LinearRule(0.0, 1.0)),
                "conjecture",
            ),
            (
                "conditional",
                dict(assumed_action=0.5, dm_applies_assumed=True, conjecture=LinearRule(0.0, 1.0)),
                "conjecture",
            ),
            ("taylor_rule", dict(assumed_action=3.0), "assumed_action"),
            ("constrained_menu", dict(menu=(0.0, 1.0), assumed_action=0.5), "assumed_action"),
            (
                "conjecture_rule",
                dict(conjecture=LinearRule(0.0, 1.0), dm_applies_assumed=True),
                "dm_applies_assumed",
            ),
            ("equilibrium", dict(dm_applies_assumed=True), "dm_applies_assumed"),
            ("taylor_rule", dict(menu=(0.0, 1.0)), "menu"),
            (
                "conditional",
                dict(assumed_action=0.5, conjecture=LinearRule(0.0, 1.0), menu=(0.0, 1.0)),
                "menu",
            ),
            ("taylor_rule", dict(equilibrium_index=2), "equilibrium_index"),
            ("constrained_menu", dict(menu=(0.0, 1.0), equilibrium_index=1), "equilibrium_index"),
        ],
    )
    def test_setting_the_scenario_does_not_use_rejected(self, scenario, settings, field):
        with pytest.raises(ValueError, match=f"'{scenario}' does not use {field},"):
            SimulationRun(draw_count=10, seed=1, scenario=scenario, **settings)


def _taylor_setup(n=4000, seed=5):
    params = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=2.0)
    shock = PolicyShockSpec(family="beta_scaled", target_mean=0.5, target_var=0.1)
    state = StateNoiseSpec(theta_mean=1.0, theta_var=1.0, noise_var=1.0)
    run = SimulationRun(draw_count=n, seed=seed, scenario="taylor_rule")
    return run, shock, state, params


class TestPlayGame:
    def test_shapes_and_accounting(self):
        run, shock, state, params = _taylor_setup()
        out = play_game(run, shock, state, params)
        for field in (out.theta, out.x, out.forecast, out.action, out.outcome, out.error):
            assert field.shape == (run.draw_count,)
        assert np.array_equal(out.error, out.outcome - out.forecast)
        assert out.summary.mse == float(np.mean(out.error**2))
        assert out.summary.mean_error == float(np.mean(out.error))
        total = out.summary.variance_component + out.summary.bias_sq_component
        assert total == pytest.approx(out.summary.mse, rel=1e-10)

    def test_bit_identical_reruns(self):
        run, shock, state, params = _taylor_setup()
        first = play_game(run, shock, state, params)
        second = play_game(run, shock, state, params)
        for name in ("theta", "x", "forecast", "action", "outcome", "error"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_shock_params_mismatch_rejected(self):
        run, _, state, params = _taylor_setup()
        bad = PolicyShockSpec(family="beta_scaled", target_mean=0.5, target_var=0.11)
        with pytest.raises(ValueError):
            play_game(run, bad, state, params)

    def test_equilibrium_scenario_uses_the_selected_root(self):
        params = ModelParams(mu=0.7, tau2=0.15, sigma2=0.5, y_target=2.0)
        shock = PolicyShockSpec(family="beta_scaled", target_mean=0.7, target_var=0.15)
        state = StateNoiseSpec(theta_mean=2.0, theta_var=1.0, noise_var=0.5)
        sol = solve_equilibria(params)
        for index in (None, 1, 2):
            run = SimulationRun(
                draw_count=200,
                seed=3,
                scenario="equilibrium",
                equilibrium_index=index,
            )
            out = play_game(run, shock, state, params)
            rule = sol.rule(index)
            assert np.array_equal(
                out.forecast, rule.intercept + rule.slope * out.theta
            )

    def test_conjecture_rule_best_responds(self):
        from feedbackcast.model import optimal_forecast

        params = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=2.0)
        shock = PolicyShockSpec(family="beta_scaled", target_mean=0.5, target_var=0.1)
        state = StateNoiseSpec()
        cj = LinearRule(0.3, 1.2)
        run = SimulationRun(
            draw_count=300, seed=6, scenario="conjecture_rule", conjecture=cj
        )
        out = play_game(run, shock, state, params)
        rule = optimal_forecast(cj, params)
        assert np.array_equal(out.forecast, rule.intercept + rule.slope * out.theta)
        # DM inverts the forecast through its conjecture
        implied = (out.forecast - cj.intercept) / cj.slope
        assert np.allclose(
            out.action, out.x * (params.y_target - implied), rtol=1e-12, atol=1e-12
        )

    def test_conditional_with_assumed_action_applied(self):
        params = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=2.0)
        shock = PolicyShockSpec(family="beta_scaled", target_mean=0.5, target_var=0.1)
        state = StateNoiseSpec()
        run = SimulationRun(
            draw_count=500,
            seed=8,
            scenario="conditional",
            assumed_action=0.25,
            dm_applies_assumed=True,
        )
        out = play_game(run, shock, state, params)
        assert (out.action == 0.25).all()
        assert np.array_equal(out.forecast, out.theta + 0.25)
        # outcome differs from the forecast only by the measurement noise
        assert abs(out.summary.mean_error) < 4.0 / math.sqrt(run.draw_count)

    def test_conditional_with_reacting_dm(self):
        params = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=2.0)
        shock = PolicyShockSpec(family="beta_scaled", target_mean=0.5, target_var=0.1)
        state = StateNoiseSpec()
        run = SimulationRun(
            draw_count=500,
            seed=9,
            scenario="conditional",
            conjecture=LinearRule(0.0, 1.0),
            assumed_action=0.25,
        )
        out = play_game(run, shock, state, params)
        assert np.array_equal(out.forecast, out.theta + 0.25)
        assert not (out.action == 0.25).all()

    def test_menu_choices_match_the_deterministic_rule(self):
        params = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=2.0)
        shock = PolicyShockSpec(family="beta_scaled", target_mean=0.5, target_var=0.1)
        state = StateNoiseSpec()
        menu = (0.0, 0.5)
        run = SimulationRun(
            draw_count=2000, seed=10, scenario="constrained_menu", menu=menu
        )
        out = play_game(run, shock, state, params)
        assert np.isin(out.action, menu).all()
        assert np.array_equal(out.forecast, out.theta + out.action)
        t = 1.0 / out.x - 1.0
        lhs = (out.theta + menu[0] - params.y_target) ** 2 - (
            out.theta + menu[1] - params.y_target
        ) ** 2
        rhs = t * (menu[1] ** 2 - menu[0] ** 2)
        assert np.array_equal(out.action == menu[0], lhs <= rhs)


PLAY_SETTINGS = {
    "conjecture_rule": dict(conjecture=LinearRule(0.3, 0.8)),
    "equilibrium": {},
    "taylor_rule": {},
    "conditional": dict(assumed_action=0.2, conjecture=LinearRule(0.1, 1.2)),
    "conditional_applied": dict(assumed_action=0.2, dm_applies_assumed=True),
    "constrained_menu": dict(menu=(-0.5, 1.0)),
}

RECORDS = ("theta", "x", "forecast", "action", "outcome", "error")


class TestPlayInBlocks:
    """``play_game`` plays ``simulate._PLAY_ROWS`` rows at a time and, on
    more than one CPU, draws the next block's x and eps on a helper thread;
    these tests shrink the blocks so a small run spans several."""

    ROWS = 256

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(simulate, "_PLAY_ROWS", self.ROWS)

    def _play(self, scenario="taylor_rule", family="beta_scaled", n=None):
        mu, tau2 = 0.3, (0.0 if family == "degenerate" else 0.08)
        run = SimulationRun(
            draw_count=n or 3 * self.ROWS + 57, seed=13,
            scenario=scenario.removesuffix("_applied"), **PLAY_SETTINGS[scenario],
        )
        return play_game(
            run,
            PolicyShockSpec(family=family, target_mean=mu, target_var=tau2),
            StateNoiseSpec(theta_mean=0.5),
            ModelParams(mu=mu, tau2=tau2, y_target=1.0),
        )

    @pytest.mark.parametrize("family", ["beta_scaled", "truncated_normal", "degenerate"])
    @pytest.mark.parametrize("scenario", list(PLAY_SETTINGS))
    def test_outputs_do_not_depend_on_the_cpu_count(self, monkeypatch, scenario, family):
        outs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
            outs[cpus] = self._play(scenario, family)
        # the rows of one block of the whole run
        monkeypatch.setattr(simulate, "_PLAY_ROWS", outs[1].run.draw_count)
        whole = self._play(scenario, family)
        for name in RECORDS:
            assert np.array_equal(getattr(outs[1], name), getattr(outs[2], name)), name
            assert np.array_equal(getattr(outs[1], name), getattr(whole, name)), name
        assert outs[1].summary == outs[2].summary

    def test_many_blocks_under_frequent_thread_switches(self, monkeypatch):
        # the helper and the calling thread hand the interpreter back and
        # forth every microsecond, across 40 blocks
        monkeypatch.setattr(simulate, "_PLAY_ROWS", 64)
        outs = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for cpus in (1, 2):
                monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
                outs[cpus] = self._play("constrained_menu", "truncated_normal", n=40 * 64)
        finally:
            sys.setswitchinterval(interval)
        for name in RECORDS:
            assert np.array_equal(getattr(outs[1], name), getattr(outs[2], name)), name
        assert outs[1].summary == outs[2].summary

    def _sampler_calling(self, monkeypatch, before_draw):
        sampler = simulate._shock_sampler

        def patched(spec):
            draw = sampler(spec)

            def wrapped(rng, out):
                before_draw()
                return draw(rng, out)

            return wrapped

        monkeypatch.setattr(simulate, "_shock_sampler", patched)
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)

    def test_helper_draws_under_the_callers_error_state(self, monkeypatch):
        seen = []
        self._sampler_calling(
            monkeypatch,
            lambda: seen.append((np.geterr(), threading.current_thread() is threading.main_thread())),
        )
        state = dict(divide="raise", over="ignore", under="ignore", invalid="ignore")
        with np.errstate(**state):
            self._play()
        assert len(seen) == 4
        assert not any(on_main for _, on_main in seen)
        assert all(err == state for err, _ in seen)

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        def fail():
            raise RuntimeError("draw failed")

        self._sampler_calling(monkeypatch, fail)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            self._play()
        assert threading.active_count() == threads

    def test_callers_own_error_wins_over_the_helpers(self, monkeypatch):
        calls = []

        def fail_after_the_first():
            calls.append(None)
            if len(calls) > 1:
                raise RuntimeError("helper failed")

        def sums_fail(*args):
            raise ValueError("caller failed")

        self._sampler_calling(monkeypatch, fail_after_the_first)
        # the first block fails in the calling thread while the helper draws
        # the second
        monkeypatch.setattr(simulate._GameSums, "of", sums_fail)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="caller failed"):
            self._play()
        assert threading.active_count() == threads
        assert len(calls) == 2

    def test_one_block_starts_no_helper(self, monkeypatch):
        seen = []
        self._sampler_calling(
            monkeypatch, lambda: seen.append(threading.current_thread() is threading.main_thread())
        )
        self._play(n=self.ROWS)
        assert seen == [True]


class TestOlsMz:
    def test_exact_line(self):
        fit = ols_mz([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert fit.line.intercept == 1.0
        assert fit.line.slope == 2.0
        assert fit.r_squared == 1.0
        assert fit.stderrs == (0.0, 0.0)

    def test_constant_forecasts_rejected(self):
        with pytest.raises(ZeroVariance):
            ols_mz([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_few_observations(self):
        with pytest.raises(InsufficientData):
            ols_mz([0.0, 1.0], [1.0, 2.0])

    def test_empty_sample_has_too_few_observations(self):
        # not an overflow: an empty sample has no means to form
        with pytest.raises(InsufficientData, match="got 0"):
            ols_mz([], [])

    def test_matches_polyfit(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(0.0, 1.0, 200)
        ys = 0.5 + 1.5 * xs + rng.normal(0.0, 0.3, 200)
        fit = ols_mz(xs, ys)
        slope, intercept = np.polyfit(xs, ys, 1)
        assert fit.line.slope == pytest.approx(slope, rel=1e-10)
        assert fit.line.intercept == pytest.approx(intercept, rel=1e-10)


class TestBestResponse:
    def test_fixed_point_is_immediate(self):
        params = ModelParams(mu=0.98, tau2=0.1, y_target=2.0)
        rule = solve_equilibria(params).rule(1)
        trace = best_response_iteration(rule, params)
        assert isinstance(trace, BestResponseTrace)
        assert trace.status == "fixed_point"
        assert trace.converged
        assert len(trace.rules) == 1

    def test_slopes_shrink_when_no_equilibrium_exists(self):
        params = ModelParams(mu=0.5, tau2=0.3)
        trace = best_response_iteration(LinearRule(0.0, 1.0), params, max_iter=30)
        slopes = [1.0] + [r.slope for r in trace.rules]
        assert all(abs(b) < abs(a) for a, b in zip(slopes, slopes[1:]))

    def test_converges_to_the_first_root_without_uncertainty(self):
        params = ModelParams(mu=0.5, tau2=0.0)
        trace = best_response_iteration(LinearRule(0.0, 1.0), params)
        assert trace.status == "fixed_point"
        assert trace.rules[-1].slope == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("mu,tau2", [(0.5, 0.3), (0.98, 0.1), (1.3, 0.05), (0.1, 2.0)])
    def test_flat_limit_is_attenuated_not_a_fixed_point(self, mu, tau2):
        # root 1 is E-unstable (or no root exists), and the Taylor rule's
        # iterates shrink to the flat rule, which solve does not list
        params = ModelParams(mu=mu, tau2=tau2, y_target=2.0)
        trace = best_response_iteration(LinearRule(0.0, 1.0), params, max_iter=1000)
        assert trace.status == "attenuated"
        assert not trace.converged
        assert abs(trace.rules[-1].slope) < 1e-10
        assert trace.rules[-1].intercept == pytest.approx(2.0, abs=1e-9)

    def test_zero_slope_iterate_stops_cleanly(self):
        params = ModelParams(mu=0.5, tau2=0.1)
        trace = best_response_iteration(LinearRule(0.0, -0.5), params, max_iter=10)
        assert trace.status == "zero_slope"
        assert trace.rules[-1].slope == 0.0
        assert not trace.converged

    def test_divergence_from_near_root_2_keeps_the_trace(self):
        # root 2's intercept is multiplied by k > 1 each step, so a nudged
        # start grows until an iterate leaves the float range
        params = ModelParams(mu=0.5, tau2=0.1, y_target=2.0)
        root = solve_equilibria(params).rule(2)
        start = LinearRule(root.intercept + 1e-3, root.slope)
        trace = best_response_iteration(start, params, max_iter=100_000)
        assert trace.status == "diverged"
        assert not trace.converged
        assert len(trace.rules) == len(trace.residuals) > 1
        assert all(math.isfinite(r.intercept) and math.isfinite(r.slope) for r in trace.rules)

    def test_max_iter_validation(self):
        with pytest.raises(ValueError):
            best_response_iteration(LinearRule(0.0, 1.0), ModelParams(mu=0.5, tau2=0.1), max_iter=0)
