"""Brute-force minimizers against the closed forms they exist to check."""

import math
import re
import warnings

import numpy as np
import pytest

from feedbackcast.errors import DegenerateConjecture, SingularDenominator
from feedbackcast.model import (
    TAYLOR_RULE,
    LinearRule,
    ModelParams,
    optimal_forecast,
)
from feedbackcast.oracle import (
    OracleConfig,
    exact_mse_minimizer,
    mc_mse_minimizer,
)
from feedbackcast.simulate import PolicyShockSpec, sample_policy_shock


def _random_setup(rng):
    mu = float(rng.uniform(0.2, 1.5))
    tau2 = float(rng.uniform(0.0, 0.4))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    conjecture = LinearRule(
        intercept=float(rng.uniform(-2.0, 2.0)),
        slope=sign * float(rng.uniform(0.3, 2.0)),
    )
    params = ModelParams(
        mu=mu,
        tau2=tau2,
        sigma2=float(rng.uniform(0.25, 2.0)),
        y_target=float(rng.uniform(-3.0, 3.0)),
    )
    theta = float(rng.uniform(-5.0, 5.0))
    return theta, conjecture, params


class TestOracleConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sample_count=9_999),
            dict(sample_count=10_000.5),
            dict(tolerance=0.0),
            dict(seed=-1),
            dict(tolerance=-1.0),
            dict(tolerance=math.inf),
            dict(seed=2.5),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OracleConfig(**kwargs)

    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.sample_count == 100_000
        assert cfg.tolerance == 1e-6
        assert cfg.seed == 0

    def test_bracket_halfwidth_is_no_longer_a_knob(self):
        # the exact minimizer has no bracket; the old keyword fails loudly
        with pytest.raises(TypeError, match="bracket_halfwidth"):
            OracleConfig(bracket_halfwidth=1.0)


class TestExactMinimizer:
    def test_matches_closed_form_broadly(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            theta, conjecture, params = _random_setup(rng)
            expected = optimal_forecast(conjecture, params)(theta)
            assert abs(exact_mse_minimizer(theta, conjecture, params) - expected) <= 1e-9

    def test_no_uncertainty_taylor_case(self):
        for mu, y_target, theta in [(0.5, 2.0, 3.0), (1.5, -1.0, 0.4)]:
            params = ModelParams(mu=mu, tau2=0.0, y_target=y_target)
            got = exact_mse_minimizer(theta, TAYLOR_RULE, params)
            want = theta / (mu + 1.0) + mu * y_target / (mu + 1.0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_huge_reaction_risk_pins_the_target_point(self):
        # with tau2 enormous the minimizer collapses to f = c*y_target + b,
        # the only forecast the DM reads as "already on target"
        conjecture = LinearRule(1.0, 2.0)
        params = ModelParams(mu=0.5, tau2=1e6, y_target=3.0)
        got = exact_mse_minimizer(4.0, conjecture, params)
        assert got == pytest.approx(2.0 * 3.0 + 1.0, abs=1e-3)

    @pytest.mark.parametrize("exponent", [4, 8, 9, 12, 50, 100])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("conjecture", [TAYLOR_RULE, LinearRule(0.3, -0.7)])
    def test_large_theta_keeps_its_digits(self, exponent, sign, conjecture):
        # the MSE values are of size theta**2; a unit step would lose the
        # curvature to their rounding from about theta 1e8
        params = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=1.0)
        theta = sign * 10.0**exponent
        want = optimal_forecast(conjecture, params)(theta)
        got = exact_mse_minimizer(theta, conjecture, params)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("theta", [1e160, -1e200])
    def test_mse_past_the_float_range_names_theta(self, theta):
        params = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=1.0)
        with pytest.raises(ValueError, match=re.escape(f"theta {theta!r} puts")):
            exact_mse_minimizer(theta, TAYLOR_RULE, params)

    def test_flat_objective_rejected(self):
        with pytest.raises(SingularDenominator):
            exact_mse_minimizer(1.0, LinearRule(0.0, -0.5), ModelParams(mu=0.5, tau2=0.0))

    def test_zero_slope_rejected(self):
        with pytest.raises(DegenerateConjecture):
            exact_mse_minimizer(1.0, LinearRule(1.0, 0.0), ModelParams(mu=0.5, tau2=0.1))


def _beta_dist(params, hi=1.0):
    return PolicyShockSpec(
        family="beta_scaled",
        target_mean=params.mu,
        target_var=params.tau2,
        support=(0.0, hi),
    )


class TestMcMinimizer:
    def test_within_three_stderr_of_closed_form(self):
        rng = np.random.default_rng(23)
        for seed in (1, 2, 3, 4, 5):
            mu = float(rng.uniform(0.3, 0.7))
            tau2 = float(rng.uniform(0.02, 0.15))
            params = ModelParams(mu=mu, tau2=tau2, sigma2=1.0, y_target=1.0)
            conjecture = LinearRule(0.2, 1.1)
            theta = float(rng.uniform(-3.0, 3.0))
            cfg = OracleConfig(sample_count=50_000, seed=seed)
            f_hat, stderr = mc_mse_minimizer(
                theta, conjecture, params, _beta_dist(params), cfg, with_stderr=True
            )
            expected = optimal_forecast(conjecture, params)(theta)
            assert abs(f_hat - expected) <= 3.0 * stderr + cfg.tolerance

    def test_degenerate_strength_reduces_to_noise_only_problem(self):
        params = ModelParams(mu=0.5, tau2=0.0, y_target=2.0)
        dist = PolicyShockSpec(family="degenerate", target_mean=0.5, target_var=0.0)
        cfg = OracleConfig(sample_count=100_000, seed=9)
        f_hat, stderr = mc_mse_minimizer(
            3.0, TAYLOR_RULE, params, dist, cfg, with_stderr=True
        )
        want = 3.0 / 1.5 + 0.5 * 2.0 / 1.5
        assert abs(f_hat - want) <= 3.0 * stderr + cfg.tolerance

    def test_stderr_shrinks_like_root_n(self):
        params = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=1.0)
        args = (2.0, TAYLOR_RULE, params, _beta_dist(params))
        _, se_small = mc_mse_minimizer(
            *args, OracleConfig(sample_count=100_000, seed=3), with_stderr=True
        )
        _, se_big = mc_mse_minimizer(
            *args, OracleConfig(sample_count=200_000, seed=3), with_stderr=True
        )
        assert 1.3 <= se_small / se_big <= 1.55

    def test_lands_on_the_per_draw_mse_argmin(self):
        # reference objective: the per-draw squared error of the structural
        # equation, averaged over the oracle's own seeded draws
        rng = np.random.default_rng(31)
        checked = 0
        for seed in (0, 1, 2):
            theta, conjecture, params = _random_setup(rng)
            hi = 2.0 * params.mu + 1.0
            if params.tau2 >= params.mu * (hi - params.mu):
                continue  # no beta on (0, hi) can hit these moments
            dist = _beta_dist(params, hi=hi)
            cfg = OracleConfig(sample_count=20_000, seed=seed)
            sx, se = np.random.SeedSequence(seed).spawn(2)
            x = sample_policy_shock(dist, cfg.sample_count, sx)
            eps = np.random.default_rng(se).normal(
                0.0, math.sqrt(params.sigma2), cfg.sample_count
            )
            b, c = conjecture.intercept, conjecture.slope

            def mse(f):
                adj = (c * params.y_target - f + b) / c
                return np.mean((theta + x * adj + eps - f) ** 2)

            best = optimal_forecast(conjecture, params)(theta)
            for half in (2.0, 1e-2, 5e-5):
                grid = best + np.linspace(-half, half, 401)
                best = float(grid[np.argmin([mse(f) for f in grid])])
            f_hat = mc_mse_minimizer(theta, conjecture, params, dist, cfg)
            assert abs(f_hat - best) <= cfg.tolerance
            # that objective is mean(A^2) - 2 f mean(u) + f^2 mean(v), least
            # at mean(u) / mean(v), which the oracle returns exactly
            a_i = theta + x * ((c * params.y_target + b) / c) + eps
            w_i = 1.0 + x / c
            assert f_hat == float(np.mean(a_i * w_i)) / float(np.mean(w_i * w_i))
            checked += 1
        assert checked >= 2

    def test_does_not_use_the_closed_form_it_checks(self, monkeypatch):
        import feedbackcast.model
        import feedbackcast.oracle

        def refuse(*args):
            raise AssertionError("the oracle called optimal_forecast")

        monkeypatch.setattr(feedbackcast.model, "optimal_forecast", refuse)
        # nor does it hold a copy bound at import, which the patch would miss
        assert not hasattr(feedbackcast.oracle, "optimal_forecast")
        params = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=1.0)
        cfg = OracleConfig(sample_count=10_000, seed=4)
        f_hat, stderr = mc_mse_minimizer(
            2.0, TAYLOR_RULE, params, _beta_dist(params), cfg, with_stderr=True
        )
        assert math.isfinite(f_hat) and stderr > 0.0

    def test_stderr_does_not_move_the_minimizer(self):
        params = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=1.0)
        dist = _beta_dist(params)
        for seed in (0, 5):
            cfg = OracleConfig(sample_count=10_000, seed=seed)
            f_hat = mc_mse_minimizer(2.0, TAYLOR_RULE, params, dist, cfg)
            pair = mc_mse_minimizer(2.0, TAYLOR_RULE, params, dist, cfg, with_stderr=True)
            assert pair[0] == f_hat
            # deterministic given the seed
            assert mc_mse_minimizer(2.0, TAYLOR_RULE, params, dist, cfg) == f_hat

    def test_flat_objective_rejected(self):
        # the reaction is a point mass at mu = -c, so every forecast scores alike
        params = ModelParams(mu=0.5, tau2=0.0)
        dist = PolicyShockSpec(family="degenerate", target_mean=0.5, target_var=0.0)
        cfg = OracleConfig(sample_count=10_000)
        with pytest.raises(SingularDenominator):
            mc_mse_minimizer(1.0, LinearRule(0.0, -0.5), params, dist, cfg)

    def test_state_near_the_float_range(self):
        # at theta 1e160 the minimizer's moments are finite but the squared
        # residuals of its stderr are not; the state dominates both answers,
        # so the stderr at 1e150 times 1e10 stands in for the one at 1e160
        params = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=1.0)
        args = (TAYLOR_RULE, params, _beta_dist(params), OracleConfig(sample_count=10_000))
        _, stderr = mc_mse_minimizer(1e150, *args, with_stderr=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f_hat = mc_mse_minimizer(1e160, *args)
            with pytest.raises(ValueError, match="float range"):
                mc_mse_minimizer(1e160, *args, with_stderr=True)
        expected = optimal_forecast(TAYLOR_RULE, params)(1e160)
        assert abs(f_hat - expected) <= 3.0 * stderr * 1e10

    @pytest.mark.parametrize("conjecture", [LinearRule(0.0, 1e10), LinearRule(1e300, 1e-10)])
    def test_conjecture_arithmetic_past_the_float_range_is_rejected(self, conjecture):
        # (c * y_target + b) / c overflows in scalar arithmetic, before any array
        params = ModelParams(mu=0.5, tau2=0.1, y_target=1e300)
        cfg = OracleConfig(sample_count=10_000)
        with pytest.raises(ValueError, match="float range"):
            mc_mse_minimizer(1.0, conjecture, params, _beta_dist(params), cfg)

    def test_distribution_must_match_params(self):
        params = ModelParams(mu=0.5, tau2=0.1)
        bad = PolicyShockSpec(family="beta_scaled", target_mean=0.6, target_var=0.1)
        with pytest.raises(ValueError):
            mc_mse_minimizer(1.0, TAYLOR_RULE, params, bad, OracleConfig())
