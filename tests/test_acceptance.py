"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single ``criterion N: PASS ...`` line once its assertions
hold (visible under ``pytest -s``); a failure surfaces as a normal pytest
assertion instead.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

import golden_helpers
from feedbackcast import cli
from feedbackcast.errors import NoEquilibrium
from feedbackcast.model import (
    TAYLOR_RULE,
    LinearRule,
    ModelParams,
    conditional_bias_and_mz,
    equilibrium_bias_and_mz,
    optimal_forecast,
    solve_equilibria,
)
from feedbackcast.oracle import OracleConfig, exact_mse_minimizer, mc_mse_minimizer
from feedbackcast.simulate import (
    PolicyShockSpec,
    SimulationRun,
    StateNoiseSpec,
    play_game,
)


def test_criterion_1_reported_slopes(capsys):
    start = time.perf_counter()
    rc = cli.main(["solve", "--mu", "0.98", "--tau2", "0.1"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    taylor = report["taylor"]["mz_line"]["slope"]
    strategic = report["equilibrium"]["mz_line"]["slope"]
    assert abs(taylor - 1.05) <= 0.005
    assert abs(strategic - (-0.22)) <= 0.005
    assert elapsed < 1.0
    print(
        f"\ncriterion 1: PASS (taylor MZ slope {taylor:.4f}, "
        f"strategic {strategic:.4f}, {elapsed:.2f}s)"
    )


def test_criterion_2_fixed_point_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    checked = 0
    worst = 0.0
    while checked < 1000:
        params = ModelParams(
            mu=rng.uniform(0.05, 2.5),
            tau2=rng.uniform(0.0, 0.25),
            y_target=rng.uniform(-5.0, 5.0),
        )
        sol = solve_equilibria(params)
        assert sol.exists
        if any(root.degenerate for root in sol.roots):
            continue
        for index in (1, 2):
            rule = sol.rule(index)
            image = optimal_forecast(rule, params)
            resid = max(
                abs(image.intercept - rule.intercept), abs(image.slope - rule.slope)
            )
            worst = max(worst, resid)
            assert resid < 1e-10
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\ncriterion 2: PASS (1000 draws, worst residual {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(301)
    worst_exact = 0.0
    worst_z = 0.0
    for _ in range(200):
        mu = float(np.exp(rng.uniform(np.log(0.1), np.log(1.5))))
        hi = 2.0 * mu + 1.0
        cap = mu * (hi - mu)
        tau2 = float(rng.uniform(0.005, min(0.3, 0.8 * cap)))
        params = ModelParams(
            mu=mu,
            tau2=tau2,
            sigma2=float(rng.uniform(0.25, 2.0)),
            y_target=float(rng.uniform(-3.0, 3.0)),
        )
        sign = 1.0 if rng.random() < 0.5 else -1.0
        conjecture = LinearRule(
            intercept=float(rng.uniform(-2.0, 2.0)),
            slope=sign * float(rng.uniform(0.3, 2.0)),
        )
        theta = float(rng.uniform(-5.0, 5.0))
        f_star = optimal_forecast(conjecture, params)(theta)

        exact = exact_mse_minimizer(theta, conjecture, params)
        worst_exact = max(worst_exact, abs(exact - f_star))
        assert abs(exact - f_star) <= 1e-9

        dist = PolicyShockSpec(
            family="beta_scaled", target_mean=mu, target_var=tau2, support=(0.0, hi)
        )
        cfg = OracleConfig(
            sample_count=200_000,
            tolerance=1e-6,
            seed=int(rng.integers(2**63)),
        )
        f_hat, stderr = mc_mse_minimizer(
            theta, conjecture, params, dist, cfg, with_stderr=True
        )
        # the minimizer is exact for its draws, so the error is Monte Carlo
        # error alone; `tolerance` is slack on top of it
        assert abs(f_hat - f_star) <= 3.0 * stderr + cfg.tolerance
        worst_z = max(worst_z, abs(f_hat - f_star) / stderr)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\ncriterion 3: PASS (200 configs, exact diff <= {worst_exact:.2e}, "
        f"worst MC z {worst_z:.2f}, {elapsed:.1f}s)"
    )


def test_criterion_4_mz_recovery():
    start = time.perf_counter()
    params = ModelParams(mu=0.7, tau2=0.15, sigma2=0.5, y_target=2.0)
    shock = PolicyShockSpec(family="beta_scaled", target_mean=0.7, target_var=0.15)
    state = StateNoiseSpec(theta_mean=2.0, theta_var=1.0, noise_var=0.5)
    run = SimulationRun(draw_count=1_000_000, seed=42, scenario="equilibrium")
    out = play_game(run, shock, state, params)

    bias_target, mz_target = equilibrium_bias_and_mz(params)
    coef_formula = 2.0 * 0.15 / (1.0 + math.sqrt(1.0 - 4.0 * 0.15))
    assert math.isclose(bias_target.coef_theta, coef_formula, rel_tol=1e-12)

    mz = out.summary.mz
    z_int = abs(mz.line.intercept - mz_target.intercept) / mz.stderrs[0]
    z_slope = abs(mz.line.slope - mz_target.slope) / mz.stderrs[1]
    bias = out.summary.bias_fit
    z_bias = abs(bias.line.coef_theta - coef_formula) / bias.stderrs[1]
    assert z_int < 3.0
    assert z_slope < 3.0
    assert z_bias < 3.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\ncriterion 4: PASS (z intercept {z_int:.2f}, slope {z_slope:.2f}, "
        f"bias {z_bias:.2f}, {elapsed:.1f}s)"
    )


def test_criterion_5_bias_vanishes():
    taus = (0.1, 0.01, 0.001, 0.0)
    lines = [
        equilibrium_bias_and_mz(ModelParams(mu=0.5, tau2=t, y_target=1.0))
        for t in taus
    ]
    coefs = [b.coef_theta for b, _ in lines]
    slopes = [m.slope for _, m in lines]
    assert all(a > b for a, b in zip(coefs, coefs[1:]))
    assert coefs[-1] == 0.0
    gaps = [abs(s - 1.0) for s in slopes]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert slopes[-1] == 1.0
    print(f"\ncriterion 5: PASS (bias coefs {coefs} decreasing to 0, MZ slope -> 1)")


def test_criterion_6_mu_one_degeneracy():
    for y_target in (2.0, -1.5):
        for tau2 in (0.05, 0.1, 0.2):
            _, mz = equilibrium_bias_and_mz(
                ModelParams(mu=1.0, tau2=tau2, y_target=y_target)
            )
            assert abs(mz.slope) < 1e-12
            assert mz.intercept == y_target
    print("\ncriterion 6: PASS (mu=1 gives MZ slope 0 and intercept y_target exactly)")


def test_criterion_7_nonexistence_and_attenuation():
    params = ModelParams(mu=0.5, tau2=0.26)
    sol = solve_equilibria(params)
    assert not sol.exists
    with pytest.raises(NoEquilibrium):
        sol.rule()
    with pytest.raises(NoEquilibrium):
        equilibrium_bias_and_mz(params)

    rng = np.random.default_rng(77)
    for _ in range(1000):
        c = float(rng.uniform(0.001, 5.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        conjecture = LinearRule(intercept=float(rng.uniform(-3.0, 3.0)), slope=c)
        params = ModelParams(
            mu=float(rng.uniform(0.05, 3.0)), tau2=float(rng.uniform(0.2500001, 1.5))
        )
        assert abs(optimal_forecast(conjecture, params).slope) < abs(c)
    print("\ncriterion 7: PASS (tau2=0.26 has no equilibrium; 1000/1000 attenuated)")


def test_criterion_8_conditional_suite():
    params = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=2.0)
    shock = PolicyShockSpec(family="beta_scaled", target_mean=0.5, target_var=0.1)
    state = StateNoiseSpec(theta_mean=1.0, theta_var=1.5, noise_var=1.0)

    run = SimulationRun(
        draw_count=400_000,
        seed=8801,
        scenario="conditional",
        conjecture=TAYLOR_RULE,
        assumed_action=0.2,
    )
    out = play_game(run, shock, state, params)
    target_bias, _ = conditional_bias_and_mz(0.2, TAYLOR_RULE, params)
    fit = out.summary.bias_fit
    z_theta = abs(fit.line.coef_theta - target_bias.coef_theta) / fit.stderrs[1]
    z_const = abs(fit.line.coef_const - target_bias.coef_const) / fit.stderrs[0]
    assert z_theta < 3.0
    assert z_const < 3.0

    menu_run = SimulationRun(
        draw_count=400_000, seed=8802, scenario="constrained_menu", menu=(0.0, 0.5)
    )
    menu_out = play_game(menu_run, shock, state, params)
    err = menu_out.error
    se = float(np.std(err, ddof=1)) / math.sqrt(err.size)
    z_menu = abs(float(np.mean(err))) / se
    assert z_menu < 3.0

    p1 = ModelParams(mu=1.0, tau2=0.1, y_target=2.0)
    for a0 in (0.0, 0.25, -1.0):
        _, mz = conditional_bias_and_mz(a0, TAYLOR_RULE, p1)
        assert mz.slope == 0.0
        assert mz.intercept == -a0 + p1.y_target
    print(
        f"\ncriterion 8: PASS (bias z ({z_theta:.2f}, {z_const:.2f}), "
        f"menu mean-error z {z_menu:.2f}, mu=1 MZ exact)"
    )


def test_criterion_9_rolling_golden(tmp_path):
    series, rolling = golden_helpers.regenerate(tmp_path)
    committed_series = golden_helpers.DATA_DIR / golden_helpers.SERIES_NAME
    committed_rolling = golden_helpers.DATA_DIR / golden_helpers.ROLLING_NAME
    assert series.read_bytes() == committed_series.read_bytes()
    assert rolling.read_bytes() == committed_rolling.read_bytes()

    slopes = {}
    with open(committed_rolling, newline="") as fh:
        for row in csv.DictReader(fh):
            slopes[row["window_end"]] = float(row["mz_slope"])
    n = golden_helpers.PERIODS_PER_REGIME
    quarters = (
        (golden_helpers.REGIMES[0], f"p{3 * n // 4 + 1:05d}", f"p{n:05d}"),
        (golden_helpers.REGIMES[1], f"p{n + 3 * n // 4 + 1:05d}", f"p{2 * n:05d}"),
    )
    diffs = []
    for regime, lo, hi in quarters:
        vals = [v for k, v in slopes.items() if lo <= k <= hi]
        assert len(vals) == n // 4
        diffs.append(abs(float(np.mean(vals)) - golden_helpers.regime_slope(regime)))
        assert diffs[-1] < 0.1
    print(
        f"\ncriterion 9: PASS (golden files byte-identical; regime slope "
        f"gaps {diffs[0]:.3f}, {diffs[1]:.3f} < 0.1)"
    )
