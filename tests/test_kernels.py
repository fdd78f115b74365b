"""Values of the numpy hot loops against scalar and per-slice references."""

import math
import tracemalloc

import numpy as np
import pytest

from feedbackcast import kernels


def _rolling_ols_by_window(xs, ys, window):
    """One least-squares fit per window slice, written out scalar by scalar:
    the arithmetic rolling_ols must reproduce bit for bit."""
    x_bar = kernels.rolling_mean(xs, window)
    y_bar = kernels.rolling_mean(ys, window)
    m = x_bar.shape[0]
    intercept, slope, intercept_se, slope_se, r_squared = (
        np.full(m, np.nan) for _ in range(5)
    )
    flat = np.zeros(m, dtype=np.uint8)
    for w in range(m):
        xw = xs[w : w + window]
        yw = ys[w : w + window]
        xb = x_bar[w]
        yb = y_bar[w]
        dx = xw - xb
        dy = yw - yb
        sxx = float(np.sum(dx * dx))
        sxy = float(np.sum(dx * dy))
        syy = float(np.sum(dy * dy))
        if sxx == 0.0:
            flat[w] = 1
            continue
        bhat = sxy / sxx
        ahat = yb - bhat * xb
        resid = yw - ahat - bhat * xw
        ssr = float(np.sum(resid * resid))
        sig2 = ssr / (window - 2)
        slope[w] = bhat
        intercept[w] = ahat
        slope_se[w] = math.sqrt(sig2 / sxx)
        intercept_se[w] = math.sqrt(sig2 * (1.0 / window + xb * xb / sxx))
        r_squared[w] = 1.0 - ssr / syy if syy > 0.0 else 1.0
    mean_error = kernels.rolling_mean(ys - xs, window)
    return intercept, slope, intercept_se, slope_se, r_squared, mean_error, flat


class TestReactPlayValues:
    def test_matches_scalar_arithmetic(self):
        theta = np.array([1.0, -2.0])
        x = np.array([0.5, 0.25])
        eps = np.array([0.1, -0.3])
        forecast, action, outcome, error = kernels.react_play(
            theta, x, eps, 0.5, 1.0, 0.0, 1.0, 2.0
        )
        assert np.array_equal(forecast, theta + 0.5)
        assert np.array_equal(action, x * (2.0 - forecast))
        assert np.array_equal(outcome, theta + action + eps)
        assert np.array_equal(error, outcome - forecast)


class TestMenuPlayValues:
    def test_indifferent_dm_takes_the_first_action(self):
        # x = 1/2 means t = 1; with theta on target both actions cost the same
        theta = np.array([2.0])
        x = np.array([0.5])
        eps = np.array([0.0])
        forecast, action, outcome, error = kernels.menu_play(
            theta, x, eps, -0.5, 0.5, 2.0
        )
        assert action[0] == -0.5
        assert forecast[0] == 1.5
        assert outcome[0] == forecast[0]
        assert error[0] == 0.0

    def test_subnormal_draw_on_a_symmetric_menu_keeps_the_tie(self):
        # the smallest positive draw makes t = 1/x - 1 infinite, but a
        # symmetric menu costs both actions the same, so the tie rule holds
        theta = np.array([2.0])
        x = np.array([5e-324])
        eps = np.array([0.0])
        _, action, _, _ = kernels.menu_play(theta, x, eps, -0.5, 0.5, 2.0)
        assert action[0] == -0.5

    def test_costly_action_avoided_when_x_is_small(self):
        theta = np.array([0.0, 0.0])
        x = np.array([0.01, 0.99])  # t = 99 versus t ~ 0.01
        eps = np.zeros(2)
        _, action, _, _ = kernels.menu_play(theta, x, eps, 0.0, 1.0, 2.0)
        assert action[0] == 0.0
        assert action[1] == 1.0


class TestRollingOls:
    def test_windows_match_polyfit(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(0.0, 1.0, 60)
        ys = 0.3 + 0.9 * xs + rng.normal(0.0, 0.4, 60)
        window = 12
        intercept, slope, i_se, s_se, r2, mean_error, flat = kernels.rolling_ols(
            xs, ys, window
        )
        assert not flat.any()
        for w in range(len(slope)):
            xw = xs[w : w + window]
            yw = ys[w : w + window]
            b, a = np.polyfit(xw, yw, 1)
            assert slope[w] == pytest.approx(b, rel=1e-9)
            assert intercept[w] == pytest.approx(a, rel=1e-9)
            resid = yw - a - b * xw
            sig2 = float(resid @ resid) / (window - 2)
            sxx = float(((xw - xw.mean()) ** 2).sum())
            assert s_se[w] == pytest.approx(math.sqrt(sig2 / sxx), rel=1e-7)
            want_ise = math.sqrt(sig2 * (1.0 / window + xw.mean() ** 2 / sxx))
            assert i_se[w] == pytest.approx(want_ise, rel=1e-7)
            syy = float(((yw - yw.mean()) ** 2).sum())
            assert r2[w] == pytest.approx(1.0 - resid @ resid / syy, abs=1e-9)
            assert mean_error[w] == pytest.approx(float((yw - xw).mean()), rel=1e-12)

    def test_flat_window_flagged_with_nan_fit(self):
        xs = np.array([1.0, 1.0, 1.0, 2.0, 3.0])
        ys = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        intercept, slope, i_se, s_se, r2, mean_error, flat = kernels.rolling_ols(
            xs, ys, 3
        )
        assert flat.tolist() == [1, 0, 0]
        assert np.isnan([intercept[0], slope[0], i_se[0], s_se[0], r2[0]]).all()
        assert mean_error[0] == pytest.approx(1.0)
        assert not np.isnan(slope[1:]).any()

    def test_constant_outcomes_have_unit_r_squared(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([5.0, 5.0, 5.0])
        *_, r2, _, flat = kernels.rolling_ols(xs, ys, 3)
        assert flat[0] == 0
        assert r2[0] == 1.0

    @pytest.mark.parametrize("window", [3, 40, 129])
    def test_chunked_pass_equals_the_per_window_fit(self, window):
        # one and a half chunks of windows, so the last chunk is partial
        step = max(1, kernels._CHUNK_ELEMS // window)
        n = step + step // 2 + window - 1
        rng = np.random.default_rng(window)
        xs = rng.normal(0.0, 1.0, n)
        ys = 0.4 + 0.8 * xs + rng.normal(0.0, 0.5, n)
        # constant regressors over windows step-2 .. step+1 straddle the
        # first chunk boundary; sums of 2.0 divide back to exactly 2.0
        xs[step - 2 : step + window + 1] = 2.0
        # one window of constant outcomes, away from the flat run
        ys[10 : 10 + window] = 4.0
        # one window whose squared deviations underflow to zero while its
        # cross products do not: flat, though sxy / sxx would be infinite
        xs[window + 20 : 2 * window + 20] = 1e-170 * np.arange(window)
        got = kernels.rolling_ols(xs, ys, window)
        want = _rolling_ols_by_window(xs, ys, window)
        assert got[6][step - 2 : step + 2].tolist() == [1, 1, 1, 1]
        assert got[6][window + 20] == 1
        assert got[4][10] == 1.0
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w, equal_nan=True)

    @pytest.mark.parametrize("window", [0, 2, 11])
    def test_window_outside_three_to_length_rejected(self, window):
        xs = np.arange(10.0)
        with pytest.raises(ValueError):
            kernels.rolling_ols(xs, xs * 2.0, window)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            kernels.rolling_ols(np.arange(10.0), np.arange(9.0), 3)

    def test_peak_memory_does_not_grow_with_the_window(self):
        rng = np.random.default_rng(11)
        xs = rng.normal(0.0, 1.0, 60_000)
        ys = xs + rng.normal(0.0, 1.0, 60_000)
        peaks = {}
        for window in (40, 1000):
            tracemalloc.start()
            try:
                kernels.rolling_ols(xs, ys, window)
                peaks[window] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1000] <= 1.1 * peaks[40]
        assert peaks[1000] < 8 * 2**20


class TestRollingMean:
    def test_against_cumsum(self):
        values = np.random.default_rng(8).normal(0.0, 1.0, 41)
        got = kernels.rolling_mean(values, 5)
        want = np.convolve(values, np.ones(5) / 5.0, mode="valid")
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
        assert got.shape == (37,)

    @pytest.mark.parametrize("window", [1, 3, 8, 129, 300])
    def test_equals_per_slice_sums(self, window):
        values = np.random.default_rng(9).normal(2.0, 3.0, 300)
        got = kernels.rolling_mean(values, window)
        want = np.array(
            [np.sum(values[w : w + window]) / window for w in range(301 - window)]
        )
        assert np.array_equal(got, want)


def _format_cases():
    """Seeded float64 values for format_rows, over 1e6 of them, with every
    edge of %.10g's rounding and layout."""
    rng = np.random.default_rng(20230829)
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    exact = [
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
        1.7976931348623157e308, -1.7976931348623157e308,
        1234567890.5, 1234567891.5, -9876543210.5, 12345678905.0, 0.25, 2.5,
        9999999999.5, 9999999999.4999990, 1e10, np.nextafter(1e10, 0.0),
        0.99999999995, 9.9999999995e-5, 999999999.95,
        1e-4, np.nextafter(1e-4, 0.0), 1e-5, np.nextafter(1e-5, 1.0),
    ]
    # 10-digit integers plus one half, and 11-digit ones ending in 5: the
    # exact value sits on the tie between two 10-digit results
    ties = rng.integers(10**9, 10**10, 20_000).astype(np.float64)
    decades = [
        10.0**e * rng.uniform(1.0, 10.0, 10_000) * rng.choice([-1.0, 1.0], 10_000)
        for e in range(-15, 34)
    ]
    rounded = [
        np.round(rng.normal(0.0, 10.0 ** rng.integers(0, 6), 20_000), d)
        for d in range(13)
    ]
    return np.concatenate([
        exact,
        rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(np.float64),
        rng.integers(0, 2**52, 20_000, dtype=np.uint64).view(np.float64),  # subnormal
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers,
        ties + 0.5, ties * 10.0 + 5.0,
        *decades,
        *rounded,
        rng.normal(0.0, 1.0, 100_000),
    ])


class TestFormatRows:
    def test_equals_the_exact_printer_byte_for_byte(self):
        values = _format_cases()
        assert values.size >= 1_000_000
        cols = 4
        values = np.concatenate([values, np.zeros(-values.size % cols)])
        table = values.reshape(-1, cols)
        row = ",".join(["%.10g"] * cols) + "\n"
        for start in range(0, table.shape[0], 4096):
            block = table[start : start + 4096]
            got = kernels.format_rows(list(block.T))
            want = (row * block.shape[0]) % tuple(block.ravel().tolist())
            if got != want:
                pairs = zip(got.splitlines(), want.splitlines(), block.tolist())
                bad = next(p for p in pairs if p[0] != p[1])
                pytest.fail(f"format_rows gave {bad[0]!r}, %.10g gives {bad[1]!r} for {bad[2]}")

    def test_one_row_and_one_column(self):
        assert kernels.format_rows([np.array([-0.0])]) == "-0\n"
        assert kernels.format_rows([[1e-8], [2.5], [1e22]]) == "1e-08,2.5,1e+22\n"

    def test_in_range_values_need_no_fallback(self):
        # the exact printer is for near-ties and the edges, not the bulk
        rng = np.random.default_rng(4)
        values = np.concatenate([
            *(rng.normal(0.0, 10.0**e, 10_000) for e in (-12, -6, -3, 0, 3, 9, 20)),
            np.zeros(500),
            -np.zeros(500),
        ])
        _, _, fast = kernels._g10_digits(kernels._g10_tables(), values)
        assert fast.mean() > 0.9999
