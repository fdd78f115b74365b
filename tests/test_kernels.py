"""Values of the numpy hot loops against scalar and per-slice references."""

import contextlib
import math
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

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
        # np.hypot, as the kernel calls it: math.hypot rounds differently
        intercept_se[w] = slope_se[w] * np.hypot(math.sqrt(sxx / window), xb)
        r_squared[w] = 1.0 - ssr / syy if syy > 0.0 else 1.0
    return intercept, slope, intercept_se, slope_se, r_squared, flat


@contextlib.contextmanager
def _warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


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

    # The DM reads the state (f - b)/c off forecast f through its conjecture
    # (b, c) and takes a = x * (y_target - (f - b)/c), where x = 1/(1 + t)
    # for action cost t. The rule (d, e) = (f, 0) publishes f whatever theta.

    @staticmethod
    def _action(f, x, b, c, y_target):
        n = np.size(x)
        return kernels.react_play(
            np.zeros(n), np.broadcast_to(x, n), np.zeros(n), f, 0.0, b, c, y_target
        )[1]

    def test_taylor_conjecture_reads_the_forecast_as_the_state(self):
        assert self._action(1.0, 0.5, 0.0, 1.0, 2.0)[0] == 0.5

    def test_general_conjecture(self):
        assert self._action(3.0, 1.0, 1.0, 2.0, 0.0)[0] == -1.0

    @pytest.mark.parametrize("x", [0.1, 1.0, 7.3])
    def test_on_target_means_no_action(self, x):
        assert self._action(-3.0, x, 0.0, 1.0, -3.0)[0] == 0.0

    def test_implied_target_point_is_inert(self):
        # f = c * y_target + b implies the state y_target
        b, c, y_target = 0.3, 1.7, 2.0
        assert self._action(c * y_target + b, 0.8, b, c, y_target)[0] == 0.0

    def test_unit_cost_halves_the_gap(self):
        assert self._action(0.0, 1.0 / (1.0 + 1.0), 0.0, 1.0, 2.0)[0] == 1.0

    def test_prohibitive_cost_freezes_the_dm(self):
        assert abs(self._action(1.0, 1.0 / (1.0 + 1e9), 0.0, 1.0, 2.0)[0]) < 1e-8

    def test_equals_the_written_out_reaction_bit_for_bit(self):
        rng = np.random.default_rng(20231018)
        for _ in range(200):
            xs = rng.uniform(0.01, 3.0, 10)
            b, f, y_target = rng.normal(0.0, 10.0, 3)
            c = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
            got = self._action(f, xs, b, c, y_target)
            want = [float(x) * (float(y_target) - (float(f) - float(b)) / float(c)) for x in xs]
            assert got.tolist() == want

    @pytest.mark.parametrize("t", [-0.5, 0.0, 0.5, 1.0, 4.0])
    @pytest.mark.parametrize("b,c", [(0.0, 1.0), (0.4, -1.2)], ids=["taylor", "general"])
    def test_action_minimizes_the_dms_loss(self, t, b, c):
        # the DM minimizes (state + a - y_target)**2 + t * a**2 over a; on a
        # grid centred on the kernel's action, the centre costs the least
        rng = np.random.default_rng(17)
        grid = np.linspace(-1.0, 1.0, 2001)
        for f, y_target in rng.uniform(-4.0, 4.0, (10, 2)):
            action = self._action(f, 1.0 / (1.0 + t), b, c, y_target)[0]
            a = action + grid
            loss = ((f - b) / c + a - y_target) ** 2 + t * a * a
            assert np.argmin(loss) == 1000

    @pytest.mark.parametrize("f", [1e150, 1e160, 1e200, 1e300, -8e307])
    def test_large_forecasts_match_exact_arithmetic(self, f):
        y_target = 2.0
        for t in (-0.5, 0.0, 0.5, 4.0):
            x = 1.0 / (1.0 + t)
            # at -8e307 the error column overflows, which the play's float
            # range guard reports; only the action is read here
            with np.errstate(over="ignore"):
                got = self._action(f, x, 0.0, 1.0, y_target)[0]
            want = Fraction(x) * (Fraction(y_target) - Fraction(f))
            assert abs(Fraction(got) - want) <= 2 * Fraction(np.finfo(float).eps) * abs(want)


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
        intercept, slope, i_se, s_se, r2, flat = kernels.rolling_ols(xs, ys, window)
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

    def test_flat_window_flagged_with_nan_fit(self):
        xs = np.array([1.0, 1.0, 1.0, 2.0, 3.0])
        ys = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        intercept, slope, i_se, s_se, r2, flat = kernels.rolling_ols(xs, ys, 3)
        assert flat.tolist() == [1, 0, 0]
        assert np.isnan([intercept[0], slope[0], i_se[0], s_se[0], r2[0]]).all()
        assert not np.isnan(slope[1:]).any()

    def test_constant_outcomes_have_unit_r_squared(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([5.0, 5.0, 5.0])
        *_, r2, flat = kernels.rolling_ols(xs, ys, 3)
        assert flat[0] == 0
        assert r2[0] == 1.0

    @pytest.mark.parametrize("window", [3, 40, 129])
    def test_chunked_pass_equals_the_per_window_fit(self, monkeypatch, started_threads, window):
        # one and a half one-thread chunks of windows, so the last chunk is
        # partial and two usable CPUs split the windows in two halves
        one_thread_step = max(1, kernels._CHUNK_ELEMS // window)
        m = one_thread_step + one_thread_step // 2
        n = m + window - 1
        for cpus in (1, 2):
            monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
            started_threads.clear()
            # the first chunk boundary rolling_ols takes, and on two CPUs the
            # start of the second half, whose chunks are half as long
            if cpus == 1:
                edges = [one_thread_step]
            else:
                edges = [kernels._CHUNK_ELEMS // 2 // window, m // 2]
            rng = np.random.default_rng(window)
            xs = rng.normal(0.0, 1.0, n)
            ys = 0.4 + 0.8 * xs + rng.normal(0.0, 0.5, n)
            # constant regressors over windows edge-2 .. edge+1 straddle each
            # boundary; sums of 2.0 divide back to exactly 2.0
            for edge in edges:
                xs[edge - 2 : edge + window + 1] = 2.0
            # one window of constant outcomes, away from the flat runs
            ys[10 : 10 + window] = 4.0
            # one window whose squared deviations underflow to zero while its
            # cross products do not: flat, though sxy / sxx would be infinite
            tiny = m - 20
            xs[tiny : tiny + window] = 1e-170 * np.arange(window)
            got = kernels.rolling_ols(xs, ys, window)
            assert len(started_threads) == cpus - 1
            want = _rolling_ols_by_window(xs, ys, window)
            for edge in edges:
                assert got[5][edge - 2 : edge + 2].tolist() == [1, 1, 1, 1], (cpus, edge)
            assert got[5][tiny] == 1
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

    def test_a_window_past_the_budget_fits_through_two_buffers(self):
        # a one-window fit, as play_game and ols_mz make through the same
        # sums: each work buffer holds the whole window, and there are two
        n = 10**6
        rng = np.random.default_rng(14)
        xs = rng.normal(0.0, 1.0, n)
        ys = 0.2 + 0.7 * xs + rng.normal(0.0, 1.0, n)
        tracemalloc.start()
        try:
            got = kernels.rolling_ols(xs, ys, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * n
        want = _rolling_ols_by_window(xs, ys, n)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w, equal_nan=True)


class TestRollingOlsWorkers:
    # a budget of 5 * 1024 elements a buffer: chunks of a few dozen windows,
    # so the windows span several chunks and more than one CPU splits them
    WINDOW = 40

    @pytest.fixture
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(kernels, "_CHUNK_ELEMS", 5 << 10)

    def _series(self, cpus, feature):
        """About 7.5 budget-sized chunks of windows, with ``feature`` across
        the boundary between the two halves wherever ``cpus`` splits them."""
        window = self.WINDOW
        step = kernels._CHUNK_ELEMS // window
        m = 7 * step + step // 2 + 3
        rng = np.random.default_rng(cpus)
        xs = rng.normal(0.0, 1.0, m + window - 1)
        ys = 0.4 + 0.8 * xs + rng.normal(0.0, 0.5, xs.shape[0])
        b = m // 2
        if cpus > 1 and feature == "flat":
            # windows b-2 .. b+1 have a constant regressor
            xs[b - 2 : b + window + 1] = 2.0
        elif cpus > 1:
            # windows b-1 and b have constant outcomes
            ys[b - 1 : b + window] = 4.0
        return xs, ys, m

    @pytest.mark.parametrize("feature", ["flat", "constant_ys"])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_outputs_do_not_depend_on_the_worker_count(
        self, monkeypatch, small_budget, started_threads, cpus, feature
    ):
        xs, ys, m = self._series(cpus, feature)
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
        got = kernels.rolling_ols(xs, ys, self.WINDOW)
        # one helper thread at most, whatever the number of CPUs
        assert len(started_threads) == min(cpus, 2) - 1
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 1)
        alone = kernels.rolling_ols(xs, ys, self.WINDOW)
        want = _rolling_ols_by_window(xs, ys, self.WINDOW)
        b = m // 2
        if cpus > 1 and feature == "flat":
            assert got[5][b - 2 : b + 2].tolist() == [1, 1, 1, 1]
        elif cpus > 1:
            assert got[4][b - 1 : b + 1].tolist() == [1.0, 1.0]
        for g, a, w in zip(got, alone, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w, equal_nan=True)
            assert np.array_equal(g, a, equal_nan=True)

    def test_one_chunk_runs_without_a_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a single chunk started a thread")

        monkeypatch.setattr(kernels, "threading", SimpleNamespace(Thread=no_thread))
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 4)
        rng = np.random.default_rng(12)
        xs = rng.normal(0.0, 1.0, 5000)
        ys = xs + rng.normal(0.0, 1.0, 5000)
        *_, flat = kernels.rolling_ols(xs, ys, 5000)
        assert flat.tolist() == [0]

    def test_a_window_over_half_the_budget_runs_without_a_thread(
        self, monkeypatch, started_threads
    ):
        # six one-window chunks, but half a buffer cannot hold a window
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
        window = kernels._CHUNK_ELEMS // 2 + 1
        rng = np.random.default_rng(15)
        xs = rng.normal(0.0, 1.0, window + 5)
        ys = xs + rng.normal(0.0, 1.0, xs.shape[0])
        got = kernels.rolling_ols(xs, ys, window)
        assert not started_threads
        for g, w in zip(got, _rolling_ols_by_window(xs, ys, window)):
            assert np.array_equal(g, w, equal_nan=True)

    def _overflow_in_last_window(self):
        # two halves on the real budget; only the last window, in the half the
        # helper thread fits, holds the value whose square overflows
        rng = np.random.default_rng(13)
        xs = rng.normal(0.0, 1.0, 3 * (kernels._CHUNK_ELEMS // self.WINDOW))
        xs[-1] = 1e200
        return xs, xs + rng.normal(0.0, 1.0, xs.shape[0])

    def test_the_first_halfs_exception_is_raised_before_the_helpers(
        self, monkeypatch, started_threads
    ):
        def fail(*args):
            raise LookupError(args[-2])  # the first window of the half

        monkeypatch.setattr(kernels, "_fit_windows", fail)
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
        xs, ys = self._overflow_in_last_window()
        with pytest.raises(LookupError) as raised:
            kernels.rolling_ols(xs, ys, self.WINDOW)
        assert raised.value.args == (0,)
        assert len(started_threads) == 1

    @pytest.mark.parametrize(
        "caller_state",
        [contextlib.nullcontext, lambda: np.errstate(all="ignore"), _warnings_as_errors],
        ids=["default", "errstate_ignore", "warnings_error"],
    )
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_overflow_raises_the_fits_error_whatever_the_callers_state(
        self, monkeypatch, started_threads, cpus, caller_state
    ):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
        xs, ys = self._overflow_in_last_window()
        with caller_state():
            before = np.geterr()
            with pytest.raises(ValueError, match=r"^the fit's sums overflowed the float range"):
                kernels.rolling_ols(xs, ys, self.WINDOW)
            assert np.geterr() == before
        assert len(started_threads) == cpus - 1


    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_underflow_is_no_error_whatever_the_callers_state(self, monkeypatch, cpus):
        # squared deviations of 1e-170 underflow to zero, so the first and the
        # last window are flat, in either half, also where the caller has
        # numpy raise on underflow
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
        window = self.WINDOW
        rng = np.random.default_rng(16)
        xs = rng.normal(0.0, 1.0, 3 * (kernels._CHUNK_ELEMS // window))
        ys = xs + rng.normal(0.0, 1.0, xs.shape[0])
        for start in (0, xs.shape[0] - window):
            xs[start : start + window] = 1e-170 * np.arange(window)
        want = kernels.rolling_ols(xs, ys, window)
        with np.errstate(under="raise"):
            got = kernels.rolling_ols(xs, ys, window)
        assert got[5][0] == got[5][-1] == 1
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)


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
