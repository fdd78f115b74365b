"""CSV ingestion and rolling diagnostics."""

import io
import warnings

import numpy as np
import pytest

from feedbackcast import kernels
from feedbackcast.errors import (
    InsufficientData,
    ParseError,
    SchemaError,
    WindowTooLarge,
    ZeroVariance,
)
from feedbackcast.evaluate import (
    ForecastSeries,
    ingest_csv,
    rolling_mz,
)
from feedbackcast.simulate import ols_mz

HEADER = "period,forecast,realization\n"


def _series_text(rows):
    return HEADER + "".join(f"{p},{f},{r}\n" for p, f, r in rows)


def _write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngest:
    def test_basic_file(self, tmp_path):
        rows = [("2001q1", 1.0, 1.5), ("2001q2", 2.0, 1.5), ("2001q3", 0.5, 1.0)]
        series = ingest_csv(_write(tmp_path, _series_text(rows)))
        assert isinstance(series, ForecastSeries)
        assert series.periods == ("2001q1", "2001q2", "2001q3")
        assert np.array_equal(series.forecast, [1.0, 2.0, 0.5])
        assert np.array_equal(series.realization, [1.5, 1.5, 1.0])

    def test_utf8_byte_order_mark_is_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" puts a byte-order mark before the header
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbf" + _series_text([("a", 1, 2), ("b", 3, 4)]).encode())
        series = ingest_csv(path)
        assert series.periods == ("a", "b")
        assert np.array_equal(series.forecast, [1.0, 3.0])

    def test_accepts_streams(self):
        series = ingest_csv(io.StringIO(_series_text([("a", 1, 2), ("b", 3, 4)])))
        assert len(series.periods) == 2

    def test_blank_lines_are_skipped(self, tmp_path):
        text = HEADER + "a,1,2\n\n\nb,3,4\n"
        series = ingest_csv(_write(tmp_path, text))
        assert series.periods == ("a", "b")

    def test_parse_error_reports_line_number(self, tmp_path):
        text = HEADER + "a,1,2\nb,not_a_number,4\n"
        with pytest.raises(ParseError) as exc:
            ingest_csv(_write(tmp_path, text))
        assert exc.value.line_number == 3
        assert "line 3" in str(exc.value)

    def test_wrong_field_count(self, tmp_path):
        text = HEADER + "a,1\n"
        with pytest.raises(ParseError):
            ingest_csv(_write(tmp_path, text))

    def test_empty_label(self, tmp_path):
        text = HEADER + ",1,2\n"
        with pytest.raises(ParseError):
            ingest_csv(_write(tmp_path, text))

    def test_bad_header(self, tmp_path):
        with pytest.raises(SchemaError):
            ingest_csv(_write(tmp_path, "period,forecast\na,1\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(SchemaError):
            ingest_csv(_write(tmp_path, ""))

    def test_header_only_gives_empty_series(self, tmp_path):
        series = ingest_csv(_write(tmp_path, HEADER))
        assert series.periods == ()
        with pytest.raises(WindowTooLarge):
            rolling_mz(series, window=3)

    def test_nonfinite_values_rejected(self, tmp_path):
        for bad in ("inf", "-inf", "nan"):
            text = HEADER + f"a,1,2\nb,{bad},4\n"
            with pytest.raises(ValueError):
                ingest_csv(_write(tmp_path, text))

    @pytest.mark.parametrize(
        "periods,forecast,realization,message",
        [
            (("a", "b"), [[1.0, 2.0]], [3.0, 4.0], "must be 1-D"),
            (("a", "b", "c"), [1.0, 2.0], [3.0, 4.0], "lengths differ"),
            (("a", "b"), [1.0, 2.0], [3.0, float("nan")], "non-finite realization"),
        ],
        ids=["2-d-forecast", "mismatched-lengths", "nan"],
    )
    def test_direct_construction_is_validated(self, periods, forecast, realization, message):
        with pytest.raises(ValueError, match=message):
            ForecastSeries(periods, np.array(forecast), np.array(realization))

    def test_labels_must_strictly_increase(self, tmp_path):
        text = HEADER + "b,1,2\na,3,4\n"
        with pytest.raises(ValueError):
            ingest_csv(_write(tmp_path, text))
        text = HEADER + "a,1,2\na,3,4\n"
        with pytest.raises(ValueError):
            ingest_csv(_write(tmp_path, text))


def _labelled(forecasts, realizations):
    labels = tuple(f"p{i:04d}" for i in range(len(forecasts)))
    return ForecastSeries(periods=labels, forecast=forecasts, realization=realizations)


def _random_series(n, seed=0):
    rng = np.random.default_rng(seed)
    forecasts = rng.normal(2.0, 1.0, n)
    return _labelled(forecasts, 0.2 + 0.9 * forecasts + rng.normal(0.0, 0.5, n))


def _errors_overflow():
    return _labelled(np.full(5, -1e308), np.full(5, 1e308)), 3


def _window_sum_overflows():
    """Finite errors, 40 of which sum past the float range. The forecasts
    and realizations are constant, so the fit's own sums stay finite and
    only the sum behind the mean_error column overflows."""
    series = _labelled(np.full(40, -0.44e307), np.full(40, 0.44e307))
    assert np.isfinite(series.errors).all()
    return series, 40


class TestRollingMz:
    def test_record_count_and_labels(self):
        series = _random_series(4)
        result = rolling_mz(series, window=3)
        assert len(result) == 2
        assert result.window == 3
        assert result.window_end == ("p0002", "p0003")

    def test_constant_errors_give_a_constant_mean_error(self):
        n = 6
        series = ForecastSeries(
            periods=tuple(f"t{i}" for i in range(n)),
            forecast=np.arange(n, dtype=float),
            realization=np.arange(n, dtype=float) + 0.5,
        )
        result = rolling_mz(series, window=3)
        assert result.window_end == ("t2", "t3", "t4", "t5")
        assert result.mean_error.tolist() == pytest.approx([0.5] * 4, abs=1e-12)

    def test_full_window_matches_the_plain_fit(self):
        series = _random_series(50, seed=3)
        result = rolling_mz(series, window=50)
        fit = ols_mz(series.forecast, series.realization)
        assert result.mz_intercept[0] == fit.line.intercept
        assert result.mz_slope[0] == fit.line.slope
        assert result.slope_stderr[0] == fit.stderrs[1]
        assert result.r_squared[0] == fit.r_squared

    def test_window_bounds(self):
        series = _random_series(10)
        with pytest.raises(InsufficientData):
            rolling_mz(series, window=2)
        with pytest.raises(WindowTooLarge):
            rolling_mz(series, window=11)

    def test_flat_window_names_the_offender(self):
        labels = ("a", "b", "c", "d")
        forecasts = np.array([1.0, 2.0, 2.0, 2.0])
        realizations = np.array([1.0, 2.0, 3.0, 4.0])
        series = ForecastSeries(periods=labels, forecast=forecasts, realization=realizations)
        with pytest.raises(ZeroVariance) as exc:
            rolling_mz(series, window=3)
        assert "d" in str(exc.value)

    def test_flat_windows_counted_from_first_to_last(self):
        labels = tuple(f"p{i:02d}" for i in range(12))
        forecasts = np.array(
            [0.0, 1.0, 5.0, 5.0, 5.0, 5.0, 2.0, 3.0, 7.0, 7.0, 7.0, 4.0]
        )
        series = ForecastSeries(
            periods=labels, forecast=forecasts, realization=np.arange(12.0)
        )
        # flat windows end at p04 and p05 (first run) and p10 (second run)
        with pytest.raises(ZeroVariance) as exc:
            rolling_mz(series, window=3)
        message = str(exc.value)
        assert "3 of 10 windows" in message
        assert "'p04'" in message and "'p10'" in message
        assert "'p05'" not in message

    def test_sums_past_the_float_range_raise(self):
        series = ForecastSeries(
            periods=("p1", "p2", "p3", "p4"),
            forecast=np.array([1e200, -1e200, 3e200, 1.0]),
            realization=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        with pytest.raises(ValueError, match="overflowed the float range"):
            rolling_mz(series, window=3)
        with pytest.raises(ValueError, match="overflowed the float range"):
            ols_mz(series.forecast, series.realization)

    def test_a_level_past_the_root_of_the_float_range_fits(self):
        # squaring the window mean would overflow, though every output is
        # finite; the power of two nearest 1e-150 scales every value exactly
        rng = np.random.default_rng(31)
        forecast = 2e154 + rng.normal(0.0, 1e140, 50)
        realization = forecast + rng.normal(0.0, 1e139, 50)
        scale = 2.0**-500
        big = rolling_mz(_labelled(forecast, realization), 10)
        small = rolling_mz(_labelled(forecast * scale, realization * scale), 10)
        for name, unit in [
            ("mz_intercept", scale), ("mz_slope", 1.0), ("slope_stderr", 1.0),
            ("r_squared", 1.0), ("mean_error", scale),
        ]:
            want = getattr(small, name) / unit
            assert np.allclose(getattr(big, name), want, rtol=1e-12, atol=0.0), name
        fit = ols_mz(forecast, realization)
        scaled = ols_mz(forecast * scale, realization * scale)
        assert fit.line.intercept == pytest.approx(scaled.line.intercept / scale, rel=1e-12)
        assert fit.line.slope == pytest.approx(scaled.line.slope, rel=1e-12)
        assert fit.stderrs[0] == pytest.approx(scaled.stderrs[0] / scale, rel=1e-12)
        assert fit.stderrs[1] == pytest.approx(scaled.stderrs[1], rel=1e-12)
        assert fit.r_squared == pytest.approx(scaled.r_squared, rel=1e-12)

    def test_mean_error_is_each_windows_mean_error(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(0.0, 1.0, 60)
        ys = 0.3 + 0.9 * xs + rng.normal(0.0, 0.4, 60)
        window = 12
        result = rolling_mz(_labelled(xs, ys), window)
        for w in range(len(result)):
            xw = xs[w : w + window]
            yw = ys[w : w + window]
            assert result.mean_error[w] == pytest.approx(float((yw - xw).mean()), rel=1e-12)

    @pytest.mark.parametrize("build", [_errors_overflow, _window_sum_overflows])
    def test_error_means_past_the_float_range_raise(self, build):
        series, window = build()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflowed the float range"):
                rolling_mz(series, window)

    def test_overflow_in_the_last_workers_run_raises(self, monkeypatch, started_threads):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
        series = _random_series(3 * (kernels._CHUNK_ELEMS // 40), seed=6)
        forecast = series.forecast.copy()
        # only the last window holds it, in the half the helper thread fits
        forecast[-1] = 1e200
        series = ForecastSeries(series.periods, forecast, series.realization)
        with pytest.raises(ValueError, match="overflowed the float range"):
            rolling_mz(series, window=40)
        assert len(started_threads) == 1

    def test_shifting_realizations_shifts_only_the_intercept(self):
        series = _random_series(80, seed=5)
        shifted = ForecastSeries(
            periods=series.periods,
            forecast=series.forecast,
            realization=series.realization + 2.5,
        )
        base = rolling_mz(series, window=20)
        moved = rolling_mz(shifted, window=20)
        assert np.allclose(moved.mz_slope, base.mz_slope, atol=1e-9)
        assert np.allclose(moved.mz_intercept, base.mz_intercept + 2.5, atol=1e-9)


# every 3-decimal constant in [0, 5): at window 1000 the computed mean of
# about two in three of them is not the constant itself
THREE_DECIMAL_CONSTANTS = [k / 1000 for k in range(5000)]


class TestConstantForecasts:
    """A window is flat exactly when its forecasts are all equal, however its
    mean rounds."""

    @pytest.mark.parametrize("window", [3, 7, 40, 1000])
    def test_ols_mz_rejects_every_three_decimal_constant(self, window):
        rng = np.random.default_rng(window)
        fitted, rounded = [], 0
        for value in THREE_DECIMAL_CONSTANTS:
            forecasts = np.full(window, value)
            rounded += float(np.sum(forecasts) / window) != value
            try:
                ols_mz(forecasts, rng.normal(0.0, 1.0, window))
            except ZeroVariance:
                continue
            fitted.append(value)
        assert fitted == []
        if window >= 40:
            assert rounded > 0  # the constants a test of sxx == 0 alone fits

    @pytest.mark.parametrize("window", [3, 7, 40, 1000])
    def test_rolling_mz_flags_every_three_decimal_constant(self, window):
        rng = np.random.default_rng(window + 1)
        if window < 1000:
            # one run of each constant: exactly the windows that start a run
            # are flat
            forecasts = np.repeat(THREE_DECIMAL_CONSTANTS, window)
            labels = tuple(f"p{i:06d}" for i in range(forecasts.size))
            series = ForecastSeries(labels, forecasts, rng.normal(0.0, 1.0, forecasts.size))
            runs = len(THREE_DECIMAL_CONSTANTS)
            with pytest.raises(ZeroVariance) as exc:
                rolling_mz(series, window)
            assert f"in {runs} of {forecasts.size - window + 1} windows" in str(exc.value)
            return
        labels = tuple(f"p{i:04d}" for i in range(window))
        fitted = []
        for value in THREE_DECIMAL_CONSTANTS:
            forecasts = np.full(window, value)
            series = ForecastSeries(labels, forecasts, rng.normal(0.0, 1.0, window))
            try:
                rolling_mz(series, window)
            except ZeroVariance:
                continue
            fitted.append(value)
        assert fitted == []

    def test_forty_forecasts_of_0_014(self):
        # their mean rounds away from 0.014; the fit used to report slope 76.8
        forecasts = np.full(40, 0.014)
        assert np.sum(forecasts) / 40 != 0.014
        realizations = np.random.default_rng(3).normal(0.0, 1.0, 40)
        with pytest.raises(ZeroVariance):
            rolling_mz(_labelled(forecasts, realizations), 40)

    def test_only_the_constant_windows_of_a_series_are_flat(self):
        # runs of equal forecasts between fitted stretches; a window one unit
        # in the last place off its neighbours is fitted, not flat
        value = 0.014
        forecasts = np.concatenate([
            np.linspace(0.0, 1.0, 10), np.full(40, value), np.linspace(1.0, 2.0, 10),
            np.full(39, value), [np.nextafter(value, 1.0)],
        ])
        ys = np.random.default_rng(4).normal(0.0, 1.0, forecasts.size)
        flat = kernels.rolling_ols(forecasts, ys, 40)[5].astype(bool)
        assert np.flatnonzero(flat).tolist() == [10]
