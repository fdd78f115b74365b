"""Rolling-window evaluation of forecast/realization panels.

Mirrors the diagnostics a forecast evaluator would run on an empirical
series: a rolling Mincer-Zarnowitz regression (realization on forecast, per
trailing window), with each window's mean forecast error in its
``mean_error`` column. Input is a plain CSV panel; nothing here knows about
the game, so the tools apply to any aligned forecast series.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Union

from . import _numpy as np

from . import kernels
from .errors import ParseError, SchemaError, ZeroVariance, _require_window

__all__ = [
    "ForecastSeries",
    "RollingResult",
    "ingest_csv",
    "rolling_mz",
]

_HEADER = ("period", "forecast", "realization")


@dataclass(frozen=True)
class ForecastSeries:
    """An aligned panel of (period, forecast, realization) rows.

    Period labels are opaque text but must be strictly increasing, which is
    what "ordered by period" can mean without a date parser; zero-padded
    labels sort the way their numbers do. All numeric fields must be finite.
    """

    periods: tuple[str, ...]
    forecast: np.ndarray
    realization: np.ndarray

    def __post_init__(self):
        forecast = np.ascontiguousarray(self.forecast, dtype=np.float64)
        realization = np.ascontiguousarray(self.realization, dtype=np.float64)
        periods = tuple(str(p) for p in self.periods)
        if forecast.ndim != 1 or realization.ndim != 1:
            raise ValueError("forecast and realization must be 1-D")
        if not (len(periods) == forecast.shape[0] == realization.shape[0]):
            raise ValueError("periods, forecast, and realization lengths differ")
        for name, values in (("forecast", forecast), ("realization", realization)):
            if not np.isfinite(values).all():
                raise ValueError(f"non-finite {name} values")
        for prev, cur in zip(periods, periods[1:]):
            if not prev < cur:
                raise ValueError(
                    f"period labels must be strictly increasing ({prev!r} !< {cur!r})"
                )
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "forecast", forecast)
        object.__setattr__(self, "realization", realization)

    def __len__(self) -> int:
        return len(self.periods)

    @property
    def errors(self) -> np.ndarray:
        """Realization minus forecast, per period."""
        return self.realization - self.forecast


@dataclass(frozen=True)
class RollingResult:
    """One row per trailing window: the window's MZ fit and mean error."""

    window: int
    window_end: tuple[str, ...]
    mz_intercept: np.ndarray
    mz_slope: np.ndarray
    slope_stderr: np.ndarray
    r_squared: np.ndarray
    mean_error: np.ndarray

    def __len__(self) -> int:
        return len(self.window_end)


def ingest_csv(source: Union[str, Path, IO[str]]) -> ForecastSeries:
    """Read a `period,forecast,realization` CSV (path or open text stream).

    Blank lines are skipped; any other malformed row is an error carrying its
    line number. A header-only file yields an empty series.
    """
    if hasattr(source, "read"):
        return _ingest_stream(source)
    # utf-8-sig drops the byte-order mark that Excel writes before the header
    with open(source, newline="", encoding="utf-8-sig") as handle:
        return _ingest_stream(handle)


def _ingest_stream(stream: Iterable[str]) -> ForecastSeries:
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise SchemaError("empty input; expected header period,forecast,realization")
    if tuple(h.strip() for h in header) != _HEADER:
        raise SchemaError(
            f"bad header {','.join(header)!r}; expected period,forecast,realization"
        )
    periods: list[str] = []
    forecast: list[float] = []
    realization: list[float] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line_no)
        label = row[0].strip()
        if not label:
            raise ParseError("empty period label", line_no)
        try:
            f = float(row[1])
            r = float(row[2])
        except ValueError:
            raise ParseError(f"non-numeric value in {row[1]!r},{row[2]!r}", line_no) from None
        if not (math.isfinite(f) and math.isfinite(r)):
            raise ValueError(f"line {line_no}: non-finite value in {row[1]!r},{row[2]!r}")
        periods.append(label)
        forecast.append(f)
        realization.append(r)
    return ForecastSeries(
        periods=tuple(periods),
        forecast=np.asarray(forecast, dtype=np.float64),
        realization=np.asarray(realization, dtype=np.float64),
    )


def rolling_mz(series: ForecastSeries, window: int = 40) -> RollingResult:
    """OLS of realization on forecast over every trailing window.

    A window spanning the whole series reproduces the full-sample fit
    exactly (identical arithmetic, not merely close). The mean_error column
    is each window's mean of realization - forecast. Raises ValueError where
    an error or a window's sums leave the float range, before any
    ZeroVariance for a flat window.
    """
    window = _require_window(window, len(series))
    intercept, slope, _, slope_se, r2, flat = kernels.rolling_ols(
        series.forecast, series.realization, window
    )
    with kernels._float_range("the fit's sums"):
        mean_err = kernels.rolling_mean(series.errors, window)
    if flat.any():
        starts = np.flatnonzero(flat)
        first = series.periods[starts[0] + window - 1]
        last = series.periods[starts[-1] + window - 1]
        raise ZeroVariance(
            f"constant forecasts in {starts.size} of {flat.size} windows; "
            f"the first ends at {first!r}, the last at {last!r}"
        )
    return RollingResult(
        window=window,
        window_end=series.periods[window - 1 :],
        mz_intercept=intercept,
        mz_slope=slope,
        slope_stderr=slope_se,
        r_squared=r2,
        mean_error=mean_err,
    )
