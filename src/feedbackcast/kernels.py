"""Numeric hot loops, vectorized with numpy.

All kernels take float64 arrays plus scalars and return float64 arrays; they
raise nothing domain-specific (degenerate fits are reported through flag
arrays and interpreted by callers).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def react_play(theta, x, eps, d, e, b, c, y_target):
    """Play one batch of the game under forecast rule (d, e) and DM
    conjecture (b, c): returns (forecast, action, outcome, error) arrays."""
    theta, x, eps = _as_f64(theta), _as_f64(x), _as_f64(eps)
    d, e, b, c, y_target = float(d), float(e), float(b), float(c), float(y_target)
    forecast = d + e * theta
    action = x * (y_target - (forecast - b) / c)
    outcome = theta + action + eps
    error = outcome - forecast
    return forecast, action, outcome, error


def menu_play(theta, x, eps, a0, a1, y_target):
    """Play the two-action menu game; each DM picks the menu action that is
    cheaper under its own cost t = 1/x - 1, and the recorded forecast is the
    conditional forecast matching the chosen action. Ties go to ``a0``."""
    theta, x, eps = _as_f64(theta), _as_f64(x), _as_f64(eps)
    a0, a1, y_target = float(a0), float(a1), float(y_target)
    f0 = theta + a0
    f1 = theta + a1
    # a draw at the subnormal floor gives t = inf, which still orders the
    # actions when their costs differ; on a symmetric menu inf * 0 would be
    # nan and lose the tie, so the cost gap is taken as exactly 0 there
    with np.errstate(over="ignore"):
        t = 1.0 / x - 1.0
    gap = a1 * a1 - a0 * a0
    lhs = (f0 - y_target) ** 2 - (f1 - y_target) ** 2
    take0 = lhs <= (t * gap if gap != 0.0 else 0.0)
    action = np.where(take0, a0, a1)
    forecast = np.where(take0, f0, f1)
    outcome = forecast + eps
    error = outcome - forecast
    return forecast, action, outcome, error


def rolling_ols(xs, ys, window):
    """Per-window least squares of ys on xs over every contiguous window.

    Returns (intercept, slope, intercept_se, slope_se, r_squared, mean_error,
    flat) arrays of length len(xs) - window + 1; ``flat`` marks windows with
    zero regressor variance (their fit columns are NaN). ``mean_error`` is
    the window mean of ys - xs, computed by rolling_mean. R-squared is 1.0 by
    convention when the window's ys are constant.
    """
    xs, ys = _as_f64(xs), _as_f64(ys)
    window = int(window)
    x_bar = rolling_mean(xs, window)
    y_bar = rolling_mean(ys, window)
    mean_error = rolling_mean(ys - xs, window)
    m = x_bar.shape[0]
    intercept = np.full(m, np.nan)
    slope = np.full(m, np.nan)
    intercept_se = np.full(m, np.nan)
    slope_se = np.full(m, np.nan)
    r_squared = np.full(m, np.nan)
    flat = np.zeros(m, dtype=np.uint8)
    for w in range(m):
        sl = slice(w, w + window)
        xw = xs[sl]
        yw = ys[sl]
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
    return intercept, slope, intercept_se, slope_se, r_squared, mean_error, flat


def rolling_mean(values, window):
    """Trailing mean of ``values`` over every contiguous window: each window
    is summed as its own slice would be, through a strided view rather than
    per-window copies."""
    values = _as_f64(values)
    window = int(window)
    return np.sum(sliding_window_view(values, window), axis=1) / window
