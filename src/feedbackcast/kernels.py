"""Numeric hot loops, vectorized with numpy.

All kernels take float64 arrays plus scalars and return float64 arrays; they
raise nothing domain-specific (degenerate fits are reported through flag
arrays and interpreted by callers).
"""

from __future__ import annotations

from . import _numpy as np


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


# elements in each (windows x window) work buffer of rolling_ols
_CHUNK_ELEMS = 1 << 16


def rolling_ols(xs, ys, window):
    """Per-window least squares of ys on xs over every contiguous window.

    Returns (intercept, slope, intercept_se, slope_se, r_squared, mean_error,
    flat) arrays of length len(xs) - window + 1; ``flat`` marks windows with
    zero regressor variance (their fit columns are NaN). ``mean_error`` is
    the window mean of ys - xs, computed by rolling_mean. R-squared is 1.0 by
    convention when the window's ys are constant.

    The windows are strided views of xs and ys (no copies), fitted
    ``_CHUNK_ELEMS // window`` windows at a time through three reused
    (chunk, window) float64 work buffers. Beyond the outputs, memory is
    bounded by those buffers (1.5 MB together for any window up to
    ``_CHUNK_ELEMS``) plus a few per-window arrays of the chunk's length.
    Each window is reduced with the same expressions, in the same order, as
    a fit of its slice alone, so the outputs do not depend on the chunking.
    Raises ValueError unless 3 <= window <= len(xs) == len(ys).
    """
    xs, ys = _as_f64(xs), _as_f64(ys)
    window = int(window)
    if xs.shape != ys.shape:
        raise ValueError(f"xs and ys lengths differ ({xs.shape} vs {ys.shape})")
    if not 3 <= window <= xs.shape[0]:
        raise ValueError(f"window must be in [3, {xs.shape[0]}], got {window}")
    x_bar = rolling_mean(xs, window)
    y_bar = rolling_mean(ys, window)
    mean_error = rolling_mean(ys - xs, window)
    sliding = np.lib.stride_tricks.sliding_window_view
    x_win = sliding(xs, window)
    y_win = sliding(ys, window)
    m = x_bar.shape[0]
    intercept = np.empty(m)
    slope = np.empty(m)
    intercept_se = np.empty(m)
    slope_se = np.empty(m)
    r_squared = np.empty(m)
    flat = np.empty(m, dtype=np.uint8)
    step = min(m, max(1, _CHUNK_ELEMS // window))
    dx_buf = np.empty((step, window))
    dy_buf = np.empty((step, window))
    sq_buf = np.empty((step, window))
    for lo in range(0, m, step):
        fit = slice(lo, min(lo + step, m))
        xw, yw, xb, yb = x_win[fit], y_win[fit], x_bar[fit], y_bar[fit]
        k = xb.shape[0]
        dx, dy, sq = dx_buf[:k], dy_buf[:k], sq_buf[:k]
        np.subtract(xw, xb[:, None], out=dx)
        np.subtract(yw, yb[:, None], out=dy)
        sxx = np.sum(np.multiply(dx, dx, out=sq), axis=1)
        sxy = np.sum(np.multiply(dx, dy, out=sq), axis=1)
        syy = np.sum(np.multiply(dy, dy, out=sq), axis=1)
        is_flat = sxx == 0.0
        # flat windows divide by zero here; their columns become NaN below
        with np.errstate(divide="ignore", invalid="ignore"):
            bhat = sxy / sxx
            ahat = yb - bhat * xb
            resid = np.subtract(yw, ahat[:, None], out=dy)
            np.subtract(resid, np.multiply(bhat[:, None], xw, out=sq), out=resid)
            ssr = np.sum(np.multiply(resid, resid, out=sq), axis=1)
            sig2 = ssr / (window - 2)
            slope[fit] = bhat
            intercept[fit] = ahat
            slope_se[fit] = np.sqrt(sig2 / sxx)
            intercept_se[fit] = np.sqrt(sig2 * (1.0 / window + xb * xb / sxx))
            r_squared[fit] = np.where(syy > 0.0, 1.0 - ssr / syy, 1.0)
        for column in (intercept, slope, intercept_se, slope_se, r_squared):
            column[fit][is_flat] = np.nan
        flat[fit] = is_flat
    return intercept, slope, intercept_se, slope_se, r_squared, mean_error, flat


def rolling_mean(values, window):
    """Trailing mean of ``values`` over every contiguous window: each window
    is summed as its own slice would be, through a strided view rather than
    per-window copies."""
    values = _as_f64(values)
    window = int(window)
    windows = np.lib.stride_tricks.sliding_window_view(values, window)
    return np.sum(windows, axis=1) / window
