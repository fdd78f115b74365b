"""Numeric hot loops, vectorized with numpy.

All kernels take float64 arrays plus scalars and return float64 arrays, except
``format_rows``, which returns the CSV text of its columns; they raise nothing
domain-specific (degenerate fits are reported through flag arrays and
interpreted by callers).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

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
    # nan and lose the tie, so the cost gap is taken as exactly 0 there.
    # Likewise an action near the float limit squares to inf, which still
    # orders the two costs (inf <= -inf is false: the cheap action wins).
    with np.errstate(over="ignore"):
        t = 1.0 / x - 1.0
        lhs = (f0 - y_target) ** 2 - (f1 - y_target) ** 2
    gap = a1 * a1 - a0 * a0
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


# decimal exponents X whose scale 10**(9 - X) is a normal float; format_rows
# formats values outside them through the exact fallback
_G10_X_MIN, _G10_X_MAX = -299, 308
# the scaled value q is off the exact |v| * 10**(9 - X) by at most
# 1e10 * 2**-53 (the scale's own rounding) + 2**-20 (half an ulp of q), under
# 2.1e-6; a q whose fraction is within this margin of 1/2 may round either way
_G10_TIE_MARGIN = 2.0**-18
# layout classes: exponent form below and above, fixed form for X in [-4, 9]
_G10_CLASS_MIN, _G10_CLASS_MAX = -5, 10
_G10_ZERO = 10 * (_G10_CLASS_MAX - _G10_CLASS_MIN + 1)


class _G10Tables(NamedTuple):
    scale: np.ndarray  # 10**(9 - X), by X - _G10_X_MIN
    suffix: np.ndarray  # "e+XX" at byte 11 of the cell, by X - _G10_X_MIN
    # ASCII digits of 4-digit groups: the last two at bytes 0-1, all four at
    # bytes 2-5, the first two at bytes 6-7
    last_two: np.ndarray
    middle: np.ndarray
    first_two: np.ndarray
    trailing_zeros: np.ndarray  # of 4-digit groups, 4 for 0
    low_lo: np.ndarray  # by layout pattern: the digits that stay in place,
    low_hi: np.ndarray
    high_lo: np.ndarray  # the digits that move up by ``shift`` bits,
    high_hi: np.ndarray
    add_lo: np.ndarray  # the text inserted between them
    add_hi: np.ndarray
    shift: np.ndarray
    cell: np.dtype  # sign byte, 16 text bytes, separator


def _g10_layout(x: int, nsig: int) -> tuple[int, int, str]:
    """How %.10g lays out 10 digits with ``nsig`` significant ones and decimal
    exponent ``x``: (digits before the inserted text, digits kept, inserted
    text); the exponent suffix comes separately."""
    if x < -4 or x >= 10:
        return 1, nsig, "." if nsig > 1 else ""
    if x < 0:
        return 0, nsig, "0." + "0" * (-1 - x)
    return x + 1, max(nsig, x + 1), "." if nsig > x + 1 else ""


@functools.cache
def _g10_tables() -> _G10Tables:
    def words(texts):
        cells = b"".join(t.ljust(16, b"\0") for t in texts)
        pairs = np.frombuffer(cells, dtype="<u8").reshape(-1, 2)
        return pairs[:, 0].copy(), pairs[:, 1].copy()

    low, high, add, shift = [], [], [], []
    for cls in range(_G10_CLASS_MIN, _G10_CLASS_MAX + 1):
        for nsig in range(1, 11):
            p, kept, ins = _g10_layout(cls, nsig)
            low.append(b"\xff" * min(p, kept))
            high.append(b"\0" * p + b"\xff" * (kept - p))
            add.append(b"\0" * p + ins.encode())
            shift.append(8 * len(ins))
    low.append(b"")  # _G10_ZERO
    high.append(b"")
    add.append(b"0")
    shift.append(0)
    exponents = range(_G10_X_MIN, _G10_X_MAX + 1)
    # the exact power of ten, rounded once
    scale = [float(10 ** (9 - x)) if x <= 9 else 1 / 10 ** (x - 9) for x in exponents]
    # an exponent-form mantissa takes at most 11 bytes
    suffix = [
        0 if -4 <= x < 10 else int.from_bytes(b"e%+03d" % x, "little") << 24
        for x in exponents
    ]
    groups = np.arange(10_000, dtype=np.uint64)
    chars = sum(
        (groups // 10 ** (3 - i) % 10 + ord("0")) << (8 * i) for i in range(4)
    )
    return _G10Tables(
        np.array(scale),
        np.array(suffix, dtype=np.uint64),
        chars >> 16,
        chars << 16,
        chars << 48,
        sum((groups % 10**i == 0).astype(np.intp) for i in range(1, 5)),
        *words(low),
        *words(high),
        *words(add),
        np.array(shift, dtype=np.uint64),
        np.dtype([("sign", "u1"), ("lo", "<u8"), ("hi", "<u8"), ("sep", "u1")]),
    )


def format_rows(columns) -> str:
    """CSV text of equal-length numeric ``columns``: one row per index, each
    value as ``"%.10g" % value`` gives it, joined by "," and ended by "\\n".

    A value with decimal exponent X in [-299, 308] is scaled to
    q = |v| * 10**(9 - X), an integer part of 10 digits; unless q's fraction
    is within ``_G10_TIE_MARGIN`` of 1/2 (where the rounding of q itself may
    decide), rint(q) is the correctly rounded 10-digit integer. Its digits
    come from tables of 4-digit groups and are laid out in two 64-bit words
    per cell, with NUL bytes where the text is shorter; the NULs are dropped
    at the end. Zeros are laid out as "0". Everything else (near-ties, q
    outside [1e9, 1e10) after a misjudged X, exponents out of range, inf and
    nan) is formatted by ``"%.10g" %`` itself.
    """
    t = _g10_tables()
    values = np.column_stack(columns).astype(np.float64, copy=False)
    rows, ncols = values.shape
    v = values.ravel()
    xi, digits, fast = _g10_digits(t, v)
    text_lo, text_hi = _g10_words(t, xi, digits)
    cells = np.empty((rows, ncols), dtype=t.cell)
    cells["sign"] = (np.signbit(v) * ord("-")).reshape(rows, ncols)
    cells["lo"] = text_lo.reshape(rows, ncols)
    cells["hi"] = text_hi.reshape(rows, ncols)
    del xi, digits, text_lo, text_hi  # memory for the byte copies below
    cells["sep"] = ord(",")
    cells["sep"][:, -1] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [("%.10g" % value).encode() for value in v[slow].tolist()]
        cell_bytes = cells.reshape(-1).view(np.uint8).reshape(-1, t.cell.itemsize)
        cell_bytes[slow, :17] = np.array(text, dtype="S17").view(np.uint8).reshape(-1, 17)
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _g10_digits(t: _G10Tables, v):
    """(X - _G10_X_MIN, the 10 correctly rounded digits as an integer, and
    whether they are right) for each value of ``v``; zeros get digits 0, and
    misjudged X values digits outside [1e9, 1e10)."""
    a = np.abs(v)
    zero = a == 0.0
    # zeros take log10(1), without the divide-by-zero, and come out as 0 * scale
    x = np.floor(np.log10(np.where(zero, 1.0, a)))
    ok = (x >= _G10_X_MIN) & (x <= _G10_X_MAX)
    xi = np.where(ok, x, 0.0).astype(np.intp)
    xi -= _G10_X_MIN
    q = np.where(ok, a, 1.0)
    q *= t.scale.take(xi)
    whole = np.floor(q)
    fast = ok & (whole >= 1e9) & (whole < 1e10)
    q -= whole
    fast &= np.abs(q - 0.5) > _G10_TIE_MARGIN
    whole += q > 0.5
    # 9999999999.5 and up round to 1e10: digits 1000000000, one decade up
    carry = whole == 1e10
    whole[carry] = 1e9
    xi += carry
    fast |= zero
    return xi, whole.astype(np.int64), fast


def _g10_words(t: _G10Tables, xi, digits):
    """The low and high text words of each cell."""
    g0 = digits // 100_000_000
    rest = digits - g0 * 100_000_000
    g1 = rest // 10_000
    g2 = rest - g1 * 10_000
    # digits 0-1 are g0's, 2-5 g1's, 6-9 g2's
    lo = t.last_two.take(g0) | t.middle.take(g1) | t.first_two.take(g2)
    hi = t.last_two.take(g2)
    tz = t.trailing_zeros
    zeros = tz.take(g2) + (g2 == 0) * (tz.take(g1) + (g1 == 0) * tz.take(g0))
    del g0, g1, g2, rest
    first = _G10_CLASS_MIN - _G10_X_MIN
    pattern = 10 * (np.clip(xi, first, _G10_CLASS_MAX - _G10_X_MIN) - first) + 9 - zeros
    pattern[digits == 0] = _G10_ZERO
    shift = t.shift.take(pattern)
    moved = lo & t.high_lo.take(pattern)
    text_lo = (lo & t.low_lo.take(pattern)) | (moved << shift) | t.add_lo.take(pattern)
    # (moved >> 1) >> (63 - shift): the bits shifted out of the low word,
    # without a 64-bit shift when shift is 0
    text_hi = (
        (hi & t.low_hi.take(pattern))
        | ((hi & t.high_hi.take(pattern)) << shift)
        | ((moved >> 1) >> (63 - shift))
        | t.add_hi.take(pattern)
        | t.suffix.take(xi)
    )
    return text_lo, text_hi
