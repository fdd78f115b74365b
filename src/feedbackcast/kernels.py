"""Numeric hot loops, vectorized with numpy.

All kernels take float64 arrays plus scalars and return float64 arrays, except
``format_rows``, which returns the CSV text of its columns. Degenerate fits
are reported through flag arrays and interpreted by callers; a fit whose sums
leave the float range raises ValueError itself, whatever numpy error state the
caller has set.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from typing import NamedTuple

from . import _numpy as np
from .model import _prefers_first


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
    cheaper under its own cost t = 1/x - 1 (``model._prefers_first``), and
    the recorded forecast is the conditional forecast matching the chosen
    action. Ties go to ``a0``. Costs past the float limit are ranked without
    a warning; a ranking that overflow leaves undecided (inf - inf) is
    flagged as numpy's invalid value."""
    theta, x, eps = _as_f64(theta), _as_f64(x), _as_f64(eps)
    # numpy scalars, so an overflowing cost gap a1**2 - a0**2 is flagged too
    a0, a1, y_target = np.float64(a0), np.float64(a1), float(y_target)
    f0 = theta + a0
    f1 = theta + a1
    # 1/x overflows for a draw at the subnormal floor, and an action near the
    # float limit squares to inf; _prefers_first ranks the costs either way
    with np.errstate(over="ignore"):
        take0 = _prefers_first(f0, f1, a0, a1, 1.0 / x - 1.0, y_target)
    action = np.where(take0, a0, a1)
    forecast = np.where(take0, f0, f1)
    outcome = forecast + eps
    error = outcome - forecast
    return forecast, action, outcome, error


# elements in each of the two (windows x window) work buffers of rolling_ols;
# when the windows are fitted in two halves, each half gets half of that
_CHUNK_ELEMS = 3 << 15


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def rolling_ols(xs, ys, window):
    """Per-window least squares of ys on xs over every contiguous window.

    Returns (intercept, slope, intercept_se, slope_se, r_squared, flat)
    arrays of length len(xs) - window + 1; ``flat`` marks windows with zero
    regressor variance (their fit columns are NaN). R-squared is 1.0 by
    convention when the window's ys are constant.

    The windows are strided views of xs and ys (no copies), fitted in chunks
    through two reused (chunk, window) float64 work buffers of at most
    ``_CHUNK_ELEMS`` elements each; each chunk forms its own window means,
    summed as ``rolling_mean`` sums them. A call whose windows fit in one
    chunk runs in the calling thread, and so does any call on one usable CPU
    or with a window longer than half a buffer. Otherwise the windows are
    split in two halves, each fitted through buffers half as long: the first
    in the calling thread, the second on one helper thread (numpy releases
    the GIL in its loops). Beyond the outputs, memory is bounded by the buffers
    (1.5 MB for any window up to ``_CHUNK_ELEMS``) plus a few per-window
    arrays of each chunk's length. Each window is reduced with the same
    expressions, in the same order, as a fit of its slice alone, so the
    outputs do not depend on the chunking or on the helper thread. An
    exception in the helper is raised here unless the first half raised one
    of its own. Raises ValueError unless 3 <= window <= len(xs) == len(ys),
    and where a window's sums leave the float range.
    """
    xs, ys = _as_f64(xs), _as_f64(ys)
    window = int(window)
    if xs.shape != ys.shape:
        raise ValueError(f"xs and ys lengths differ ({xs.shape} vs {ys.shape})")
    if not 3 <= window <= xs.shape[0]:
        raise ValueError(f"window must be in [3, {xs.shape[0]}], got {window}")
    sliding = np.lib.stride_tricks.sliding_window_view
    m = xs.shape[0] - window + 1
    fits = tuple(np.empty(m) for _ in range(5)) + (np.empty(m, dtype=np.uint8),)
    data = (sliding(xs, window), sliding(ys, window), fits)
    step = max(1, _CHUNK_ELEMS // window)
    if m <= step or 2 * window > _CHUNK_ELEMS or _usable_cpus() < 2:
        _fit_windows(*data, step, 0, m)
        return fits
    # each half's buffers are half as long, so the two keep the budget
    step, half = _CHUNK_ELEMS // 2 // window, m // 2
    helper = _Helper(_fit_windows, *data, step, half, m)
    try:
        _fit_windows(*data, step, 0, half)
    finally:
        helper.join()
    helper.result()
    return fits


class _Helper:
    """``work(*args)`` on a helper thread: the package's one way to start one.

    The thread starts here, under the calling thread's numpy error state (in
    numpy 2 the state belongs to a context, and a new thread starts from the
    defaults). ``join`` waits for it; ``result`` waits, then returns the
    work's value or raises its error in the calling thread. The work must
    call no public function of the package: ``perfbench/spans.py`` wraps
    those in timing spans and keeps one span stack, for the calling thread.
    """

    def __init__(self, work, *args):
        self._value = self._error = None
        state = np.geterr()

        def run():
            try:
                with np.errstate(**state):
                    self._value = work(*args)
            except BaseException as exc:  # raised again by result()
                self._error = exc

        self._thread = threading.Thread(target=run)
        self._thread.start()

    def join(self):
        self._thread.join()

    def result(self):
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._value


@contextlib.contextmanager
def _float_range(what):
    """Numpy raises inside where values leave the float range (an overflow,
    or an invalid value made from one), and the error comes out as
    ValueError naming ``what`` rather than as inf, nan or a zero slope.
    Underflow is ignored, as numpy does by default, so a caller's own
    setting cannot turn a flat window's zero into an error in one thread."""
    try:
        with np.errstate(over="raise", invalid="raise", under="ignore"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"{what} overflowed the float range ({exc})") from None


@_float_range("the fit's sums")
def _fit_windows(x_win, y_win, fits, step, start, stop):
    """Fit windows [start, stop) ``step`` at a time through two work buffers
    of its own, writing only those rows of the ``fits`` arrays, under the
    float-range guard of the thread that runs it. Each chunk forms its window
    means with ``rolling_mean``'s expression, so they equal ``rolling_mean``'s
    bit for bit."""
    window = x_win.shape[1]
    shape = (min(step, stop - start), window)
    a_buf, b_buf = np.empty(shape), np.empty(shape)
    for lo in range(start, stop, step):
        fit = slice(lo, min(lo + step, stop))
        sums = _window_sums(x_win[fit], y_win[fit], a_buf, b_buf)
        for column, values in zip(fits, _fit_columns(window, *sums)):
            column[fit] = values


# the computed mean of n equal xs is off their value by at most n * 2**-53
# times it (the summation's bound, plus the division), and so is their
# centred spread sqrt(sxx / n); only windows whose spread is within twice
# that of their mean (sqrt(sxx) <= 2**-52 * n**1.5 * |mean|) are compared
# value by value
_FLAT_RTOL = 2.0**-52


def _window_sums(x_win, y_win, a_buf, b_buf):
    """(x mean, y mean, sxx, sxy, syy, ssr, slope, intercept) of each row of
    the (k, window) arrays ``x_win`` and ``y_win``, through the two work
    buffers: the centred sums, the row's least-squares line, and the
    residual sum of squares about it.

    A row whose xs are all equal gets sxx = sxy = 0 and its x value as its
    mean; a row with sxx = 0 (all equal, or a spread whose squares underflow)
    gets slope 0, so its ssr is its syy. Only rows whose spread lies within
    ``_FLAT_RTOL`` of rounding are compared value by value.
    """
    window = x_win.shape[1]
    xb = np.sum(x_win, axis=1) / window
    yb = np.sum(y_win, axis=1) / window
    k = xb.shape[0]
    a, b = a_buf[:k], b_buf[:k]
    dx = np.subtract(x_win, xb[:, None], out=a)
    sxx = np.sum(np.multiply(dx, dx, out=b), axis=1)
    dy = np.subtract(y_win, yb[:, None], out=b)
    # dx is not needed after sxy, so its buffer takes the products
    sxy = np.sum(np.multiply(dx, dy, out=a), axis=1)
    syy = np.sum(np.multiply(dy, dy, out=a), axis=1)
    # every row with sxx = 0 is near
    near = (np.sqrt(sxx) <= _FLAT_RTOL * window**1.5 * np.abs(xb)).nonzero()[0]
    if near.size:
        # a copy of at most a chunk; a one-window fit compares in place
        rows = x_win if near.size == k else x_win[near]
        equal = near[rows.min(axis=1) == rows.max(axis=1)]
        xb[equal] = x_win[equal, 0]
        sxx[equal] = sxy[equal] = 0.0
    bhat = _slope(sxy, sxx)
    ahat = yb - bhat * xb
    resid = np.subtract(y_win, ahat[:, None], out=b)
    np.subtract(resid, np.multiply(bhat[:, None], x_win, out=a), out=resid)
    ssr = np.sum(np.multiply(resid, resid, out=a), axis=1)
    return xb, yb, sxx, sxy, syy, ssr, bhat, ahat


def _slope(sxy, sxx):
    """sxy / sxx, and 0 where sxx is 0."""
    return np.divide(sxy, sxx, out=np.zeros_like(sxx), where=sxx != 0.0)


def _fit_columns(n, xb, yb, sxx, sxy, syy, ssr, slope, intercept):
    """(intercept, slope, intercept_se, slope_se, r_squared, flat) of fits
    of ``n`` points from their sums and lines (``_window_sums``'s, or merged
    ones). A fit with sxx = 0 is flat, and its other columns are NaN;
    R-squared is 1.0 where syy is 0."""
    flat = sxx == 0.0
    # flat fits divide by zero here; their columns become NaN below
    with np.errstate(divide="ignore", invalid="ignore"):
        sig2 = ssr / (n - 2)
        slope_se = np.sqrt(sig2 / sxx)
        # sqrt(sig2 * (1/n + xb**2 / sxx)), without squaring xb
        intercept_se = slope_se * np.hypot(np.sqrt(sxx / n), xb)
        r_squared = np.where(syy > 0.0, 1.0 - ssr / syy, 1.0)
    columns = (intercept, slope, intercept_se, slope_se, r_squared)
    if flat.any():
        columns = tuple(np.where(flat, np.nan, column) for column in columns)
    return (*columns, flat)


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
