"""Exception types shared across the package.

Everything domain-specific derives from :class:`FeedbackcastError` so callers
can catch one base class; plain ``ValueError`` is reserved for malformed
arguments that no amount of modelling can repair (non-finite inputs, bad
enum values, mismatched lengths). The private helpers at the end implement
each per-argument rule once, for every layer.
"""

import math

__all__ = [
    "FeedbackcastError",
    "DegenerateConjecture",
    "DegenerateEquilibrium",
    "InsufficientData",
    "MomentMatchInfeasible",
    "NoEquilibrium",
    "ParseError",
    "SchemaError",
    "SingularDenominator",
    "SingularMZ",
    "WindowTooLarge",
    "ZeroVariance",
]


class FeedbackcastError(Exception):
    """Base class for errors raised by feedbackcast."""


class DegenerateConjecture(FeedbackcastError):
    """Conjectured forecast slope is zero, so the forecast cannot be inverted."""


class SingularDenominator(FeedbackcastError):
    """tau2 + (mu + c)^2 vanished; the forecast problem has no unique optimum."""


class SingularMZ(FeedbackcastError):
    """mu + c = 0, leaving the regression of outcome on forecast undefined."""


class NoEquilibrium(FeedbackcastError):
    """No self-confirming forecast rule exists (tau2 > 1/4)."""


class DegenerateEquilibrium(FeedbackcastError):
    """The requested equilibrium root has slope zero and carries no usable rule."""


class MomentMatchInfeasible(FeedbackcastError):
    """No distribution in the requested family attains the target moments."""


class InsufficientData(FeedbackcastError):
    """Too few observations for the requested statistic."""


class ZeroVariance(FeedbackcastError):
    """Regressor is constant within a window; the fit is undefined."""


class WindowTooLarge(FeedbackcastError):
    """Rolling window exceeds the series length."""


class SchemaError(FeedbackcastError):
    """Input file header does not match the expected schema."""


class ParseError(FeedbackcastError):
    """Malformed input row."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


def _as_float(name: str, value) -> float:
    """``float(value)``, with the OverflowError of an integer past the float
    range reported as a ValueError naming the argument."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{name} must be a float, got an integer past the float range"
        ) from None


def _require_finite(name: str, value) -> float:
    value = _as_float(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value) -> float:
    value = _as_float(name, value)
    if not 0.0 < value < math.inf:
        _require_finite(name, value)
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def _require_nonnegative(name: str, value) -> float:
    value = _as_float(name, value)
    if not 0.0 <= value < math.inf:
        _require_finite(name, value)
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    return value


def _require_int(name: str, value, minimum: int, error: type = ValueError) -> int:
    """``value`` as an int: ValueError if it is not integral, ``error`` if below ``minimum``."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if number < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return number


def _require_root_index(name: str, value) -> int:
    if value not in (1, 2):
        raise ValueError(f"{name} must be 1 or 2, got {value!r}")
    return int(value)


def _require_pair(name: str, values) -> tuple[float, float]:
    try:
        first, second = values
    except (TypeError, ValueError):
        raise ValueError(f"{name} must hold exactly two values, got {values!r}") from None
    return _as_float(f"{name}[0]", first), _as_float(f"{name}[1]", second)


def _require_menu(menu) -> tuple[float, float]:
    a0, a1 = _require_pair("menu", menu)
    return _require_finite("menu[0]", a0), _require_finite("menu[1]", a1)


def _require_t_cost(t_cost) -> float:
    """The DM's quadratic action cost; above -1 the DM problem is convex."""
    t = _require_finite("t_cost", t_cost)
    if t <= -1.0:
        raise ValueError(f"t_cost must exceed -1, got {t}")
    return t


def _check_conjecture(conjecture) -> tuple[float, float]:
    b, c = conjecture.intercept, conjecture.slope
    if c == 0.0:
        raise DegenerateConjecture("conjectured slope is zero; the DM cannot invert the forecast")
    return b, c


def _require_window(window, length: int) -> int:
    window = _require_int("window", window, 3, InsufficientData)
    if window > length:
        raise WindowTooLarge(f"window {window} exceeds series length {length}")
    return window
