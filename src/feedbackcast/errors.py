"""Exception types shared across the package.

Everything domain-specific derives from :class:`FeedbackcastError` so callers
can catch one base class; plain ``ValueError`` is reserved for malformed
arguments that no amount of modelling can repair (non-finite inputs, bad
enum values, mismatched lengths).
"""

__all__ = [
    "FeedbackcastError",
    "BracketFailure",
    "DegenerateConjecture",
    "DegenerateEquilibrium",
    "InsufficientData",
    "MissingMenu",
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


class MissingMenu(FeedbackcastError):
    """A constrained decision was requested without a two-action menu."""


class MomentMatchInfeasible(FeedbackcastError):
    """No distribution in the requested family attains the target moments."""


class BracketFailure(FeedbackcastError):
    """The search bracket does not contain an interior minimum."""


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
