"""Forecasting when the forecast feeds back into policy.

Closed forms for optimal and self-confirming forecast rules in the
forecaster / decision-maker game, with their bias and Mincer-Zarnowitz
regression lines; independent numeric oracles that re-derive the formulas by
brute force; a Monte Carlo engine that plays the game end to end; and a
rolling-window evaluation toolkit for empirical forecast panels. The public
names are those of the five layers' own ``__all__`` lists.
"""

__version__ = "0.1.0"

from . import errors, evaluate, model, oracle, simulate
from .errors import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .evaluate import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *errors.__all__,
    *model.__all__,
    *simulate.__all__,
    *oracle.__all__,
    *evaluate.__all__,
]
