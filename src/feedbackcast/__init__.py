"""Forecasting when the forecast feeds back into policy.

Closed forms for optimal and self-confirming forecast rules in the
forecaster / decision-maker game, with their bias and Mincer-Zarnowitz
regression lines; independent numeric oracles that re-derive the formulas by
brute force; a Monte Carlo engine that plays the game end to end; and a
rolling-window evaluation toolkit for empirical forecast panels.
"""

__version__ = "0.1.0"

from .errors import (
    BracketFailure,
    DegenerateConjecture,
    DegenerateEquilibrium,
    FeedbackcastError,
    InsufficientData,
    MissingMenu,
    MomentMatchInfeasible,
    NoEquilibrium,
    ParseError,
    SchemaError,
    SingularDenominator,
    SingularMZ,
    WindowTooLarge,
    ZeroVariance,
)
from .model import (
    TAYLOR_RULE,
    BiasLine,
    ConditionalForecastSpec,
    EquilibriumSolution,
    LinearRule,
    ModelParams,
    MseSplit,
    MZLine,
    bias_line,
    conditional_bias_and_mz,
    conditional_forecast,
    constrained_dm_choice,
    dm_optimal_action,
    equilibrium_bias_and_mz,
    mse_decomposition,
    mz_line,
    optimal_forecast,
    reaction_from_conjecture,
    solve_equilibria,
    unbiased_rule,
)
from .simulate import (
    BestResponseTrace,
    BiasFit,
    MzFit,
    PolicyShockSpec,
    SimulationOutput,
    SimulationRun,
    SimulationSummary,
    StateNoiseSpec,
    best_response_iteration,
    ols_mz,
    play_game,
    sample_policy_shock,
)
from .oracle import (
    OracleConfig,
    exact_mse_minimizer,
    grid_action_minimizer,
    mc_mse_minimizer,
)
from .evaluate import (
    ForecastSeries,
    RollingResult,
    ingest_csv,
    moving_average_bias,
    rolling_mz,
)

__all__ = [
    "__version__",
    # errors
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
    # model
    "TAYLOR_RULE",
    "BiasLine",
    "ConditionalForecastSpec",
    "EquilibriumSolution",
    "LinearRule",
    "ModelParams",
    "MseSplit",
    "MZLine",
    "bias_line",
    "conditional_bias_and_mz",
    "conditional_forecast",
    "constrained_dm_choice",
    "dm_optimal_action",
    "equilibrium_bias_and_mz",
    "mse_decomposition",
    "mz_line",
    "optimal_forecast",
    "reaction_from_conjecture",
    "solve_equilibria",
    "unbiased_rule",
    # simulator
    "BestResponseTrace",
    "BiasFit",
    "MzFit",
    "PolicyShockSpec",
    "SimulationOutput",
    "SimulationRun",
    "SimulationSummary",
    "StateNoiseSpec",
    "best_response_iteration",
    "ols_mz",
    "play_game",
    "sample_policy_shock",
    # oracle
    "OracleConfig",
    "exact_mse_minimizer",
    "grid_action_minimizer",
    "mc_mse_minimizer",
    # evaluation
    "ForecastSeries",
    "RollingResult",
    "ingest_csv",
    "moving_average_bias",
    "rolling_mz",
]
