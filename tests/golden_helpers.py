"""Builders for the committed two-regime evaluation fixtures.

The series is 10,000 periods of equilibrium play whose parameters switch at
the midpoint; the rolling file is the window-40 evaluation of that series.

Regenerate in place with:  python3 tests/golden_helpers.py
"""

from __future__ import annotations

from pathlib import Path

from feedbackcast import cli
from feedbackcast.model import ModelParams, equilibrium_bias_and_mz
from feedbackcast.simulate import (
    PolicyShockSpec,
    SimulationRun,
    StateNoiseSpec,
    play_game,
)

DATA_DIR = Path(__file__).resolve().parent / "data"
SERIES_NAME = "two_regime_series.csv"
ROLLING_NAME = "two_regime_rolling.csv"

WINDOW = 40
PERIODS_PER_REGIME = 5_000

# Second regime pushes mu past 1 (MZ slope below 1), so the reaction
# strength needs a support wider than the default (0, 1).
REGIMES = (
    dict(mu=0.4, tau2=0.1, support=None, seed=2301),
    dict(mu=1.3, tau2=0.05, support=(0.0, 2.0), seed=2302),
)
SIGMA2 = 0.1
Y_TARGET = 2.0
THETA_MEAN = 2.0
THETA_VAR = 4.0


def regime_params(regime) -> ModelParams:
    return ModelParams(
        mu=regime["mu"], tau2=regime["tau2"], sigma2=SIGMA2, y_target=Y_TARGET
    )


def regime_slope(regime) -> float:
    """Population MZ slope of the regime's equilibrium forecast."""
    _, mz = equilibrium_bias_and_mz(regime_params(regime))
    return mz.slope


def _regime_draws(regime):
    shock = PolicyShockSpec(
        family="beta_scaled",
        target_mean=regime["mu"],
        target_var=regime["tau2"],
        support=regime["support"],
    )
    state = StateNoiseSpec(theta_mean=THETA_MEAN, theta_var=THETA_VAR, noise_var=SIGMA2)
    run = SimulationRun(
        draw_count=PERIODS_PER_REGIME, seed=regime["seed"], scenario="equilibrium"
    )
    out = play_game(run, shock, state, regime_params(regime))
    return out.forecast, out.outcome


def write_series(path) -> None:
    """Write the 10,000-period two-regime forecast panel."""
    rows = []
    period = 0
    for regime in REGIMES:
        forecast, outcome = _regime_draws(regime)
        for f, y in zip(forecast, outcome):
            period += 1
            rows.append("p%05d,%.10g,%.10g" % (period, f, y))
    text = "period,forecast,realization\n" + "\n".join(rows) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def write_rolling(series_path, rolling_path) -> None:
    rc = cli.main(
        ["evaluate", str(series_path), "--window", str(WINDOW), "--out", str(rolling_path)]
    )
    if rc != 0:
        raise RuntimeError(f"evaluate exited with {rc}")


def regenerate(directory) -> tuple[Path, Path]:
    """Rebuild both fixtures; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    series = directory / SERIES_NAME
    rolling = directory / ROLLING_NAME
    write_series(series)
    write_rolling(series, rolling)
    return series, rolling


if __name__ == "__main__":
    for path in regenerate(DATA_DIR):
        print(f"wrote {path}")
