"""Seeded inputs for the three benchmark workloads.

Every input is derived from the workload seed through ``SeedSequence``, so a
seed names one set of inputs. Nothing here imports feedbackcast: the CLI
workloads hand the program files and argument lists, and the library
workload hands it plain parameter dicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import reference

WORKLOADS = ("cli-evaluate", "cli-session", "library-montecarlo")


@dataclass(frozen=True)
class Size:
    panel_rows: int
    windows: tuple[int, int]
    sweep_steps: int
    simulate_draws: int
    oracle_cases: int
    oracle_samples: int
    play_draws: int


SIZES = {
    "full": Size(60_000, (40, 1000), 20_000, 1_000_000, 40, 200_000, 1_000_000),
    # seconds-long version of every workload for the smoke run
    "tiny": Size(3_000, (40, 1000), 200, 20_000, 4, 10_000, 20_000),
}

# golden_helpers' two regimes; the second pushes mu past 1, so its reaction
# strength needs the wider support
REGIMES = (
    dict(mu=0.4, tau2=0.1, support=(0.0, 1.0)),
    dict(mu=1.3, tau2=0.05, support=(0.0, 2.0)),
)
PANEL_GAME = dict(sigma2=0.1, y_target=2.0, theta_mean=2.0, theta_var=4.0)

SIMULATE = dict(mu=0.7, tau2=0.15, sigma2=0.5, y_target=2.0, theta_mean=2.0, theta_var=1.0)


STREAMS = ("panel", "simulate", "oracle", "plays")


def stream(seed: int, purpose: str) -> np.random.SeedSequence:
    """The seed's independent child stream for one kind of input."""
    return np.random.SeedSequence(seed).spawn(len(STREAMS))[STREAMS.index(purpose)]


def seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint32)[0])


# ---------------------------------------------------------------------------
# cli-evaluate

def panel(seed: int, size: Size) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Regime-switching equilibrium play: regimes alternate, each lasting
    between a twelfth and a quarter of the panel."""
    rng = np.random.default_rng(stream(seed, "panel"))
    rows = size.panel_rows
    forecasts, outcomes = [], []
    done = 0
    while done < rows:
        length = min(int(rng.integers(rows // 12, rows // 4 + 1)), rows - done)
        regime = REGIMES[len(forecasts) % 2]
        f, y = reference.play_equilibrium(rng, length, **regime, **PANEL_GAME)
        forecasts.append(f)
        outcomes.append(y)
        done += length
    labels = ["p%06d" % (i + 1) for i in range(rows)]
    return labels, np.concatenate(forecasts), np.concatenate(outcomes)


def write_panel(path, labels, forecast, outcome) -> tuple[np.ndarray, np.ndarray]:
    """Write the panel CSV; returns the values as written (10 significant
    digits), which is what the program reads back."""
    rows = ["%s,%.10g,%.10g" % row for row in zip(labels, forecast, outcome)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("period,forecast,realization\n" + "\n".join(rows) + "\n")
    f = np.array([float(r.split(",")[1]) for r in rows])
    y = np.array([float(r.split(",")[2]) for r in rows])
    return f, y


# ---------------------------------------------------------------------------
# cli-session

SOLVE_POINTS = (
    dict(mu=0.98, tau2=0.1, y_target=2.0),
    dict(mu=0.5, tau2=0.25),  # repeated root
    dict(mu=0.7, tau2=0.4, b=0.3, c=0.8),  # no equilibrium, conjecture given
    dict(mu=1.3, tau2=0.05, sigma2=0.1, y_target=2.0),
)
SWEEP = dict(mu=(0.5, 0.98), tau2_min=0.0, tau2_max=0.3, y_target=2.0, clip=2.0)


def solve_argv(point: dict) -> list[str]:
    flags = {"mu": "--mu", "tau2": "--tau2", "y_target": "--ytarget",
             "sigma2": "--sigma2", "b": "--b", "c": "--c"}
    argv = ["solve"]
    for key, value in point.items():
        argv += [flags[key], repr(value)]
    return argv


def sweep_argv(size: Size, out: str) -> list[str]:
    return [
        "sweep", "--mu", *(repr(m) for m in SWEEP["mu"]),
        "--tau2-min", repr(SWEEP["tau2_min"]), "--tau2-max", repr(SWEEP["tau2_max"]),
        "--steps", str(size.sweep_steps), "--ytarget", repr(SWEEP["y_target"]),
        "--clip", repr(SWEEP["clip"]), "--out", out,
    ]


def simulate_argv(seed: int, size: Size, prefix: str) -> list[str]:
    s = SIMULATE
    return [
        "simulate", "--scenario", "equilibrium", "--family", "beta_scaled",
        "--mu", repr(s["mu"]), "--tau2", repr(s["tau2"]), "--sigma2", repr(s["sigma2"]),
        "--ytarget", repr(s["y_target"]), "--theta-mean", repr(s["theta_mean"]),
        "--theta-var", repr(s["theta_var"]), "--n", str(size.simulate_draws),
        "--seed", str(seed_int(stream(seed, "simulate")) % 2**31), "--out-prefix", prefix,
    ]


# ---------------------------------------------------------------------------
# library-montecarlo

def oracle_cases(seed: int, size: Size) -> list[dict]:
    """Drawn like acceptance criterion 3: beta reaction on (0, 2*mu + 1)."""
    rng = np.random.default_rng(stream(seed, "oracle"))
    cases = []
    for i in range(size.oracle_cases):
        mu = float(np.exp(rng.uniform(np.log(0.1), np.log(1.5))))
        hi = 2.0 * mu + 1.0
        tau2 = float(rng.uniform(0.005, min(0.3, 0.8 * mu * (hi - mu))))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        cases.append(dict(
            kind="oracle", name=f"oracle[{i:02d}]", mu=mu, tau2=tau2, hi=hi,
            sigma2=float(rng.uniform(0.25, 2.0)), y_target=float(rng.uniform(-3.0, 3.0)),
            b=float(rng.uniform(-2.0, 2.0)), c=sign * float(rng.uniform(0.3, 2.0)),
            theta=float(rng.uniform(-5.0, 5.0)), samples=size.oracle_samples,
            seed=int(rng.integers(2**63)),
        ))
    return cases


# (scenario, family, mu, tau2, extra). Truncated-normal targets span the
# half-line's CV^2 range (0, 1): 0.08, 0.31, 0.63, 0.89 and 0.95. The last
# is feasible, yet the moment match rejects it at the seed commit.
PLAYS = (
    ("equilibrium", "beta_scaled", 0.7, 0.15, dict(sigma2=0.5, y_target=2.0, theta_mean=2.0)),
    ("equilibrium", "truncated_normal", 0.5, 0.02, dict(y_target=1.0)),
    ("equilibrium", "degenerate", 0.6, 0.0, dict(y_target=2.0)),
    ("taylor_rule", "beta_scaled", 0.6, 0.15, dict(y_target=2.0)),
    ("taylor_rule", "truncated_normal", 1.0, 0.95, dict(y_target=2.0)),
    ("conjecture_rule", "truncated_normal", 1.2, 0.9, dict(b=0.3, c=0.8, y_target=1.0)),
    ("conjecture_rule", "degenerate", 0.8, 0.0, dict(b=0.0, c=1.5, y_target=-1.0)),
    ("conditional", "beta_scaled", 0.5, 0.1, dict(a0=0.2, b=0.0, c=1.0, y_target=2.0,
                                                  theta_mean=1.0, theta_var=1.5)),
    ("conditional", "truncated_normal", 0.7, 0.15, dict(a0=-0.5, dm_applies_assumed=True)),
    ("conditional", "degenerate", 1.0, 0.0, dict(a0=0.25, b=0.0, c=1.0, y_target=2.0)),
    ("constrained_menu", "beta_scaled", 0.5, 0.1, dict(menu=(0.0, 0.5), y_target=2.0,
                                                       theta_mean=1.0, theta_var=1.5)),
    ("constrained_menu", "truncated_normal", 0.3, 0.08, dict(menu=(-0.5, 1.0), y_target=1.0)),
)


def plays(seed: int, size: Size) -> list[dict]:
    rng = np.random.default_rng(stream(seed, "plays"))
    out = []
    for scenario, family, mu, tau2, extra in PLAYS:
        play = dict(
            kind="play", scenario=scenario, family=family, mu=mu, tau2=tau2,
            sigma2=1.0, y_target=0.0, theta_mean=0.0, theta_var=1.0,
            b=None, c=None, a0=None, dm_applies_assumed=False, menu=None,
            draws=size.play_draws, seed=int(rng.integers(2**31)),
        )
        play.update(extra)
        play["name"] = f"play[{scenario}/{family}({mu:g},{tau2:g})]"
        out.append(play)
    return out


def library_ops(seed: int, size: Size) -> list[dict]:
    return oracle_cases(seed, size) + plays(seed, size)


def median(values) -> float:
    values = sorted(values)
    n = len(values)
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def more_passes(done: int, elapsed: float, seconds: float, minimum: int) -> bool:
    """Start another pass while the run stays within its time budget, judged
    by the mean pass so far; the first ``minimum`` passes always run."""
    if done < minimum:
        return True
    return elapsed + elapsed / done <= seconds


def traced_pass(index: int, trace: bool) -> bool:
    """Pass pattern of a traced run: untraced, traced, traced, repeated. The
    untraced passes give the overhead baseline; two traced passes show that
    the counts repeat."""
    return trace and index % 3 != 0
