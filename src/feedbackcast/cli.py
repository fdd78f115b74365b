"""Command-line front end: solve / sweep / simulate / evaluate.

Exit codes: 0 success, 1 usage or validation problem, 2 model infeasibility
(no equilibrium), 3 I/O failure, 141 output pipe closed by its reader (the
status of a process killed by SIGPIPE). Numeric table output uses 10 significant
digits with a locale-independent decimal point; JSON reports carry full
float precision so they round-trip.

A config file (``--config``, JSON object or flat ``key=value`` lines) stands
for the command-line flags its keys name, placed before the explicit ones, so
argparse converts and checks every value and explicit flags always win.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import stat
import sys
from dataclasses import asdict

from . import _numpy as np
from . import kernels
from .errors import (
    DegenerateEquilibrium,
    FeedbackcastError,
    NoEquilibrium,
    _require_finite,
    _require_int,
    _require_positive,
)
from .evaluate import ingest_csv, rolling_mz
from .model import (
    TAYLOR_RULE,
    LinearRule,
    ModelParams,
    MZLine,
    _equilibrium_coefficients,
    bias_line,
    equilibrium_bias_and_mz,
    mz_line,
    optimal_forecast,
    solve_equilibria,
)
from .simulate import (
    FAMILIES,
    SCENARIOS,
    PolicyShockSpec,
    SimulationRun,
    StateNoiseSpec,
    _PLAY_ROWS,
    _player,
    ols_mz,
)


def _fmt(value: float) -> str:
    return "%.10g" % value


_BLOCK_ROWS = 4096


def _write_rows(handle, labels: int, cols) -> None:
    """Write one CSV row per index of the equal-length ``cols``.

    The first ``labels`` columns hold text labels, written as ``csv.writer``
    writes them by default (``_csv_fields``); the numbers after them are
    formatted by ``kernels.format_rows``, byte for byte as ``_fmt`` gives
    them. Rows go out in blocks of ``_BLOCK_ROWS``, so memory stays bounded
    by one block.
    """
    row = "%s," * labels + "%s\n"
    n = len(cols[0])
    for start in range(0, n, _BLOCK_ROWS):
        parts = [col[start : start + _BLOCK_ROWS] for col in cols]
        text = kernels.format_rows(parts[labels:])
        if labels:
            fields = map(_csv_fields, parts[:labels])
            text = "".join(map(row.__mod__, zip(*fields, text.splitlines())))
        handle.write(text)


@contextlib.contextmanager
def _output(path: str | None):
    """A text handle whose content reaches ``path`` (stdout when None) only
    if the block completes.

    A path not yet there, or a regular file, is written as a new file next
    to its real location (symbolic links followed), created with mode "x"
    and so with the permission bits ``open(path, "w")`` gives a new file (an
    existing file's bits are copied to it), then moved over it with
    ``os.replace``. Stdout, and anything else (a device, a pipe, a
    ``/dev/fd`` name that resolves to no file), gets an anonymous temporary
    file that ``open(path, "w")`` receives at the end. If the block raises,
    the temporary file is removed and ``path`` is left as it was.
    """
    real = mode = None
    if path is not None:
        real = os.path.realpath(path)
        with contextlib.suppress(FileNotFoundError):
            mode = os.stat(path).st_mode
            if not (stat.S_ISREG(mode) and os.path.exists(real) and os.path.samefile(path, real)):
                real = None
    if real is None:
        import tempfile

        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
            yield spool
            spool.seek(0)
            with (
                contextlib.nullcontext(sys.stdout) if path is None
                else open(path, "w", encoding="utf-8", newline="")
            ) as target:
                for chunk in iter(lambda: spool.read(1 << 16), ""):
                    target.write(chunk)
        return
    head, tail = os.path.split(real)
    while True:
        temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        try:
            handle = open(temp, "x", encoding="utf-8", newline="")
            break
        except FileExistsError:
            continue
        except OSError as exc:
            # the error names the path asked for, not the temporary one
            raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with handle:
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            yield handle
        os.replace(temp, real)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


# the characters that make csv.writer's default QUOTE_MINIMAL quote a field
_CSV_SPECIAL = (",", '"', "\r", "\n")


def _csv_fields(texts):
    """``texts`` as CSV fields under QUOTE_MINIMAL: a text holding a comma, a
    double quote, CR or LF is quoted, with its quotes doubled; any other
    stays as it is. A block without such a text is returned unchanged after
    a search of its joined text."""
    joined = "".join(texts)
    if not any(c in joined for c in _CSV_SPECIAL):
        return texts
    return [
        '"%s"' % t.replace('"', '""') if any(c in t for c in _CSV_SPECIAL) else t
        for t in texts
    ]


# a negative number in decimal, exponent, inf or nan form; argparse's own
# pattern misses the last three, so it read "--menu -1e-05 1" as two flags
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits 2 on usage errors by default, but 2 is reserved for
    # "no equilibrium" here; route usage problems to exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fit_dict(fit) -> dict | None:
    """Uniform JSON shape for a fitted regression line (MZ fit of outcome on
    forecast, or bias fit of error on state: slope is the theta coefficient)."""
    if fit is None:
        return None
    line = fit.line
    if isinstance(line, MZLine):
        intercept, slope = line.intercept, line.slope
    else:
        intercept, slope = line.coef_const, line.coef_theta
    return {
        "intercept": intercept,
        "slope": slope,
        "intercept_stderr": fit.stderrs[0],
        "slope_stderr": fit.stderrs[1],
        "r_squared": fit.r_squared,
    }


def _linspace(lo: float, hi: float, steps: int):
    """The values of ``np.linspace(lo, hi, steps).tolist()`` for
    ``steps >= 2``, one at a time, computed with numpy's own arithmetic, so
    the sweep runs without numpy and holds no grid in memory."""
    div = steps - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        # numpy scales by i / div when the step underflows (or lo == hi)
        for i in range(div):
            yield lo + i / div * delta
    else:
        for i in range(div):
            yield lo + i * step
    yield hi


def _both_or_neither(first, second, flags: str) -> tuple | None:
    if (first is None) != (second is None):
        raise ValueError(f"{flags} must be given together")
    return None if first is None else (first, second)


def _conjecture_from(ns) -> LinearRule | None:
    pair = _both_or_neither(ns.b, ns.c, "--b and --c")
    return None if pair is None else LinearRule(*pair)


def _params_from(ns) -> ModelParams:
    return ModelParams(mu=ns.mu, tau2=ns.tau2, sigma2=ns.sigma2, y_target=ns.ytarget)


def _conjecture_report(conjecture: LinearRule, params: ModelParams) -> dict:
    return {
        "conjecture": asdict(conjecture),
        "optimal_rule": asdict(optimal_forecast(conjecture, params)),
        "bias_line": asdict(bias_line(conjecture, params)),
        "mz_line": asdict(mz_line(conjecture, params)),
    }


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_solve(ns) -> int:
    params = _params_from(ns)
    conjecture = _conjecture_from(ns)

    report: dict = {"params": asdict(params)}

    sol = solve_equilibria(params)
    report["equilibria"] = {
        "exists": sol.exists,
        "repeated": sol.repeated,
        # root 1 is the reported rule; the key stays for the report's readers
        "selected_index": 1,
        "roots": [root._asdict() for root in sol.roots],
    }
    if sol.exists and not sol.roots[0].degenerate:
        eq_bias, eq_mz = equilibrium_bias_and_mz(params)
        report["equilibrium"] = {
            "rule": asdict(sol.rule(1)),
            "bias_line": asdict(eq_bias),
            "mz_line": asdict(eq_mz),
        }

    report["taylor"] = _conjecture_report(TAYLOR_RULE, params)

    if conjecture is not None:
        report["conjecture"] = _conjecture_report(conjecture, params)
    elif not sol.exists:
        raise NoEquilibrium(
            f"tau2 = {params.tau2} > 1/4: no equilibrium, and no conjecture given"
        )

    print(json.dumps(report, indent=2))
    return 0


def cmd_sweep(ns) -> int:
    _require_finite("--tau2-min", ns.tau2_min)
    _require_finite("--tau2-max", ns.tau2_max)
    if ns.tau2_min < 0.0 or ns.tau2_min > ns.tau2_max:
        raise ValueError("need 0 <= tau2-min <= tau2-max")
    _require_int("--steps", ns.steps, 2)
    if ns.clip is not None:
        _require_positive("--clip", ns.clip)

    clip = ns.clip
    with _output(ns.out or None) as handle:
        handle.write("mu,tau2,mz_slope,mz_intercept,exists\n")
        lines = []
        for mu in ns.mu:
            # mu and the target pass the ModelParams rules once; every grid
            # tau2 lies in [tau2-min, tau2-max], already checked above
            y_target = ModelParams(
                mu=mu, tau2=ns.tau2_min, sigma2=1.0, y_target=ns.ytarget
            ).y_target
            mu_text = _fmt(mu)
            row = mu_text + ",%s,%.10g,%.10g,true"  # the two numbers as _fmt gives them
            for tau2 in _linspace(ns.tau2_min, ns.tau2_max, ns.steps):
                tau2_text = "%.10g" % tau2  # as _fmt gives it
                try:
                    _, intercept, slope = _equilibrium_coefficients(mu, tau2, y_target)
                except NoEquilibrium:
                    lines.append(f"{mu_text},{tau2_text},,,false")
                except DegenerateEquilibrium:
                    lines.append(f"{mu_text},{tau2_text},,,true")
                else:
                    # the checks MZLine makes, in its order
                    _require_finite("intercept", intercept)
                    _require_finite("slope", slope)
                    if clip is not None:
                        # min(max(v, -clip), clip) for finite v, without the
                        # builtins' call cost
                        slope = -clip if slope < -clip else clip if slope > clip else slope
                        intercept = (
                            -clip if intercept < -clip else clip if intercept > clip else intercept
                        )
                    lines.append(row % (tau2_text, slope, intercept))
                if len(lines) == _BLOCK_ROWS:
                    lines.append("")
                    handle.write("\n".join(lines))
                    lines.clear()
        lines.append("")
        handle.write("\n".join(lines))
    return 0


def cmd_simulate(ns) -> int:
    params = _params_from(ns)
    shock = PolicyShockSpec(
        family=ns.family,
        target_mean=ns.mu,
        target_var=ns.tau2,
        support=_both_or_neither(ns.support_lo, ns.support_hi, "--support-lo and --support-hi"),
    )
    state = StateNoiseSpec(
        theta_mean=ns.theta_mean, theta_var=ns.theta_var, noise_var=ns.sigma2
    )
    run = SimulationRun(
        draw_count=ns.n,
        seed=ns.seed,
        scenario=ns.scenario,
        conjecture=_conjecture_from(ns),
        equilibrium_index=ns.equilibrium_index,
        assumed_action=ns.a0,
        dm_applies_assumed=ns.dm_applies_assumed,
        menu=ns.menu,
    )
    # the player checks the inputs and solves the rule before any output opens
    play = _player(run, shock, state, params)
    # glibc's malloc raises its mmap and heap-trim thresholds to the size of
    # the largest mmapped block freed (up to 32 MB). Freeing an 8 MB one here
    # keeps each block's arrays and the writer's temporaries on a heap that
    # is not trimmed between blocks, instead of handing them back to the
    # system and faulting them in again (about 65,000 page faults in a
    # 1e6-draw run without it, and under 10 with it)
    np.empty(16 * _PLAY_ROWS)

    draws_path = f"{ns.out_prefix}_draws.csv"
    summary_path = f"{ns.out_prefix}_summary.json"
    with _output(draws_path) as draws, _output(summary_path) as handle:
        draws.write("theta,x,forecast,action,outcome,error\n")
        s = play(lambda columns: _write_rows(draws, 0, columns))
        summary = {
            "scenario": run.scenario,
            "draw_count": run.draw_count,
            "seed": run.seed,
            "params": asdict(params),
            "shock": asdict(shock),
            "state": asdict(state),
            "summary": {
                "mean_error": s.mean_error,
                "mse": s.mse,
                "variance_component": s.variance_component,
                "bias_sq_component": s.bias_sq_component,
                "mz": _fit_dict(s.mz),
                "bias_fit": _fit_dict(s.bias_fit),
            },
        }
        json.dump(summary, handle, indent=2)
        handle.write("\n")

    print(f"scenario: {run.scenario}")
    print(f"draws: {run.draw_count}")
    print(f"seed: {run.seed}")
    print(f"mean_error: {_fmt(s.mean_error)}")
    print(f"mse: {_fmt(s.mse)}")
    if s.mz is not None:
        print(f"mz_intercept: {_fmt(s.mz.line.intercept)}")
        print(f"mz_slope: {_fmt(s.mz.line.slope)}")
        print(f"mz_r_squared: {_fmt(s.mz.r_squared)}")
    print(f"wrote: {draws_path}")
    print(f"wrote: {summary_path}")
    return 0


def cmd_evaluate(ns) -> int:
    if ns.input is None:
        raise ValueError("evaluate needs an input CSV (positional or config key 'input')")
    series = ingest_csv(ns.input)
    # the rolling fit first: a window of constant forecasts is reported with
    # where it ends, before anything is printed
    rolling = rolling_mz(series, ns.window)
    full = ols_mz(series.forecast, series.realization)
    print(
        "full_sample_mz: intercept=%s slope=%s slope_stderr=%s r_squared=%s"
        % (
            _fmt(full.line.intercept),
            _fmt(full.line.slope),
            _fmt(full.stderrs[1]),
            _fmt(full.r_squared),
        )
    )
    with _output(ns.out or None) as handle:
        handle.write("window_end,mz_intercept,mz_slope,slope_stderr,r_squared,mean_error\n")
        _write_rows(
            handle,
            1,
            (
                rolling.window_end,
                rolling.mz_intercept,
                rolling.mz_slope,
                rolling.slope_stderr,
                rolling.r_squared,
                rolling.mean_error,
            ),
        )
    return 0


# ---------------------------------------------------------------------------
# parser construction and config-file plumbing

def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="feedbackcast", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # the flags several subcommands share, each defined once
    game = argparse.ArgumentParser(add_help=False)
    game.add_argument("--mu", type=float, required=True)
    game.add_argument("--tau2", type=float, required=True)
    game.add_argument("--ytarget", type=float, default=0.0)
    game.add_argument("--sigma2", type=float, default=1.0)
    game.add_argument("--b", type=float, default=None, help="conjecture intercept")
    game.add_argument("--c", type=float, default=None, help="conjecture slope")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)

    solve = subs.add_parser(
        "solve", parents=[game, config], help="closed-form rules, equilibria, bias and MZ lines"
    )
    solve.set_defaults(func=cmd_solve)

    sweep = subs.add_parser(
        "sweep", parents=[out, config], help="equilibrium MZ line over a (mu, tau2) grid"
    )
    sweep.add_argument("--mu", type=float, nargs="+", required=True)
    sweep.add_argument("--tau2-min", type=float, required=True)
    sweep.add_argument("--tau2-max", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--ytarget", type=float, default=0.0)
    sweep.add_argument("--clip", type=float, default=None, help="clamp slope/intercept to [-clip, clip]")
    sweep.set_defaults(func=cmd_sweep)

    sim = subs.add_parser(
        "simulate", parents=[game, config], help="play the game and write draws + summary"
    )
    sim.add_argument("--scenario", required=True, choices=SCENARIOS)
    sim.add_argument("--theta-mean", type=float, default=0.0)
    sim.add_argument("--theta-var", type=float, default=1.0)
    sim.add_argument("--family", default="beta_scaled", choices=FAMILIES)
    sim.add_argument("--support-lo", type=float, default=None)
    sim.add_argument("--support-hi", type=float, default=None)
    sim.add_argument("--a0", type=float, default=None, help="assumed action")
    sim.add_argument("--dm-applies-assumed", action="store_true")
    sim.add_argument("--menu", type=float, nargs=2, default=None, metavar=("A0", "A1"))
    sim.add_argument("--equilibrium-index", type=int, default=None)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-prefix", required=True)
    sim.set_defaults(func=cmd_simulate)

    ev = subs.add_parser(
        "evaluate", parents=[out, config], help="rolling MZ regression over a forecast CSV"
    )
    ev.add_argument(
        "input", nargs="?", default=None, help="CSV with header period,forecast,realization"
    )
    ev.add_argument("--window", type=int, default=40)
    ev.set_defaults(func=cmd_evaluate)

    return parser, subs.choices


def _load_config_mapping(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.strip()
    if not stripped:
        return {}
    if stripped.startswith("{"):
        data = json.loads(stripped)
        return {str(k).replace("-", "_"): v for k, v in data.items()}
    mapping = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        mapping[key.strip().replace("-", "_")] = value.strip()
    return mapping


def _config_tokens(action: argparse.Action, value) -> list[str]:
    """The command-line tokens that config value ``value`` for ``action``
    stands for."""
    if isinstance(action, argparse._StoreTrueAction):
        text = str(value).strip().lower()
        if text not in ("true", "1", "yes", "false", "0", "no"):
            raise ValueError(f"config key {action.dest!r}: expected a boolean, got {value!r}")
        return [action.option_strings[0]] if text in ("true", "1", "yes") else []
    flag = action.option_strings[0]
    items = value if isinstance(value, (list, tuple)) else [value]
    # bool is an int subclass, and str(True) would reach argparse as 'True'
    if action.type in (float, int) and any(isinstance(item, bool) for item in items):
        raise ValueError(f"config key {action.dest!r}: expected a number, got {value!r}")
    if action.nargs is None:
        # --flag=value, so a value starting with '-' is not read as a flag
        return [f"{flag}={value}"]
    if isinstance(value, str):
        items = value.replace(",", " ").split()
    return [flag, *map(str, items)]


def _apply_config_file(argv: list[str], table: dict[str, _Parser]) -> list[str]:
    """``argv`` with the tokens of its ``--config`` file placed right after the
    subcommand, where the explicit flags that follow override them."""
    if not argv or argv[0] not in table:
        return argv
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
    if path is None:
        return argv
    actions = {a.dest: a for a in table[argv[0]]._actions if a.dest != "help"}
    tokens: list[str] = []
    for key, value in _load_config_mapping(path).items():
        if key not in actions:
            raise ValueError(f"unknown config key {key!r} for subcommand {argv[0]!r}")
        action = actions[key]
        if action.option_strings:
            tokens += _config_tokens(action, value)
        else:
            # a positional given twice is an error, so the config value is its
            # default and an explicit positional replaces it
            action.default = str(value)
    return argv[:1] + tokens + argv[1:]


def _stdout_to_devnull() -> None:
    """Point stdout's descriptor at the null device, so output still buffered
    for a reader that has gone does not fail again at interpreter exit (the
    recipe in the notes on SIGPIPE of the ``signal`` module)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # an in-memory stdout has no descriptor
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, table = _build_parser()
    try:
        argv = _apply_config_file(argv, table)
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            if code is None:
                return 0
            return code if isinstance(code, int) else 1
        code = ns.func(ns)
        # flushed here, so a reader that stops early is met below rather than
        # at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return 141
    except NoEquilibrium as exc:
        print(f"feedbackcast: no equilibrium: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"feedbackcast: i/o error: {exc}", file=sys.stderr)
        return 3
    except (FeedbackcastError, ValueError) as exc:
        print(f"feedbackcast: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
