"""End-to-end and per-layer benchmark of feedbackcast.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``, and nothing needs installing. Workloads:

cli-evaluate
    Two fresh-process ``feedbackcast evaluate`` runs over one seeded
    60,000-row regime-switching panel, at window 40 and window 1000. The
    rolling OLS kernel dominates, and the long window shows a rewrite whose
    work grows with rows x window.
cli-session
    Fresh-process ``solve`` at four points, one 2x20,000-point ``sweep`` and
    one 1e6-draw ``simulate``. Start-up and the draws CSV writer dominate; the
    rolling and oracle layers are absent.
library-montecarlo
    One process, after the import and an untimed warm-up: 40 oracle checks
    drawn like acceptance criterion 3 and 12 ``play_game`` runs of 1e6 draws
    over all five scenarios and three shock families. No CLI, no CSV I/O and
    no import in the timed region.

A run repeats passes of its workload while the next pass, judged by the
mean pass so far, still ends within ``--seconds``. Every output is checked
against an independent reference (reference.py); an operation that raises,
exits non-zero or fails its check counts as failed and is listed, not
dropped.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: spans around
calls into each module's public functions, recorded from outside the package
(spans.py), plus ``python -X importtime`` for the import layer.

The report goes to stdout, the full record to ``.bench_out/``, and the last
line of stdout is one JSON object holding the metrics BENCHMARK.json names.
The exit code is non-zero, with no result line, when the program cannot be
run at all or a count that must repeat exactly does not.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKER = str(HERE / "worker.py")
# what the installed console script runs
MAIN = "import sys; from feedbackcast.cli import main; sys.exit(main())"
SETUP_SAMPLES = 5
CHILD_LIMIT_S = 150.0
EVALUATE_SAMPLE = 100

clock = time.perf_counter

# per-layer units of counts, which must repeat exactly across traced passes
EXACT_UNITS = ("count", "B", "calls/solve")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    """The caller's environment, minus the default simulate seed, with the
    checkout's sources on the path and a fixed string-hash seed."""
    env = {k: v for k, v in os.environ.items() if k not in ("FEEDBACKCAST_SEED", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def spawn(cmd: list[str], cwd: Path, stdout: Path, stderr: Path) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, start, end, peak RSS in MB),
    with start and end on the perf_counter clock."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = clock()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


def run_checked(cmd: list[str], workdir: Path, tag: str) -> tuple[float, str]:
    """Run a child that must succeed; returns (wall seconds, stdout)."""
    out, err = workdir / f"{tag}.out", workdir / f"{tag}.err"
    code, start, end, _ = spawn(cmd, workdir, out, err)
    if code != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {code}: {err.read_text()[-2000:]}")
    return end - start, out.read_text()


def environment(workdir: Path, seed: int) -> dict:
    _, text = run_checked([sys.executable, WORKER, "env"], workdir, "env")
    env = json.loads(text)
    package = Path(env.pop("package_file")).resolve()
    if ROOT / "src" not in package.parents:
        raise BenchError(f"feedbackcast imported from {package}, not from this checkout")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return dict(env, nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                commit=commit, seed=seed)


# ---------------------------------------------------------------------------
# CLI workloads: one fresh process per command

class CliOp(NamedTuple):
    name: str
    metric: str  # the end-to-end metric its time feeds
    argv: list[str]
    outputs: list[str]  # files it writes, relative to the run's working directory
    check: Callable[[bytes], None]  # raises when stdout or the outputs are wrong


def cli_ops(workload: str, seed: int, size: workloads.Size, workdir: Path) -> list[CliOp]:
    if workload == "cli-evaluate":
        labels, forecast, outcome = workloads.panel(seed, size)
        path = workdir / "panel.csv"
        f, y = workloads.write_panel(path, labels, forecast, outcome)
        full = reference.window_fit(f, y)
        rng = np.random.default_rng(workloads.stream(seed, "panel").spawn(1)[0])
        ops = []
        for window, metric in zip(size.windows, ("evaluate_short_s", "evaluate_long_s")):
            out = f"rolling-{window}.csv"
            sample = rng.integers(0, len(labels) - window + 1, EVALUATE_SAMPLE)

            def check(stdout, window=window, out=out, sample=sample):
                reference.check_evaluate(stdout, workdir / out, labels, f, y, window, sample, full)

            ops.append(CliOp(f"evaluate --window {window}", metric,
                             ["evaluate", str(path), "--window", str(window), "--out", out],
                             [out], check))
        return ops

    ops = []
    for point in workloads.SOLVE_POINTS:
        ops.append(CliOp(
            "solve " + " ".join(f"{k}={v}" for k, v in point.items()), "solve_s",
            workloads.solve_argv(point), [],
            lambda stdout, point=point: reference.check_solve(stdout, point)))
    sw = workloads.SWEEP
    ops.append(CliOp(
        f"sweep {size.sweep_steps} steps", "sweep_s",
        workloads.sweep_argv(size, "sweep.csv"), ["sweep.csv"],
        lambda stdout: reference.check_sweep(
            workdir / "sweep.csv", sw["mu"], sw["tau2_min"], sw["tau2_max"],
            size.sweep_steps, sw["y_target"], sw["clip"])))
    argv = workloads.simulate_argv(seed, size, "sim")
    sim_seed = int(argv[argv.index("--seed") + 1])
    rng = np.random.default_rng(workloads.stream(seed, "simulate").spawn(1)[0])
    ops.append(CliOp(
        f"simulate {size.simulate_draws} draws", "simulate_s", argv,
        ["sim_draws.csv", "sim_summary.json"],
        lambda stdout: reference.check_simulate(
            stdout, workdir / "sim_summary.json", workdir / "sim_draws.csv",
            workloads.SIMULATE, size.simulate_draws, sim_seed, rng)))
    return ops


def run_cli_op(op: CliOp, traced: bool, workdir: Path) -> dict:
    entry = {"name": op.name, "metric": op.metric}
    out, err, spans_file = workdir / "op.out", workdir / "op.err", workdir / "op.spans.json"
    if traced:
        cmd = [sys.executable, "-X", "importtime", WORKER, "cli", str(spans_file), *op.argv]
    else:
        cmd = [sys.executable, "-c", MAIN, *op.argv]
    code, start, end, rss = spawn(cmd, workdir, out, err)
    stdout = out.read_bytes()
    entry.update(s=end - start, rss_mb=rss, bytes=len(stdout) + sum(
        (workdir / name).stat().st_size for name in op.outputs if (workdir / name).exists()))
    if traced and code == 0:
        trace = json.loads(spans_file.read_text())
        # interpreter start-up and exit belong to the import layer
        interpreter = (trace.pop("first") - start) + (end - trace.pop("last"))
        trace["spans"]["import.interpreter"] = [1, interpreter, interpreter]
        trace["scipy_s"] = spans.scipy_import_s(err.read_text())
        entry["trace"] = trace
    if code != 0:
        entry.update(status="raised", error=f"exit {code}", detail=err.read_text()[-500:])
    else:
        try:
            op.check(stdout)
            entry["status"] = "ok"
        except Exception as exc:  # malformed output fails its check too
            entry.update(status="wrong", error="CheckFailed", detail=f"{type(exc).__name__}: {exc}")
    for name in op.outputs:
        (workdir / name).unlink(missing_ok=True)
    return entry


def run_cli(args, size, workdir: Path) -> dict:
    ops = cli_ops(args.workload, args.seed, size, workdir)
    setup = [run_checked([sys.executable, "-c", "import feedbackcast.cli"], workdir, "setup")[0]
             for _ in range(SETUP_SAMPLES)]
    passes = []
    begin = clock()
    minimum = 3 if args.trace else 1
    while workloads.more_passes(len(passes), clock() - begin, args.seconds, minimum):
        traced = workloads.traced_pass(len(passes), args.trace)
        done = [run_cli_op(op, traced, workdir) for op in ops]
        entry = {"traced": traced, "ops": done}
        if traced:
            trace = merge([op.pop("trace") for op in done if "trace" in op])
            interpreter = trace["spans"].get("import.interpreter", [0, 0.0])[1]
            entry.update(trace=trace, interpreter_s=interpreter,
                         import_s=trace["spans"].get("import", [0, 0.0])[1] + interpreter)
        passes.append(entry)
    return {"setup": setup, "passes": passes}


# ---------------------------------------------------------------------------
# library workload: one worker process

def run_library(args, size_name: str, workdir: Path) -> dict:
    setup = [run_checked([sys.executable, WORKER, "setup"], workdir, "setup")[0]
             for _ in range(SETUP_SAMPLES)]
    out, err = workdir / "library.json", workdir / "library.err"
    cmd = [sys.executable, *(["-X", "importtime"] if args.trace else []), WORKER, "library",
           str(args.seed), size_name, repr(args.seconds), "1" if args.trace else "0", str(out)]
    code, start, _, rss = spawn(cmd, workdir, workdir / "library.out", err)
    if code != 0:
        raise BenchError(f"library worker exited {code}: {err.read_text()[-2000:]}")
    data = json.loads(out.read_text())
    scipy_s = spans.scipy_import_s(err.read_text()) if args.trace else 0.0
    # the worker imports once, before its passes: interpreter start-up plus
    # the package import
    interpreter = data["first"] - start
    for p in data["passes"]:
        for op in p["ops"]:
            op["rss_mb"] = rss
        if p["traced"]:
            p["trace"]["scipy_s"] = scipy_s
            p.update(import_s=interpreter + data["import_s"], interpreter_s=interpreter)
    return {"setup": setup, "passes": data["passes"]}


# ---------------------------------------------------------------------------
# metrics

def stat(values: list[float], unit: str) -> dict:
    """Median with its sample count, plus the highest of p90/p99 that has at
    least ten samples beyond it."""
    entry = {"value": workloads.median(values), "unit": unit, "n": len(values)}
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            entry[f"p{q}"] = float(np.percentile(values, q))
            break
    return entry


def end_to_end(workload: str, run: dict) -> dict:
    passes = [p for p in run["passes"] if not p["traced"]]
    ops = [op for p in run["passes"] for op in p["ops"]]
    failed = sum(op["status"] != "ok" for op in ops)
    m = {
        "wall_s": stat([sum(op["s"] for op in p["ops"]) for p in passes], "s"),
        "setup_s": stat(run["setup"], "s"),
        "peak_rss_mb": stat([max(op["rss_mb"] for op in p["ops"]) for p in passes], "MB"),
        "failed_frac": {"value": failed / len(ops), "unit": "ratio", "n": len(ops)},
    }
    untraced = [op for p in passes for op in p["ops"]]
    for name in sorted({op.get("metric") for op in untraced} - {None}):
        m[name] = stat([op["s"] for op in untraced if op.get("metric") == name], "s")
    if workload == "library-montecarlo":
        m["oracle_solve_s"] = stat([op["mc_s"] for op in untraced if "mc_s" in op], "s")
        rates = []
        for p in passes:
            plays = [op for op in p["ops"] if op["kind"] == "play" and op["status"] == "ok"]
            if plays:
                rates.append(sum(op["draws"] for op in plays) / sum(op["s"] for op in plays))
        m["play_game_draws_per_s"] = stat(rates, "draws/s")
    return m


def layer_metrics(p: dict) -> dict:
    """Per-layer values of one traced pass: {name: (value, unit)}."""
    totals = p["trace"]["spans"]
    counters = p["trace"]["counters"]
    wall = sum(op["s"] for op in p["ops"])

    def col(name, i):
        return totals.get(name, [0, 0.0, 0.0])[i]

    calls, dur, own = 0, 1, 2
    m = {
        "import.total_s": (p["import_s"], "s"),
        "import.interpreter_s": (p["interpreter_s"], "s"),
        "import.scipy_s": (p["trace"]["scipy_s"], "s"),
    }
    for cmd in ("solve", "sweep", "simulate", "evaluate"):
        m[f"cli.{cmd}.self_s"] = (col(f"cli.{cmd}", own), "s")
    m["cli.bytes_written"] = (sum(op.get("bytes", 0) for op in p["ops"]), "B")
    m["evaluate.ingest_csv.s"] = (col("evaluate.ingest_csv", dur), "s")
    m["evaluate.ingest_csv.rows"] = (counters["evaluate.ingest_csv.rows"], "count")
    m["evaluate.rolling_mz.self_s"] = (col("evaluate.rolling_mz", own), "s")
    elems = counters["kernels.rolling_ols.window_elems"]
    m["kernels.rolling_ols.s"] = (col("kernels.rolling_ols", dur), "s")
    m["kernels.rolling_ols.calls"] = (col("kernels.rolling_ols", calls), "count")
    m["kernels.rolling_ols.window_elems"] = (elems, "count")
    m["kernels.rolling_ols.ns_per_window_elem"] = (
        1e9 * col("kernels.rolling_ols", dur) / elems if elems else 0.0, "ns")
    m["kernels.mse_at.s"] = (col("kernels.mse_at", dur), "s")
    m["kernels.mse_at.calls"] = (col("kernels.mse_at", calls), "count")
    m["kernels.mse_at.bytes"] = (counters["kernels.mse_at.bytes"], "B")
    solves = col("oracle.mc_mse_minimizer", calls)
    m["oracle.mse_evals_per_solve"] = (
        col("kernels.mse_at", calls) / solves if solves else 0.0, "calls/solve")
    m["oracle.mc_mse_minimizer.self_s"] = (col("oracle.mc_mse_minimizer", own), "s")
    m["oracle.exact_mse_minimizer.s"] = (col("oracle.exact_mse_minimizer", dur), "s")
    for family in ("beta_scaled", "truncated_normal"):
        m[f"simulate.sample_policy_shock.{family}_s"] = (
            col(f"simulate.sample_policy_shock.{family}", dur), "s")
    m["simulate.sample_policy_shock.draws"] = (counters["simulate.sample_policy_shock.draws"],
                                               "count")
    for kernel in ("react_play", "menu_play"):
        m[f"kernels.{kernel}.s"] = (col(f"kernels.{kernel}", dur), "s")
        m[f"kernels.{kernel}.calls"] = (col(f"kernels.{kernel}", calls), "count")
    m["simulate.play_game.self_s"] = (col("simulate.play_game", own), "s")
    m["simulate.ols_mz.s"] = (col("simulate.ols_mz", dur), "s")
    model = [v for k, v in totals.items() if k.startswith("model.")]
    m["model.s"] = (sum(v[own] for v in model), "s")
    m["model.calls"] = (sum(v[calls] for v in model), "count")
    attributed = 0.0
    for layer in ("import", "cli", "model", "simulate", "oracle", "evaluate", "kernels"):
        value = sum(v[own] for k, v in totals.items() if k == layer or k.startswith(layer + "."))
        m[f"layer.{layer}.self_s"] = (value, "s")
        attributed += value
    m["trace.wall_s"] = (wall, "s")
    m["trace.unattributed_frac"] = ((wall - attributed) / wall, "ratio")
    return m


def merge(traces: list[dict]) -> dict:
    """Sum the span summaries of one pass's processes."""
    totals: dict[str, list] = {}
    counters = dict.fromkeys(spans.COUNTERS, 0)
    for t in traces:
        for name, entry in t["spans"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += entry[i]
        for name, value in t["counters"].items():
            counters[name] += value
    return {"spans": totals, "counters": counters,
            "scipy_s": sum(t.get("scipy_s", 0.0) for t in traces)}


def per_layer(run: dict) -> dict:
    layered = [layer_metrics(p) for p in run["passes"] if p["traced"]]
    if not layered:
        raise BenchError("no traced pass completed")
    written = {sum(op.get("bytes", 0) for op in p["ops"]) for p in run["passes"]}
    if len(written) != 1:
        raise BenchError(f"cli.bytes_written drifts across passes: {sorted(written)}")
    m = {}
    for name, (_, unit) in layered[0].items():
        values = [pm[name][0] for pm in layered]
        if unit in EXACT_UNITS:
            if len(set(values)) != 1:
                raise BenchError(f"count {name} drifts across traced passes: {values}")
            m[name] = {"value": values[0], "unit": unit, "n": len(values)}
        else:
            m[name] = stat(values, unit)
    walls = [sum(op["s"] for op in p["ops"]) for p in run["passes"] if not p["traced"]]
    m["trace.overhead_frac"] = {
        "value": m["trace.wall_s"]["value"] / workloads.median(walls) - 1.0,
        "unit": "ratio", "n": len(walls)}
    return m


# ---------------------------------------------------------------------------
# report

def failures(workload: str, run: dict) -> list[dict]:
    grouped: dict[tuple, dict] = {}
    for p in run["passes"]:
        for op in p["ops"]:
            if op["status"] == "ok":
                continue
            key = (op["name"], op["error"])
            entry = grouped.setdefault(key, {"workload": workload, "operation": op["name"],
                                             "error": op["error"], "count": 0,
                                             "detail": op.get("detail", "")})
            entry["count"] += 1
    return list(grouped.values())


def report(args, env, metrics, failed_ops, record_path, layers) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in m.items() if k.startswith("p"))
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']:<12} n={m['n']} {extra}".rstrip())
    if layers:
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        print("self time by layer (traced pass median): "
              + ", ".join(f"{k} {v:.3g}s" for k, v in ranked))
    print(f"failed operations: {len(failed_ops)} kinds")
    for f in failed_ops:
        print(f"  {f['workload']}  {f['operation']}  {f['error']}  x{f['count']}  {f['detail'][:160]}")
    print(f"record: {record_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="feedbackcast end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="tiny shrinks every input, for the smoke run")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and reaped, the
    # working directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "feedbackcast" / "__init__.py").is_file():
        print(f"perfbench: no feedbackcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir()
    size = workloads.SIZES[args.size]
    try:
        env = environment(workdir, args.seed)
        if args.workload == "library-montecarlo":
            run = run_library(args, args.size, workdir)
        else:
            run = run_cli(args, size, workdir)
        metrics = end_to_end(args.workload, run)
        layers = {}
        if args.trace:
            metrics.update(per_layer(run))
            layers = {k[len("layer."):-len(".self_s")]: v["value"] for k, v in metrics.items()
                      if k.startswith("layer.")}
            layers["unattributed"] = (metrics["trace.unattributed_frac"]["value"]
                                      * metrics["trace.wall_s"]["value"])
        wanted = bench["per_layer" if args.trace else "end_to_end"]
        for spec in wanted:
            got = metrics.get(spec["name"])
            if got is None or got["unit"] != spec["unit"]:
                raise BenchError(f"metric {spec['name']} [{spec['unit']}] not measured")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_ops = failures(args.workload, run)
    ops = [op for p in run["passes"] for op in p["ops"]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env,
              "metrics": metrics, "failures": failed_ops, "passes": run["passes"]}
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    report(args, env, metrics, failed_ops, record_path, layers)
    print(json.dumps({
        "correct": all(op["status"] != "wrong" for op in ops),
        "attempted": len(ops),
        "failed": sum(op["status"] != "ok" for op in ops),
        "metrics": {s["name"]: {"value": metrics[s["name"]]["value"], "unit": s["unit"]}
                    for s in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
