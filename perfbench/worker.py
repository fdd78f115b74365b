"""Child-process side of the benchmark; run.py starts it, one process per job.

    worker.py env                               versions, numba, kernel backend
    worker.py setup                             import plus the warm-up call
    worker.py cli OUT ARGV...                   cli.main(ARGV) under spans
    worker.py library SEED SIZE SECONDS TRACE OUT

The package is imported before anything that pulls in numpy, so the timed
import is the one a user pays.
"""

import time

# perf_counter reads the system-wide monotonic clock on Linux, so run.py can
# set these stamps against its own spawn and exit times
FIRST = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from spans import Recorder  # noqa: E402

clock = time.perf_counter


def env() -> None:
    import feedbackcast
    from feedbackcast import kernels
    import numpy
    import scipy

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    # a package without backend selection has only its numpy kernels
    backend = kernels.active_backend() if hasattr(kernels, "active_backend") else "numpy"
    print(json.dumps({
        "package_file": feedbackcast.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "backend": backend,
    }))


def warm_up() -> None:
    """One small call down every library path the workload times, so lazy
    set-up (and JIT compilation, where numba is present) happens here."""
    from feedbackcast import oracle, simulate
    from feedbackcast.model import LinearRule, ModelParams

    params = ModelParams(mu=0.5, tau2=0.1, sigma2=1.0, y_target=1.0)
    shock = simulate.PolicyShockSpec("beta_scaled", 0.5, 0.1)
    cfg = oracle.OracleConfig(sample_count=10_000)
    oracle.exact_mse_minimizer(0.5, LinearRule(0.0, 1.0), params)
    oracle.mc_mse_minimizer(0.5, LinearRule(0.0, 1.0), params, shock, cfg, with_stderr=True)
    for scenario, menu in (("equilibrium", None), ("constrained_menu", (0.0, 0.5))):
        run = simulate.SimulationRun(draw_count=1000, seed=0, scenario=scenario, menu=menu)
        simulate.play_game(run, shock, simulate.StateNoiseSpec(), params)


def cli(out_path: str, argv: list[str]) -> int:
    start = clock()
    from feedbackcast import cli as program
    end = clock()
    recorder = Recorder()
    recorder.add("import", start, end)
    recorder.install()
    try:
        code = recorder.wrap("cli." + argv[0], program.main)(argv)
    finally:
        recorder.uninstall()
    sys.stdout.flush()
    summary = recorder.summary()
    summary.update(first=FIRST, last=clock())
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return code


def _oracle_op(case: dict, fb):
    params = fb.model.ModelParams(
        mu=case["mu"], tau2=case["tau2"], sigma2=case["sigma2"], y_target=case["y_target"]
    )
    conjecture = fb.model.LinearRule(intercept=case["b"], slope=case["c"])
    dist = fb.simulate.PolicyShockSpec(
        "beta_scaled", case["mu"], case["tau2"], support=(0.0, case["hi"])
    )
    cfg = fb.oracle.OracleConfig(sample_count=case["samples"], tolerance=1e-6, seed=case["seed"])

    def call():
        exact = fb.oracle.exact_mse_minimizer(case["theta"], conjecture, params)
        start = clock()
        f_hat, stderr = fb.oracle.mc_mse_minimizer(
            case["theta"], conjecture, params, dist, cfg, with_stderr=True
        )
        return {"mc_s": clock() - start}, lambda ref: ref.check_oracle(
            case, exact, f_hat, stderr, cfg.tolerance
        )

    return call


def _play_op(play: dict, fb):
    sim = fb.simulate
    conjecture = None
    if play["c"] is not None:
        conjecture = fb.model.LinearRule(intercept=play["b"], slope=play["c"])
    run = sim.SimulationRun(
        draw_count=play["draws"], seed=play["seed"], scenario=play["scenario"],
        conjecture=conjecture, assumed_action=play["a0"],
        dm_applies_assumed=play["dm_applies_assumed"],
        menu=tuple(play["menu"]) if play["menu"] is not None else None,
    )
    shock = sim.PolicyShockSpec(play["family"], play["mu"], play["tau2"])
    state = sim.StateNoiseSpec(
        theta_mean=play["theta_mean"], theta_var=play["theta_var"], noise_var=play["sigma2"]
    )
    params = fb.model.ModelParams(
        mu=play["mu"], tau2=play["tau2"], sigma2=play["sigma2"], y_target=play["y_target"]
    )

    def call():
        out = sim.play_game(run, shock, state, params)
        return {"draws": play["draws"]}, lambda ref: ref.check_play(play, out)

    return call


def _run_op(op: dict, fb, reference) -> dict:
    """Time one operation; a raise or a failed check is recorded, not fatal."""
    entry = {"name": op["name"], "kind": op["kind"], "s": 0.0}
    start = clock()
    try:
        call = (_oracle_op if op["kind"] == "oracle" else _play_op)(op, fb)
        start = clock()
        extra, check = call()
        entry["s"] = clock() - start
    except Exception as exc:  # the failure is the measurement
        entry.update(s=clock() - start, status="raised", error=type(exc).__name__,
                     detail=str(exc))
        return entry
    entry.update(extra)
    try:
        check(reference)
        entry["status"] = "ok"
    except Exception as exc:  # malformed output fails its check too
        entry.update(status="wrong", error="CheckFailed", detail=f"{type(exc).__name__}: {exc}")
    return entry


def library(seed: int, size: str, seconds: float, trace: bool, out_path: str) -> None:
    start = clock()
    import feedbackcast
    import_s = clock() - start
    warm_up()

    import reference
    import workloads

    ops = workloads.library_ops(seed, workloads.SIZES[size])
    recorder = Recorder()
    passes = []
    begin = clock()
    while workloads.more_passes(len(passes), clock() - begin, seconds, 3 if trace else 1):
        traced = workloads.traced_pass(len(passes), trace)
        if traced:
            recorder.reset()
            recorder.install()
        try:
            results = [_run_op(op, feedbackcast, reference) for op in ops]
        finally:
            recorder.uninstall()
        passes.append({"traced": traced, "ops": results,
                       "trace": recorder.summary() if traced else None})
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"first": FIRST, "import_s": import_s, "passes": passes}, handle)


def main(argv: list[str]) -> int:
    job = argv[0]
    if job == "env":
        env()
    elif job == "setup":
        warm_up()  # imports the package first
    elif job == "cli":
        return cli(argv[1], argv[2:])
    elif job == "library":
        library(int(argv[1]), argv[2], float(argv[3]), argv[4] == "1", argv[5])
    else:
        raise SystemExit(f"unknown job {job!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
