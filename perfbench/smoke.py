"""Tiny-size run of all three workloads, untraced and traced.

    python3 perfbench/smoke.py

Checks that every run exits 0, that each end-to-end metric of its workload
and every per-layer metric is emitted with its unit, and that the only
failed operation is the truncated-normal (1.0, 0.95) play, which the
moment match rejects at the seed commit.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COMMON = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}
END_TO_END = {
    "cli-evaluate": dict(COMMON, evaluate_short_s="s", evaluate_long_s="s"),
    "cli-session": dict(COMMON, solve_s="s", sweep_s="s", simulate_s="s"),
    "library-montecarlo": dict(COMMON, oracle_solve_s="s", play_game_draws_per_s="draws/s"),
}
KNOWN_FAILURE = ("play[taylor_rule/truncated_normal(1,0.95)]", "MomentMatchInfeasible")


def run(workload: str, trace: int) -> list[str]:
    """Problems found in one tiny run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed7-trace{trace}.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = dict(END_TO_END[workload])
    if trace:
        wanted.update((m["name"], m["unit"]) for m in bench["per_layer"])
    problems = [f"metric {name} [{unit}] missing" for name, unit in wanted.items()
                if record["metrics"].get(name, {}).get("unit") != unit]
    failures = {(f["operation"], f["error"]) for f in record["failures"]}
    expected = {KNOWN_FAILURE} if workload == "library-montecarlo" else set()
    if failures != expected:
        problems.append(f"failed operations {sorted(failures)}, expected {sorted(expected)}")
    if not result["correct"]:
        problems.append("an output failed its check")
    return problems


def main() -> int:
    bad = 0
    for workload in END_TO_END:
        for trace in (0, 1):
            problems = run(workload, trace)
            print(f"smoke {workload} trace={trace}: {'ok' if not problems else 'FAILED'}")
            for problem in problems:
                print(f"  {problem}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
