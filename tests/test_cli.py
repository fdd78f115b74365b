"""End-to-end coverage of the command-line front end."""

import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import feedbackcast
from feedbackcast import cli, kernels, simulate
from feedbackcast.cli import (
    ENV_SEED,
    _BLOCK_ROWS,
    _apply_config_file,
    _build_parser,
    _fit_dict,
    _fmt,
    _linspace,
    main,
)
from feedbackcast.errors import DegenerateEquilibrium, NoEquilibrium
from feedbackcast.evaluate import ingest_csv, rolling_mz
from feedbackcast.model import (
    LinearRule,
    ModelParams,
    equilibrium_bias_and_mz,
    solve_equilibria,
)
from feedbackcast.simulate import (
    FAMILIES,
    PolicyShockSpec,
    SimulationRun,
    StateNoiseSpec,
    play_game,
)


DATA_DIR = Path(__file__).parent / "data"

DRAWS_HEADER = "theta,x,forecast,action,outcome,error"
ROLLING_HEADER = "window_end,mz_intercept,mz_slope,slope_stderr,r_squared,mean_error"

# values whose %.10g text is easy to get wrong: signed zero, the smallest
# subnormal, exponent form, a rounding tail, and integers past 10 digits
EDGE_VALUES = (-0.0, 5e-324, 1e-5, 0.1 + 0.2, 1e16, 123456789012.0, -2.5)

# label endings that csv.writer quotes (comma, double quote, LF, CR), and one
# it leaves alone
CSV_SPECIAL_ENDINGS = (",Q3", '"q"', "a\nb", "a\rb", "plain")

ROW_COUNTS = (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3)


def _write_rows(path, header, cols):
    """The per-row writer the block writer replaced: one ``_fmt`` per number,
    labels as they are, one ``join`` and ``write`` per row."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n")
        for row in zip(*cols):
            handle.write(
                ",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n"
            )


def _write_blocks(path, header, labels, cols):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n")
        cli._write_rows(handle, labels, cols)


def _edge_columns(n, k, seed):
    """k seeded float columns of length n; each starts with EDGE_VALUES,
    rotated by its column index so every edge value meets every column."""
    rng = np.random.default_rng(seed)
    cols = []
    for j in range(k):
        col = rng.normal(0.0, 10.0, n) * rng.choice([1e-8, 1.0, 1e8], n)
        for i in range(min(n, len(EDGE_VALUES))):
            col[i] = EDGE_VALUES[(i + j) % len(EDGE_VALUES)]
        cols.append(col)
    return cols


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestSolve:
    def test_slope_zero_up_to_rounding_is_degenerate(self, capsys):
        # the slope is 2.8e-17 here, but (1 - mu)*s - tau2 rounds to zero
        report = _run_json(
            capsys, ["solve", "--mu", "0.6989064904206899", "--tau2", "0.210436208068524"]
        )
        assert report["equilibria"]["roots"][0]["degenerate"] is True
        assert "equilibrium" not in report

    def test_report_values(self, capsys):
        report = _run_json(
            capsys, ["solve", "--mu", "0.98", "--tau2", "0.1", "--ytarget", "2"]
        )
        assert report["params"] == {
            "mu": 0.98,
            "tau2": 0.1,
            "sigma2": 1.0,
            "y_target": 2.0,
        }
        eq = report["equilibria"]
        assert eq["exists"] is True
        assert eq["repeated"] is False
        assert eq["selected_index"] == 1
        assert [r["slope"] for r in eq["roots"]] == [
            -0.09270166537925828,
            -0.8672983346207417,
        ]
        assert [r["k"] for r in eq["roots"]] == [
            1.0927016653792583,
            1.8672983346207417,
        ]
        assert [r["degenerate"] for r in eq["roots"]] == [False, False]
        assert report["equilibrium"]["mz_line"] == {
            "intercept": 2.4314917087665386,
            "slope": -0.2157458543832693,
        }
        assert report["equilibrium"]["bias_line"] == {
            "coef_theta": 0.11270166537925831,
            "coef_const": -0.22540333075851662,
        }
        assert report["taylor"]["mz_line"]["slope"] == 1.0505050505050506
        assert "conjecture" not in report

    def test_conjecture_block(self, capsys):
        report = _run_json(
            capsys,
            [
                "solve", "--mu", "0.5", "--tau2", "0.1", "--ytarget", "2",
                "--b", "0", "--c", "1",
            ],
        )
        block = report["conjecture"]
        assert block["conjecture"] == {"intercept": 0.0, "slope": 1.0}
        # s = 1.5, D = 0.1 + 2.25: e* = 1.5/2.35, d* = (0.1 + 0.75)/2.35 * 2
        assert block["optimal_rule"]["slope"] == pytest.approx(1.5 / 2.35, rel=1e-15)
        assert block["optimal_rule"]["intercept"] == pytest.approx(
            2.0 * 0.85 / 2.35, rel=1e-15
        )

    def test_no_equilibrium_without_conjecture_is_exit_2(self, capsys):
        code, _, err = _run(capsys, ["solve", "--mu", "0.5", "--tau2", "0.3"])
        assert code == 2
        assert "no equilibrium" in err

    def test_no_equilibrium_with_conjecture_still_reports(self, capsys):
        report = _run_json(
            capsys,
            ["solve", "--mu", "0.5", "--tau2", "0.3", "--b", "0", "--c", "1"],
        )
        assert report["equilibria"]["exists"] is False
        assert report["equilibria"]["roots"] == []
        assert "equilibrium" not in report
        assert "conjecture" in report

    def test_degenerate_first_root_has_no_equilibrium_block(self, capsys):
        report = _run_json(capsys, ["solve", "--mu", "0.75", "--tau2", "0.1875"])
        roots = report["equilibria"]["roots"]
        assert roots[0]["degenerate"] is True
        assert roots[0]["slope"] == 0.0
        assert roots[0]["intercept"] is None
        assert roots[1]["degenerate"] is False
        assert "equilibrium" not in report

    def test_zero_uncertainty_singular_root(self, capsys):
        report = _run_json(capsys, ["solve", "--mu", "0.5", "--tau2", "0"])
        roots = report["equilibria"]["roots"]
        assert roots[0]["slope"] == 0.5
        assert roots[0]["degenerate"] is False
        assert roots[1]["degenerate"] is True
        assert roots[1]["k"] == 1.5

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--tau2", "0.1"],
            ["solve", "--mu", "-1", "--tau2", "0.1"],
            ["solve", "--mu", "0.5", "--tau2", "-0.1"],
            ["solve", "--mu", "0.5", "--tau2", "0.1", "--b", "0"],
        ],
    )
    def test_usage_and_validation_exit_1(self, capsys, argv):
        code, _, _ = _run(capsys, argv)
        assert code == 1


def _sweep_row(mu, tau2, y_target, clip):
    """One sweep row built from the library's lines: the reference the grid
    loop must reproduce."""
    head = f"{_fmt(mu)},{_fmt(tau2)}"
    try:
        _, line = equilibrium_bias_and_mz(ModelParams(mu=mu, tau2=tau2, y_target=y_target))
    except NoEquilibrium:
        return head + ",,,false"
    except DegenerateEquilibrium:
        return head + ",,,true"
    slope, intercept = line.slope, line.intercept
    if clip is not None:
        slope = min(max(slope, -clip), clip)
        intercept = min(max(intercept, -clip), clip)
    return f"{head},{_fmt(slope)},{_fmt(intercept)},true"


class TestSweep:
    def test_unit_mu_pins_the_line(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "sweep", "--mu", "1", "--tau2-min", "0.05", "--tau2-max", "0.2",
                "--steps", "4", "--ytarget", "2",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mu,tau2,mz_slope,mz_intercept,exists"
        assert len(lines) == 5
        for line in lines[1:]:
            mu, tau2, slope, intercept, exists = line.split(",")
            assert slope == "0"
            assert intercept == "2"
            assert exists == "true"

    def test_no_equilibrium_rows_have_empty_cells(self, capsys):
        code, out, _ = _run(
            capsys,
            ["sweep", "--mu", "0.5", "--tau2-min", "0.26", "--tau2-max", "0.3",
             "--steps", "2"],
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows == ["0.5,0.26,,,false", "0.5,0.3,,,false"]

    def test_cells_are_empty_exactly_where_solve_calls_the_root_degenerate(self, capsys):
        # mu within four ulps of the zero-slope curve mu = (1 + r) / 2
        rng = np.random.default_rng(23)
        groups = [(0.10272216796875, [0.883767940337973])]
        for tau2 in rng.uniform(0.0, 0.25, 20).tolist():
            mus = [(1.0 + math.sqrt(1.0 - 4.0 * tau2)) / 2.0]
            for _ in range(4):
                mus = [math.nextafter(mus[0], 0.0), *mus, math.nextafter(mus[-1], math.inf)]
            groups.append((tau2, mus))
        flagged = 0
        for tau2, mus in groups:
            code, out, err = _run(
                capsys,
                ["sweep", "--mu", *map(repr, mus), "--tau2-min", repr(tau2),
                 "--tau2-max", repr(tau2), "--steps", "2"],
            )
            assert code == 0, err
            for mu, row in zip(mus, out.splitlines()[1::2]):
                degenerate = solve_equilibria(ModelParams(mu=mu, tau2=tau2)).degenerate[0]
                assert row.endswith(",,,true") == degenerate, (mu, tau2, row)
                flagged += degenerate
                code, _, err = _run(capsys, ["solve", "--mu", repr(mu), "--tau2", repr(tau2)])
                assert code == 0, err
        assert flagged > 1

    def test_clip_clamps_both_line_coefficients(self, capsys):
        taus = (0.0185, 0.019, 0.0195)
        for tau2 in taus:
            _, line = equilibrium_bias_and_mz(
                ModelParams(mu=0.98, tau2=tau2, y_target=2.0)
            )
            assert abs(line.slope) > 2.0
            assert abs(line.intercept) > 2.0
        code, out, _ = _run(
            capsys,
            [
                "sweep", "--mu", "0.98", "--tau2-min", "0.0185",
                "--tau2-max", "0.0195", "--steps", "3", "--ytarget", "2",
                "--clip", "2",
            ],
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            _, _, slope, intercept, exists = row.split(",")
            assert slope == "2"
            assert intercept == "-2"
            assert exists == "true"

    @pytest.mark.parametrize("clip", [None, 1.5])
    def test_rows_equal_the_library_lines_point_by_point(self, capsys, clip):
        rng = np.random.default_rng(41)
        mus = [*rng.uniform(0.05, 1.0, 3).tolist(), 1.0, *rng.uniform(1.0, 2.0, 3).tolist()]
        # (mus, tau2-min, tau2-max, steps, ytarget)
        cases = [
            (mus, 0.0, 0.25, 11, 2.0),  # both ends of the feasible range
            (mus, 0.2, 0.4, 9, -3.5),  # across tau2 = 1/4, with a negative target
            ([0.883767940337973], 0.10272216796875, 0.10272216796875, 2, 1.0),  # zero slope
        ]
        for _ in range(6):
            lo = float(rng.uniform(0.0, 0.3))
            cases.append((
                rng.uniform(0.05, 2.0, 2).tolist(), lo, lo + float(rng.uniform(0.0, 0.1)),
                int(rng.integers(2, 40)), float(rng.normal(0.0, 5.0)),
            ))
        kinds = set()
        for case_mus, lo, hi, steps, y_target in cases:
            argv = ["sweep", "--mu", *map(repr, case_mus), "--tau2-min", repr(lo),
                    "--tau2-max", repr(hi), "--steps", str(steps), "--ytarget", repr(y_target)]
            if clip is not None:
                argv += ["--clip", repr(clip)]
            code, out, err = _run(capsys, argv)
            assert code == 0, err
            want = [_sweep_row(mu, tau2, y_target, clip)
                    for mu in case_mus for tau2 in _linspace(lo, hi, steps)]
            assert out.splitlines() == ["mu,tau2,mz_slope,mz_intercept,exists", *want]
            kinds.update(row.split(",", 2)[2] for row in want)
        # every kind of row: no root, a degenerate root, and (with --clip) a clamped cell
        assert ",,false" in kinds and ",,true" in kinds
        cells = {cell for kind in kinds for cell in kind.split(",")[:2]}
        assert ("1.5" in cells and "-1.5" in cells) == (clip is not None)

    @pytest.mark.parametrize(
        "mu,extra,message",
        [
            ("0", [], "mu must be positive, got 0.0"),
            ("nan", [], "mu must be finite, got nan"),
            ("0.5", ["--ytarget", "inf"], "y_target must be finite, got inf"),
            # the line at tau2 = 0.02 leaves the float range
            ("0.98", ["--tau2-min", "0.0185", "--ytarget", "1e308"],
             "intercept must be finite, got -inf"),
        ],
    )
    def test_bad_value_exits_1_with_one_error_line(self, capsys, mu, extra, message):
        argv = ["sweep", "--mu", mu, "--tau2-min", "0", "--tau2-max", "0.02", "--steps", "2"]
        code, out, err = _run(capsys, argv + extra)
        assert code == 1
        assert out == ""
        assert err == f"feedbackcast: error: {message}\n"

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("sweep_grid.csv",
             ["--mu", "0.5", "0.98", "1", "1.3", "--tau2-min", "0", "--tau2-max", "0.3",
              "--steps", "301", "--ytarget", "2", "--clip", "2"]),
            ("sweep_degenerate.csv",
             ["--mu", "0.883767940337973", "--tau2-min", "0.10272216796875",
              "--tau2-max", "0.10272216796875", "--steps", "2"]),
        ],
    )
    def test_output_equals_the_golden_file(self, capsys, tmp_path, name, argv):
        path = tmp_path / name
        code, _, err = _run(capsys, ["sweep", *argv, "--out", str(path)])
        assert code == 0, err
        assert path.read_bytes() == (DATA_DIR / name).read_bytes()

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["sweep", "--mu", "0.5", "--tau2-min", "0", "--tau2-max", "0.2",
                "--steps", "3"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        path = tmp_path / "sweep.csv"
        code2, out2, _ = _run(capsys, argv + ["--out", str(path)])
        assert code2 == 0
        assert out2 == ""
        assert path.read_text() == out

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--mu", "0.5", "--tau2-min", "0.2", "--tau2-max", "0.1",
             "--steps", "3"],
            ["sweep", "--mu", "0.5", "--tau2-min", "0", "--tau2-max", "0.1",
             "--steps", "1"],
            ["sweep", "--mu", "0.5", "--tau2-min", "0", "--tau2-max", "0.1",
             "--steps", "3", "--clip", "0"],
            ["sweep", "--mu", "0.5", "--tau2-min", "0", "--tau2-max", "0.1",
             "--steps", "3", "--clip", "nan"],
            ["sweep", "--mu", "0.5", "--tau2-min", "0", "--tau2-max", "0.1",
             "--steps", "3", "--clip", "inf"],
        ],
    )
    def test_validation_exit_1(self, capsys, argv):
        code, _, _ = _run(capsys, argv)
        assert code == 1

    @pytest.mark.parametrize("source", ["argv", "config"])
    @pytest.mark.parametrize(
        "flag,value", [("tau2-max", "inf"), ("tau2-min", "nan"), ("tau2-min", "-inf")]
    )
    def test_non_finite_bound_exit_1_naming_the_flag(self, capsys, tmp_path, source, flag, value):
        bounds = {"tau2-min": "0", "tau2-max": "0.1", flag: value}
        argv = ["sweep", "--mu", "0.5", "--steps", "3"]
        if source == "argv":
            argv += [f"--{key}={text}" for key, text in bounds.items()]
        else:
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text("".join(f"{key}={text}\n" for key, text in bounds.items()))
            argv += ["--config", str(cfg)]
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert f"--{flag} must be finite, got {value}" in err

    def test_grid_equals_numpy_linspace(self):
        # repr tells -0.0 from 0.0 and compares nan equal to nan
        rng = np.random.default_rng(6)
        cases = [(0.0, 0.0, 2), (0.1, 0.1, 5), (-0.0, -0.0, 3), (0.0, 0.25, 2),
                 (0.0, 0.3, 20_000), (0.05, 0.2, 7), (0.0, np.inf, 3),
                 (0.0, 1e-323, 6), (1e-300, 1e-300 + 5e-324, 9)]
        for _ in range(1000):
            scaled = rng.random() * 10.0 ** rng.integers(-320, 300)
            lo = float(rng.choice([0.0, rng.random(), scaled]))
            width = rng.choice([0.0, rng.random(), 5e-324 * rng.integers(1, 10), scaled])
            cases.append((lo, lo + float(width), int(rng.choice([2, 3, rng.integers(2, 500)]))))
        with np.errstate(invalid="ignore"):
            for lo, hi, steps in cases:
                expected = list(map(repr, np.linspace(lo, hi, steps).tolist()))
                assert list(map(repr, _linspace(lo, hi, steps))) == expected, (lo, hi, steps)


def _simulate_argv(prefix, extra=()):
    return [
        "simulate", "--scenario", "taylor_rule", "--mu", "0.5", "--tau2", "0.1",
        "--ytarget", "2", "--n", "500", "--out-prefix", str(prefix), *extra,
    ]


class TestSimulate:
    def test_writes_draws_and_summary(self, capsys, tmp_path):
        prefix = tmp_path / "run"
        code, out, _ = _run(capsys, _simulate_argv(prefix, ["--seed", "5"]))
        assert code == 0
        draws = (tmp_path / "run_draws.csv").read_text().splitlines()
        assert draws[0] == "theta,x,forecast,action,outcome,error"
        assert len(draws) == 501
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["scenario"] == "taylor_rule"
        assert summary["draw_count"] == 500
        assert summary["seed"] == 5
        mz = summary["summary"]["mz"]
        assert set(mz) == {
            "intercept", "slope", "intercept_stderr", "slope_stderr", "r_squared",
        }
        assert "mean_error:" in out and "mz_slope:" in out

    def test_same_seed_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(_simulate_argv(a, ["--seed", "9"])) == 0
        assert main(_simulate_argv(b, ["--seed", "9"])) == 0
        capsys.readouterr()
        assert (tmp_path / "a_draws.csv").read_bytes() == (tmp_path / "b_draws.csv").read_bytes()
        sa = json.loads((tmp_path / "a_summary.json").read_text())
        sb = json.loads((tmp_path / "b_summary.json").read_text())
        assert sa["summary"] == sb["summary"]

    def test_seed_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "7")
        prefix = tmp_path / "env"
        assert main(_simulate_argv(prefix)) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "env_summary.json").read_text())
        assert summary["seed"] == 7

    def test_seed_flag_beats_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "7")
        prefix = tmp_path / "flag"
        assert main(_simulate_argv(prefix, ["--seed", "3"])) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "flag_summary.json").read_text())
        assert summary["seed"] == 3

    def test_invalid_environment_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "lots")
        code, _, err = _run(capsys, _simulate_argv(tmp_path / "bad"))
        assert code == 1
        assert ENV_SEED in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--n", "0"],
            ["--tau2", "0.3"],
            ["--scenario", "conjecture_rule"],
            ["--scenario", "conditional"],
            ["--scenario", "constrained_menu"],
            ["--support-lo", "0"],
        ],
    )
    def test_validation_exit_1(self, capsys, tmp_path, extra):
        code, _, _ = _run(capsys, _simulate_argv(tmp_path / "x", extra))
        assert code == 1

    @pytest.mark.parametrize(
        "extra,field",
        [
            (["--menu", "0", "1", "--a0", "3", "--equilibrium-index", "2"], "assumed_action"),
            (["--scenario", "equilibrium", "--b", "1", "--c", "2"], "conjecture"),
        ],
    )
    def test_settings_the_scenario_does_not_use_exit_1(self, capsys, tmp_path, extra, field):
        code, _, err = _run(capsys, _simulate_argv(tmp_path / "unused", extra))
        assert code == 1
        assert f"does not use {field}" in err
        assert not (tmp_path / "unused_draws.csv").exists()

    def test_menu_action_at_the_float_limit_runs_without_a_warning(self, capsys, tmp_path):
        # the costly action squares to inf; the cheap one must still win
        argv = [
            "simulate", "--scenario", "constrained_menu", "--mu", "0.5",
            "--tau2", "0.1", "--ytarget", "2", "--menu", "1e308", "1",
            "--n", "2000", "--seed", "3", "--out-prefix", str(tmp_path / "huge"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = _run(capsys, argv)
        assert code == 0
        assert err == ""
        rows = (tmp_path / "huge_draws.csv").read_text().splitlines()[1:]
        assert len(rows) == 2000
        assert {row.split(",")[3] for row in rows} == {"1"}

    def test_menu_whose_costs_overflow_exits_1_without_a_warning(self, capsys, tmp_path):
        # both actions square to inf, so no DM's costs can be ranked
        argv = [
            "simulate", "--scenario", "constrained_menu", "--menu", "1e308", "-1e308",
            "--mu", "0.5", "--tau2", "0.1", "--ytarget", "2", "--n", "100",
            "--out-prefix", str(tmp_path / "overflow"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = _run(capsys, argv)
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("feedbackcast: error: the game's values overflowed")
        assert not (tmp_path / "overflow_draws.csv").exists()

    def test_menu_scenario_via_flags(self, capsys, tmp_path):
        prefix = tmp_path / "menu"
        argv = [
            "simulate", "--scenario", "constrained_menu", "--mu", "0.5",
            "--tau2", "0.1", "--ytarget", "2", "--menu", "0", "0.5",
            "--n", "200", "--seed", "1", "--out-prefix", str(prefix),
        ]
        code, _, _ = _run(capsys, argv)
        assert code == 0
        rows = (tmp_path / "menu_draws.csv").read_text().splitlines()[1:]
        actions = {row.split(",")[3] for row in rows}
        assert actions <= {"0", "0.5"}


# each scenario's command-line flags, and the SimulationRun fields they set
SCENARIO_SETTINGS = {
    "conjecture_rule": (["--b", "0.3", "--c", "0.8"],
                        dict(conjecture=LinearRule(0.3, 0.8))),
    "equilibrium": ([], {}),
    "taylor_rule": ([], {}),
    "conditional": (["--a0", "0.2", "--b", "0.1", "--c", "1.2"],
                    dict(assumed_action=0.2, conjecture=LinearRule(0.1, 1.2))),
    "conditional_applied": (["--a0", "0.2", "--dm-applies-assumed"],
                            dict(assumed_action=0.2, dm_applies_assumed=True)),
    "constrained_menu": (["--menu", "-0.5", "1"], dict(menu=(-0.5, 1.0))),
}


def _summary_numbers(summary):
    """(name, value, scale) of each number of a summary: a merged summary
    must lie within 1e-12 * (|value| + scale) of a one-block fit."""
    mse = summary.mse
    numbers = [
        ("mean_error", summary.mean_error, math.sqrt(mse)),
        ("mse", mse, mse),
        ("variance_component", summary.variance_component, mse),
        ("bias_sq_component", summary.bias_sq_component, mse),
    ]
    for name, fit in (("mz", summary.mz), ("bias_fit", summary.bias_fit)):
        if fit is None:
            numbers.append((name, None, 0.0))
            continue
        i_se, s_se = fit.stderrs
        line = _fit_dict(fit)
        numbers += [
            (name + ".intercept", line["intercept"], i_se),
            (name + ".slope", line["slope"], s_se),
            (name + ".intercept_stderr", i_se, 0.0),
            (name + ".slope_stderr", s_se, 0.0),
            (name + ".r_squared", fit.r_squared, 1.0),
        ]
    return numbers


def _json_numbers(report):
    s = report["summary"]
    numbers = {k: s[k] for k in ("mean_error", "mse", "variance_component", "bias_sq_component")}
    for name in ("mz", "bias_fit"):
        if s[name] is None:
            numbers[name] = None
            continue
        for key, value in s[name].items():
            numbers[f"{name}.{key}"] = value
    return numbers


class TestSimulateInBlocks:
    """``simulate`` plays, sums and writes ``simulate._PLAY_ROWS`` rows at a
    time, and ``play_game`` plays the same blocks; these tests shrink the
    blocks so a small run spans several, and let the next block be drawn on
    a helper thread even on one CPU."""

    ROWS = 300

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(simulate, "_PLAY_ROWS", self.ROWS)
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("scenario", list(SCENARIO_SETTINGS))
    def test_blocks_equal_one_play(self, capsys, tmp_path, scenario, family):
        n, seed, mu = 3 * self.ROWS + 101, 11, 0.3
        tau2 = 0.0 if family == "degenerate" else 0.08
        flags, fields = SCENARIO_SETTINGS[scenario]
        name = scenario.removesuffix("_applied")
        prefix = tmp_path / "run"
        argv = [
            "simulate", "--scenario", name, "--family", family, "--mu", str(mu),
            "--tau2", str(tau2), "--ytarget", "1", "--theta-mean", "0.5",
            "--n", str(n), "--seed", str(seed), "--out-prefix", str(prefix), *flags,
        ]
        code, _, err = _run(capsys, argv)
        assert code == 0, err
        out = play_game(
            SimulationRun(draw_count=n, seed=seed, scenario=name, **fields),
            PolicyShockSpec(family=family, target_mean=mu, target_var=tau2),
            StateNoiseSpec(theta_mean=0.5),
            ModelParams(mu=mu, tau2=tau2, y_target=1.0),
        )
        cols = (out.theta, out.x, out.forecast, out.action, out.outcome, out.error)
        _write_rows(tmp_path / "rows.csv", DRAWS_HEADER, cols)
        assert (tmp_path / "run_draws.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        got = _json_numbers(json.loads((tmp_path / "run_summary.json").read_text()))
        for key, want, _ in _summary_numbers(out.summary):
            assert got[key] == want, key
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "rows.csv", "run_draws.csv", "run_summary.json",
        ]

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("scenario", list(SCENARIO_SETTINGS))
    def test_merged_summary_is_near_a_one_block_fit(self, scenario, family):
        n, mu = 3 * self.ROWS + 101, 0.3
        tau2 = 0.0 if family == "degenerate" else 0.08
        name = scenario.removesuffix("_applied")
        out = play_game(
            SimulationRun(draw_count=n, seed=11, scenario=name, **SCENARIO_SETTINGS[scenario][1]),
            PolicyShockSpec(family=family, target_mean=mu, target_var=tau2),
            StateNoiseSpec(theta_mean=0.5),
            ModelParams(mu=mu, tau2=tau2, y_target=1.0),
        )
        one = simulate._GameSums.of(out.theta, out.forecast, out.outcome, out.error).summary()
        got = {key: value for key, value, _ in _summary_numbers(out.summary)}
        for key, want, scale in _summary_numbers(one):
            if want is None:
                assert got[key] is None, key
            else:
                assert abs(got[key] - want) <= 1e-12 * (abs(want) + scale), key

    @pytest.mark.parametrize("theta_mean", ["0.014", "-2.5"])
    def test_constant_regressors_across_blocks_have_no_fit(self, capsys, tmp_path, theta_mean):
        # theta and the forecast theta + a0 are the same in every row, and
        # so in every block
        prefix = tmp_path / "flat"
        argv = [
            "simulate", "--scenario", "conditional", "--dm-applies-assumed",
            "--a0", "0.1", "--theta-var", "0", "--theta-mean", theta_mean,
            "--mu", "0.5", "--tau2", "0.1", "--n", str(4 * self.ROWS),
            "--out-prefix", str(prefix),
        ]
        code, out, err = _run(capsys, argv)
        assert code == 0, err
        summary = json.loads((tmp_path / "flat_summary.json").read_text())["summary"]
        assert summary["mz"] is None and summary["bias_fit"] is None
        assert "mz_slope" not in out

    def test_overflow_in_a_later_block_writes_nothing(self, capsys, tmp_path):
        # errors of sd about 4e152: a block's squared errors sum to about
        # 5e307, the whole run's past the float range
        sigma2 = "1.5e305"
        params = ModelParams(mu=0.5, tau2=0.1, sigma2=float(sigma2))
        run = SimulationRun(
            draw_count=2 * self.ROWS, seed=0, scenario="conditional",
            assumed_action=0.0, dm_applies_assumed=True,
        )
        # the first two blocks play on their own
        play_game(run, PolicyShockSpec("beta_scaled", 0.5, 0.1),
                  StateNoiseSpec(noise_var=float(sigma2)), params)
        old = tmp_path / "big_draws.csv"
        old.write_text("an earlier run\n")
        argv = [
            "simulate", "--scenario", "conditional", "--dm-applies-assumed",
            "--a0", "0", "--mu", "0.5", "--tau2", "0.1", "--sigma2", sigma2,
            "--n", str(6 * self.ROWS), "--seed", "0", "--out-prefix", str(tmp_path / "big"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("feedbackcast: error: the game's values overflowed")
        assert [p.name for p in tmp_path.iterdir()] == ["big_draws.csv"]
        assert old.read_text() == "an earlier run\n"

    def test_failure_in_a_later_block_leaves_no_helper_running(
        self, capsys, tmp_path, monkeypatch
    ):
        # the run's squared errors overflow when block sums merge, in the
        # command's loop, while the helper, slowed down here, draws the next
        # block
        sampler = simulate._shock_sampler

        def slow_sampler(spec):
            draw = sampler(spec)

            def slow_draw(rng, out):
                time.sleep(0.05)
                return draw(rng, out)

            return slow_draw

        monkeypatch.setattr(simulate, "_shock_sampler", slow_sampler)
        threads = threading.active_count()
        argv = [
            "simulate", "--scenario", "conditional", "--dm-applies-assumed",
            "--a0", "0", "--mu", "0.5", "--tau2", "0.1", "--sigma2", "1.5e305",
            "--n", str(6 * self.ROWS), "--seed", "0", "--out-prefix", str(tmp_path / "big"),
        ]
        code, _, err = _run(capsys, argv)
        assert code == 1, err
        assert threading.active_count() == threads

    def test_peak_memory_does_not_grow_with_the_block_count(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(simulate, "_PLAY_ROWS", 4096)
        main(_simulate_argv(tmp_path / "warm", ["--n", "5000"]))  # imports, caches
        peaks = {}
        for blocks in (2, 8):
            argv = _simulate_argv(tmp_path / f"b{blocks}", ["--n", str(blocks * 4096)])
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        # the eight blocks' six columns alone would be 1.5 MB
        assert peaks[8] <= 1.1 * peaks[2]


class TestOutputFiles:
    """Outputs reach their path only when the run succeeds, with the
    permission bits a plain ``open(path, "w")`` gives them."""

    RUNS = {
        "simulate": (["simulate", "--scenario", "taylor_rule", "--mu", "0.5", "--tau2", "0.1",
                      "--n", "50", "--out-prefix", "{dir}/run"], "run_draws.csv"),
        "sweep": (["sweep", "--mu", "0.5", "--tau2-min", "0", "--tau2-max", "0.1",
                   "--steps", "3", "--out", "{dir}/sweep.csv"], "sweep.csv"),
    }

    def _argv(self, command, tmp_path):
        argv, name = self.RUNS[command]
        return [a.replace("{dir}", str(tmp_path)) for a in argv], tmp_path / name

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_new_file_bits_match_open(self, capsys, tmp_path, command, umask):
        old = os.umask(umask)
        try:
            plain = tmp_path / "plain.txt"
            open(plain, "w").close()
            argv, path = self._argv(command, tmp_path)
            assert main(argv) == 0
        finally:
            os.umask(old)
        capsys.readouterr()
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_existing_file_keeps_its_bits(self, capsys, tmp_path, command):
        argv, path = self._argv(command, tmp_path)
        path.write_text("old\n")
        path.chmod(0o640)
        assert main(argv) == 0
        capsys.readouterr()
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_text() != "old\n"

    def test_symbolic_link_target_is_replaced_not_the_link(self, capsys, tmp_path):
        target = tmp_path / "real.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        argv = ["sweep", "--mu", "0.5", "--tau2-min", "0", "--tau2-max", "0.1",
                "--steps", "3", "--out", str(link)]
        assert main(argv) == 0
        capsys.readouterr()
        assert link.is_symlink()
        assert target.read_text().startswith("mu,tau2,")

    def test_a_pipe_receives_the_table(self, capsys, tmp_path):
        # a FIFO is written through, not replaced by a regular file
        fifo = tmp_path / "table"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        argv = ["sweep", "--mu", "0.5", "--tau2-min", "0", "--tau2-max", "0.3", "--steps", "7"]
        assert main([*argv, "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        _, out, _ = _run(capsys, argv)
        assert got == [out]

    def test_empty_out_means_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--mu", "0.5", "--tau2-min", "0", "--tau2-max", "0.3", "--steps", "4"]
        _, want, _ = _run(capsys, argv)
        code, out, _ = _run(capsys, [*argv, "--out", ""])
        assert code == 0
        assert out == want
        assert list(tmp_path.iterdir()) == []

    def test_failing_sweep_leaves_the_out_file_untouched(self, capsys, tmp_path):
        # the line at tau2 = 0.02 leaves the float range, after the row at 0
        path = tmp_path / "sweep.csv"
        path.write_text("an earlier table\n")
        argv = ["sweep", "--mu", "0.98", "--tau2-min", "0.0185", "--tau2-max", "0.02",
                "--steps", "2", "--ytarget", "1e308", "--out", str(path)]
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert err.startswith("feedbackcast: error: intercept must be finite")
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]
        assert path.read_text() == "an earlier table\n"

    def test_no_equilibrium_is_reported_before_any_output_opens(self, capsys, tmp_path):
        # the rule is solved before the draws file is opened, so the missing
        # directory is never reached
        argv = ["simulate", "--scenario", "equilibrium", "--family", "truncated_normal",
                "--mu", "1", "--tau2", "0.3", "--n", "10",
                "--out-prefix", str(tmp_path / "nowhere" / "x")]
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("feedbackcast: no equilibrium: ")
        assert list(tmp_path.iterdir()) == []

    def test_failing_evaluate_leaves_the_out_file_untouched(self, capsys, tmp_path, monkeypatch):
        # the table's second block fails to format, after the header and the
        # first block have been written
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 8)
        format_rows, calls = kernels.format_rows, []

        def fail_second(columns):
            calls.append(None)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return format_rows(columns)

        monkeypatch.setattr(kernels, "format_rows", fail_second)
        path = tmp_path / "rolling.csv"
        path.write_text("an earlier table\n")
        argv = ["evaluate", str(DATA_DIR / "two_regime_series.csv"), "--out", str(path)]
        code, _, err = _run(capsys, argv)
        assert code == 3, err
        assert err.startswith("feedbackcast: i/o error: ")
        assert len(calls) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["rolling.csv"]
        assert path.read_text() == "an earlier table\n"

    def test_missing_directory_names_the_path_asked_for(self, capsys, tmp_path):
        path = tmp_path / "nowhere" / "sweep.csv"
        argv = ["sweep", "--mu", "0.5", "--tau2-min", "0", "--tau2-max", "0.1",
                "--steps", "3", "--out", str(path)]
        code, _, err = _run(capsys, argv)
        assert code == 3
        assert err.startswith("feedbackcast: i/o error: ")
        assert str(path) in err and ".tmp" not in err

    def test_sweep_peak_memory_does_not_grow_with_the_grid(self, tmp_path):
        peaks = {}
        for blocks in (2, 8):
            argv = ["sweep", "--mu", "0.5", "--tau2-min", "0", "--tau2-max", "0.3",
                    "--steps", str(blocks * _BLOCK_ROWS), "--out", str(tmp_path / "sweep.csv")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the whole 32,768-row table would be about 2.5 MB
        assert peaks[8] <= 1.1 * peaks[2]


class TestWriteTable:
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_draws_match_the_per_row_writer(self, tmp_path, n):
        cols = _edge_columns(n, 6, seed=n)
        _write_blocks(tmp_path / "blocks.csv", DRAWS_HEADER, 0, cols)
        _write_rows(tmp_path / "rows.csv", DRAWS_HEADER, cols)
        got = (tmp_path / "blocks.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        assert got.count(b"\n") == n + 1

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_rolling_match_the_per_row_writer(self, tmp_path, n):
        labels = tuple(f"p{i:06d}" for i in range(n))
        cols = [labels, *_edge_columns(n, 5, seed=n + 1)]
        _write_blocks(tmp_path / "blocks.csv", ROLLING_HEADER, 1, cols)
        _write_rows(tmp_path / "rows.csv", ROLLING_HEADER, cols)
        got = (tmp_path / "blocks.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        assert got.count(b"\n") == n + 1

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize("kind", ["exponent_table", "zero_column"])
    def test_table_matches_the_per_row_writer(self, tmp_path, kind, n):
        if kind == "exponent_table":
            rng = np.random.default_rng(n + 2)
            cols = [rng.normal(0.0, 1e-8, n) for _ in range(6)]
        else:
            cols = _edge_columns(n, 6, seed=n + 3)
            cols[3] = np.zeros(n)
        _write_blocks(tmp_path / "blocks.csv", DRAWS_HEADER, 0, cols)
        _write_rows(tmp_path / "rows.csv", DRAWS_HEADER, cols)
        got = (tmp_path / "blocks.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        assert got.count(b"\n") == n + 1

    def test_labels_are_written_as_csv_writer_writes_them(self, tmp_path):
        # plain labels in the first block, special ones throughout the second
        n = _BLOCK_ROWS + 7
        labels = tuple(
            f"p{i:05d}" + (CSV_SPECIAL_ENDINGS[i % 5] if i >= _BLOCK_ROWS else "")
            for i in range(n)
        )
        cols = [labels, *_edge_columns(n, 5, seed=6)]
        _write_blocks(tmp_path / "blocks.csv", ROLLING_HEADER, 1, cols)
        # csv.writer's default dialect, whose "\r\n" row ends make it quote
        # CR as well as LF; the table ends its rows with "\n"
        want = io.StringIO()
        want.write(ROLLING_HEADER + "\n")
        for label, *values in zip(*cols):
            row = io.StringIO()
            csv.writer(row).writerow([label, *map(_fmt, values)])
            want.write(row.getvalue().removesuffix("\r\n") + "\n")
        got = (tmp_path / "blocks.csv").read_bytes().decode("utf-8")
        assert got == want.getvalue()
        assert got.count('"') > 0

    def test_simulate_draws_file_matches_the_per_row_writer(self, capsys, tmp_path):
        n = 2 * _BLOCK_ROWS + 3
        prefix = tmp_path / "sim"
        assert main(_simulate_argv(prefix, ["--n", str(n), "--seed", "5"])) == 0
        capsys.readouterr()
        out = play_game(
            SimulationRun(draw_count=n, seed=5, scenario="taylor_rule"),
            PolicyShockSpec(family="beta_scaled", target_mean=0.5, target_var=0.1),
            StateNoiseSpec(),
            ModelParams(mu=0.5, tau2=0.1, y_target=2.0),
        )
        cols = (out.theta, out.x, out.forecast, out.action, out.outcome, out.error)
        _write_rows(tmp_path / "rows.csv", DRAWS_HEADER, cols)
        got = (tmp_path / "sim_draws.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()

    def test_evaluate_stdout_equals_the_out_file(self, capsys, tmp_path):
        window = 40
        n = _BLOCK_ROWS + window + 10
        f, y = _edge_columns(n, 2, seed=3)
        f += np.arange(n)  # no flat window
        path = tmp_path / "series.csv"
        _write_rows(path, "period,forecast,realization",
                    (tuple(f"t{i:05d}" for i in range(n)), f, y))
        argv = ["evaluate", str(path), "--window", str(window)]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        first, table = out.split("\n", 1)
        assert first.startswith("full_sample_mz:")
        out_path = tmp_path / "rolling.csv"
        code, out2, _ = _run(capsys, argv + ["--out", str(out_path)])
        assert code == 0
        assert out2 == first + "\n"
        assert table.encode("utf-8") == out_path.read_bytes()
        rolling = rolling_mz(ingest_csv(path), window)
        cols = (
            rolling.window_end, rolling.mz_intercept, rolling.mz_slope,
            rolling.slope_stderr, rolling.r_squared, rolling.mean_error,
        )
        _write_rows(tmp_path / "rows.csv", ROLLING_HEADER, cols)
        assert out_path.read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert table.count("\n") == n - window + 2

    def test_peak_memory_does_not_grow_with_the_row_count(self, tmp_path):
        # the whole 200k-row text would be about 16 MB
        peaks = {}
        for n in (20_000, 200_000):
            cols = _edge_columns(n, 6, seed=4)
            tracemalloc.start()
            try:
                _write_blocks(tmp_path / "draws.csv", DRAWS_HEADER, 0, cols)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200_000] <= 1.1 * peaks[20_000]
        assert peaks[200_000] < 4 * 2**20


class TestEvaluate:
    def _series_path(self, tmp_path, n=10):
        lines = ["period,forecast,realization"]
        for i in range(n):
            lines.append(f"t{i:02d},{float(i)},{i + 0.5}")
        path = tmp_path / "series.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_full_sample_line_and_rolling_csv(self, capsys, tmp_path):
        path = self._series_path(tmp_path)
        code, out, _ = _run(capsys, ["evaluate", str(path), "--window", "5"])
        assert code == 0
        first = out.splitlines()[0]
        assert first == (
            "full_sample_mz: intercept=0.5 slope=1 slope_stderr=0 r_squared=1"
        )
        rows = out.splitlines()[1:]
        assert rows[0] == "window_end,mz_intercept,mz_slope,slope_stderr,r_squared,mean_error"
        assert len(rows) == 7
        for row in rows[1:]:
            label, intercept, slope, stderr, r2, mean_error = row.split(",")
            assert (intercept, slope, stderr, r2, mean_error) == ("0.5", "1", "0", "1", "0.5")

    def test_out_file(self, capsys, tmp_path):
        path = self._series_path(tmp_path)
        out_path = tmp_path / "rolling.csv"
        code, out, _ = _run(
            capsys, ["evaluate", str(path), "--window", "5", "--out", str(out_path)]
        )
        assert code == 0
        assert out.startswith("full_sample_mz:")
        assert out_path.read_text().splitlines()[0].startswith("window_end,")

    def test_quoted_labels_read_back_as_six_fields(self, capsys, tmp_path):
        n, window = 30, 5
        labels = [f"2020-{i:02d}" + CSV_SPECIAL_ENDINGS[i % 5] for i in range(n)]
        path = tmp_path / "series.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["period", "forecast", "realization"])
            for i, label in enumerate(labels):
                writer.writerow([label, float(i), i + 0.5 * (i % 3)])
        out_path = tmp_path / "rolling.csv"
        argv = ["evaluate", str(path), "--window", str(window), "--out", str(out_path)]
        code, _, err = _run(capsys, argv)
        assert code == 0, err
        with open(out_path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ROLLING_HEADER.split(",")
        assert all(len(row) == 6 for row in rows)
        assert [row[0] for row in rows[1:]] == labels[window - 1 :]

    def test_window_too_large_exit_1(self, capsys, tmp_path):
        path = self._series_path(tmp_path, n=4)
        code, _, err = _run(capsys, ["evaluate", str(path), "--window", "6"])
        assert code == 1
        assert "window" in err

    def test_sums_past_the_float_range_exit_1_without_a_warning(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("period,forecast,realization\np1,1e200,1\np2,-1e200,2\np3,3e200,3\np4,1,4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["evaluate", str(path), "--window", "3"])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("feedbackcast: error: the fit's sums overflowed the float range")

    def test_a_level_past_the_root_of_the_float_range_exits_0(self, capsys, tmp_path):
        # the window means square past the float range, the fits do not
        rng = np.random.default_rng(31)
        forecast = 2e154 + rng.normal(0.0, 1e140, 50)
        realization = forecast + rng.normal(0.0, 1e139, 50)
        rows = enumerate(zip(forecast.tolist(), realization.tolist()))
        path = tmp_path / "high.csv"
        path.write_text(
            "period,forecast,realization\n"
            + "".join(f"p{i:02d},{f!r},{r!r}\n" for i, (f, r) in rows)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["evaluate", str(path), "--window", "10"])
        assert code == 0
        assert err == ""
        assert out.startswith("full_sample_mz: intercept=-3.75")

    def test_missing_input_exit_3(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["evaluate", str(tmp_path / "nope.csv")])
        assert code == 3
        assert "i/o error" in err

    def test_malformed_row_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("period,forecast,realization\na,1,2\nb,x,4\n")
        code, _, err = _run(capsys, ["evaluate", str(path), "--window", "3"])
        assert code == 1
        assert "line 3" in err


class TestConfigFile:
    def test_json_config_satisfies_required_flags(self, capsys, tmp_path):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"mu": 0.98, "tau2": 0.1, "ytarget": 2}))
        report = _run_json(capsys, ["solve", "--config", str(cfg)])
        assert report["taylor"]["mz_line"]["slope"] == 1.0505050505050506

    def test_key_value_config_with_dashed_names(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# grid over tau2\nmu=1\ntau2-min=0.05\ntau2-max=0.2\nsteps=4\nytarget=2\n"
        )
        code, out, _ = _run(capsys, ["sweep", "--config", str(cfg)])
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("mu=1\ntau2-min=0.05\ntau2-max=0.2\nsteps=4\n")
        code, out, _ = _run(capsys, ["sweep", "--config", str(cfg), "--steps", "6"])
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_unknown_key_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"mu": 0.5, "tau2": 0.1, "mystery": 1}))
        code, _, err = _run(capsys, ["solve", "--config", str(cfg)])
        assert code == 1
        assert "mystery" in err

    def test_simulate_fully_from_config(self, capsys, tmp_path):
        prefix = tmp_path / "cfgrun"
        cfg = tmp_path / "sim.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": "constrained_menu",
                    "mu": 0.5,
                    "tau2": 0.1,
                    "ytarget": 2,
                    "menu": [0.0, 0.5],
                    "n": 100,
                    "seed": 4,
                    "out-prefix": str(prefix),
                }
            )
        )
        code, _, _ = _run(capsys, ["simulate", "--config", str(cfg)])
        assert code == 0
        summary = json.loads((tmp_path / "cfgrun_summary.json").read_text())
        assert summary["scenario"] == "constrained_menu"
        assert summary["seed"] == 4

    @pytest.mark.parametrize("key,value", [("n", True), ("seed", False), ("mu", True)])
    def test_json_boolean_for_a_number_exit_1(self, capsys, tmp_path, key, value):
        prefix = tmp_path / "boolnum"
        config = {
            "scenario": "taylor_rule", "mu": 0.5, "tau2": 0.1, "n": 100,
            "seed": 1, "out-prefix": str(prefix),
        }
        config[key] = value
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(config))
        code, _, err = _run(capsys, ["simulate", "--config", str(cfg)])
        assert code == 1
        assert repr(key) in err
        assert not (tmp_path / "boolnum_draws.csv").exists()

    def test_boolean_coercion(self, capsys, tmp_path):
        prefix = tmp_path / "boolrun"
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "scenario=conditional\nmu=0.5\ntau2=0.1\nytarget=2\na0=0.25\n"
            f"dm-applies-assumed=true\nn=100\nseed=2\nout-prefix={prefix}\n"
        )
        code, _, _ = _run(capsys, ["simulate", "--config", str(cfg)])
        assert code == 0
        rows = (tmp_path / "boolrun_draws.csv").read_text().splitlines()[1:]
        assert {row.split(",")[3] for row in rows} == {"0.25"}


    @pytest.mark.parametrize(
        "argv,name,text,flag",
        [
            (["solve"], "solve.cfg", "mu=0.5\ntau2=abc\n", "--tau2"),
            (
                ["sweep"],
                "sweep.json",
                json.dumps({"mu": [1], "tau2-min": 0.05, "tau2-max": 0.2, "steps": 2.5}),
                "--steps",
            ),
        ],
        ids=["tau2-key-value", "steps-json"],
    )
    def test_conversion_error_names_the_flag(self, capsys, tmp_path, argv, name, text, flag):
        cfg = tmp_path / name
        cfg.write_text(text)
        code, _, err = _run(capsys, [*argv, "--config", str(cfg)])
        assert code == 1
        assert f"argument {flag}:" in err

    @pytest.mark.parametrize(
        "name,text",
        [
            ("sim.json", json.dumps({"n": 100.0})),
            ("sim.cfg", "n=100.0\n"),
        ],
        ids=["json", "key-value"],
    )
    def test_float_text_for_an_integer_flag_exit_1(self, capsys, tmp_path, name, text):
        # a config value means what the same text means after its flag
        cfg = tmp_path / name
        cfg.write_text(text)
        code, _, err = _run(capsys, _simulate_argv(tmp_path / "float_n", ["--config", str(cfg)]))
        assert code == 1
        assert "argument --n: invalid int value: '100.0'" in err
        assert not (tmp_path / "float_n_draws.csv").exists()

    def test_value_starting_with_a_dash_is_a_value(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sim.json"
        cfg.write_text(
            json.dumps(
                {"scenario": "taylor_rule", "mu": 0.5, "tau2": 0.1, "n": 50,
                 "seed": 1, "out-prefix": "-dashed"}
            )
        )
        code, _, err = _run(capsys, ["simulate", "--config", str(cfg)])
        assert code == 0, err
        assert (tmp_path / "-dashed_draws.csv").exists()

    def test_evaluate_input_from_config_and_positional_beats_it(self, capsys, tmp_path):
        lines = ["period,forecast,realization"]
        lines += [f"t{i:02d},{float(i)},{i + 0.5}" for i in range(10)]
        series = tmp_path / "series.csv"
        series.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"input={series}\nwindow=5\n")
        code, out, err = _run(capsys, ["evaluate", "--config", str(cfg)])
        assert code == 0, err
        assert len(out.splitlines()) == 8
        cfg.write_text(f"input={tmp_path / 'missing.csv'}\nwindow=5\n")
        code, explicit, err = _run(capsys, ["evaluate", str(series), "--config", str(cfg)])
        assert code == 0, err
        assert explicit == out

    def test_evaluate_without_any_input_exit_1(self, capsys):
        code, _, err = _run(capsys, ["evaluate", "--window", "5"])
        assert code == 1
        assert "input" in err

    def test_flag_overrides_config_for_a_list_flag(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps({"mu": [0.5, 0.7, 0.9], "tau2-min": 0.05, "tau2-max": 0.2, "steps": 2})
        )
        code, out, _ = _run(capsys, ["sweep", "--config", str(cfg), "--mu", "1"])
        assert code == 0
        assert {row.split(",")[0] for row in out.strip().splitlines()[1:]} == {"1"}


def _with_config(argv, flag, items, source, tmp_path):
    """``argv`` with ``flag`` given ``items``, on the command line or from a
    config file in the given format."""
    if source == "argv":
        return [*argv, flag, *map(repr, items)]
    key = flag.lstrip("-")
    cfg = tmp_path / f"config.{source}"
    if source == "json":
        cfg.write_text(json.dumps({key: list(items)}))
    else:
        cfg.write_text(f"{key}={' '.join(map(repr, items))}\n")
    return [*argv, "--config", str(cfg)]


class TestNegativeNumbers:
    """Multi-value flags take negative numbers in every form float() reads;
    a value argparse passes on reaches the program's own validation."""

    @pytest.mark.parametrize("source", ["argv", "json", "key-value"])
    @pytest.mark.parametrize("value", [-1e-05, -0.0, 1e308, -np.inf])
    @pytest.mark.parametrize(
        "argv,flag,error",
        [
            (["simulate", "--scenario", "constrained_menu", "--mu", "0.5", "--tau2", "0.1",
              "--n", "50"], "--menu", "menu[0] must be finite, got -inf"),
            (["sweep", "--tau2-min", "0.1", "--tau2-max", "0.2", "--steps", "2"],
             "--mu", "mu must be finite, got -inf"),
        ],
        ids=["menu", "sweep-mu"],
    )
    def test_value_reaches_validation(self, capsys, tmp_path, argv, flag, error, value, source):
        if argv[0] == "simulate":
            argv = [*argv, "--out-prefix", str(tmp_path / "run")]
        argv = _with_config(argv, flag, (value, 1.0), source, tmp_path)
        parser, table = _build_parser()
        ns = parser.parse_args(_apply_config_file(argv, table))
        assert list(map(repr, getattr(ns, flag[2:]))) == [repr(value), "1.0"]
        with np.errstate(over="ignore"):
            code, _, err = _run(capsys, argv)
        assert "argument" not in err
        if value == -np.inf:
            assert code == 1
            assert error in err
        elif argv[0] == "simulate":
            assert code == 0, err


def _fresh_env():
    src = str(Path(feedbackcast.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _fresh(code, cwd=None):
    """stdout of ``python -c code`` in a fresh interpreter, where no module
    another test imported is loaded yet."""
    return subprocess.run(
        [sys.executable, "-c", code], env=_fresh_env(), cwd=cwd,
        capture_output=True, text=True, check=True,
    ).stdout


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestClosedPipe:
    """A reader that closes stdout early ends the run with status 141, the
    status of a process killed by SIGPIPE, and no message."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--mu", "0.98", "--tau2", "0.1"],
            ["sweep", "--mu", "0.5", "--tau2-min", "0", "--tau2-max", "0.2", "--steps", "3"],
        ],
        ids=["solve", "sweep"],
    )
    def test_in_process(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main(argv)
        monkeypatch.undo()
        assert code == 141
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_fresh_process(self, buffered):
        # block-buffered stdout (the default for a pipe) holds solve's report
        # until a flush, so the closed pipe is met at the flush, not the print
        env = {k: v for k, v in _fresh_env().items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "feedbackcast.cli", "solve", "--mu", "0.98", "--tau2", "0.1"],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 141
        assert result.stderr == ""


# the names the package exported when its __init__ listed them one by one,
# but BracketFailure, which went with the oracle's golden-section search
EXPORTED = (
    "__version__ FeedbackcastError DegenerateConjecture "
    "DegenerateEquilibrium InsufficientData MissingMenu MomentMatchInfeasible "
    "NoEquilibrium ParseError SchemaError SingularDenominator SingularMZ "
    "WindowTooLarge ZeroVariance TAYLOR_RULE BiasLine ConditionalForecastSpec "
    "EquilibriumSolution LinearRule ModelParams MseSplit MZLine bias_line "
    "conditional_bias_and_mz conditional_forecast constrained_dm_choice "
    "dm_optimal_action equilibrium_bias_and_mz mse_decomposition mz_line "
    "optimal_forecast reaction_from_conjecture solve_equilibria unbiased_rule "
    "BestResponseTrace BiasFit MzFit PolicyShockSpec SimulationOutput "
    "SimulationRun SimulationSummary StateNoiseSpec best_response_iteration "
    "ols_mz play_game sample_policy_shock OracleConfig exact_mse_minimizer "
    "grid_action_minimizer mc_mse_minimizer ForecastSeries RollingResult "
    "ingest_csv moving_average_bias rolling_mz"
).split()


class TestImport:
    def test_package_and_cli_import_without_scipy(self):
        out = _fresh(
            "import sys, feedbackcast, feedbackcast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert out.strip() == "[]"

    def test_every_exported_name_imports(self):
        assert len(EXPORTED) == 55
        assert set(EXPORTED) <= set(feedbackcast.__all__)
        assert len(set(feedbackcast.__all__)) == len(feedbackcast.__all__)
        for name in feedbackcast.__all__:
            assert hasattr(feedbackcast, name), name

    def test_bracket_failure_is_gone(self):
        import feedbackcast.errors

        assert "BracketFailure" not in feedbackcast.__all__
        assert not hasattr(feedbackcast, "BracketFailure")
        assert not hasattr(feedbackcast.errors, "BracketFailure")

    def test_cli_import_loads_every_layer_but_not_numpy(self):
        # the layers are loaded before main runs, so code that wraps their
        # functions at that point (a profiler, a span recorder) sees them all
        loaded = _fresh(
            "import sys, feedbackcast.cli; "
            "print(*(m for m in sys.modules if m.split('.')[0] in "
            "('feedbackcast', 'numpy', 'scipy')))"
        ).split()
        layers = {"cli", "model", "simulate", "oracle", "evaluate", "kernels"}
        assert {f"feedbackcast.{layer}" for layer in layers} <= set(loaded)
        assert [m for m in loaded if not m.startswith("feedbackcast")] == []

    def test_cli_import_loads_no_executor_module(self):
        # rolling_ols runs its helper on a plain thread; concurrent.futures
        # would add its import, and logging's, to every command
        loaded = _fresh("import sys, feedbackcast.cli; print(*sys.modules)").split()
        assert "threading" in loaded
        assert [m for m in loaded if m.split(".")[0] == "concurrent"] == []

    def test_solve_and_sweep_run_without_numpy(self, tmp_path):
        out = _fresh(
            "import contextlib, io, sys\n"
            "from feedbackcast.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['solve', '--mu', '0.98', '--tau2', '0.1']),\n"
            "             main(['sweep', '--mu', '0.5', '0.98', '--tau2-min', '0',\n"
            "                   '--tau2-max', '0.3', '--steps', '50', '--out', 'sweep.csv'])]\n"
            "print(codes, 'numpy' in sys.modules)\n",
            cwd=tmp_path,
        )
        assert out.strip() == "[0, 0] False"
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 101

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scenario", "equilibrium", "--family", "truncated_normal",
             "--mu", "0.5", "--tau2", "0.1", "--n", "3000", "--seed", "4",
             "--out-prefix", "run"],
            ["evaluate", str(Path(__file__).parent / "data" / "two_regime_series.csv"),
             "--window", "40"],
        ],
        ids=["simulate", "evaluate"],
    )
    def test_fresh_process_output_equals_in_process(self, capsys, tmp_path, monkeypatch, argv):
        # only a fresh interpreter loads numpy at the first array operation
        fresh, inside = tmp_path / "fresh", tmp_path / "inside"
        fresh.mkdir()
        inside.mkdir()
        result = subprocess.run(
            [sys.executable, "-m", "feedbackcast.cli", *argv],
            env=_fresh_env(), cwd=fresh, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        monkeypatch.chdir(inside)
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert result.stdout == out
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted(p.name for p in inside.iterdir())
        for name in names:
            assert (fresh / name).read_bytes() == (inside / name).read_bytes()
