"""End-to-end checks of the command-line interface."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from click.testing import CliRunner

import logassign
from logassign import ExponentialGain, cli, parse_report_csv
from logassign.cli import main, parse_sizes


def _run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def test_parse_sizes_accepts_both_grammars() -> None:
    assert parse_sizes("10,20,50") == (10, 20, 50)
    assert parse_sizes("10..50:10") == (10, 20, 30, 40, 50)
    assert parse_sizes("3..6") == (3, 4, 5, 6)
    assert parse_sizes(" 7 ") == (7,)


@pytest.mark.parametrize("bad", ["", "a,b", "10..5:1", "10..50:0", "10:50"])
def test_parse_sizes_rejects_malformed_text(bad: str) -> None:
    import click

    with pytest.raises(click.UsageError):
        parse_sizes(bad)


def test_predict_constant_matches_closed_form() -> None:
    result = _run("predict", "constant:1", "10")
    assert result.exit_code == 0
    header, row = result.output.strip().splitlines()
    assert header == (
        "n,quantile_numeric,quantile_asymptotic,"
        "predicted_numeric,predicted_asymptotic"
    )
    fields = row.split(",")
    assert fields[0] == "10"
    assert float(fields[3]) == pytest.approx(10.0 * math.log1p(math.log(10.0)))
    # 1/10 is above the double-log guard, so no sharp asymptotic is printed.
    assert math.isnan(float(fields[2]))


def test_predict_pareto_reports_growth_law() -> None:
    result = _run("predict", "pareto:3", "100")
    assert result.exit_code == 0
    fields = result.output.strip().splitlines()[1].split(",")
    assert float(fields[4]) == pytest.approx(100.0 * math.log(100.0) / 2.0)
    assert float(fields[2]) == pytest.approx(math.log(100.0) / 2.0)


def test_predict_json_format() -> None:
    result = _run("predict", "exp", "10,20", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert [entry["n"] for entry in payload] == [10, 20]
    assert payload[0]["predicted_numeric"] > 0.0


def test_predict_rejects_bad_model_with_grammar_hint() -> None:
    result = _run("predict", "gauss", "10")
    assert result.exit_code == 2
    assert "constant:<c>" in result.output


def test_predict_rejects_bad_sizes() -> None:
    assert _run("predict", "exp", "ten").exit_code == 2
    assert _run("predict", "exp", "1,5").exit_code == 2


def test_simulate_emits_parseable_deterministic_csv() -> None:
    args = ("simulate", "exp", "--sizes", "3,5", "--replicates", "8",
            "--seed", "11")
    first = _run(*args)
    assert first.exit_code == 0
    report = parse_report_csv(first.output)
    assert [row.n for row in report.rows] == [3, 5]
    assert report.master_seed == 11
    assert _run(*args).output == first.output


def test_simulate_jobs_flag_leaves_output_unchanged() -> None:
    base = ("simulate", "constant:2", "--sizes", "4,6", "--replicates", "10",
            "--seed", "5")
    assert _run(*base, "--jobs", "2").output == _run(*base, "--jobs", "1").output


def test_simulate_quenched_jobs_flag_leaves_output_unchanged() -> None:
    base = ("simulate", "pareto:3", "--mode", "quenched", "--sizes", "4,6,8",
            "--replicates", "10")
    serial = _run(*base, "--jobs", "1")
    assert serial.exit_code == 0
    assert _run(*base, "--jobs", "2").output == serial.output


_TEST_PID = os.getpid()


@dataclass(frozen=True)
class DyingGain(ExponentialGain):
    """Exponential gains whose draw kills any process but the test's own."""

    def sample(self, rng, size=None):
        if os.getpid() != _TEST_PID:
            os._exit(1)
        return super().sample(rng, size)


def test_simulate_reports_a_dead_worker_without_a_traceback(monkeypatch) -> None:
    monkeypatch.setattr(cli, "parse_model_spec", lambda spec: DyingGain())
    result = _run("simulate", "exp", "--sizes", "3,4", "--replicates", "4", "--jobs", "2")
    assert result.exit_code == cli.EXIT_SIMULATION
    assert "error: " in result.output and "terminated abruptly" in result.output
    assert "Traceback" not in result.output


def test_simulate_json_and_file_output(tmp_path) -> None:
    out = tmp_path / "report.json"
    result = _run("simulate", "uniform", "--sizes", "3", "--replicates", "5",
                  "--format", "json", "-o", str(out))
    assert result.exit_code == 0
    assert result.output == ""
    payload = json.loads(out.read_text())
    assert payload[0]["model"] == "uniform"
    assert payload[0]["m"] == 5


def test_simulate_rejects_bad_replicates() -> None:
    result = _run("simulate", "exp", "--sizes", "3", "--replicates", "1")
    assert result.exit_code == 2


def test_simulate_rejects_size_two_before_simulating() -> None:
    result = _run("simulate", "exp", "--sizes", "2,5", "--replicates", "4")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "asymptotic prediction" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("module", ["logassign", "logassign.cli"])
def test_python_dash_m_runs_the_cli(module: str) -> None:
    # The child must import the same package under test, installed or not.
    package_root = str(Path(logassign.__file__).resolve().parent.parent)
    search_path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search_path))}
    completed = subprocess.run(
        [sys.executable, "-m", module, "predict", "exp", "100"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith(
        "n,quantile_numeric,quantile_asymptotic,"
        "predicted_numeric,predicted_asymptotic\n"
    )


def test_compare_summarizes_saved_report(tmp_path) -> None:
    path = tmp_path / "report.csv"
    saved = _run("simulate", "pareto:3", "--sizes", "3,5", "--replicates", "6",
                 "--seed", "2", "-o", str(path))
    assert saved.exit_code == 0
    result = _run("compare", str(path))
    assert result.exit_code == 0
    assert "model=pareto:3.0" in result.output
    assert "max rel_err_numeric" in result.output


def test_compare_rejects_mangled_report(tmp_path) -> None:
    path = tmp_path / "report.csv"
    path.write_text("not,a,report\n")
    assert _run("compare", str(path)).exit_code == 2


def test_tail_check_passes_for_matching_model() -> None:
    result = _run("tail-check", "exp", "--samples", "20000", "--seed", "3",
                  "--thresholds", "0,1,2")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "r,empirical,theoretical,z_score"
    # Costs are strictly positive, so everything clears the r = 0 threshold
    # and the degenerate z-score is pinned at zero.
    zero_row = lines[1].split(",")
    assert float(zero_row[1]) == 1.0
    assert float(zero_row[3]) == 0.0


def test_tail_check_exits_five_when_the_curve_is_wrong(monkeypatch) -> None:
    # Feed the checker a deliberately wrong theoretical curve so every
    # threshold lands far outside the 4-sigma band.
    import logassign.cli as cli_module

    monkeypatch.setattr(cli_module, "tail_probability", lambda model, r: 0.5)
    result = _run("tail-check", "exp", "--samples", "20000")
    assert result.exit_code == 5
    assert "4 sigma" in result.output


def test_tail_check_validates_arguments() -> None:
    assert _run("tail-check", "exp", "--samples", "100").exit_code == 2
    assert _run("tail-check", "exp", "--thresholds", "-1").exit_code == 2
    assert _run("tail-check", "exp", "--thresholds", "x").exit_code == 2


def test_solve_prints_value_and_permutation(tmp_path) -> None:
    path = tmp_path / "matrix.csv"
    path.write_text("1,2,0\n0,5,1\n2,0,3\n")
    result = _run("solve", str(path))
    assert result.exit_code == 0
    assert result.output.splitlines() == ["value 9", "permutation 0 1 2"]


def test_solve_single_entry(tmp_path) -> None:
    path = tmp_path / "one.csv"
    path.write_text("5\n")
    result = _run("solve", str(path))
    assert result.output.splitlines() == ["value 5", "permutation 0"]


def test_solve_rejects_ragged_matrix(tmp_path) -> None:
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    assert _run("solve", str(path)).exit_code == 2


def test_help_shows_model_grammar() -> None:
    result = _run("simulate", "--help")
    assert result.exit_code == 0
    assert "constant:<c> | exp | pareto:<alpha> | uniform" in result.output
