"""End-to-end checks of the command-line interface."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import pytest
from click.testing import CliRunner

import logassign
from logassign import (
    BracketError,
    ExponentialGain,
    QuadratureError,
    ReplicateError,
    cli,
    experiment,
    parse_report_csv,
)
from logassign.cli import main, parse_sizes


def _run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def test_parse_sizes_accepts_both_grammars() -> None:
    assert parse_sizes("10,20,50") == (10, 20, 50)
    assert parse_sizes("10..50:10") == (10, 20, 30, 40, 50)
    assert parse_sizes("3..6") == (3, 4, 5, 6)
    assert parse_sizes(" 7 ") == (7,)


def test_parse_sizes_takes_a_range_of_up_to_a_million_sizes() -> None:
    import click

    assert len(parse_sizes("1..1000000")) == 10**6
    assert len(parse_sizes("1..2999998:3")) == 10**6
    for bad in ("1..1000001", "1..3000001:3"):
        with pytest.raises(click.UsageError, match="1000001 sizes, more than the 1000000"):
            parse_sizes(bad)


@pytest.mark.parametrize("args", [("predict", "exp", "3..1000000000000"),
                                  ("simulate", "exp", "--sizes", "3..1000000000000")],
                         ids=["predict", "simulate"])
def test_a_range_of_too_many_sizes_is_a_usage_error(args) -> None:
    # Building these sizes would take terabytes; the count alone is refused.
    result = _run(*args)
    assert result.exit_code == 2
    assert "list 999999999998 sizes, more than the 1000000 a range may list" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("bad", ["", "a,b", "10..5:1", "10..50:0", "10:50"])
def test_parse_sizes_rejects_malformed_text(bad: str) -> None:
    import click

    with pytest.raises(click.UsageError):
        parse_sizes(bad)


@pytest.mark.parametrize("model", ["exp", "pareto:3"])
def test_simulate_prints_the_predictions_of_predict(model: str) -> None:
    predicted = _run("predict", model, "3..40")
    simulated = _run("simulate", model, "--sizes", "3..40", "--replicates", "2")
    assert predicted.exit_code == 0 and simulated.exit_code == 0

    def columns(text: str) -> list[tuple[str, ...]]:
        return [(row["n"], row["predicted_numeric"], row["predicted_asymptotic"])
                for row in csv.DictReader(io.StringIO(text))]

    assert columns(simulated.output) == columns(predicted.output)
    assert len(columns(predicted.output)) == 38


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


def test_predict_and_simulate_solve_a_quantile_beyond_r_512() -> None:
    result = _run("predict", "constant:1e223", "16")
    assert result.exit_code == 0, result.output
    quantile = float(result.output.strip().splitlines()[1].split(",")[1])
    assert abs(quantile - math.log1p(1e223 * math.log(16.0))) <= 1e-10
    result = _run("simulate", "constant:1e223", "--sizes", "16", "--replicates", "2")
    assert result.exit_code == 0, result.output


def test_predict_reports_a_quantile_past_the_double_range_as_numeric_failure() -> None:
    result = _run("predict", "constant:1e308", "16")
    assert result.exit_code == cli.EXIT_NUMERIC
    assert "overflows a double" in result.output
    assert "Traceback" not in result.output


def test_predict_names_the_first_unbracketable_size_in_input_order() -> None:
    result = _run("predict", "constant:1e307", "2,1000000000000,10000000000")
    assert result.exit_code == cli.EXIT_NUMERIC
    assert result.output == (
        "error: no bracket for p = 1e-12: the quantile lies beyond r = 709.782712893384, "
        "where e^r - 1 overflows a double\n"
    )


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


def test_predict_json_writes_nan_as_null() -> None:
    # 1/10 is above the double-log guard, so the sharp asymptotic is NaN.
    result = _run("predict", "exp", "10", "--format", "json")
    assert result.exit_code == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(result.output, parse_constant=reject)
    assert payload[0]["quantile_asymptotic"] is None
    assert payload[0]["predicted_numeric"] > 0.0


def test_constant_gain_bytes_are_pinned() -> None:
    predicted = _run("predict", "constant:0.25", "2,3,16,1000")
    assert predicted.exit_code == 0
    assert predicted.output == (
        "n,quantile_numeric,quantile_asymptotic,predicted_numeric,predicted_asymptotic\n"
        "2,0.15980903690797277,nan,0.31961807381594554,nan\n"
        "3,0.24267404133570381,nan,0.72802212400711142,0.28214348285009727\n"
        "16,0.52658903415431269,0.52658903413904445,8.425424546469003,16.316503048611619\n"
        "1000,1.0031796685943846,1.0031796686083119,1003.1796685943846,1932.6447339160654\n"
    )
    simulated = _run("simulate", "constant:2.5", "--sizes", "3,4,16", "--replicates", "5",
                     "--seed", "1")
    assert simulated.exit_code == 0
    assert simulated.output == (
        "model,mode,n,m,seed,empirical_mean,std_error,predicted_numeric,"
        "predicted_asymptotic,rel_err_numeric,rel_err_asymptotic\n"
        "constant:2.5,annealed,3,5,1,4.8775235234896916,0.26354642572127845,"
        "3.9624908127298113,0.28214348285009727,0.18760190624466894,0.9421543573308625\n"
        "constant:2.5,annealed,4,5,1,6.7408441702671071,0.32609282847711235,"
        "5.9857360663590953,1.3065370399131238,0.11201981307306953,0.80617605051959651\n"
        "constant:2.5,annealed,16,5,1,32.892587677232953,0.36472581961186684,"
        "33.133417889941484,16.316503048611619,0.0073217168278683206,0.50394589781985122\n"
    )


def test_predict_grid_bytes_are_pinned() -> None:
    # The two models of the benchmark's predict grid; Pareto's levels fall
    # on both sides of its alpha + 700 cut.
    uniform = _run("predict", "uniform", "16,221,10000")
    assert uniform.exit_code == 0
    assert uniform.output == (
        "n,quantile_numeric,quantile_asymptotic,predicted_numeric,predicted_asymptotic\n"
        "16,0.96136664730147459,1.0197814405382262,15.381866356823593,16.316503048611619\n"
        "221,1.5491970082221087,1.6860586552156356,342.37253881708602,372.61896280265546\n"
        "10000,2.0832998663245235,2.2203268063678463,20832.998663245235,22203.268063678464\n"
    )
    pareto = _run("predict", "pareto:1.5", "16,21,221,10000")
    assert pareto.exit_code == 0
    assert pareto.output == (
        "n,quantile_numeric,quantile_asymptotic,predicted_numeric,predicted_asymptotic\n"
        "16,5.3085742337570991,5.5451774444795623,84.937187740113586,88.722839111672997\n"
        "21,5.8503634048101958,6.089044875446846,122.85763150101411,127.86994238438376\n"
        "221,10.554786996479379,10.796325403035505,2332.6079262219428,2385.9879140708467\n"
        "10000,18.179116281418828,18.420680743952364,181791.16281418828,184206.80743952366\n"
    )


def test_knife_edge_and_large_size_bytes_are_pinned() -> None:
    # At n = 5243 the Pareto root sits 2.9e-11 from the printed quantile, so
    # the transform must not move by more than its last digits; the
    # exponential sizes are those of the benchmark's large simulations.
    pareto = _run("predict", "pareto:1.5", "5243")
    assert pareto.exit_code == 0
    assert pareto.output == (
        "n,quantile_numeric,quantile_asymptotic,predicted_numeric,predicted_asymptotic\n"
        "5243,16.887733836163534,17.129298265145067,88542.388503005408,89808.910804155588\n"
    )
    exponential = _run("predict", "exp", "300,600,1000")
    assert exponential.exit_code == 0
    assert exponential.output == (
        "n,quantile_numeric,quantile_asymptotic,predicted_numeric,predicted_asymptotic\n"
        "300,2.5705893221602309,2.0959647324913249,771.17679664806928,1044.6777280833646\n"
        "600,2.7586322741990443,2.3253419066409875,1655.1793645194266,2226.9817606565271\n"
        "1000,2.8867748298507649,2.4789951067122402,2886.7748298507649,3865.2894678321309\n"
    )


# SHA-256 of every benchmark report at seeds 0-31, as the benchmark records
# them; these tests only read the file.  Each workload maps a seed to the
# digests of its commands' reports.
_RECORDED_DIGESTS = {
    workload: {int(seed): tuple(digests) for seed, digests in by_seed.items()}
    for workload, by_seed in json.loads(
        (Path(__file__).parents[1] / "perfbench" / "digests.json").read_text()).items()
}
# predict-grid holds uniform then pareto:1.5; seed 27 holds the Pareto knife
# edge at n = 5243.
_PREDICT_GRID_DIGESTS = _RECORDED_DIGESTS["predict-grid"]


@pytest.mark.parametrize("seed", sorted(_PREDICT_GRID_DIGESTS))
def test_predict_grid_reports_keep_the_recorded_bytes(seed: int) -> None:
    sizes = [*range(16 + seed % 200, 10_000, 200), 10_000]
    grid = ",".join(map(str, sizes))
    for model, expected in zip(("uniform", "pareto:1.5"), _PREDICT_GRID_DIGESTS[seed]):
        result = _run("predict", model, grid)
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == expected, model


def _simulate_argv(workload: str, seed: int, jobs: int) -> list[str]:
    """The one command of a simulate workload of the benchmark, at ``--jobs jobs``."""
    if workload == "sim-large":
        return ["simulate", "exp", "--sizes", "300,600,1000", "--mode", "annealed",
                "--jobs", str(jobs), "--replicates", "2", "--seed", str(seed)]
    return ["simulate", "pareto:3", "--sizes", "10..200:10", "--mode", "quenched",
            "--jobs", str(jobs), "--replicates", "10", "--seed", str(seed)]


# The benchmark records sim-small-quenched at --jobs 2 where the machine has
# two CPUs; the bytes do not depend on --jobs, so in process is checked at
# every seed and the pool at two.
@pytest.mark.parametrize("workload,seed,jobs", [
    *(("sim-small-quenched", seed, 1) for seed in sorted(_RECORDED_DIGESTS["sim-small-quenched"])),
    ("sim-small-quenched", 0, 2),
    ("sim-small-quenched", 27, 2),
    *(("sim-large", seed, 1) for seed in range(0, 32, 4)),
])
def test_simulate_reports_keep_the_recorded_bytes(workload: str, seed: int, jobs: int) -> None:
    result = _run(*_simulate_argv(workload, seed, jobs))
    assert result.exit_code == 0, result.output
    (expected,) = _RECORDED_DIGESTS[workload][seed]
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == expected


def test_predict_steep_pareto_matches_a_40_digit_root() -> None:
    mp = pytest.importorskip("mpmath")
    result = _run("predict", "pareto:400", "100,1000")
    assert result.exit_code == 0
    rows = [line.split(",") for line in result.output.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [100, 1000]
    with mp.workdps(40):
        alpha = mp.mpf(400)

        def log_tail(r, n):
            # log P(cost >= r) + log n, with the transform exp(-rho) M(1, alpha, rho).
            rho = mp.expm1(r)
            return -rho + mp.log(mp.hyp1f1(1, alpha, rho)) + mp.log(n)

        for n, quantile, *_ in rows:
            root = mp.findroot(lambda r: log_tail(r, int(n)), float(quantile))
            assert abs(float(quantile) - float(root)) <= 1e-10


def test_simulate_steep_pareto_finishes() -> None:
    result = _run("simulate", "pareto:1000", "--sizes", "3,10", "--replicates", "2")
    assert result.exit_code == 0, result.output
    assert [row.n for row in parse_report_csv(result.output).rows] == [3, 10]


def test_predict_rejects_bad_model_with_grammar_hint() -> None:
    result = _run("predict", "gauss", "10")
    assert result.exit_code == 2
    assert "constant:<c>" in result.output


def test_predict_rejects_bad_sizes() -> None:
    assert _run("predict", "exp", "ten").exit_code == 2
    assert _run("predict", "exp", "1,5").exit_code == 2


def test_predict_rejects_a_size_too_large_for_a_float() -> None:
    result = _run("predict", "exp", "1" + "0" * 400)
    assert result.exit_code == 2
    assert "below 2**53" in result.output
    assert "Traceback" not in result.output


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


@pytest.mark.parametrize("mode", ["annealed", "quenched"])
def test_simulate_names_a_gain_that_overflows_a_double(mode: str) -> None:
    # pareto:1.01 draws (1 - u) ** -100, which overflows for about 8 in 10**4
    # draws, so a 100 x 100 gain matrix all but surely holds an inf.
    completed = _run_module("logassign", "simulate", "pareto:1.01", "--sizes", "100",
                            "--replicates", "2", "--mode", mode)
    assert completed.returncode == cli.EXIT_SIMULATION
    assert completed.stderr == (
        "error: replicate 0 at n = 100 failed: gain matrix entries must be "
        "positive finite reals: a gain overflows a double\n")
    assert "RuntimeWarning" not in completed.stderr


def test_simulate_refuses_an_unpredictable_run_before_any_pool(monkeypatch) -> None:
    class RefusingPool:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("no pool here")

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RefusingPool)
    # q(1/3) of pareto:1.001 is about 1,100, beyond r = log(DBL_MAX).
    result = _run("simulate", "pareto:1.001", "--sizes", "3,4", "--replicates", "2",
                  "--jobs", "2")
    assert result.exit_code == cli.EXIT_NUMERIC
    assert "no bracket" in result.output and "Traceback" not in result.output


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


@pytest.mark.parametrize(
    "destination, denied",
    [
        ("missing/x.csv", None),  # a missing directory
        (".", None),  # a directory
        ("earlier.csv/x.csv", None),  # a regular file where the directory should be
        ("earlier.csv", "earlier.csv"),  # an existing file that may not be written
        ("x.csv", "."),  # a directory that may not be written
    ],
)
def test_simulate_rejects_an_unwritable_output_before_simulating(
    monkeypatch, tmp_path, destination: str, denied
) -> None:
    def refuse(config):
        raise AssertionError("simulated")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    earlier = tmp_path / "earlier.csv"
    earlier.write_bytes(b"earlier bytes\n")
    if denied is not None:
        # Root writes whatever the permission bits say, so the refusal is
        # patched into os.access rather than set with chmod.
        refused = tmp_path / denied
        access = os.access
        monkeypatch.setattr(
            os, "access", lambda path, mode: Path(path) != refused and access(path, mode)
        )
    target = tmp_path / destination
    result = _run("simulate", "exp", "--sizes", "3,4", "--replicates", "2", "-o", str(target))
    assert result.exit_code == 2
    assert str(target) in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "missing").exists()
    assert not (tmp_path / "x.csv").exists()
    assert earlier.read_bytes() == b"earlier bytes\n"


def test_a_failed_simulation_leaves_an_existing_output_file_unchanged(
    monkeypatch, tmp_path
) -> None:
    def fail(config):
        raise ReplicateError(3, 1, "boom")

    monkeypatch.setattr(cli, "run_experiment", fail)
    target = tmp_path / "report.csv"
    target.write_bytes(b"earlier bytes\n")
    result = _run("simulate", "exp", "--sizes", "3,4", "--replicates", "2", "-o", str(target))
    assert result.exit_code == cli.EXIT_SIMULATION
    assert "replicate 1 at n = 3 failed: boom" in result.output
    assert target.read_bytes() == b"earlier bytes\n"


def test_simulate_rejects_bad_replicates() -> None:
    result = _run("simulate", "exp", "--sizes", "3", "--replicates", "1")
    assert result.exit_code == 2


def test_simulate_rejects_size_two_before_simulating() -> None:
    result = _run("simulate", "exp", "--sizes", "2,5", "--replicates", "4")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "asymptotic prediction" in result.output
    assert "Traceback" not in result.output


def _run_module(module: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``python -m module args`` in a child, with Python's default warning filters."""
    # The child must import the same package under test, installed or not.
    package_root = str(Path(logassign.__file__).resolve().parent.parent)
    search_path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search_path))}
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


@pytest.mark.parametrize("module", ["logassign", "logassign.cli"])
def test_python_dash_m_runs_the_cli(module: str) -> None:
    completed = _run_module(module, "predict", "exp", "100")
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


def test_compare_rejects_a_report_the_csv_reader_cannot_read(tmp_path) -> None:
    path = tmp_path / "report.csv"
    path.write_text("x" * 200_000 + "\n")
    result = _run("compare", str(path))
    assert result.exit_code == 2
    assert "field larger than field limit" in result.output
    assert "Traceback" not in result.output


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


def test_tail_check_bytes_are_pinned() -> None:
    result = _run("tail-check", "exp", "--samples", "20000", "--seed", "3")
    assert result.exit_code == 0
    assert result.output == (
        "r,empirical,theoretical,z_score\n"
        "0.5,0.38274999999999998,0.38175856057462698,0.2886075810363109\n"
        "1,0.16664999999999999,0.16664468860479489,0.0020156390940962439\n"
        "2,0.018450000000000001,0.01922706624990991,-0.80026218797211679\n"
        "3,0.00044999999999999999,0.00061917462374976398,-0.96178530298747833\n"
    )


def test_tail_check_exits_five_when_the_curve_is_wrong(monkeypatch) -> None:
    # Feed the checker a deliberately wrong theoretical curve so every
    # threshold lands far outside the 4-sigma band.
    import logassign.cli as cli_module

    monkeypatch.setattr(cli_module, "tail_probabilities", lambda model, grid: [0.5] * len(grid))
    result = _run("tail-check", "exp", "--samples", "20000")
    assert result.exit_code == 5
    assert "4 sigma" in result.output


def test_tail_check_validates_arguments() -> None:
    assert _run("tail-check", "exp", "--samples", "100").exit_code == 2
    assert _run("tail-check", "exp", "--thresholds", "-1").exit_code == 2
    assert _run("tail-check", "exp", "--thresholds", "x").exit_code == 2


@pytest.mark.parametrize(
    "model", ["constant:1", "exp", "pareto:3", "uniform", "pareto:1.05", "pareto:7.5"]
)
def test_tail_check_survives_vanishing_thresholds(model: str) -> None:
    # Round-off once gave transforms above 0 here, so tail probabilities
    # above 1 and a math domain error.
    result = _run("tail-check", model, "--thresholds", "0,5e-324,1e-100,1e-20",
                  "--samples", "10000")
    assert result.exit_code in (0, 5), result.output
    assert "Traceback" not in result.output


def test_tail_check_reaches_far_exponential_thresholds() -> None:
    # rho = e**50 - 1, where the transform once failed its quadrature.
    result = _run("tail-check", "exp", "--thresholds", "50", "--samples", "10000")
    assert result.exit_code == 0, result.output


def test_tail_check_reports_an_overflowing_far_tail_as_numeric_failure() -> None:
    result = _run("tail-check", "pareto:150", "--thresholds", "7", "--samples", "10000")
    assert result.exit_code == cli.EXIT_NUMERIC
    assert "pareto:150.0" in result.output and "overflow" in result.output
    assert "Traceback" not in result.output


def test_tail_check_rejects_a_threshold_past_the_double_range_before_drawing(
    monkeypatch,
) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("drew costs")

    monkeypatch.setattr(cli, "sample_cost", refuse)
    result = _run("tail-check", "exp", "--thresholds", "1,710", "--samples", "10000")
    assert result.exit_code == 2
    assert "overflows a double" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("samples", [str(10**8 + 1), "1" + "0" * 30])
def test_tail_check_caps_samples_before_drawing(samples: str) -> None:
    result = _run("tail-check", "exp", "--samples", samples)
    assert result.exit_code == 2
    assert "100000000" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_tail_check_rejects_a_seed_outside_64_bits(seed: str) -> None:
    result = _run("tail-check", "exp", "--seed", seed, "--samples", "10000")
    assert result.exit_code == 2
    assert "unsigned 64-bit" in result.output
    assert "Traceback" not in result.output


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
    # The first line whose length differs from the first row's is named by
    # its number in the file, blank lines included.
    path.write_text("1,2\n\n3\n4,5,6\n")
    result = _run("solve", str(path))
    assert result.exit_code == 2
    assert "matrix line 3 '3' has 1 entries, the first row 2" in result.output
    assert "inhomogeneous" not in result.output


def test_solve_skips_blank_lines_and_rejects_an_unparseable_one(tmp_path) -> None:
    path = tmp_path / "matrix.csv"
    path.write_text("\n1,2\n  \n2,1\n\n")
    result = _run("solve", str(path))
    assert result.exit_code == 0
    assert result.output.splitlines() == ["value 4", "permutation 1 0"]
    path.write_text("1,2\nx,1\n")
    result = _run("solve", str(path))
    assert result.exit_code == 2
    assert "unparseable matrix line 'x,1'" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("rows, message", [
    ("1e308,0\n0,1e308\n", "the assignment's total cost overflows a double"),
    ("1.5e308,-1e308\n0,0\n", "cost matrix row 0 spreads from -1e+308 to 1.5e+308"),
], ids=["total", "spread"])
def test_solve_rejects_a_matrix_beyond_a_double_without_a_warning(
    tmp_path, rows, message
) -> None:
    path = tmp_path / "huge.csv"
    path.write_text(rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _run("solve", str(path))
    assert result.exit_code == 2
    assert message in result.output
    assert "value" not in result.output and "Traceback" not in result.output
    assert caught == []


def test_help_shows_model_grammar() -> None:
    result = _run("simulate", "--help")
    assert result.exit_code == 0
    assert "constant:<c> | exp | pareto:<alpha> | uniform" in result.output


_PREDICT = ("predict", "exp", "10")
_SIMULATE = ("simulate", "exp", "--sizes", "3", "--replicates", "2")


@pytest.mark.parametrize("args, name, error, code", [
    (_PREDICT, "prediction_table", BracketError("no bracket here"), 3),
    (_PREDICT, "prediction_table", QuadratureError("no quadrature here", 1.0), 3),
    (_SIMULATE, "run_experiment", ReplicateError(3, 1, "no replicate here"), 4),
    (_SIMULATE, "run_experiment", BrokenProcessPool("no pool here"), 4),
    (("tail-check", "exp", "--samples", "10000"), "tail_probabilities",
     QuadratureError("no quadrature here", 1.0), 3),
    (("solve", "{file}"), "solve_max_assignment", ValueError("no matrix here"), 2),
    (("compare", "{file}"), "parse_report_csv", ValueError("no report here"), 2),
], ids=["bracket", "quadrature", "replicate", "pool", "tail", "solve", "compare"])
def test_library_exceptions_map_to_exit_codes(
    monkeypatch, tmp_path, args, name, error, code
) -> None:
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, name, fail)
    path = tmp_path / "input.csv"
    path.write_text("1\n")
    result = _run(*(arg.format(file=path) for arg in args))
    assert result.exit_code == code
    assert str(error) in result.output
    assert "Traceback" not in result.output


def test_an_unmapped_exception_propagates(monkeypatch) -> None:
    def fail(*args, **kwargs):
        raise ZeroDivisionError("a bug")

    monkeypatch.setattr(cli, "prediction_table", fail)
    result = _run(*_PREDICT)
    assert isinstance(result.exception, ZeroDivisionError)
    assert result.exit_code == 1
