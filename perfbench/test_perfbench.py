"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

import json
import math
import shutil
import subprocess
import sys

import layertrace
import run

# Quenched under a pool, annealed in series, and a prediction: every layer.
SMALL_COMMANDS = [
    (["simulate", "pareto:3", "--sizes", "10,20", "--mode", "quenched", "--jobs", "2",
      "--replicates", "4", "--seed", "3"], [10, 20], 8),
    (["simulate", "exp", "--sizes", "20,30", "--replicates", "3", "--seed", "5"], [20, 30], 6),
    (["predict", "uniform", "16,100"], [16, 100], 2),
]


def layer_units():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, None, {}],
        ["child", 1.0, 4.0, 0, None, {}],
        ["grandchild", 2.0, 3.0, 1, None, {}],
        ["child", 5.0, 9.0, 0, None, {}],
    ]
    assert layertrace.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert math.isclose(sum(layertrace.self_times(spans)), 10.0)


def test_traced_rounds_keep_bytes_account_for_wall_time_and_repeat_counts(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    pairs = []
    for _ in range(2):
        plain = run.run_round(SMALL_COMMANDS, 1, False, spans_path)
        traced = run.run_round(SMALL_COMMANDS, 1, True, spans_path)
        assert "error" not in plain and "error" not in traced
        pairs.append((plain, traced))
    problems = []
    metrics = run.per_layer(pairs, len(SMALL_COMMANDS), layer_units(), problems)
    # Covers: traced bytes equal untraced bytes, self times sum to the
    # traced wall time within the overhead, exact counts repeat.
    assert problems == []
    assert set(metrics) == set(layer_units())
    assert metrics["matching.solve.calls"] == 8 + 6
    assert metrics["gains.draw.calls"] == 8 + 2 + 6  # two frozen gain matrices
    assert metrics["experiment.stream.calls"] == 8 + 2 + 6
    assert metrics["quantile.tail_quantile.calls"] == 2 + 2 + 2
    assert metrics["experiment.pool.starts"] == 2
    assert 0.0 < metrics["experiment.pool.efficiency"] <= 1.0
    assert metrics["quantile.transform_calls_per_quantile"] > metrics[
        "quantile.bisect.iterations"] / 6
    records = [json.loads(line) for line in spans_path.read_text().splitlines()]
    replicates = [r["replicate"] for r in records if r["name"] == "matching.solve"]
    assert len(replicates) == 14 and None not in replicates
    assert {"10:3", "20:3", "30:2"} <= set(replicates)


def test_checker_counts_failed_and_mismatched_reports():
    commands = [(["predict", "uniform", "16,100"], [16, 100], 2)]
    good = "n,quantile_numeric\n16,0.5\n100,0.7\n"
    checker = run.Checker(commands, 1, [run.digest(good)])
    assert checker.check({"commands": [{"error": None, "text": good}]})
    assert not checker.check({"commands": [{"error": None, "text": good.replace("0.7", "nan")}]})
    assert not checker.check({"commands": [{"error": "exit code 3", "text": ""}]})
    assert not checker.check({"error": "child exited 1"})
    assert (checker.attempted, checker.failed) == (4, 3)
    other = run.Checker(commands, 1, ["0" * 64])
    assert not other.check({"commands": [{"error": None, "text": good}]})
    assert other.problems == ["predict uniform: report digest differs from the recorded one"]


def test_recorded_digest_holds_for_the_default_seed(tmp_path):
    commands = run.predict_grid(0, 2)
    result = run.run_round(commands, 1, False, tmp_path / "spans.jsonl")
    checker = run.Checker(commands, 1, run.recorded_digests("predict-grid", 0))
    assert checker.expected is not None
    assert checker.check(result), checker.problems


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-large", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
