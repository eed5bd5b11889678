"""The benchmark's traced round still runs on the current package.

``perfbench/layertrace.py`` replaces functions of the package by name, such
as ``experiment._replicate_value`` and ``experiment.generate_cost_matrix``.
A refactor that renames or reshapes one of them breaks the traced benchmark
run without failing any test of the package itself.  This test runs one
untraced and one traced round of the benchmark's own small commands and
checks that the traced run would print a valid result line.  It reads the
benchmark's files and writes nothing beside them.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parents[1] / "perfbench"
BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())


def _load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_a_traced_benchmark_round_keeps_its_bytes_and_reads_every_layer(
        monkeypatch, tmp_path) -> None:
    # No bytecode caches beside the benchmark's files, here or in the rounds.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    run = _load(monkeypatch, "run")
    # The small commands of perfbench/test_perfbench.py: quenched under a pool
    # of two, annealed in process, and a prediction.
    commands = [
        (["simulate", "pareto:3", "--sizes", "10,20", "--mode", "quenched", "--jobs", "2",
          "--replicates", "4", "--seed", "3"], [10, 20], 8),
        (["simulate", "exp", "--sizes", "20,30", "--replicates", "3", "--seed", "5"],
         [20, 30], 6),
        (["predict", "uniform", "16,100"], [16, 100], 2),
    ]
    spans = tmp_path / "spans.jsonl"
    plain = run.run_round(commands, 1, False, spans)
    traced = run.run_round(commands, 1, True, spans)
    assert "error" not in plain, plain["error"]
    assert "error" not in traced, traced["error"]
    checker = run.Checker(commands, 1, None)
    assert checker.check(plain) and checker.check(traced), checker.problems

    listed = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    problems = []
    metrics = run.per_layer([(plain, traced)], len(commands), units, problems)
    # Traced bytes equal the untraced ones, and self times account for the
    # traced wall time.
    assert problems == []
    assert set(metrics) == set(units)
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    json.dumps(metrics, allow_nan=False)
    # The tracer wraps report_csv_text, so the serialized bytes are those of
    # the two simulate reports; a writer that bypasses it would read 0.
    simulated = [command["text"] for command in traced["commands"][:2]]
    assert metrics["experiment.serialize.bytes"] == sum(len(text.encode()) for text in simulated)
    assert metrics["experiment.serialize.bytes"] > 0


@pytest.mark.parametrize("workload", [workload["name"] for workload in BENCHMARK["workloads"]])
def test_each_workload_keeps_its_recorded_bytes_plain_and_traced(
        monkeypatch, tmp_path, workload: str) -> None:
    # The benchmark's own commands at seed 3, for two CPUs, once each: the
    # traced round runs the pool path that layertrace patches.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    run = _load(monkeypatch, "run")
    commands = run.WORKLOADS[workload].commands(3, 2)
    expected = run.recorded_digests(workload, 3)
    assert expected
    checker = run.Checker(commands, 1, expected)
    checked = [checker.check(run.run_round(commands, 1, trace, tmp_path / "spans.jsonl"))
               for trace in (False, True)]
    assert checked == [True, True], checker.problems
