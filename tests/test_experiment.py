"""Experiment harness: determinism, aggregation, serialization."""

from __future__ import annotations

import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from logassign import (
    ConstantGain,
    DensityGain,
    ExperimentConfig,
    ExponentialGain,
    GainModel,
    ParetoGain,
    ReplicateError,
    UniformGain,
    asymptotic_prediction,
    compare_report,
    parse_report_csv,
    replicate_stream,
    report_csv_text,
    report_json_text,
    run_experiment,
)
from logassign import experiment
from logassign.experiment import _compensated_sum


@dataclass(frozen=True)
class FlakyGain(ExponentialGain):
    """Exponential gains that fail on every replicate whose first draw is small.

    Defined at module level so that pool workers can unpickle it.
    """

    def sample(self, rng, size=None):
        gains = super().sample(rng, size)
        if np.ravel(gains)[0] < 0.05:
            raise RuntimeError("unlucky draw")
        return gains


_TEST_PID = os.getpid()


@dataclass(frozen=True)
class ParentDrawnGain(ParetoGain):
    """Pareto gains that refuse to be drawn outside the test process.

    In a quenched run, workers draw only fades, so a pool worker that draws
    gains would be drawing a frozen gain matrix the parent already drew.
    """

    def sample(self, rng, size=None):
        if os.getpid() != _TEST_PID:
            raise RuntimeError("gains drawn in a worker")
        return super().sample(rng, size)


def _flat_density(y: float) -> float:
    return 1.0


@pytest.fixture
def pool_starts(monkeypatch) -> list:
    """Record every process pool that the experiment module constructs."""
    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
    return started


def _config(**overrides) -> ExperimentConfig:
    settings = dict(
        model=ExponentialGain(),
        sizes=(3, 5),
        replicates=6,
        master_seed=42,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        _config(sizes=())
    with pytest.raises(ValueError):
        _config(sizes=(5, 3))
    with pytest.raises(ValueError):
        _config(sizes=(3, 3))
    with pytest.raises(ValueError):
        _config(sizes=(1, 5))
    # n = 2 would simulate, but the report's asymptotic column needs n >= 3.
    with pytest.raises(ValueError, match="asymptotic prediction"):
        _config(sizes=(2, 5))
    with pytest.raises(ValueError):
        _config(replicates=1)
    with pytest.raises(ValueError):
        _config(mode="tempered")
    with pytest.raises(ValueError):
        _config(parallelism=0)
    with pytest.raises(ValueError):
        _config(master_seed=-1)
    with pytest.raises(ValueError):
        _config(master_seed=2**64)


def test_unpicklable_model_is_rejected_up_front() -> None:
    local = DensityGain(density=lambda y: 1.0, lower=0.5, upper=1.5)
    with pytest.raises(ValueError, match="parallelism=1") as info:
        _config(model=local, parallelism=2)
    assert "worker processes" in str(info.value)
    # The same model is fine in process.
    assert _config(model=local, parallelism=1).parallelism == 1


def test_identical_configs_give_identical_reports() -> None:
    assert run_experiment(_config()) == run_experiment(_config())


def test_parallelism_does_not_change_the_report() -> None:
    serial = run_experiment(_config(sizes=(4, 7), replicates=12, parallelism=1))
    parallel = run_experiment(_config(sizes=(4, 7), replicates=12, parallelism=3))
    assert serial == parallel


def test_one_pool_per_run_and_none_in_process(pool_starts) -> None:
    run_experiment(_config(sizes=(3, 4, 6), replicates=8, parallelism=2))
    assert pool_starts == [2]
    run_experiment(_config(sizes=(3, 4, 6), replicates=8, parallelism=1))
    assert pool_starts == [2]


def test_pool_workers_get_frozen_gains_from_the_parent() -> None:
    settings = dict(model=ParentDrawnGain(alpha=3.0), sizes=(3, 4, 6), replicates=8,
                    mode="quenched")
    serial = run_experiment(_config(**settings, parallelism=1))
    assert run_experiment(_config(**settings, parallelism=2)) == serial


def test_quenched_constant_gain_equals_annealed() -> None:
    # A deterministic gain matrix leaves nothing to freeze, so the two modes
    # must agree to the last bit.
    annealed = run_experiment(_config(model=ConstantGain(1.3), mode="annealed"))
    quenched = run_experiment(_config(model=ConstantGain(1.3), mode="quenched"))
    assert annealed.rows == quenched.rows


def test_quenched_runs_reuse_one_gain_matrix_per_size() -> None:
    first = run_experiment(_config(model=ParetoGain(2.5), mode="quenched"))
    second = run_experiment(_config(model=ParetoGain(2.5), mode="quenched"))
    assert first == second
    assert first != run_experiment(_config(model=ParetoGain(2.5), mode="annealed"))


def test_replicate_streams_are_distinct() -> None:
    draws = {
        (n, rep): replicate_stream(5, n, rep).random()
        for n in (3, 4) for rep in (0, 1, 2)
    }
    assert len(set(draws.values())) == len(draws)


def test_report_carries_metadata_and_monotone_sizes() -> None:
    report = run_experiment(_config())
    assert report.model == "exp"
    assert report.mode == "annealed"
    assert report.replicates == 6
    assert report.master_seed == 42
    assert [row.n for row in report.rows] == [3, 5]
    for row in report.rows:
        assert row.std_error > 0.0
        assert row.rel_err_numeric == abs(
            row.predicted_numeric - row.empirical_mean
        ) / row.empirical_mean


@pytest.mark.slow
def test_mean_optimum_grows_with_size() -> None:
    report = run_experiment(
        _config(sizes=(10, 20, 40), replicates=100, master_seed=9)
    )
    means = [row.empirical_mean for row in report.rows]
    assert means[0] < means[1] < means[2]


def test_failed_replicate_aborts_with_location() -> None:
    class ExplodingGain(GainModel):
        def sample(self, rng, size=None):
            raise RuntimeError("boom")

        def _log_laplace(self, rho):
            return -rho

    with pytest.raises(ReplicateError) as info:
        run_experiment(_config(model=ExplodingGain(), sizes=(4,)))
    assert info.value.n == 4
    assert info.value.replicate == 0


def test_replicate_error_survives_pickling() -> None:
    error = pickle.loads(pickle.dumps(ReplicateError(5, 1, "x")))
    assert isinstance(error, ReplicateError)
    assert (error.n, error.replicate, error.reason) == (5, 1, "x")
    assert str(error) == str(ReplicateError(5, 1, "x"))


def test_failed_replicate_is_located_exactly_under_a_pool() -> None:
    settings = dict(model=FlakyGain(), sizes=(3, 5), replicates=40, master_seed=0)
    # 40 replicates on 2 workers go out in chunks of 5; a failure inside a
    # chunk, not at its start, tells an exact location from a chunk's first.
    errors = []
    for parallelism in (1, 2):
        with pytest.raises(ReplicateError) as info:
            run_experiment(_config(**settings, parallelism=parallelism))
        errors.append((info.value.n, info.value.replicate, str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][1] % 5 != 0
    assert "unlucky draw" in errors[0][2]


def test_density_run_reports_nan_asymptotics() -> None:
    flat = DensityGain(density=_flat_density, lower=0.5, upper=1.5)
    report = run_experiment(_config(model=flat, sizes=(3, 5), parallelism=2))
    assert report.model == "density"
    for row in report.rows:
        assert math.isfinite(row.empirical_mean)
        assert math.isfinite(row.predicted_numeric)
        assert math.isfinite(row.rel_err_numeric)
        assert math.isnan(row.predicted_asymptotic)
        assert math.isnan(row.rel_err_asymptotic)
    assert math.isnan(asymptotic_prediction(flat, 10))
    with pytest.raises(ValueError):
        asymptotic_prediction(flat, 2)


def test_compensated_sum_beats_naive_accumulation() -> None:
    values = [1e16, 1.0, -1e16]
    assert sum(values) != 1.0
    assert _compensated_sum(values) == 1.0
    rng = np.random.default_rng(1)
    draws = list(rng.random(10_000) * 1e6)
    assert _compensated_sum(draws) == pytest.approx(math.fsum(draws), abs=0.0)


def test_asymptotic_prediction_formulas() -> None:
    assert asymptotic_prediction(ConstantGain(1.0), 16) == pytest.approx(
        16.0 * math.log(math.log(16.0))
    )
    assert asymptotic_prediction(ConstantGain(5.0), 16) == asymptotic_prediction(
        ConstantGain(1.0), 16
    )
    assert asymptotic_prediction(ExponentialGain(), 100) == pytest.approx(
        305.4359251615802
    )
    assert asymptotic_prediction(ParetoGain(3.0), 100) == pytest.approx(
        100.0 * math.log(100.0) / 2.0
    )
    assert asymptotic_prediction(UniformGain(), 50) == pytest.approx(
        50.0 * math.log(math.log(50.0))
    )
    with pytest.raises(ValueError):
        asymptotic_prediction(ExponentialGain(), 2)


def test_report_csv_round_trips_exactly() -> None:
    report = run_experiment(_config(model=ParetoGain(2.0)))
    text = report_csv_text(report)
    assert text.splitlines()[0] == (
        "model,mode,n,m,seed,empirical_mean,std_error,"
        "predicted_numeric,predicted_asymptotic,rel_err_numeric,rel_err_asymptotic"
    )
    assert parse_report_csv(text) == report


def test_report_csv_parser_rejects_garbage() -> None:
    with pytest.raises(ValueError):
        parse_report_csv("")
    with pytest.raises(ValueError):
        parse_report_csv("nope,nope\n1,2\n")
    text = report_csv_text(run_experiment(_config()))
    with pytest.raises(ValueError):
        parse_report_csv(text + "exp,annealed,9,6,41,1,1,1,1,1,1\n")


def test_report_json_mirrors_csv_fields() -> None:
    import json

    report = run_experiment(_config())
    payload = json.loads(report_json_text(report))
    assert len(payload) == len(report.rows)
    first = payload[0]
    assert set(first) == {
        "model", "mode", "n", "m", "seed", "empirical_mean", "std_error",
        "predicted_numeric", "predicted_asymptotic", "rel_err_numeric",
        "rel_err_asymptotic",
    }
    assert first["model"] == "exp"
    assert first["empirical_mean"] == report.rows[0].empirical_mean


def test_compare_report_summarizes_extremes() -> None:
    report = run_experiment(_config(sizes=(4, 6, 9)))
    text = compare_report(report)
    worst = max(report.rows, key=lambda row: row.rel_err_numeric)
    assert f"at n={worst.n}" in text
    assert "max rel_err_numeric" in text
    assert "rel_err_asymptotic range [" in text
    assert text.count("\n") == len(report.rows) + 4
