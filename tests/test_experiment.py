"""Experiment harness: determinism, aggregation, serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from logassign import (
    ConstantGain,
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
from logassign.experiment import _compensated_sum


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


def test_identical_configs_give_identical_reports() -> None:
    assert run_experiment(_config()) == run_experiment(_config())


def test_parallelism_does_not_change_the_report() -> None:
    serial = run_experiment(_config(sizes=(4, 7), replicates=12, parallelism=1))
    parallel = run_experiment(_config(sizes=(4, 7), replicates=12, parallelism=3))
    assert serial == parallel


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
