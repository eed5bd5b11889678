"""Experiment harness: determinism, aggregation, serialization."""

from __future__ import annotations

import json
import math
import gc
import os
import pickle
import re
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import pytest

from logassign import (
    BracketError,
    ConstantGain,
    DensityGain,
    ExperimentConfig,
    ExponentialGain,
    GainModel,
    ParetoGain,
    ReplicateError,
    UniformGain,
    asymptotic_prediction,
    asymptotic_quantile,
    compare_report,
    parse_report_csv,
    replicate_stream,
    report_csv_text,
    report_json_text,
    run_experiment,
    table_text,
)
from logassign import experiment, gains


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


@dataclass(frozen=True)
class PickyGain(ExponentialGain):
    """Exponential gains that fail every replicate at n = 5, and replicate 5 at n = 3.

    The size and replicate are read back from the Philox key of the
    replicate's stream.  Defined at module level so that pool workers can
    unpickle it.
    """

    def sample(self, rng, size=None):
        context = int(rng.bit_generator.state["state"]["key"][1])
        n, replicate = context >> 32, (context >> 2) % 2**30
        if n == 5 or (n, replicate) == (3, 5):
            raise RuntimeError("picky draw")
        return super().sample(rng, size)


@dataclass(frozen=True)
class LoggedDrawGain(ParetoGain):
    """Pareto gains that append the drawing process and the size to a file.

    In a quenched run replicates draw only fades, so every gain draw is a
    frozen matrix.  Defined at module level so that pool workers can
    unpickle it.
    """

    log: str = ""

    def sample(self, rng, size=None):
        with open(self.log, "a") as log:
            log.write(f"{os.getpid()} {size[0]}\n")
        return super().sample(rng, size)


class TwoPointGain(GainModel):
    """Gains 1 or 2 with equal odds: a law defined outside the package.

    Defined at module level so that pool workers can unpickle it.
    """

    spec = "two-point"

    def sample(self, rng, size=None):
        return 1.0 + (rng.random(size=size) < 0.5)

    def _log_laplace(self, rho):
        # log of (exp(-rho) + exp(-rho/2)) / 2
        return -0.5 * rho + math.log1p(math.exp(-0.5 * rho)) - math.log(2.0)

    def _quantile_law(self, size):
        return math.log1p(2.0 * size)

    def _growth_law(self, n):
        return n * math.log(math.log(n))


@dataclass
class ScaledExponentialGain(GainModel):
    """Exponential gains of mean ``scale``: a plain dataclass law, so unhashable.

    Defined at module level so that pool workers can unpickle it.
    """

    scale: float = 2.0
    spec = "scaled-exp"

    def sample(self, rng, size=None):
        return self.scale * rng.exponential(size=size)

    def _log_laplace(self, rho):
        return ExponentialGain()._log_laplace(rho / self.scale)


@dataclass(frozen=True)
class NoFourGain(ExponentialGain):
    """Exponential gains that cannot be drawn as a 4 x 4 matrix."""

    def sample(self, rng, size=None):
        if size == (4, 4):
            raise RuntimeError("no 4 x 4 draw")
        return super().sample(rng, size)


@dataclass(frozen=True)
class NoFiveNegativeThreeGain(ExponentialGain):
    """Exponential gains that cannot be drawn as 5 x 5 and come out negative as 3 x 3."""

    def sample(self, rng, size=None):
        if size == (5, 5):
            raise RuntimeError("no 5 x 5 draw")
        gains = super().sample(rng, size)
        return -gains if size == (3, 3) else gains


class _WatchedDraws:
    """Records, per gain draw, how many earlier draws are still alive, and the draw."""

    def sample(self, rng, size=None):
        gains = super().sample(rng, size)
        alive = sum(draw() is not None for _, draw in _DRAWS)
        _DRAWS.append((alive, weakref.ref(gains)))
        return gains


@dataclass(frozen=True)
class WatchedFrozenGain(_WatchedDraws, ParetoGain):
    """Pareto gains whose draws are watched."""


@dataclass(frozen=True)
class WatchedNoFourGain(_WatchedDraws, NoFourGain):
    """Gains that cannot be drawn as 4 x 4, whose draws are watched."""


_DRAWS: list = []


@dataclass(frozen=True)
class ShapelessGain(ExponentialGain):
    """Draws one row of gains where a matrix is asked for: shape (n,)."""

    def sample(self, rng, size=None):
        return super().sample(rng, size if size is None else size[0])


@dataclass(frozen=True)
class NegativeGain(ExponentialGain):
    """Draws gains in [-0.5, 0), where log(1 + g*f) is wrong or NaN."""

    def sample(self, rng, size=None):
        return -0.5 * (1.0 - rng.random(size=size))


@dataclass(frozen=True)
class NamedGain(ExponentialGain):
    """Exponential gains under any name.

    Defined at module level so that pool workers can unpickle it.
    """

    spec: str = "exp"


_SHARED_GAINS = np.linspace(0.5, 2.0, 16).reshape(4, 4)


class SharedArrayGain(GainModel):
    """Hands out the same module-level 4 x 4 array on every draw."""

    spec = "shared"

    def sample(self, rng, size=None):
        return _SHARED_GAINS

    def _log_laplace(self, rho):
        exponents = -rho / _SHARED_GAINS
        top = float(exponents.max())
        return top + math.log(float(np.mean(np.exp(exponents - top))))


def _flat_density(y: float) -> float:
    return 1.0


def _tent_density(y: float) -> float:
    return 1.0 - abs(y - 1.0)


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


@pytest.fixture
def pool_maps(monkeypatch) -> list:
    """Record the tasks of every map on a pool that the experiment module constructs."""
    maps = []

    class RecordingPool(ProcessPoolExecutor):
        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            maps.append(tasks)
            return super().map(fn, tasks, chunksize=chunksize)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    return maps


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
    assert _config(sizes=(3, 2**32 - 1)).sizes == (3, 2**32 - 1)
    with pytest.raises(ValueError, match=r"sizes must stay below 2\*\*32"):
        _config(sizes=(3, 2**32))
    assert _config(replicates=2**30 - 1).replicates == 2**30 - 1
    with pytest.raises(ValueError, match=r"replicates must stay below 2\*\*30"):
        _config(replicates=2**30)
    with pytest.raises(ValueError, match="model must be a GainModel"):
        _config(model="exp")


@pytest.mark.parametrize(
    "field, value, message",
    [("sizes", (3, 5.5), "size must be a whole number, not 5.5"),
     ("replicates", 6.9, "replicates must be a whole number, not 6.9"),
     ("replicates", "6", "replicates must be a whole number, not '6'"),
     ("master_seed", 42.5, "master_seed must be a whole number, not 42.5"),
     ("master_seed", math.nan, "master_seed must be a whole number, not nan"),
     ("parallelism", 1.2, "parallelism must be a whole number, not 1.2"),
     ("parallelism", math.inf, "parallelism must be a whole number, not inf")],
)
def test_config_rejects_counts_that_are_not_whole_numbers(field, value, message) -> None:
    with pytest.raises(ValueError) as info:
        _config(**{field: value})
    assert str(info.value) == message


def test_whole_counts_of_any_numeric_type_run_as_ints() -> None:
    config = _config(sizes=(3.0, np.int64(5)), replicates=np.int32(6),
                     master_seed=np.uint64(42), parallelism=1.0)
    assert config == _config(parallelism=1)
    assert all(type(x) is int for x in (*config.sizes, config.replicates,
                                        config.master_seed, config.parallelism))
    assert report_csv_text(run_experiment(config)) == report_csv_text(
        run_experiment(_config()))


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
    # Uneven chunks in quenched mode: 11 replicates make chunks of 4, 4 and 3.
    settings = dict(model=ParetoGain(2.5), sizes=(4, 7), replicates=11, mode="quenched")
    serial = run_experiment(_config(**settings, parallelism=1))
    assert run_experiment(_config(**settings, parallelism=3)) == serial
    # A user density sets its sampler up again in each worker that loads it.
    # Its asymptotic columns are NaN, which equals no NaN, so compare bytes.
    tent = DensityGain(density=_tent_density, lower=0.0, upper=2.0)
    for mode in ("annealed", "quenched"):
        settings = dict(model=tent, sizes=(4, 7), replicates=11, mode=mode)
        serial = report_csv_text(run_experiment(_config(**settings, parallelism=1)))
        assert report_csv_text(run_experiment(_config(**settings, parallelism=3))) == serial


def test_one_pool_per_run_and_none_in_process(pool_starts) -> None:
    run_experiment(_config(sizes=(3, 4, 6), replicates=8, parallelism=2))
    assert pool_starts == [2]
    run_experiment(_config(sizes=(3, 4, 6), replicates=8, parallelism=1))
    assert pool_starts == [2]


def test_pool_starts_no_worker_without_a_chunk(pool_starts) -> None:
    # Two replicates of one size make two chunks of one, whatever the
    # parallelism asked for.
    run_experiment(_config(sizes=(3,), replicates=2, parallelism=8))
    # Five replicates on four workers go out in chunks of two: three chunks.
    run_experiment(_config(sizes=(3,), replicates=5, parallelism=4))
    assert pool_starts == [2, 3]


def test_pool_workers_are_capped_by_the_cpu_count(monkeypatch) -> None:
    # The pool raises as it is built, so no worker process starts whatever
    # size it is asked for.
    asked = []

    class RefusingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)
            raise RuntimeError("no pool here")

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RefusingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # in place of the 64 of conftest
    with pytest.raises(RuntimeError, match="no pool here"):
        run_experiment(_config(replicates=64, parallelism=64))
    assert asked == [2]


def test_pool_queues_one_chunk_per_worker_and_size_largest_first(pool_maps) -> None:
    for mode in ("annealed", "quenched"):
        pool_maps.clear()
        settings = dict(sizes=(3, 4, 6), replicates=7, mode=mode)
        parallel = run_experiment(_config(**settings, parallelism=2))
        # ceil(7 / 2) = 4 replicates per chunk, so each size makes two chunks.
        assert [[task[1:3] for task in tasks] for tasks in pool_maps] == [
            [(n, range(0, 4)), (n, range(4, 7))] for n in (6, 4, 3)]
        for tasks in pool_maps:
            # Every replicate of the size exactly once, and no array in a task.
            assert sorted(rep for task in tasks for rep in task[2]) == list(range(7))
            assert all(task[4] is (mode == "quenched") for task in tasks)
            assert not any(isinstance(part, np.ndarray) for task in tasks for part in task)
        assert parallel == run_experiment(_config(**settings, parallelism=1))


def test_pool_tasks_stay_small_whatever_the_size(pool_maps) -> None:
    run_experiment(_config(model=ParetoGain(3.0), sizes=(200,), replicates=2,
                           mode="quenched", parallelism=2))
    # A 200 x 200 frozen matrix alone would pickle to 320,000 bytes.
    (tasks,) = pool_maps
    assert len(tasks) == 2
    assert all(len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL)) < 1024 for task in tasks)


def test_first_failure_in_serial_order_wins_over_larger_sizes_queued_first() -> None:
    # Size 5 is queued first and fails on every replicate; replicate 5 of
    # size 3 fails inside the second chunk of four.  Sizes are read back in
    # order, so both runs name (3, 5).
    settings = dict(model=PickyGain(), sizes=(3, 4, 5), replicates=8)
    errors = []
    for parallelism in (1, 2):
        with pytest.raises(ReplicateError) as info:
            run_experiment(_config(**settings, parallelism=parallelism))
        errors.append((info.value.n, info.value.replicate, str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][:2] == (3, 5)
    assert "picky draw" in errors[0][2]


def test_each_pool_chunk_draws_its_own_frozen_gains(tmp_path) -> None:
    log = tmp_path / "draws.txt"
    settings = dict(model=LoggedDrawGain(alpha=3.0, log=str(log)), sizes=(3, 4, 6),
                    replicates=8, mode="quenched")
    serial = run_experiment(_config(**settings, parallelism=1))
    draws = [line.split() for line in log.read_text().splitlines()]
    assert draws == [[str(os.getpid()), n] for n in ("3", "4", "6")]
    log.unlink()
    assert run_experiment(_config(**settings, parallelism=2)) == serial
    # Two chunks of four per size, each drawing its size's matrix once, and
    # none drawn by the parent.
    draws = [line.split() for line in log.read_text().splitlines()]
    assert sorted(n for _, n in draws) == ["3", "3", "4", "4", "6", "6"]
    assert str(os.getpid()) not in {pid for pid, _ in draws}


def test_every_replicate_checks_the_gains_of_its_costs(monkeypatch) -> None:
    checked = []
    original = gains._checked_gains

    def counted(matrix, n):
        checked.append(n)
        return original(matrix, n)

    monkeypatch.setattr(gains, "_checked_gains", counted)
    settings = dict(model=ParetoGain(3.0), sizes=(3, 4), replicates=5, parallelism=1)
    for mode in ("annealed", "quenched"):
        checked.clear()
        run_experiment(_config(**settings, mode=mode))
        # A quenched replicate draws through generate_cost_matrix too, so its
        # frozen gains are checked where its costs are drawn.
        assert checked == [3] * 5 + [4] * 5


@pytest.mark.parametrize("mode", ["annealed", "quenched"])
@pytest.mark.parametrize("parallelism", [1, 2])
def test_an_unpredictable_run_fails_before_any_draw_or_pool(
        monkeypatch, mode: str, parallelism: int) -> None:
    # q(1/3) of pareto:1.001 is about 1,100, beyond r = log(DBL_MAX).
    calls = []

    def counted(name):
        original = getattr(experiment, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    class RefusingPool:
        def __init__(self, *args, **kwargs):
            calls.append("pool")
            raise RuntimeError("no pool here")

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RefusingPool)
    for name in ("generate_cost_matrix", "_frozen_gains"):
        monkeypatch.setattr(experiment, name, counted(name))
    with pytest.raises(BracketError, match="709.78"):
        run_experiment(_config(model=ParetoGain(1.001), sizes=(3, 4), replicates=2,
                               mode=mode, parallelism=parallelism))
    assert calls == []


def test_an_unhashable_law_runs_quenched_in_process_and_under_a_pool() -> None:
    model = ScaledExponentialGain()
    with pytest.raises(TypeError):
        hash(model)
    settings = dict(model=model, sizes=(3, 4, 6), replicates=5, mode="quenched")
    # The text, as the asymptotic columns hold NaN, which equals nothing.
    serial = report_csv_text(run_experiment(_config(**settings, parallelism=1)))
    assert report_csv_text(run_experiment(_config(**settings, parallelism=2))) == serial


def test_a_failing_frozen_draw_fails_replicate_zero_of_its_size() -> None:
    settings = dict(model=NoFourGain(), sizes=(3, 4, 5), mode="quenched")
    errors = []
    for parallelism in (1, 2):
        with pytest.raises(ReplicateError) as info:
            run_experiment(_config(**settings, parallelism=parallelism))
        errors.append((info.value.n, info.value.replicate, str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][:2] == (4, 0)
    assert "no 4 x 4 draw" in errors[0][2]


def test_draw_failures_are_raised_in_serial_order_under_a_pool_too() -> None:
    # The 5 x 5 draw raises and the 3 x 3 one is negative, which fails
    # replicate 0 at n = 3.  Under a pool the 5 x 5 draw comes first, yet
    # both runs name (3, 0).
    settings = dict(model=NoFiveNegativeThreeGain(), sizes=(3, 4, 5), mode="quenched")
    errors = []
    for parallelism in (1, 2):
        with pytest.raises(ReplicateError) as info:
            run_experiment(_config(**settings, parallelism=parallelism))
        errors.append((info.value.n, info.value.replicate, str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][:2] == (3, 0)
    assert "positive finite" in errors[0][2]


def test_in_process_quenched_run_holds_one_frozen_matrix_at_a_time() -> None:
    _DRAWS.clear()
    run_experiment(_config(model=WatchedFrozenGain(alpha=3.0), sizes=(3, 4, 6),
                           mode="quenched"))
    # No earlier draw is alive at a new one, and none outlives the run.
    assert [alive for alive, _ in _DRAWS] == [0, 0, 0]
    gc.collect()
    assert [draw() for _, draw in _DRAWS] == [None, None, None]
    _DRAWS.clear()
    with pytest.raises(ReplicateError):
        run_experiment(_config(model=WatchedNoFourGain(), sizes=(3, 4, 6), mode="quenched"))
    # Only the 3 x 3 draw succeeded, and a failed run lets it go too.
    gc.collect()
    assert [(alive, draw()) for alive, draw in _DRAWS] == [(0, None)]


def test_overlapping_quenched_runs_in_threads_keep_their_own_frozen_gains(
        monkeypatch) -> None:
    settings = dict(model=ParetoGain(2.5), sizes=(3, 4), replicates=3, mode="quenched")
    solo = {seed: report_csv_text(run_experiment(_config(**settings, master_seed=seed)))
            for seed in (1, 2)}
    # Every solve waits for the other thread's, so the two runs go in
    # lockstep, each size's draws overlapping.  The timeout fails a run
    # whose partner died rather than hang.
    barrier = threading.Barrier(2, timeout=10)
    solve = experiment.solve_max_assignment

    def lockstep_solve(matrix):
        barrier.wait()
        return solve(matrix)

    monkeypatch.setattr(experiment, "solve_max_assignment", lockstep_solve)
    reports = {}

    def run(seed):
        reports[seed] = report_csv_text(run_experiment(_config(**settings, master_seed=seed)))

    threads = [threading.Thread(target=run, args=(seed,)) for seed in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert reports == solo


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


@pytest.mark.parametrize(
    "key, message",
    [((0, 3, 2**30), "replicate must fit in an unsigned 30-bit integer, not 1073741824"),
     ((0, 2**40, 0), "n must fit in an unsigned 32-bit integer, not 1099511627776"),
     ((7.8, 10.5, 1.9), "master_seed must be a whole number, not 7.8"),
     ((7, 10.5, 1), "n must be a whole number, not 10.5"),
     ((2**64, 3, 0), "master_seed must fit in an unsigned 64-bit integer"),
     ((0, 3, 0, 4), "purpose must fit in an unsigned 2-bit integer, not 4")],
)
def test_replicate_stream_rejects_a_key_it_cannot_pack(key, message) -> None:
    # Each key would otherwise alias another stream, or fail inside numpy.
    with pytest.raises(ValueError, match=re.escape(message)):
        replicate_stream(*key)


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


@pytest.mark.parametrize("model, n, reason", [
    (ShapelessGain(), 3, "gain matrix shape (3,) does not match n = 3"),
    (NegativeGain(), 3, "gain matrix entries must be positive finite reals: "
                        "an entry is zero, negative or NaN"),
    # (1 - u) ** -100 overflows for about 8 in 10**4 draws.  Warnings are
    # errors under these tests, so a numpy overflow warning would fail the
    # replicate with numpy's message in place of this one.
    (ParetoGain(1.01), 100, "gain matrix entries must be positive finite reals: "
                            "a gain overflows a double"),
], ids=["shape", "sign", "overflow"])
def test_bad_gain_draws_fail_the_first_replicate_in_every_mode(model, n: int,
                                                               reason: str) -> None:
    for mode in ("annealed", "quenched"):
        for parallelism in (1, 2):
            with pytest.raises(ReplicateError) as info:
                run_experiment(_config(model=model, sizes=(n, n + 1), mode=mode,
                                       parallelism=parallelism))
            assert (info.value.n, info.value.replicate) == (n, 0)
            assert info.value.reason == reason


@pytest.mark.parametrize("mode", ["annealed", "quenched"])
def test_a_shared_gain_array_is_left_as_it_was(mode: str) -> None:
    before = _SHARED_GAINS.copy()
    run_experiment(_config(model=SharedArrayGain(), sizes=(4,), mode=mode))
    assert np.array_equal(_SHARED_GAINS, before)
    assert _SHARED_GAINS.flags.writeable


def test_replicate_error_survives_pickling() -> None:
    error = pickle.loads(pickle.dumps(ReplicateError(5, 1, "x")))
    assert isinstance(error, ReplicateError)
    assert (error.n, error.replicate, error.reason) == (5, 1, "x")
    assert str(error) == str(ReplicateError(5, 1, "x"))


def test_failed_replicate_is_located_exactly_under_a_pool() -> None:
    settings = dict(model=FlakyGain(), sizes=(3, 5), replicates=40, master_seed=0)
    # 40 replicates on 2 workers go out in chunks of 20; a failure inside a
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


def test_report_json_writes_nan_as_null() -> None:
    flat = DensityGain(density=_flat_density, lower=0.5, upper=1.5)
    report = run_experiment(_config(model=flat, sizes=(3,)))

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    (record,) = json.loads(report_json_text(report), parse_constant=reject)
    assert record["predicted_asymptotic"] is None
    assert record["rel_err_asymptotic"] is None
    assert record["empirical_mean"] == report.rows[0].empirical_mean


def test_a_model_defined_outside_the_package_runs_end_to_end() -> None:
    model = TwoPointGain()
    for mode in ("annealed", "quenched"):
        report = run_experiment(
            _config(model=model, sizes=(3, 16), mode=mode, parallelism=2)
        )
        assert report.model == "two-point"
        assert parse_report_csv(report_csv_text(report)) == report
        assert [row.predicted_asymptotic for row in report.rows] == [
            3 * math.log(math.log(3)), 16 * math.log(math.log(16))
        ]
        for row in report.rows:
            assert math.isfinite(row.empirical_mean)
            assert math.isfinite(row.rel_err_numeric)
    assert asymptotic_quantile(model, 1e-4) == math.log1p(2.0 * -math.log(1e-4))
    assert asymptotic_prediction(model, 100) == 100 * math.log(math.log(100))


@pytest.mark.parametrize("mode", ["annealed", "quenched"])
@pytest.mark.parametrize("parallelism", [1, 3])
def test_each_row_is_the_fsum_mean_and_spread_of_its_own_optima(mode, parallelism) -> None:
    # Eleven replicates on three workers make uneven chunks of 4, 4 and 3.
    config = _config(model=ParetoGain(2.5), sizes=(4, 7), replicates=11, mode=mode,
                     parallelism=parallelism)
    m = config.replicates
    for row in run_experiment(config).rows:
        frozen = (experiment._frozen_gains(config.model, row.n, config.master_seed)
                  if mode == "quenched" else None)
        optima = [experiment._replicate_value((config.model, row.n, rep,
                                               config.master_seed, frozen))
                  for rep in range(m)]
        mean = math.fsum(optima) / m
        spread = math.fsum((x - mean) ** 2 for x in optima)
        assert row.empirical_mean == mean
        assert row.std_error == math.sqrt(spread / (m - 1)) / math.sqrt(m)


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
    # Blank lines are skipped.
    header, *rows = text.splitlines(keepends=True)
    assert parse_report_csv(header + "\n" + "\n".join(rows) + "\n") == report


@pytest.mark.parametrize("spec", ["exp\rodd", "exp\nodd", "exp,odd", 'exp"odd',
                                  'exp\rodd\nname, "quoted"'])
def test_a_report_whose_model_name_needs_quoting_round_trips(spec: str) -> None:
    # A lone \r is quoted as \n is; unquoted, the reader refuses the line.
    report = run_experiment(_config(model=NamedGain(spec)))
    text = report_csv_text(report)
    quoted = '"' + spec.replace('"', '""') + '"'
    assert text.split("\n", 1)[1].startswith(quoted + ",annealed,3,")
    assert parse_report_csv(text) == report
    assert parse_report_csv(text).model == spec


@pytest.mark.parametrize("mode", ["annealed", "quenched"])
def test_reports_are_equal_when_their_csv_is(mode: str) -> None:
    # The tent law has no asymptotic law, so two columns are NaN, which a
    # field-by-field float comparison would call unequal to itself.
    config = _config(model=DensityGain(density=_tent_density, lower=0.0, upper=2.0),
                     sizes=(3, 5), replicates=3, mode=mode)
    report = run_experiment(config)
    assert math.isnan(report.rows[0].predicted_asymptotic)
    for same in (run_experiment(config), parse_report_csv(report_csv_text(report))):
        assert same == report
        assert hash(same) == hash(report)
    row = report.rows[1]
    changed = replace(row, std_error=math.nextafter(row.std_error, 0.0))
    other = replace(report, rows=(report.rows[0], changed))
    assert report_csv_text(other) != report_csv_text(report)
    assert other != report
    assert changed != row


def test_report_csv_parser_rejects_garbage() -> None:
    with pytest.raises(ValueError):
        parse_report_csv("")
    with pytest.raises(ValueError):
        parse_report_csv("nope,nope\n1,2\n")
    text = report_csv_text(run_experiment(_config()))
    with pytest.raises(ValueError):
        parse_report_csv(text + "exp,annealed,9,6,41,1,1,1,1,1,1\n")
    header, first = text.splitlines(keepends=True)[:2]
    with pytest.raises(ValueError, match="malformed report line"):
        parse_report_csv(header + "exp,annealed,9\n" + first)
    with pytest.raises(ValueError, match="report has no data rows"):
        parse_report_csv(header)
    with pytest.raises(ValueError, match="report has no data rows"):
        parse_report_csv(header + "\n\n")
    # Past the CSV reader's own limit of 131072 characters a field.
    with pytest.raises(ValueError, match="field larger than field limit"):
        parse_report_csv("x" * 200_000 + "\n")


def test_table_text_writes_csv_and_strict_json() -> None:
    records = [(3, "a,b", 0.1, math.nan)]
    assert table_text(("n", "s", "x", "y"), records, "csv") == (
        'n,s,x,y\n3,"a,b",0.10000000000000001,nan\n')
    assert json.loads(table_text(("n", "s", "x", "y"), records, "json")) == [
        {"n": 3, "s": "a,b", "x": 0.1, "y": None}]
    with pytest.raises(ValueError, match="tsv"):
        table_text(("n",), [(3,)], "tsv")


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
