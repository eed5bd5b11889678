"""Monte Carlo harness comparing simulated optima against predictions.

Every replicate draws its randomness from a Philox stream keyed by
(master seed, size, replicate index), never from shared state, so the
numbers cannot depend on scheduling; workers may run in any order and the
report still comes out bit-identical.  Quenched runs key one extra stream
per size from (master seed, size) for the frozen gain matrix and leave the
replicate streams untouched, which makes a constant-gain quenched run
coincide exactly with its annealed twin.  The parent draws each frozen
matrix once, read-only, and every replicate task of that size carries it.
The module holds no state, so runs may overlap in threads.

A run opens one process pool for all its sizes when ``parallelism`` and
the CPU count both exceed 1, with no more workers than either, nor than it
has chunks.  Each size's replicates go out in one chunk per worker,
largest size first, so the chunks left at the end are the cheapest.  The
executor pickles a chunk in one call, so each chunk carries its size's
frozen matrix once, and the parent computes the predictions while the
workers solve.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .gains import GainModel, generate_cost_matrix
from .matching import solve_max_assignment
# asymptotic_prediction is imported for callers that take it from here.
from .quantile import asymptotic_prediction, prediction_table

__all__ = [
    "ANNEALED",
    "QUENCHED",
    "REPORT_COLUMNS",
    "ExperimentConfig",
    "ExperimentReport",
    "ReplicateError",
    "ReportRow",
    "compare_report",
    "parse_report_csv",
    "replicate_stream",
    "report_csv_text",
    "report_json_text",
    "run_experiment",
    "table_text",
]

ANNEALED = "annealed"
QUENCHED = "quenched"

REPORT_COLUMNS = (
    "model",
    "mode",
    "n",
    "m",
    "seed",
    "empirical_mean",
    "std_error",
    "predicted_numeric",
    "predicted_asymptotic",
    "rel_err_numeric",
    "rel_err_asymptotic",
)

_PURPOSE_REPLICATE = 0
_PURPOSE_QUENCHED_GAINS = 1
_PURPOSE_TAIL_CHECK = 2


class ReplicateError(RuntimeError):
    """A single replicate failed; the whole run is aborted."""

    def __init__(self, n: int, replicate: int, reason: str):
        super().__init__(f"replicate {replicate} at n = {n} failed: {reason}")
        self.n, self.replicate, self.reason = n, replicate, reason

    def __reduce__(self):
        return type(self), (self.n, self.replicate, self.reason)


@dataclass(frozen=True)
class ExperimentConfig:
    """Immutable description of one simulation run."""

    model: GainModel
    sizes: tuple[int, ...]
    replicates: int
    mode: str = ANNEALED
    master_seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise ValueError("sizes must be nonempty")
        if any(n < 3 for n in sizes):
            raise ValueError(
                "every size must be at least 3: the asymptotic prediction "
                "needs n >= 3"
            )
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        if max(sizes) >= 2**32:
            raise ValueError("sizes must stay below 2**32")
        if not isinstance(self.model, GainModel):
            raise ValueError("model must be a GainModel")
        if int(self.replicates) < 2:
            raise ValueError("need at least 2 replicates for a standard error")
        if int(self.replicates) >= 2**30:
            raise ValueError("replicates must stay below 2**30")
        object.__setattr__(self, "replicates", int(self.replicates))
        if self.mode not in (ANNEALED, QUENCHED):
            raise ValueError(f"mode must be {ANNEALED!r} or {QUENCHED!r}")
        seed = int(self.master_seed)
        if not 0 <= seed < 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "master_seed", seed)
        if int(self.parallelism) < 1:
            raise ValueError("parallelism must be at least 1")
        object.__setattr__(self, "parallelism", int(self.parallelism))
        if self.parallelism > 1:
            try:
                pickle.dumps(self.model)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise ValueError(f"model cannot be sent to worker processes ({exc}); "
                                 "use parallelism=1 or a module-level density") from None


@dataclass(frozen=True)
class ReportRow:
    n: int
    empirical_mean: float
    std_error: float
    predicted_numeric: float
    predicted_asymptotic: float
    rel_err_numeric: float
    rel_err_asymptotic: float


@dataclass(frozen=True)
class ExperimentReport:
    model: str
    mode: str
    replicates: int
    master_seed: int
    rows: tuple[ReportRow, ...]


def replicate_stream(
    master_seed: int, n: int, replicate: int, purpose: int = _PURPOSE_REPLICATE
) -> np.random.Generator:
    """Counter-based generator for one replicate, independent of run order."""
    context = (int(n) << 32) | (int(replicate) << 2) | int(purpose)
    key = np.array([master_seed, context], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _frozen_gains(model: GainModel, n: int, master_seed: int) -> np.ndarray:
    """Draw the frozen gain matrix of size n; a failure is replicate 0's."""
    rng = replicate_stream(master_seed, n, 0, purpose=_PURPOSE_QUENCHED_GAINS)
    try:
        # Freeze a view: the array itself may be one the model hands out again.
        gains = np.asarray(model.sample(rng, size=(n, n)), dtype=float).view()
    except Exception as exc:
        raise ReplicateError(n, 0, str(exc)) from exc
    gains.flags.writeable = False
    return gains


def _size_tasks(config: ExperimentConfig, n: int) -> list[tuple]:
    """The replicate tasks of size n, each with its size's frozen gains or None."""
    gains = None
    if config.mode == QUENCHED:
        gains = _frozen_gains(config.model, n, config.master_seed)
    return [(config.model, n, rep, config.master_seed, gains)
            for rep in range(config.replicates)]


def _raising(error: Exception):
    """An iterator that raises ``error`` when it is first read."""
    raise error
    yield


def _replicate_value(args) -> float:
    model, n, replicate, master_seed, gains = args
    try:
        rng = replicate_stream(master_seed, n, replicate)
        matrix = generate_cost_matrix(model, n, rng, gain_matrix=gains)
        return solve_max_assignment(matrix).value
    except Exception as exc:
        raise ReplicateError(n, replicate, str(exc)) from exc


def _compensated_sum(values) -> float:
    # Neumaier's variant: the correction also absorbs the case where the
    # incoming term dominates the running total.
    total = 0.0
    correction = 0.0
    for x in values:
        candidate = total + x
        if abs(total) >= abs(x):
            correction += (total - candidate) + x
        else:
            correction += (x - candidate) + total
        total = candidate
    return total + correction


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Simulate every configured size and attach both predictions.

    Let ``jobs = min(parallelism, os.cpu_count())``.  All replicates of all
    sizes go to one process pool (none when ``jobs == 1``) of at most as
    many workers as there are chunks.  Each size is split into at most
    ``jobs`` chunks of ``ceil(replicates / jobs)`` replicates, queued
    largest size first.  The parent draws each frozen gain matrix of a
    quenched run as it builds that size's tasks, which carry it; in
    process it holds one at a time.  The predictions are one
    :func:`~logassign.quantile.prediction_table`, computed while the
    workers solve.  Replicate optima are read back and aggregated in
    replicate order with compensated summation, so reports do not vary
    with ``parallelism``.  Any replicate failure aborts the run, cancels
    the replicates still queued, and raises the :class:`ReplicateError` of
    the first failing (n, replicate) pair in serial order.  A frozen
    matrix that cannot be drawn fails replicate 0 of its size.  A worker
    process that dies raises ``BrokenProcessPool``.
    """
    m, model, sizes = config.replicates, config.model, config.sizes
    # More workers than CPUs only contend, and the pool forks them all at once.
    jobs = min(config.parallelism, os.cpu_count() or 1)
    pool = None
    try:
        if jobs == 1:
            results = itertools.chain.from_iterable(
                map(_replicate_value, _size_tasks(config, n)) for n in sizes)
        else:
            # One chunk per worker and size, and no worker without a chunk.
            chunk = math.ceil(m / jobs)
            chunks = len(sizes) * math.ceil(m / chunk)
            # solve_max_assignment imports scipy.optimize on first use.  Import
            # it before the pool forks its workers, so they inherit it rather
            # than each paying the import, in time and in private memory.
            import scipy.optimize  # noqa: F401
            pool = ProcessPoolExecutor(max_workers=min(jobs, chunks))
            # map submits at once, so the whole queue stands, largest size
            # first and cheapest chunks last, before the parent predicts.
            # Largest first also lets smaller frozen draws reuse the heap that
            # larger draws' temporaries freed.  A draw that fails is raised
            # only when its size is read back, and reading sizes in order
            # raises the first failure in serial order.
            by_size = []
            for n in reversed(sizes):
                try:
                    tasks = _size_tasks(config, n)
                except ReplicateError as error:
                    by_size.append(_raising(error))
                else:
                    by_size.append(pool.map(_replicate_value, tasks, chunksize=chunk))
            results = itertools.chain.from_iterable(reversed(by_size))
        predictions = prediction_table(model, sizes)
        optima = list(results)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    rows = []
    for i, (n, _, _, numeric, asymptotic) in enumerate(predictions):
        values = optima[i * m : (i + 1) * m]
        mean = _compensated_sum(values) / m
        spread = _compensated_sum([(x - mean) ** 2 for x in values])
        std_error = math.sqrt(spread / (m - 1)) / math.sqrt(m)
        rows.append(
            ReportRow(
                n=n,
                empirical_mean=mean,
                std_error=std_error,
                predicted_numeric=numeric,
                predicted_asymptotic=asymptotic,
                rel_err_numeric=abs(numeric - mean) / mean,
                rel_err_asymptotic=abs(asymptotic - mean) / mean,
            )
        )
    return ExperimentReport(
        model=model.spec,
        mode=config.mode,
        replicates=m,
        master_seed=config.master_seed,
        rows=tuple(rows),
    )


def real_text(x: float) -> str:
    """Write a real with 17 significant digits, so that it reads back exactly."""
    return format(float(x), ".17g")


def table_text(columns, records, fmt: str) -> str:
    """Render records, each a tuple in ``columns`` order, as CSV or JSON.

    CSV has a header line, then one line per record; reals carry 17 digits,
    so they read back exactly.  JSON is a list of objects, one per record,
    and strict: NaN, which JSON cannot carry, is written as null.
    """
    if fmt == "json":
        objects = [{key: None if isinstance(value, float) and math.isnan(value) else value
                    for key, value in zip(columns, record)}
                   for record in records]
        return json.dumps(objects, indent=2, allow_nan=False) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown table format {fmt!r}; expected 'csv' or 'json'")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([real_text(x) if isinstance(x, float) else x for x in record]
                     for record in records)
    return out.getvalue()


def _report_records(report: ExperimentReport):
    """Yield each row of the report as a tuple in ``REPORT_COLUMNS`` order."""
    for row in report.rows:
        yield (report.model, report.mode, row.n, report.replicates,
               report.master_seed, *astuple(row)[1:])


def report_csv_text(report: ExperimentReport) -> str:
    """Render a report as CSV, one line per size; reals carry 17 digits."""
    return table_text(REPORT_COLUMNS, _report_records(report), "csv")


def parse_report_csv(text: str) -> ExperimentReport:
    """Rebuild a report from its CSV rendering; exact for 17-digit reals.

    Raises:
        ValueError: for text that is not such a rendering, including text
            the CSV reader itself cannot read.
    """
    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(f"unreadable report: {exc}") from None
    if not records:
        raise ValueError("empty report")
    header = tuple(records[0])
    if header != REPORT_COLUMNS:
        raise ValueError(f"unexpected report header {header!r}")
    meta: tuple[str, str, int, int] | None = None
    rows = []
    for record in records[1:]:
        if not record:
            continue
        if len(record) != len(REPORT_COLUMNS):
            raise ValueError(f"malformed report line {record!r}")
        model, mode, n, m, seed, *floats = record
        this_meta = (model, mode, int(m), int(seed))
        if meta is None:
            meta = this_meta
        elif meta != this_meta:
            raise ValueError("report mixes runs with different metadata")
        rows.append(ReportRow(int(n), *map(float, floats)))
    if meta is None:
        raise ValueError("report has no data rows")
    return ExperimentReport(*meta, rows=tuple(rows))


def report_json_text(report: ExperimentReport) -> str:
    """JSON rendering mirroring the CSV fields one for one; NaN is null."""
    return table_text(REPORT_COLUMNS, _report_records(report), "json")


def compare_report(report: ExperimentReport) -> str:
    """Readable per-size error table with the summary lines below it."""
    lines = [
        f"model={report.model} mode={report.mode} "
        f"m={report.replicates} seed={report.master_seed}",
        f"{'n':>6}  {'empirical':>14}  {'rel_err_numeric':>16}  "
        f"{'rel_err_asymptotic':>18}",
    ]
    for row in report.rows:
        lines.append(
            f"{row.n:>6}  {row.empirical_mean:>14.6f}  "
            f"{row.rel_err_numeric:>16.6f}  {row.rel_err_asymptotic:>18.6f}"
        )
    worst = max(report.rows, key=lambda row: row.rel_err_numeric)
    asym = [row.rel_err_asymptotic for row in report.rows]
    lines.append(
        f"max rel_err_numeric {worst.rel_err_numeric:.6f} at n={worst.n}"
    )
    lines.append(
        f"rel_err_asymptotic range [{min(asym):.6f}, {max(asym):.6f}]"
    )
    return "\n".join(lines) + "\n"
