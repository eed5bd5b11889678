"""Monte Carlo harness comparing simulated optima against predictions.

Every replicate draws its randomness from a Philox stream keyed by
(master seed, size, replicate index), never from shared state, so the
numbers cannot depend on scheduling; workers may run in any order and the
report still comes out bit-identical.  Quenched runs key one extra stream
per size from (master seed, size) for the frozen gain matrix and leave the
replicate streams untouched, which makes a constant-gain quenched run
coincide exactly with its annealed twin.  The module holds no state, so
runs may overlap in threads.

The unit of work is a chunk: a range of one size's replicates.  A
quenched chunk draws its size's frozen matrix itself, read-only, from the
(seed, n) stream, so every copy is bit-identical and a task carries no
array.  In process a size is one chunk.  A run opens one process pool for
all its sizes when ``parallelism`` and the CPU count both exceed 1, with
no more workers than either, nor than it has chunks; each size then goes
out in one chunk per worker, largest size first, so the chunks left at
the end are the cheapest.  The price of a quenched pooled run is one gain
draw per chunk, so at most one per worker and size.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from . import gains as gain_laws
from .gains import GainModel, generate_cost_matrix
from .matching import solve_max_assignment
from .quantile import Prediction, prediction_table

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
# A replicate stream's key is two 64-bit words: the master seed, and
# n << 32 | replicate << 2 | purpose.  These are the widths of its fields.
_SEED_BITS = 64
_SIZE_BITS = 32
_REPLICATE_BITS = 30
_PURPOSE_BITS = 2


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
        sizes = tuple(gain_laws._whole_number("size", n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        for field in ("replicates", "master_seed", "parallelism"):
            value = gain_laws._whole_number(field, getattr(self, field))
            object.__setattr__(self, field, value)
        if not sizes:
            raise ValueError("sizes must be nonempty")
        if any(n < 3 for n in sizes):
            raise ValueError(
                "every size must be at least 3: the asymptotic prediction "
                "needs n >= 3"
            )
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        if max(sizes) >= 2**_SIZE_BITS:
            raise ValueError(f"sizes must stay below 2**{_SIZE_BITS}")
        if not isinstance(self.model, GainModel):
            raise ValueError("model must be a GainModel")
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates for a standard error")
        if self.replicates >= 2**_REPLICATE_BITS:
            raise ValueError(f"replicates must stay below 2**{_REPLICATE_BITS}")
        if self.mode not in (ANNEALED, QUENCHED):
            raise ValueError(f"mode must be {ANNEALED!r} or {QUENCHED!r}")
        _check_key_field("master_seed", self.master_seed, _SEED_BITS)
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.parallelism > 1:
            try:
                pickle.dumps(self.model)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise ValueError(f"model cannot be sent to worker processes ({exc}); "
                                 "use parallelism=1 or a module-level density") from None


@dataclass(frozen=True)
class ReportRow:
    """One size's figures.

    Rows are equal, and hash alike, when they write the same record: each
    float is compared by its :func:`real_text`, so a NaN equals a NaN, as
    in the CSV.  Reports compare their rows this way.
    """

    n: int
    empirical_mean: float
    std_error: float
    predicted_numeric: float
    predicted_asymptotic: float
    rel_err_numeric: float
    rel_err_asymptotic: float

    def _written(self) -> tuple:
        return (self.n, *map(real_text, astuple(self)[1:]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._written() == other._written()

    def __hash__(self):
        return hash(self._written())


@dataclass(frozen=True)
class ExperimentReport:
    model: str
    mode: str
    replicates: int
    master_seed: int
    rows: tuple[ReportRow, ...]


def _check_key_field(name: str, value, bits: int) -> int:
    """``value`` as an int, if it is a whole number that fits in ``bits`` unsigned bits.

    Raises:
        ValueError: naming ``name`` and ``value`` otherwise.
    """
    whole = gain_laws._whole_number(name, value)
    if not 0 <= whole < 2**bits:
        raise ValueError(f"{name} must fit in an unsigned {bits}-bit integer, not {value!r}")
    return whole


def replicate_stream(
    master_seed: int, n: int, replicate: int, purpose: int = _PURPOSE_REPLICATE
) -> np.random.Generator:
    """Counter-based generator for one replicate, independent of run order.

    Distinct keys give distinct streams.  Raises ValueError, naming the
    field, for a key field that is not a whole number or does not fit in
    its bits: 64 for the seed, 32 for n, 30 for the replicate and 2 for
    the purpose.
    """
    master_seed = _check_key_field("master_seed", master_seed, _SEED_BITS)
    n = _check_key_field("n", n, _SIZE_BITS)
    replicate = _check_key_field("replicate", replicate, _REPLICATE_BITS)
    purpose = _check_key_field("purpose", purpose, _PURPOSE_BITS)
    context = (n << (_REPLICATE_BITS + _PURPOSE_BITS)) | (replicate << _PURPOSE_BITS) | purpose
    key = np.array([master_seed, context], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _frozen_gains(model: GainModel, n: int, master_seed: int) -> np.ndarray:
    """Draw the frozen gain matrix of size n, read-only; a failed draw is replicate 0's.

    The matrix is checked where its costs are drawn, by every replicate in
    :func:`generate_cost_matrix`, so a bad one fails replicate 0 first.
    """
    rng = replicate_stream(master_seed, n, 0, purpose=_PURPOSE_QUENCHED_GAINS)
    try:
        # Freeze a view: the array itself may be one the model hands out again.
        gains = np.asarray(model.sample(rng, size=(n, n)), dtype=float).view()
    except Exception as exc:
        raise ReplicateError(n, 0, str(exc)) from exc
    gains.flags.writeable = False
    return gains


def _replicate_value(args) -> float:
    model, n, replicate, master_seed, gains = args
    try:
        rng = replicate_stream(master_seed, n, replicate)
        return solve_max_assignment(generate_cost_matrix(model, n, rng, gains)).value
    except Exception as exc:
        raise ReplicateError(n, replicate, str(exc)) from exc


def _chunk_values(task) -> list[float]:
    """The optima of a chunk's replicates; a quenched chunk draws its frozen gains."""
    model, n, replicates, master_seed, quenched = task
    gains = _frozen_gains(model, n, master_seed) if quenched else None
    return [_replicate_value((model, n, rep, master_seed, gains)) for rep in replicates]


def _report_row(prediction: Prediction, optima: list[float]) -> ReportRow:
    """One size's report row, from that size's replicate optima.

    Both sums are correctly rounded (``math.fsum``), so the row does not
    depend on the order of the optima.
    """
    n, _, _, numeric, asymptotic = prediction
    m = len(optima)
    mean = math.fsum(optima) / m
    spread = math.fsum((x - mean) ** 2 for x in optima)
    std_error = math.sqrt(spread / (m - 1)) / math.sqrt(m)
    return ReportRow(n, mean, std_error, numeric, asymptotic,
                     abs(numeric - mean) / mean, abs(asymptotic - mean) / mean)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Simulate every configured size and attach both predictions.

    The predictions are one :func:`~logassign.quantile.prediction_table`,
    computed first, so a size that cannot be predicted fails the run before
    any draw.  Let ``jobs = min(parallelism, os.cpu_count())``.  Each size
    is split into at most ``jobs`` chunks of ``ceil(replicates / jobs)``
    replicates, and one expression maps the chunks of every size, largest
    size first.  In process (``jobs == 1``) the mapper is the builtin lazy
    ``map``: each size is one chunk, run when its results are read, so a
    quenched run holds one frozen matrix at a time.  Otherwise it is the
    ``map`` of one process pool of at most as many workers as there are
    chunks, which queues them all at once.  A quenched chunk draws
    its size's frozen gain matrix in the process that runs it, so the
    parent draws none and no task carries one; each replicate draws its
    costs through :func:`~logassign.gains.generate_cost_matrix`, which
    checks the gains it is given.  A size's mean and spread
    come from correctly rounded sums of its replicate optima
    (``math.fsum``), so they depend on neither the order nor the chunks the
    optima come back in, and reports do not vary with ``parallelism``.
    Any replicate failure aborts the run, cancels the chunks still queued,
    and raises the :class:`ReplicateError` of the first failing
    (n, replicate) pair in serial order.  A frozen matrix that cannot be
    drawn, or is not n x n positive finite reals, fails replicate 0 of its
    size.  A worker process that dies raises
    ``BrokenProcessPool``.
    """
    m, model, sizes = config.replicates, config.model, config.sizes
    predictions = prediction_table(model, sizes)
    # More workers than CPUs only contend, and the pool forks them all at once.
    jobs = min(config.parallelism, os.cpu_count() or 1)
    chunk = math.ceil(m / jobs)

    def size_chunks(n):
        return [(model, n, range(m)[start : start + chunk], config.master_seed,
                 config.mode == QUENCHED) for start in range(0, m, chunk)]

    pool, mapper = None, map
    try:
        if jobs > 1:
            # One chunk per worker and size, and no worker without a chunk.
            chunks = len(sizes) * math.ceil(m / chunk)
            # solve_max_assignment imports scipy.optimize on first use.  Import
            # it before the pool forks its workers, so they inherit it rather
            # than each paying the import, in time and in private memory.
            import scipy.optimize  # noqa: F401
            pool = ProcessPoolExecutor(max_workers=min(jobs, chunks))
            mapper = pool.map
        # The pool's map submits at once, so the whole queue stands, largest
        # size first and cheapest chunks last.  The builtin map is lazy and
        # runs each size's chunk only as it is read back.
        by_size = [mapper(_chunk_values, size_chunks(n)) for n in reversed(sizes)][::-1]
        # Sizes are read back smallest first only so that the first failure
        # raised is the first in serial order; the sums need no order.
        rows = tuple(_report_row(prediction, [x for values in results for x in values])
                     for prediction, results in zip(predictions, by_size))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return ExperimentReport(
        model=model.spec,
        mode=config.mode,
        replicates=m,
        master_seed=config.master_seed,
        rows=rows,
    )


def real_text(x: float) -> str:
    """Write a real with 17 significant digits, so that it reads back exactly."""
    return format(float(x), ".17g")


def table_text(columns, records, fmt: str) -> str:
    """Render records, each a tuple in ``columns`` order, as CSV or JSON.

    CSV has a header line, then one line per record; reals carry 17 digits,
    so they read back exactly.  Every other field is written and quoted as
    the csv module writes it.  JSON is a list of objects, one per record,
    and strict: NaN, which JSON cannot carry, is written as null.
    """
    if fmt == "json":
        objects = [{key: None if isinstance(value, float) and math.isnan(value) else value
                    for key, value in zip(columns, record)}
                   for record in records]
        return json.dumps(objects, indent=2, allow_nan=False) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown table format {fmt!r}; expected 'csv' or 'json'")
    # One % template per record layout: %.17g for a real, which is
    # real_text, %d for an int, and %s for any other field, which
    # _csv_field writes first.
    layouts = {}
    lines = []
    for record in (columns, *records):
        if not isinstance(record, tuple):
            record = tuple(record)
        kinds = tuple(map(type, record))
        layout = layouts.get(kinds)
        if layout is None:
            fields = ["%.17g" if issubclass(kind, float) else "%d" if kind is int else None
                      for kind in kinds]
            layout = layouts[kinds] = (",".join(field or "%s" for field in fields) + "\n",
                                       None in fields)
        template, written = layout
        if written:
            record = tuple(x if isinstance(x, float) or type(x) is int else _csv_field(x)
                           for x in record)
            if record == ("",):
                record = ('""',)  # as csv does, so the line is not blank
        lines.append(template % record)
    return "".join(lines)


def _csv_field(value) -> str:
    """A field that is neither a real nor an int, as the csv module writes it."""
    text = "" if value is None else str(value)
    if not any(c in text for c in ',"\r\n'):
        return text
    # csv quotes a field that holds a character of the line terminator, so
    # this one quotes a lone \r as it quotes \n.
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow((text,))
    return out.getvalue()[:-2]


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
