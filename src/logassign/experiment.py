"""Monte Carlo harness comparing simulated optima against predictions.

A report is the tuple of its rows, one :class:`ReportRow` per size, whose
fields are the report's columns: the run's model, mode, replicate count
``m`` and seed, then the size's figures.  The CSV and JSON renderings
write the rows as they are, and :func:`parse_report_csv` reads them back.

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
no more workers than either, nor than it has chunks.  Each size is then
cut into one chunk per worker, and the run's chunks form one plan,
largest size first, so the chunks left at the end are the cheapest.
Each worker gets the plan in one task and takes chunks from one shared
counter until none is left (self-scheduling; Tang and Yew, ICPP 1986),
so a worker loads the law once and sends its results back in one message.
The price of a quenched pooled run is one gain draw per chunk, so at most
one per worker and size.

:func:`tail_check` tests the identity the predictions rest on,
P(cost >= r) = L(e^r - 1), against costs drawn from a stream of its own,
keyed by the seed alone, and returns one :class:`TailFrequency` row per
threshold.
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
import os
import pickle
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import gains as gain_laws
from .gains import GainModel, generate_cost_matrix, sample_cost
from .matching import solve_max_assignment
from .quantile import Prediction, prediction_table, tail_probabilities

__all__ = [
    "ANNEALED",
    "QUENCHED",
    "REPORT_COLUMNS",
    "TAIL_CHECK_SIGMAS",
    "ExperimentConfig",
    "ExperimentReport",
    "ReplicateError",
    "ReportRow",
    "TailFrequency",
    "compare_report",
    "parse_report_csv",
    "replicate_stream",
    "report_csv_text",
    "report_json_text",
    "run_experiment",
    "table_text",
    "tail_check",
]

ANNEALED = "annealed"
QUENCHED = "quenched"

_PURPOSE_REPLICATE = 0
_PURPOSE_QUENCHED_GAINS = 1
_PURPOSE_TAIL_CHECK = 2
# A replicate stream's key is two 64-bit words: the master seed, and
# n << 32 | replicate << 2 | purpose.  These are the widths of its fields.
_SEED_BITS = 64
_SIZE_BITS = 32
_REPLICATE_BITS = 30
_PURPOSE_BITS = 2

# A tail check fails where a z-score lies more than this many standard
# errors from 0.
TAIL_CHECK_SIGMAS = 4.0
# tail_check peaks while it draws: the gains plus the one buffer that fades
# and costs share, 16 bytes per sample for every law, so 10**8 samples
# already need 1.6 GB.  A gain whose g*f may overflow adds up to 14 more.
_MIN_SAMPLES = 10**4
_MAX_SAMPLES = 10**8


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


class ReportRow(NamedTuple):
    """One size's row of a report; its fields are the columns.

    ``m`` is the row's replicate count and ``seed`` the run's master seed.
    Rows are equal, and hash alike, when they write the same record: each
    of the six figures after ``seed`` is compared by its :func:`real_text`,
    so a NaN equals a NaN, as in the CSV.  Reports, which are tuples of
    rows, compare their rows this way.
    """

    model: str
    mode: str
    n: int
    m: int
    seed: int
    empirical_mean: float
    std_error: float
    predicted_numeric: float
    predicted_asymptotic: float
    rel_err_numeric: float
    rel_err_asymptotic: float

    def _written(self) -> tuple:
        return (*self[:5], *map(real_text, self[5:]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._written() == other._written()

    # tuple's own != does not consult __eq__.
    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self._written())


REPORT_COLUMNS = ReportRow._fields
# A report is its rows, one per size in increasing order.
ExperimentReport = tuple[ReportRow, ...]


def _check_key_field(name: str, value, bits: int) -> int:
    """``value`` as an int, if it is a whole number that fits in ``bits`` unsigned bits.

    Raises:
        ValueError: naming ``name`` and ``value`` otherwise.
    """
    whole = gain_laws._whole_number(name, value)
    if not 0 <= whole < 2**bits:
        raise ValueError(f"{name} must fit in an unsigned {bits}-bit integer, not {value!r}")
    return whole


class _PhiloxKey(ISeedSequence):
    """A Philox key handed over as seed state: ``generate_state`` returns its words.

    ``Philox(_PhiloxKey(key))`` has the state of ``Philox(key=key)``, whose
    ``__init__`` would first read 128 bits of OS entropy only to replace them.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def replicate_stream(
    master_seed: int, n: int, replicate: int, purpose: int = _PURPOSE_REPLICATE
) -> np.random.Generator:
    """Counter-based generator for one replicate, independent of run order.

    The stream is Philox keyed by two 64-bit words, the master seed and
    ``n << 32 | replicate << 2 | purpose``; the key is handed to Philox as
    its seed state, so no OS entropy is read.  Distinct keys give distinct
    streams.  Raises ValueError, naming the field, for a key field that is
    not a whole number or does not fit in its bits: 64 for the seed, 32
    for n, 30 for the replicate and 2 for the purpose.
    """
    master_seed = _check_key_field("master_seed", master_seed, _SEED_BITS)
    n = _check_key_field("n", n, _SIZE_BITS)
    replicate = _check_key_field("replicate", replicate, _REPLICATE_BITS)
    purpose = _check_key_field("purpose", purpose, _PURPOSE_BITS)
    context = (n << (_REPLICATE_BITS + _PURPOSE_BITS)) | (replicate << _PURPOSE_BITS) | purpose
    key = np.array([master_seed, context], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


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


# The run's shared chunk counter, set by _share_counter in each pool worker
# and never in the process that runs the experiment.
_chunk_counter = None


def _share_counter(counter) -> None:
    """Pool initializer: keep the run's chunk counter for :func:`_take_chunks`."""
    global _chunk_counter
    _chunk_counter = counter


def _take_chunks(plan) -> list[tuple[int, list[float] | ReplicateError]]:
    """Run chunks of ``plan``, each index taken from the shared counter, until none is left.

    Returns ``(index, optima)`` for each chunk run here, or ``(index,
    error)`` for a chunk that stopped at its first :class:`ReplicateError`.
    """
    done = []
    while True:
        with _chunk_counter.get_lock():
            index = _chunk_counter.value
            _chunk_counter.value = index + 1
        if index >= len(plan):
            return done
        try:
            done.append((index, _chunk_values(plan[index])))
        except ReplicateError as exc:
            done.append((index, exc))


def _pooled_optima(chunks: list[tuple], jobs: int) -> list[list[float]]:
    """Run the chunks in one pool of at most ``jobs`` workers; each size's optima, in order.

    The chunks form one plan, largest size first, and each worker gets the
    plan in one task.  Raises the first failure in serial order.
    """
    # Stable, so each size's chunks stay in replicate order.
    plan = sorted(chunks, key=lambda task: task[1], reverse=True)
    workers = min(jobs, len(plan))
    # solve_max_assignment imports scipy.optimize on first use.  Import it
    # before the pool forks its workers, so they inherit it rather than each
    # paying the import, in time and in private memory.
    import scipy.optimize  # noqa: F401
    counter = multiprocessing.Value("q", 0)
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_share_counter,
                               initargs=(counter,))
    try:
        done = dict(pair for pairs in pool.map(_take_chunks, [plan] * workers)
                    for pair in pairs)
    finally:
        # Should the run be aborted, no worker takes another chunk.
        counter.value = len(plan)
        pool.shutdown(cancel_futures=True)
    failures = [values for values in done.values() if isinstance(values, ReplicateError)]
    if failures:
        # Each chunk stops at its first failure, so the least is the first.
        raise min(failures, key=lambda exc: (exc.n, exc.replicate))
    optima = {}
    for index, task in enumerate(plan):
        optima.setdefault(task[1], []).extend(done[index])
    return [optima[n] for n in sorted(optima)]


def _report_row(config: ExperimentConfig, prediction: Prediction,
                optima: list[float]) -> ReportRow:
    """One size's report row, from the run's config and that size's replicate optima.

    Both sums are correctly rounded (``math.fsum``), so the row does not
    depend on the order of the optima.
    """
    n, _, _, numeric, asymptotic = prediction
    m = config.replicates
    mean = math.fsum(optima) / m
    spread = math.fsum((x - mean) ** 2 for x in optima)
    std_error = math.sqrt(spread / (m - 1)) / math.sqrt(m)
    return ReportRow(config.model.spec, config.mode, n, m, config.master_seed, mean,
                     std_error, numeric, asymptotic, abs(numeric - mean) / mean,
                     abs(asymptotic - mean) / mean)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Simulate every configured size and attach both predictions, one row per size.

    Each :class:`ReportRow` carries the config's model spec, mode,
    replicate count and master seed beside its size's figures.

    The predictions are one :func:`~logassign.quantile.prediction_table`,
    computed first, so a size that cannot be predicted fails the run before
    any draw.  Let ``jobs = min(parallelism, os.cpu_count())``.  Each size
    is split into at most ``jobs`` chunks of ``ceil(replicates / jobs)``
    replicates.  In process (``jobs == 1``) each size is one chunk, run by
    the builtin lazy ``map`` when its row reads it, so a quenched run holds
    one frozen matrix at a time.  Otherwise one process pool of at most as
    many workers as there are chunks runs them all: the chunks form one
    plan, largest size first, each worker gets the plan in one task, takes
    the next chunk index from a shared ``multiprocessing.Value`` until none
    is left, and sends back all its results in one message.  So the law is
    unpickled once per worker, and the cheapest chunks are taken last.  A
    quenched chunk draws its size's frozen gain matrix in the process that
    runs it, so the parent draws none and no task carries one; each
    replicate draws its costs through
    :func:`~logassign.gains.generate_cost_matrix`, which checks the gains
    it is given.  A size's mean and spread come from correctly rounded sums
    of its replicate optima (``math.fsum``), so they depend on neither the
    order nor the chunks the optima come back in, and reports do not vary
    with ``parallelism``.  A chunk stops at its first failing replicate,
    and a run with a failure raises the :class:`ReplicateError` of the
    first failing (n, replicate) pair in serial order, after its pool has
    run its other chunks.  A run aborted while it waits for its pool, say
    by an interrupt, lets each worker finish the chunk it holds and take no
    other.  A frozen matrix that cannot be drawn, or is not
    n x n positive finite reals, fails replicate 0 of its size.  A worker
    process that dies raises ``BrokenProcessPool``.
    """
    m, model, sizes = config.replicates, config.model, config.sizes
    predictions = prediction_table(model, sizes)
    # More workers than CPUs only contend, and the pool forks them all at once.
    jobs = min(config.parallelism, os.cpu_count() or 1)
    chunk = math.ceil(m / jobs)
    chunks = [(model, n, range(m)[start : start + chunk], config.master_seed,
               config.mode == QUENCHED) for n in sizes for start in range(0, m, chunk)]
    # In process each size is one chunk, run only as its row is read.
    optima = _pooled_optima(chunks, jobs) if jobs > 1 else map(_chunk_values, chunks)
    return tuple(_report_row(config, prediction, values)
                 for prediction, values in zip(predictions, optima))


class TailFrequency(NamedTuple):
    """One threshold's row of :func:`tail_check`; its fields are the columns."""

    r: float
    empirical: float
    theoretical: float
    z_score: float


def tail_check(
    model: GainModel, thresholds: Iterable[float], samples: int = 1_000_000, seed: int = 0
) -> list[TailFrequency]:
    """Sampled cost tail frequencies beside the transform's, one row per threshold r.

    ``samples`` costs are drawn through
    :func:`~logassign.gains.sample_cost` from the tail-check stream of
    ``seed``.  Each row sets the fraction of costs at or above r beside
    P(cost >= r) = L(e^r - 1) from
    :func:`~logassign.quantile.tail_probabilities`, and gives their
    difference in standard errors sqrt(p (1 - p) / samples).  Where that
    error is 0, the z-score is 0 if the two agree, and otherwise an
    infinity of the sign of their difference.  A row whose |z| exceeds
    :data:`TAIL_CHECK_SIGMAS` fails the check.

    Raises, before any cost is drawn and in this order:
        ValueError: unless ``samples`` is a whole number from 10**4 to
            10**8; unless ``seed`` fits in 64 unsigned bits; unless every
            threshold lies in [0, log(DBL_MAX)].
        QuadratureError: where the transform fails at a threshold.

    Then, after the draw:
        ValueError: unless every drawn gain is a positive finite real, as
            :func:`~logassign.gains.sample_cost` checks.
    """
    samples = gain_laws._whole_number("samples", samples)
    if not _MIN_SAMPLES <= samples <= _MAX_SAMPLES:
        raise ValueError(f"--samples must lie between {_MIN_SAMPLES} and {_MAX_SAMPLES}")
    rng = replicate_stream(seed, 0, 0, purpose=_PURPOSE_TAIL_CHECK)
    thresholds = [float(r) for r in thresholds]
    curve = tail_probabilities(model, thresholds)
    costs = sample_cost(model, rng, size=samples)
    rows = []
    for r, theoretical in zip(thresholds, curve):
        empirical = float(np.mean(costs >= r))
        spread = math.sqrt(theoretical * (1.0 - theoretical) / samples)
        if spread == 0.0:
            z = 0.0 if empirical == theoretical else math.copysign(
                math.inf, empirical - theoretical)
        else:
            z = (empirical - theoretical) / spread
        rows.append(TailFrequency(r, empirical, theoretical, z))
    return rows


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


def report_csv_text(report: ExperimentReport) -> str:
    """Render a report as CSV, one line per size; reals carry 17 digits."""
    return table_text(REPORT_COLUMNS, report, "csv")


def parse_report_csv(text: str) -> ExperimentReport:
    """Rebuild a report, its rows in file order, from its CSV rendering.

    Each line is one :class:`ReportRow`, exact for 17-digit reals; blank
    lines are skipped.

    Raises:
        ValueError: for text that is not such a rendering, including text
            the CSV reader itself cannot read, and for a report whose rows
            differ in model, mode, m or seed, at the first line that
            differs from the first row.
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
    rows: list[ReportRow] = []
    for record in records[1:]:
        if not record:
            continue
        if len(record) != len(REPORT_COLUMNS):
            raise ValueError(f"malformed report line {record!r}")
        model, mode, n, m, seed, *floats = record
        meta = (model, mode, int(m), int(seed))
        if rows and meta != (rows[0].model, rows[0].mode, rows[0].m, rows[0].seed):
            raise ValueError("report mixes runs with different metadata")
        rows.append(ReportRow(model, mode, int(n), *meta[2:], *map(float, floats)))
    if not rows:
        raise ValueError("report has no data rows")
    return tuple(rows)


def report_json_text(report: ExperimentReport) -> str:
    """JSON rendering mirroring the CSV fields one for one; NaN is null."""
    return table_text(REPORT_COLUMNS, report, "json")


def compare_report(report: ExperimentReport) -> str:
    """Readable per-size error table with the summary lines below it.

    The header line gives the first row's model, mode, m and seed; the
    report must have at least one row.
    """
    first = report[0]
    lines = [
        f"model={first.model} mode={first.mode} m={first.m} seed={first.seed}",
        f"{'n':>6}  {'empirical':>14}  {'rel_err_numeric':>16}  "
        f"{'rel_err_asymptotic':>18}",
    ]
    for row in report:
        lines.append(
            f"{row.n:>6}  {row.empirical_mean:>14.6f}  "
            f"{row.rel_err_numeric:>16.6f}  {row.rel_err_asymptotic:>18.6f}"
        )
    worst = max(report, key=lambda row: row.rel_err_numeric)
    asym = [row.rel_err_asymptotic for row in report]
    lines.append(
        f"max rel_err_numeric {worst.rel_err_numeric:.6f} at n={worst.n}"
    )
    lines.append(
        f"rel_err_asymptotic range [{min(asym):.6f}, {max(asym):.6f}]"
    )
    return "\n".join(lines) + "\n"
