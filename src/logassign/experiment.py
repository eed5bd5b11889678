"""Monte Carlo harness comparing simulated optima against predictions.

Every replicate draws its randomness from a Philox stream keyed by
(master seed, size, replicate index), never from shared state, so the
numbers cannot depend on scheduling; workers may run in any order and the
report still comes out bit-identical.  Quenched runs key one extra stream
per size from (master seed, size) for the frozen gain matrix and leave the
replicate streams untouched, which makes a constant-gain quenched run
coincide exactly with its annealed twin.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gains import (
    ConstantGain,
    ExponentialGain,
    GainModel,
    ParetoGain,
    UniformGain,
    generate_cost_matrix,
    model_spec_string,
)
from .matching import solve_max_assignment
from .quantile import predicted_max

__all__ = [
    "ANNEALED",
    "QUENCHED",
    "REPORT_COLUMNS",
    "ExperimentConfig",
    "ExperimentReport",
    "ReplicateError",
    "ReportRow",
    "asymptotic_prediction",
    "compare_report",
    "parse_report_csv",
    "replicate_stream",
    "report_csv_text",
    "report_json_text",
    "run_experiment",
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


class ReplicateError(RuntimeError):
    """A single replicate failed; the whole run is aborted."""

    def __init__(self, n: int, replicate: int, reason: str):
        super().__init__(f"replicate {replicate} at n = {n} failed: {reason}")
        self.n = n
        self.replicate = replicate


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


def _replicate_value(args) -> float:
    model, n, replicate, master_seed, gain_matrix = args
    rng = replicate_stream(master_seed, n, replicate)
    matrix = generate_cost_matrix(model, n, rng, gain_matrix=gain_matrix)
    return solve_max_assignment(matrix).value


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


def _optimum_values(config: ExperimentConfig, n: int, gain_matrix) -> list[float]:
    tasks = [
        (config.model, n, rep, config.master_seed, gain_matrix)
        for rep in range(config.replicates)
    ]
    values: list[float] = []
    if config.parallelism == 1:
        for rep, task in enumerate(tasks):
            try:
                values.append(_replicate_value(task))
            except Exception as exc:
                raise ReplicateError(n, rep, str(exc)) from exc
        return values
    chunk = max(1, config.replicates // (4 * config.parallelism))
    with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
        results = pool.map(_replicate_value, tasks, chunksize=chunk)
        rep = 0
        try:
            for value in results:
                values.append(value)
                rep += 1
        except Exception as exc:
            raise ReplicateError(n, rep, str(exc)) from exc
    return values


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Simulate every configured size and attach both predictions.

    Replicate optima are aggregated in replicate order with compensated
    summation after all workers finish, so reports do not vary with
    ``parallelism``.  Any replicate failure aborts the run with the failing
    (n, replicate) pair in the raised :class:`ReplicateError`.
    """
    rows = []
    m = config.replicates
    for n in config.sizes:
        gain_matrix = None
        if config.mode == QUENCHED:
            rng = replicate_stream(
                config.master_seed, n, 0, purpose=_PURPOSE_QUENCHED_GAINS
            )
            gain_matrix = config.model.sample(rng, size=(n, n))
        values = _optimum_values(config, n, gain_matrix)
        mean = _compensated_sum(values) / m
        spread = _compensated_sum([(x - mean) ** 2 for x in values])
        std_error = math.sqrt(spread / (m - 1)) / math.sqrt(m)
        numeric = predicted_max(config.model, n)
        asymptotic = asymptotic_prediction(config.model, n)
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
        model=model_spec_string(config.model),
        mode=config.mode,
        replicates=m,
        master_seed=config.master_seed,
        rows=tuple(rows),
    )


def asymptotic_prediction(model: GainModel, n: int) -> float:
    """One-term growth law for the expected optimum at size n.

    Defined for n >= 3 so the iterated logarithm is positive; it only
    becomes a serious approximation once log log n clears 1 (n >= 16).
    """
    n = int(n)
    if n < 3:
        raise ValueError("asymptotic prediction needs n >= 3")
    if isinstance(model, ConstantGain):
        return n * math.log(math.log(n))
    if isinstance(model, ExponentialGain):
        return 2.0 * n * math.log(math.log(n))
    if isinstance(model, ParetoGain):
        return n * math.log(n) / (model.alpha - 1.0)
    if isinstance(model, UniformGain):
        return n * math.log(math.log(n))
    raise ValueError(
        f"no closed-form growth law for {type(model).__name__}"
    )


def _real(x: float) -> str:
    return format(float(x), ".17g")


def report_csv_text(report: ExperimentReport) -> str:
    """Render a report as CSV, one line per size; reals carry 17 digits."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in report.rows:
        writer.writerow(
            [
                report.model,
                report.mode,
                str(row.n),
                str(report.replicates),
                str(report.master_seed),
                _real(row.empirical_mean),
                _real(row.std_error),
                _real(row.predicted_numeric),
                _real(row.predicted_asymptotic),
                _real(row.rel_err_numeric),
                _real(row.rel_err_asymptotic),
            ]
        )
    return out.getvalue()


def parse_report_csv(text: str) -> ExperimentReport:
    """Rebuild a report from its CSV rendering; exact for 17-digit reals."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ValueError("empty report") from None
    if header != REPORT_COLUMNS:
        raise ValueError(f"unexpected report header {header!r}")
    meta: tuple[str, str, int, int] | None = None
    rows = []
    for record in reader:
        if not record:
            continue
        if len(record) != len(REPORT_COLUMNS):
            raise ValueError(f"malformed report line {record!r}")
        this_meta = (record[0], record[1], int(record[3]), int(record[4]))
        if meta is None:
            meta = this_meta
        elif meta != this_meta:
            raise ValueError("report mixes runs with different metadata")
        rows.append(
            ReportRow(
                n=int(record[2]),
                empirical_mean=float(record[5]),
                std_error=float(record[6]),
                predicted_numeric=float(record[7]),
                predicted_asymptotic=float(record[8]),
                rel_err_numeric=float(record[9]),
                rel_err_asymptotic=float(record[10]),
            )
        )
    if meta is None:
        raise ValueError("report has no data rows")
    return ExperimentReport(
        model=meta[0],
        mode=meta[1],
        replicates=meta[2],
        master_seed=meta[3],
        rows=tuple(rows),
    )


def report_json_text(report: ExperimentReport) -> str:
    """JSON rendering mirroring the CSV fields one for one."""
    records = []
    for row in report.rows:
        records.append(
            {
                "model": report.model,
                "mode": report.mode,
                "n": row.n,
                "m": report.replicates,
                "seed": report.master_seed,
                "empirical_mean": row.empirical_mean,
                "std_error": row.std_error,
                "predicted_numeric": row.predicted_numeric,
                "predicted_asymptotic": row.predicted_asymptotic,
                "rel_err_numeric": row.rel_err_numeric,
                "rel_err_asymptotic": row.rel_err_asymptotic,
            }
        )
    return json.dumps(records, indent=2) + "\n"


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
