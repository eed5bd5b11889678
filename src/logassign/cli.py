"""Command-line front end: predictions, simulations, and diagnostics.

Each command body calls the library directly, and the tables of
``predict``, ``simulate`` and ``tail-check`` are written by
:func:`~logassign.experiment.table_text`.  :class:`LibraryCommand`, the
class of every command, holds the one map from library exceptions to exit
codes:

- ``ValueError``: bad arguments or input files, a usage error (exit 2);
- ``BracketError``, ``QuadratureError``: numeric non-convergence (exit 3);
- ``ReplicateError``, ``BrokenProcessPool``: simulation failure (exit 4).

A failed tail check exits 5 and success 0.  Any other exception is a bug
and propagates as a traceback.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import click
import numpy as np

from .experiment import (
    ANNEALED,
    QUENCHED,
    ExperimentConfig,
    ReplicateError,
    _PURPOSE_TAIL_CHECK,
    compare_report,
    parse_report_csv,
    real_text,
    replicate_stream,
    report_csv_text,
    report_json_text,
    run_experiment,
    table_text,
)
from .gains import QuadratureError, parse_model_spec, sample_cost, MODEL_SPEC_GRAMMAR
from .matching import solve_max_assignment
from .quantile import BracketError, Prediction, prediction_table, tail_probability

EXIT_NUMERIC = 3
EXIT_SIMULATION = 4
EXIT_TAIL_CHECK = 5

_MODEL_HELP = f"MODEL is a gain model spec: {MODEL_SPEC_GRAMMAR} (case-insensitive)."
_SIZES_HELP = (
    "SIZES is either a comma list like 10,20,50 or a range a..b:step like "
    "10..100:10 (inclusive of b when step divides b-a)."
)
# tail-check peaks while it draws: the gains plus the one buffer that fades
# and costs share, 16 bytes per sample for every law, so 10**8 samples
# already need 1.6 GB.
_MAX_SAMPLES = 10**8


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def parse_sizes(text: str) -> tuple[int, ...]:
    """Parse the SIZES grammar; raises click.UsageError on bad input."""
    text = text.strip()
    try:
        if ".." in text:
            span, _, step_text = text.partition(":")
            start_text, _, stop_text = span.partition("..")
            start, stop = int(start_text), int(stop_text)
            step = int(step_text) if step_text else 1
            if step < 1 or stop < start:
                raise ValueError
            return tuple(range(start, stop + 1, step))
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad sizes {text!r}; {_SIZES_HELP}") from None


@click.group()
@click.version_option(package_name="logassign")
def main():
    """Random assignment with log(1 + gain * fade) link costs.

    Predict the expected optimum from the gain law, simulate it by solving
    sampled instances exactly, and compare the two.
    """


class LibraryCommand(click.Command):
    """A command whose library exceptions end in the exit codes of the module map."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from None
        except (BracketError, QuadratureError) as exc:
            _fail(EXIT_NUMERIC, str(exc))
        except (ReplicateError, BrokenProcessPool) as exc:
            _fail(EXIT_SIMULATION, str(exc))


main.command_class = LibraryCommand


@main.command(help=f"Tabulate predictions for each size.\n\n{_MODEL_HELP}\n\n{_SIZES_HELP}")
@click.argument("model_spec", metavar="MODEL")
@click.argument("sizes_text", metavar="SIZES")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="Output format.")
def predict(model_spec: str, sizes_text: str, fmt: str):
    table = prediction_table(parse_model_spec(model_spec), parse_sizes(sizes_text))
    click.echo(table_text(Prediction._fields, table, fmt), nl=False)


@main.command(help=f"Run the Monte Carlo experiment.\n\n{_MODEL_HELP}\n\n{_SIZES_HELP}")
@click.argument("model_spec", metavar="MODEL")
@click.option("--sizes", "sizes_text", metavar="SIZES", required=True,
              help="Matrix sizes to simulate.")
@click.option("--replicates", default=300, show_default=True,
              help="Instances solved per size.")
@click.option("--mode", type=click.Choice([ANNEALED, QUENCHED]), default=ANNEALED,
              show_default=True,
              help="Fresh gains per instance, or one frozen gain matrix per size.")
@click.option("--seed", default=0, show_default=True, help="Master seed.")
@click.option("--jobs", default=1, show_default=True,
              help="Worker processes; results do not depend on this.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="Output format.")
@click.option("--output", "-o", default="-", show_default=True,
              help="Destination file, or - for stdout.")
def simulate(model_spec, sizes_text, replicates, mode, seed, jobs, fmt, output):
    config = ExperimentConfig(
        model=parse_model_spec(model_spec),
        sizes=parse_sizes(sizes_text),
        replicates=replicates,
        mode=mode,
        master_seed=seed,
        parallelism=jobs,
    )
    # The file is written only once the report is whole, so a failed run
    # leaves it as it was.  A destination that cannot be written fails first:
    # a directory, an existing file that may not be written, or a new file
    # whose parent is not a writable directory.
    target = Path(output)
    home = target if target.exists() else target.parent
    if output != "-" and (target.is_dir() or not os.access(home, os.W_OK)
                          or home == target.parent and not home.is_dir()):
        raise click.UsageError(f"cannot write {output!r}: it must be a writable file "
                               "or a new file in a writable directory")
    report = run_experiment(config)
    text = report_csv_text(report) if fmt == "csv" else report_json_text(report)
    if output == "-":
        click.echo(text, nl=False)
    else:
        target.write_text(text)


@main.command(help="Summarize the errors in a saved simulation report (CSV).")
@click.argument("report_path", type=click.Path(exists=True, dir_okay=False))
def compare(report_path: str):
    report = parse_report_csv(Path(report_path).read_text())
    click.echo(compare_report(report), nl=False)


@main.command("tail-check",
              help=f"Check sampled tail frequencies against the transform.\n\n{_MODEL_HELP}")
@click.argument("model_spec", metavar="MODEL")
@click.option("--thresholds", default="0.5,1,2,3", show_default=True,
              help="Comma list of cost thresholds r.")
@click.option("--samples", default=1_000_000, show_default=True,
              help="Number of cost draws, 10000 to 10**8; each takes about 16 bytes "
                   "of memory.")
@click.option("--seed", default=0, show_default=True, help="Master seed.")
def tail_check(model_spec, thresholds, samples, seed):
    model = parse_model_spec(model_spec)
    try:
        grid = tuple(float(part) for part in thresholds.split(","))
    except ValueError:
        raise click.UsageError(f"bad thresholds {thresholds!r}") from None
    if not 10_000 <= samples <= _MAX_SAMPLES:
        raise click.UsageError(f"--samples must lie between 10000 and {_MAX_SAMPLES}")
    # The seed, every threshold and its probability are checked before the draw.
    rng = replicate_stream(seed, 0, 0, purpose=_PURPOSE_TAIL_CHECK)
    curve = [tail_probability(model, r) for r in grid]
    costs = sample_cost(model, rng, size=samples)
    rows = []
    for r, theoretical in zip(grid, curve):
        empirical = float(np.mean(costs >= r))
        spread = math.sqrt(theoretical * (1.0 - theoretical) / samples)
        if spread == 0.0:
            z = 0.0 if empirical == theoretical else math.inf
        else:
            z = (empirical - theoretical) / spread
        rows.append((r, empirical, theoretical, z))
    click.echo(table_text(("r", "empirical", "theoretical", "z_score"), rows, "csv"), nl=False)
    if any(abs(z) > 4.0 for *_, z in rows):
        _fail(EXIT_TAIL_CHECK, "an empirical tail frequency sits more than 4 sigma out")


@main.command(help="Solve one max-assignment instance from a CSV matrix file.")
@click.argument("matrix_path", type=click.Path(exists=True, dir_okay=False))
def solve(matrix_path: str):
    rows = []
    for number, line in enumerate(Path(matrix_path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            raise click.UsageError(f"unparseable matrix line {line!r}") from None
        if rows and len(row) != len(rows[0]):
            raise click.UsageError(f"matrix line {number} {line!r} has {len(row)} entries, "
                                   f"the first row {len(rows[0])}")
        rows.append(row)
    result = solve_max_assignment(rows)
    click.echo(f"value {real_text(result.value)}")
    click.echo("permutation " + " ".join(str(j) for j in result.permutation))


if __name__ == "__main__":
    main()
