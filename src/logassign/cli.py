"""Command-line front end: predictions, simulations, and diagnostics.

Each command body parses its arguments, calls the library and prints
what it returns; every figure is computed in the library.  The tables of
``predict``, ``simulate`` and ``tail-check`` are written by
:func:`~logassign.experiment.table_text`; ``tail-check`` prints the
:class:`~logassign.experiment.TailFrequency` rows of
:func:`~logassign.experiment.tail_check` and fails where one breaks
:data:`~logassign.experiment.TAIL_CHECK_SIGMAS`.  :class:`LibraryCommand`, the
class of every command, holds the one map from library exceptions to exit
codes:

- ``ValueError``: bad arguments or input files, a usage error (exit 2);
- ``BracketError``, ``QuadratureError``: numeric non-convergence (exit 3);
- ``ReplicateError``, ``BrokenProcessPool``: simulation failure (exit 4).

A failed tail check exits 5 and success 0.  Any other exception is a bug
and propagates as a traceback.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import click

import logassign
from .experiment import (
    ANNEALED,
    QUENCHED,
    TAIL_CHECK_SIGMAS,
    ExperimentConfig,
    ReplicateError,
    TailFrequency,
    compare_report,
    parse_report_csv,
    real_text,
    report_csv_text,
    report_json_text,
    run_experiment,
    table_text,
    tail_check as check_tails,
)
from .gains import QuadratureError, parse_model_spec, MODEL_SPEC_GRAMMAR
from .matching import solve_max_assignment
from .quantile import BracketError, Prediction, prediction_table

EXIT_NUMERIC = 3
EXIT_SIMULATION = 4
EXIT_TAIL_CHECK = 5

_MODEL_HELP = f"MODEL is a gain model spec: {MODEL_SPEC_GRAMMAR} (case-insensitive)."
# predict takes about 15 s and 0.7 GB for 10**6 sizes (13-17 us and 0.6-0.75
# KB a size, measured at 2 * 10**5 sizes on a 2-vCPU Xeon VM); a range of
# more is refused before any size is built.
_MAX_RANGE_SIZES = 10**6
_SIZES_HELP = (
    "SIZES is either a comma list like 10,20,50 or a range a..b:step like "
    "10..100:10 (inclusive of b when step divides b-a), of at most "
    f"{_MAX_RANGE_SIZES} sizes."
)


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
            count = (stop - start) // step + 1  # len() of a range past sys.maxsize raises
            if count > _MAX_RANGE_SIZES:
                raise click.UsageError(f"sizes {text!r} list {count} sizes, more than "
                                       f"the {_MAX_RANGE_SIZES} a range may list")
            return tuple(range(start, stop + 1, step))
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad sizes {text!r}; {_SIZES_HELP}") from None


@click.group()
# The package's own version, so that a source checkout that is not installed
# answers too.
@click.version_option(logassign.__version__, package_name="logassign")
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
    rows = check_tails(model, grid, samples, seed)
    click.echo(table_text(TailFrequency._fields, rows, "csv"), nl=False)
    if any(abs(row.z_score) > TAIL_CHECK_SIGMAS for row in rows):
        _fail(EXIT_TAIL_CHECK, "an empirical tail frequency sits more than "
                               f"{TAIL_CHECK_SIGMAS:g} sigma out")


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
