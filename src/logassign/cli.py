"""Command-line front end: predictions, simulations, and diagnostics.

Exit codes: 0 success, 2 bad arguments, 3 numeric non-convergence,
4 simulation failure, 5 failed tail check.
"""

from __future__ import annotations

import math
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
    _real,
    asymptotic_prediction,
    compare_report,
    parse_report_csv,
    report_csv_text,
    report_json_text,
    run_experiment,
)
from .gains import QuadratureError, parse_model_spec, sample_cost, MODEL_SPEC_GRAMMAR
from .matching import solve_max_assignment
from .quantile import (
    _DOUBLE_LOG_GUARD,
    BracketError,
    asymptotic_quantile,
    tail_probability,
    tail_quantile,
)

EXIT_NUMERIC = 3
EXIT_SIMULATION = 4
EXIT_TAIL_CHECK = 5

_MODEL_HELP = f"MODEL is a gain model spec: {MODEL_SPEC_GRAMMAR} (case-insensitive)."
_SIZES_HELP = (
    "SIZES is either a comma list like 10,20,50 or a range a..b:step like "
    "10..100:10 (inclusive of b when step divides b-a)."
)
_TAIL_CHECK_CONTEXT = 2


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _model(spec: str):
    try:
        return parse_model_spec(spec)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


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


@main.command(help=f"Tabulate predictions for each size.\n\n{_MODEL_HELP}\n\n{_SIZES_HELP}")
@click.argument("model_spec", metavar="MODEL")
@click.argument("sizes_text", metavar="SIZES")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="Output format.")
def predict(model_spec: str, sizes_text: str, fmt: str):
    model = _model(model_spec)
    sizes = parse_sizes(sizes_text)
    if any(n < 2 for n in sizes):
        raise click.UsageError("every size must be at least 2")
    records = []
    try:
        for n in sizes:
            level = 1.0 / n
            numeric = tail_quantile(model, level).r
            sharp = (
                asymptotic_quantile(model, level)
                if level < _DOUBLE_LOG_GUARD
                else math.nan
            )
            try:
                growth = asymptotic_prediction(model, n)
            except ValueError:
                growth = math.nan
            records.append((n, numeric, sharp, n * numeric, growth))
    except (BracketError, QuadratureError) as exc:
        _fail(EXIT_NUMERIC, str(exc))
    if fmt == "json":
        import json

        payload = [
            {
                "n": n,
                "quantile_numeric": a,
                "quantile_asymptotic": b,
                "predicted_numeric": c,
                "predicted_asymptotic": d,
            }
            for n, a, b, c, d in records
        ]
        click.echo(json.dumps(payload, indent=2))
        return
    click.echo(
        "n,quantile_numeric,quantile_asymptotic,predicted_numeric,predicted_asymptotic"
    )
    for n, a, b, c, d in records:
        click.echo(f"{n},{_real(a)},{_real(b)},{_real(c)},{_real(d)}")


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
    model = _model(model_spec)
    sizes = parse_sizes(sizes_text)
    try:
        config = ExperimentConfig(
            model=model,
            sizes=sizes,
            replicates=replicates,
            mode=mode,
            master_seed=seed,
            parallelism=jobs,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    try:
        report = run_experiment(config)
    except (ReplicateError, BrokenProcessPool) as exc:
        _fail(EXIT_SIMULATION, str(exc))
    except (BracketError, QuadratureError) as exc:
        _fail(EXIT_NUMERIC, str(exc))
    text = report_csv_text(report) if fmt == "csv" else report_json_text(report)
    if output == "-":
        click.echo(text, nl=False)
    else:
        Path(output).write_text(text)


@main.command(help="Summarize the errors in a saved simulation report (CSV).")
@click.argument("report_path", type=click.Path(exists=True, dir_okay=False))
def compare(report_path: str):
    try:
        report = parse_report_csv(Path(report_path).read_text())
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    click.echo(compare_report(report), nl=False)


@main.command("tail-check",
              help=f"Check sampled tail frequencies against the transform.\n\n{_MODEL_HELP}")
@click.argument("model_spec", metavar="MODEL")
@click.option("--thresholds", default="0.5,1,2,3", show_default=True,
              help="Comma list of cost thresholds r.")
@click.option("--samples", default=1_000_000, show_default=True,
              help="Number of cost draws (at least 10000).")
@click.option("--seed", default=0, show_default=True, help="Master seed.")
def tail_check(model_spec, thresholds, samples, seed):
    model = _model(model_spec)
    try:
        grid = tuple(float(part) for part in thresholds.split(","))
    except ValueError:
        raise click.UsageError(f"bad thresholds {thresholds!r}") from None
    if any(r < 0 or math.isnan(r) for r in grid):
        raise click.UsageError("thresholds must be nonnegative")
    samples = int(samples)
    if samples < 10_000:
        raise click.UsageError("need at least 10000 samples")
    key = np.array([int(seed), _TAIL_CHECK_CONTEXT], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    costs = sample_cost(model, rng, size=samples)
    click.echo("r,empirical,theoretical,z_score")
    failed = False
    try:
        for r in grid:
            empirical = float(np.mean(costs >= r))
            theoretical = tail_probability(model, r)
            spread = math.sqrt(theoretical * (1.0 - theoretical) / samples)
            if spread == 0.0:
                z = 0.0 if empirical == theoretical else math.inf
            else:
                z = (empirical - theoretical) / spread
            if abs(z) > 4.0:
                failed = True
            click.echo(f"{_real(r)},{_real(empirical)},{_real(theoretical)},{_real(z)}")
    except (BracketError, QuadratureError) as exc:
        _fail(EXIT_NUMERIC, str(exc))
    if failed:
        _fail(EXIT_TAIL_CHECK, "an empirical tail frequency sits more than 4 sigma out")


@main.command(help="Solve one max-assignment instance from a CSV matrix file.")
@click.argument("matrix_path", type=click.Path(exists=True, dir_okay=False))
def solve(matrix_path: str):
    rows = []
    for line in Path(matrix_path).read_text().splitlines():
        if not line.strip():
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError:
            raise click.UsageError(f"unparseable matrix line {line!r}") from None
    try:
        result = solve_max_assignment(rows)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    click.echo(f"value {_real(result.value)}")
    click.echo("permutation " + " ".join(str(j) for j in result.permutation))


if __name__ == "__main__":
    main()
