"""The golden corpus of report bytes: the cells, and a script that records them.

Each cell is one small command through the CLI, and its file beside this
script holds the command's exact standard output.  ``tests/test_golden.py``
runs every cell and compares.  A change that moves report bytes on purpose
re-records the corpus, so that the move shows as a diff of these files:

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

LAWS = ("constant:2.5", "exp", "uniform", "pareto:1.5", "pareto:3")
# n = 2 has no growth law and n < 16 no sharp quantile law, so the small
# sizes write NaN in CSV and null in JSON.
PREDICT_SIZES = "2,3,10,16,100,1000,10000"
# r = 0 has probability 1 and a zero z-score.
THRESHOLDS = "0,0.5,1,2,4"


def _name(law: str) -> str:
    return law.replace(":", "-")


# File name -> command line.  Every cell exits 0.
CELLS = {
    **{f"predict-{_name(law)}.{fmt}": ("predict", law, PREDICT_SIZES, "--format", fmt)
       for law in LAWS for fmt in ("csv", "json")},
    **{f"simulate-{_name(law)}-{mode}.{fmt}": (
        "simulate", law, "--sizes", "3,4,16", "--replicates", "5", "--mode", mode,
        "--format", fmt)
       for law in LAWS for mode in ("annealed", "quenched") for fmt in ("csv", "json")},
    **{f"tail-check-{_name(law)}.csv": ("tail-check", law, "--samples", "20000",
                                        "--thresholds", THRESHOLDS)
       for law in LAWS},
}


def run_cell(args) -> tuple[int, str]:
    """The exit code and the standard output of one cell, run in process."""
    from click.testing import CliRunner

    from logassign.cli import main

    result = CliRunner().invoke(main, list(args))
    return result.exit_code, result.stdout


def main() -> int:
    for name, args in CELLS.items():
        code, text = run_cell(args)
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return 1
        (HERE / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
