"""The package namespace: each public name is listed once, in its module.

Also what importing the package loads: scipy's quadrature, optimizers and
samplers only where a command runs them, and what the command-line shell
may import at all.  And every python example of the README runs as shown.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import logassign
from golden.record import CELLS, HERE
from logassign import cli, experiment, gains, matching, quantile

MODULES = (experiment, gains, matching, quantile)


def test_package_all_is_the_union_of_the_module_lists() -> None:
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(logassign.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(logassign, name) is getattr(module, name)


def test_the_cli_imports_no_numerics_and_no_private_names() -> None:
    # The CLI is a shell over the library: whatever it computes belongs
    # there, so it needs neither numpy nor math, nor the package's internals.
    numeric = {"numpy", "math"}
    found = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.partition(".")[0] in numeric]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.partition(".")[0] in numeric:
                found.append(module)
            elif node.level > 0 or module.partition(".")[0] == "logassign":
                found += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_asymptotic_prediction_resolves_in_the_package() -> None:
    assert logassign.asymptotic_prediction is quantile.asymptotic_prediction


_HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.stats")


def _fresh_python(tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter in ``tmp_path`` that imports this package."""
    package_root = str(Path(logassign.__file__).resolve().parent.parent)
    search_path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search_path))}
    return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=False)


def test_the_module_entry_point_runs_the_command_line(tmp_path) -> None:
    version = _fresh_python(tmp_path, "-m", "logassign", "--version")
    assert version.returncode == 0, version.stderr
    assert version.stdout.endswith(f", version {logassign.__version__}\n")
    predict = _fresh_python(tmp_path, "-m", "logassign", *CELLS["predict-exp.csv"])
    assert predict.returncode == 0, predict.stderr
    assert predict.stdout == (HERE / "predict-exp.csv").read_text()


def _loaded_after(tmp_path: Path, script: str) -> list[str]:
    """Which of ``_HEAVY`` a fresh interpreter has loaded after ``script``."""
    code = script + f"\nprint(json.dumps([m for m in {_HEAVY!r} if m in sys.modules]))\n"
    completed = _fresh_python(tmp_path, "-c", "import json, sys\n" + code)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_commands_without_quadrature_or_solver_load_neither(tmp_path) -> None:
    report = (experiment.ReportRow("exp", "annealed", 3, 2, 0, 2.5, 0.1, 2.4, 2.2, 0.04, 0.12),)
    (tmp_path / "report.csv").write_text(experiment.report_csv_text(report))
    commands = [
        ["predict", "exp", "10..1000:10"],
        ["predict", "uniform", "16,100,10000"],
        ["tail-check", "uniform", "--samples", "10000"],
        ["compare", "report.csv"],
        ["--help"],
    ]
    script = (
        "import logassign.cli\n"
        f"for args in {commands!r}:\n"
        "    code = logassign.cli.main.main(args=args, prog_name='logassign',\n"
        "                                   standalone_mode=False)\n"
        "    assert code in (0, None), (args, code)\n"
    )
    assert _loaded_after(tmp_path, script) == []


_README = Path(__file__).resolve().parents[1] / "README.md"
# Every fenced python block of the README, in order.
_README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", _README.read_text(), re.M | re.S)


def test_the_readme_shows_its_examples_as_python_blocks() -> None:
    assert len(_README_BLOCKS) >= 2


@pytest.mark.parametrize("block", range(len(_README_BLOCKS)))
def test_every_python_block_of_the_readme_runs(tmp_path, block: int) -> None:
    # Warnings are errors here, as under the tests themselves.
    completed = _fresh_python(tmp_path, "-W", "error", "-c", _README_BLOCKS[block])
    assert completed.returncode == 0, completed.stderr


def test_a_pooled_run_loads_the_solver_before_its_workers_start(tmp_path) -> None:
    script = (
        "import logassign\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "logassign.run_experiment(logassign.ExperimentConfig(\n"
        "    logassign.ExponentialGain(), (3, 4), replicates=2, parallelism=2))\n"
    )
    assert "scipy.optimize" in _loaded_after(tmp_path, script)
