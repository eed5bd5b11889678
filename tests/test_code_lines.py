"""The code-line counter of ``tools/code_lines.py``, which CHANGES.md figures cite."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"


def _code_lines():
    spec = importlib.util.spec_from_file_location("_tools_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_blank_comment_and_docstring_lines_do_not_count(tmp_path) -> None:
    source = tmp_path / "sample.py"
    source.write_text('''"""A module docstring
over two lines."""

# A comment.
import math  # a trailing comment


def f(x):
    """A docstring."""
    text = """a string
that spans lines"""
    return (x +
            math.pi)
''')
    # import, def, the two lines of ``text`` and the two of the return.
    assert _code_lines()(source) == 6



@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_base_counts_each_module_at_a_revision_beside_the_work_tree(tmp_path) -> None:
    def git(*args: str) -> None:
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@example.com", *args],
                       check=True, capture_output=True)

    package = tmp_path / "src" / "logassign"
    package.mkdir(parents=True)
    (tmp_path / "tools").mkdir()
    shutil.copy(TOOL, tmp_path / "tools" / "code_lines.py")
    (package / "kept.py").write_text("x = 1\ny = 2\n")
    (package / "gone.py").write_text('"""Docstring."""\nz = 3\n')
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (package / "kept.py").write_text("x = 1\n# a comment\ny = 2\nw = 4\nv = 5\n")
    (package / "gone.py").unlink()
    (package / "new.py").write_text("a = 1\n")
    # No module is read from a checkout: the work tree stays as edited.
    completed = subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "code_lines.py"), "--base", "HEAD"],
        cwd=tmp_path, check=True, capture_output=True, text=True,
    )
    assert completed.stdout.splitlines() == [
        "    1     0    -1 src/logassign/gone.py",
        "    2     4    +2 src/logassign/kept.py",
        "    0     1    +1 src/logassign/new.py",
        "    3     5    +2 total",
    ]
    completed = subprocess.run(
        [sys.executable, "tools/code_lines.py", "--base", "HEAD", "src/logassign/kept.py"],
        cwd=tmp_path, check=True, capture_output=True, text=True,
    )
    assert completed.stdout.splitlines()[0] == "    2     4    +2 src/logassign/kept.py"
    assert not (package / "gone.py").exists()
