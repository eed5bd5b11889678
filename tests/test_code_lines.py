"""The code-line counter of ``tools/code_lines.py``, which CHANGES.md figures cite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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

