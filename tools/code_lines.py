"""Count the code lines of Python modules: lines that hold code.

A line counts if a token other than a comment sits on it.  Blank lines,
comment-only lines and the lines of a statement that is only a string (a
docstring) do not count.  A string that spans lines inside code counts
every line it spans.

Usage (from the root of a checkout):

    python3 tools/code_lines.py                 # every module of src/logassign
    python3 tools/code_lines.py path/to/a.py ...

It prints one line per module, ``<count> <path>``, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of the Python source at ``path``."""
    rows: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the significant tokens of a logical line
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type not in _LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        rows.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(rows)


def main(argv: list[str]) -> int:
    package = Path(__file__).resolve().parents[1] / "src" / "logassign"
    paths = [Path(arg) for arg in argv] or sorted(package.glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:5d} {path}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
