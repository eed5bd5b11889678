"""Count the code lines of Python modules: lines that hold code.

A line counts if a token other than a comment sits on it.  Blank lines,
comment-only lines and the lines of a statement that is only a string (a
docstring) do not count.  A string that spans lines inside code counts
every line it spans.

Usage (from the root of a checkout):

    python3 tools/code_lines.py                 # every module of src/logassign
    python3 tools/code_lines.py path/to/a.py ...
    python3 tools/code_lines.py --base REV [path/to/a.py ...]

It prints one line per module, ``<count> <path>``, then the total.  With
``--base REV`` it reads each module as it stands at git revision REV too
(through ``git show``, so nothing is checked out) and prints
``<at REV> <now> <difference> <path>``.  The modules are then the given
paths, or every module of src/logassign at REV or in the work tree; a
module missing on one side counts 0 there.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "logassign"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def source_code_lines(source: bytes) -> int:
    """The number of code lines of the Python source ``source``."""
    rows: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the significant tokens of a logical line
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _LAYOUT:
            statement.append(token)
        elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    rows.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(rows)


def code_lines(path: Path) -> int:
    """The number of code lines of the Python source at ``path``."""
    return source_code_lines(path.read_bytes())


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--base", metavar="REV",
                        help="also count each module at git revision REV")
    parser.add_argument("paths", nargs="*", type=Path)
    args = parser.parse_args(argv)
    if args.base is None:
        paths = args.paths or sorted((ROOT / PACKAGE).glob("*.py"))
        total = 0
        for path in paths:
            count = code_lines(path)
            total += count
            print(f"{count:5d} {path}")
        print(f"{total:5d} total")
        return 0
    # Modules are named by their paths from the root, as git names them.
    wanted = [path.resolve().relative_to(ROOT).as_posix() for path in args.paths]
    listed = _git("ls-tree", "--name-only", args.base, "--", *(wanted or [f"{PACKAGE}/"]))
    at_base = set(listed.decode().splitlines())
    modules = wanted or sorted(name for name in at_base | {
        path.relative_to(ROOT).as_posix() for path in (ROOT / PACKAGE).glob("*.py")
    } if name.endswith(".py"))
    totals = [0, 0]
    for module in modules:
        before = source_code_lines(_git("show", f"{args.base}:{module}")) if module in at_base else 0
        after = code_lines(ROOT / module) if (ROOT / module).exists() else 0
        totals = [totals[0] + before, totals[1] + after]
        print(f"{before:5d} {after:5d} {after - before:+5d} {module}")
    print(f"{totals[0]:5d} {totals[1]:5d} {totals[1] - totals[0]:+5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
