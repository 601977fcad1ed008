"""Count the code lines of each Python module in a source directory.

A code line is a physical line that holds a token other than a comment,
a non-logical newline, an indent or a dedent, and that is not part of a
module, class or function docstring.  Blank lines, comment lines and
docstrings therefore do not count; a line that joins code and a comment
does.

    python3 tools/codelines.py                # src/pqinv, from the repo root
    python3 tools/codelines.py --src DIR      # any directory of modules

Prints one ``<count>  <module>`` line per ``*.py`` file, in name order,
and then ``<count>  total``.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "pqinv"

# tokens that by themselves make no line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in the module text ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=_SRC,
                        help="directory whose *.py modules are counted (default: src/pqinv)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.src.glob("*.py")):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
