#!/usr/bin/env python3
"""Line counts of the ``aoisched`` package, per module and in total.

Run from the repository root:

    python3 tools/src_lines.py [PACKAGE_DIR]

For each ``*.py`` and ``*.c`` file of the package (``src/aoisched`` by
default) it prints all lines and the code lines: lines that hold code, so
not blank, not only a comment, and, in Python, not part of a docstring (of
the module, a class or a function).  A C line counts as code unless it is
blank or lies wholly inside comments.  Subtotals per language and a total
follow.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aoisched"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# a C comment, or a string or character literal, which may hold "/*"
C_TOKEN = re.compile(r'/\*.*?\*/|//[^\n]*|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'', re.S)


def python_code_lines(text: str) -> int:
    """Lines holding a token that is neither a comment nor part of a docstring."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def c_code_lines(text: str) -> int:
    """Lines with something left once the comments are blanked out."""
    def blank(match: re.Match) -> str:
        s = match.group()
        return re.sub(r"[^\n]", " ", s) if s[0] == "/" else s
    return sum(1 for line in C_TOKEN.sub(blank, text).splitlines() if line.strip())


def counts(package: Path) -> tuple[list[tuple[str, int, int]], list[tuple[str, int, int]]]:
    """``(name, lines, code lines)`` per module of ``package``, then the
    ``*.py``, ``*.c`` and ``total`` rows."""
    rows = []
    for path in sorted([*package.glob("*.py"), *package.glob("*.c")]):
        text = path.read_text()
        code = python_code_lines(text) if path.suffix == ".py" else c_code_lines(text)
        rows.append((path.name, len(text.splitlines()), code))
    totals = [(f"*{suffix}", *(sum(r[k] for r in rows if r[0].endswith(suffix)) for k in (1, 2)))
              for suffix in (".py", ".c")]
    totals.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    return rows, totals


def main(argv: list[str]) -> int:
    rows, totals = counts(Path(argv[0]) if argv else PACKAGE)
    width = max(len(name) for name, _, _ in rows + totals)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows + totals:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
