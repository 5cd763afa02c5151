"""Print each ``src/advicecheck`` module's code lines and their total.

    python tests/src_lines.py            # this checkout
    python tests/src_lines.py A B ...    # each checkout in a column, in order

A code line holds some token other than a comment: blank lines, comment-only
lines and docstring lines (a string literal standing alone as a statement)
are not counted. The file is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def count(checkout: Path) -> dict[str, int]:
    """Code lines per module of the checkout's package, by file name."""
    return {path.name: code_lines(path.read_text())
            for path in sorted((checkout / "src" / "advicecheck").glob("*.py"))}


def main(argv: list[str]) -> None:
    checkouts = [Path(arg) for arg in argv] or [Path(__file__).resolve().parent.parent]
    tables = [count(checkout) for checkout in checkouts]
    names = sorted(set().union(*tables))
    width = max(map(len, names + ["total"]))
    for name in names:
        print(name.ljust(width), *(f"{table.get(name, 0):6d}" for table in tables))
    print("total".ljust(width), *(f"{sum(table.values()):6d}" for table in tables))


if __name__ == "__main__":
    main(sys.argv[1:])
