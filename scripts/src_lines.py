#!/usr/bin/env python3
"""Print the total lines and the code lines of each src/gaussgap module.

A code line holds a token other than a comment or a docstring (the
string that opens a module, class or function body); blank lines,
comment lines and docstring lines are not code.  Run from anywhere:

    python scripts/src_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gaussgap"

_NOT_CODE = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                       tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
                       tokenize.ENCODING))


def count_lines(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body
                and isinstance(node, (ast.Module, ast.ClassDef,
                                      ast.FunctionDef, ast.AsyncFunctionDef))
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add((body[0].lineno, body[0].col_offset))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING
                                     and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def run(argv=None) -> int:
    total = code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code_lines = count_lines(path.read_text())
        total, code = total + lines, code + code_lines
        print(f"{path.name:16} {lines:5} {code_lines:5}")
    print(f"{'total':16} {total:5} {code:5}")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
