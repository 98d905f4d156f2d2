#!/usr/bin/env python3
"""Code lines of each module of ``src/csmhyp``, and their total.

    python3 bench/loc.py

A code line is a physical line that holds a token other than a comment
and is not part of a module, class or function docstring: blank lines,
comment lines and docstrings are not counted, while every line of a
statement that spans several lines, a multi-line string that is not a
docstring included, is.  It prints one ``<count> <file>`` line per module,
in file-name order, then ``<total> total``.  It needs only the standard
library.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "csmhyp")
# Tokens that hold no code: layout, the encoding marker and comments.
SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(source: str) -> set:
    """The (row, column) at which each module, class or function
    docstring of ``source`` starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of the Python module ``source``."""
    docstrings = docstring_starts(source)
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(package: str = PACKAGE) -> int:
    """Print the code lines of each ``*.py`` file in ``package`` and
    their total; returns the total."""
    total = 0
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d} {os.path.basename(path)}")
    print(f"{total:6d} total")
    return total


if __name__ == "__main__":
    main()
