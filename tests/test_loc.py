"""Code-line counts by bench/loc.py, on a small synthetic module."""

from __future__ import annotations

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
LOC = os.path.join(ROOT, "bench", "loc.py")

MODULE = '''"""A module docstring
over two lines."""

import os  # a trailing comment does not stop a code line

# a comment line


class Point:
    """A class docstring."""

    x = 1


def area(a,
         b):
    """A function docstring,
    on two lines.
    """
    text = """a multi-line string
    that is not a docstring"""
    "a string statement after the first is code"
    return a * b
'''


def _loc():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, class, x = 1, the two lines of def, the two lines of text,
    # the string statement and return
    assert _loc().code_lines(MODULE) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nX = 1\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    assert _loc().main(str(tmp_path)) == 10
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["1", "a.py"], ["9", "b.py"], ["10", "total"],
    ]
