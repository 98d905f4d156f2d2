from __future__ import annotations

import importlib.util
import os
import sys

import pytest

from csmhyp.charclasses import build_report
from csmhyp.poly import Polynomial, compose
from csmhyp.segre import TrialPolicy


@pytest.fixture(scope="session")
def report_cache():
    """Session-wide cache of full-pipeline reports keyed by (poly, nvars,
    policy); acceptance criteria share fixture runs instead of recomputing."""
    cache = {}

    def get(poly_text: str, nvars: int, policy: TrialPolicy = TrialPolicy()):
        key = (poly_text, nvars, policy)
        if key not in cache:
            cache[key] = build_report(poly_text, nvars, policy)
        return cache[key]

    return get


def _substitute_linear(f: Polynomial, matrix) -> Polynomial:
    """Compose f with the linear change of coordinates x_i -> sum_j M[i][j]*x_j."""
    n = f.nvars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix shape must be nvars x nvars")
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    return compose(f, [Polynomial(n, dict(zip(units, row)), f.field) for row in matrix])


@pytest.fixture(scope="session")
def substitute_linear():
    """Linear coordinate change, for the projective-invariance tests."""
    return _substitute_linear


@pytest.fixture
def int_text_limit():
    """Python's default bound of 4300 digits on an integer's text, set for
    the test whatever ``PYTHONINTMAXSTRDIGITS`` or ``-X int_max_str_digits``
    chose, and put back after it."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(before)


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's inputs and expected values, ``perfbench/workloads.py``,
    read from its file."""
    path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "workloads.py"
    )
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module
