from __future__ import annotations

import pytest

from csmhyp.charclasses import build_report
from csmhyp.poly import Polynomial
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
    forms = [
        Polynomial(
            n,
            {tuple(1 if k == j else 0 for k in range(n)): matrix[i][j] for j in range(n)},
            f.field,
        )
        for i in range(n)
    ]
    result = Polynomial(n, {}, f.field)
    one = Polynomial(n, {(0,) * n: 1}, f.field)
    for m, c in f.terms.items():
        term = one.scale(c)
        for i, e in enumerate(m):
            for _ in range(e):
                term = term * forms[i]
        result = result + term
    return result


@pytest.fixture(scope="session")
def substitute_linear():
    """Linear coordinate change, for the projective-invariance tests."""
    return _substitute_linear
