"""Segre engine: jacobian schemes, projective degrees, class assembly.

Expected Segre classes come from closed-form oracles (linear subspaces,
reduced points) and from the telescoping identity for smooth inputs, never
from the engine under test.
"""

from __future__ import annotations

import random

import pytest

from csmhyp.chow import ChowClass
from csmhyp.errors import CsmhypError, RandomnessError
from csmhyp.oracles import segre_linear_subspace
from csmhyp.poly import PrimeField, Polynomial, parse_poly, reduce_mod_p
from csmhyp.segre import (
    ProjectiveDegrees,
    TrialPolicy,
    jacobian_scheme,
    projective_degrees,
    segre_from_degrees,
    segre_singular_scheme,
)

P = 32003
LIGHT = TrialPolicy(primes=(P,), seeds=(101,))
TWO_PRIME = TrialPolicy(primes=(32003, 65537), seeds=(101, 102))


def gfpoly(text, nvars, p=P):
    return reduce_mod_p(parse_poly(text, nvars), p)


# -- jacobian scheme -----------------------------------------------------------


def test_jacobian_scheme_smooth_conic():
    s = jacobian_scheme(gfpoly("x0^2 + x1^2 + x2^2", 3))
    assert s.is_smooth and s.dim_y is None and s.d == 2 and s.n == 2


def test_jacobian_scheme_crossing_lines():
    s = jacobian_scheme(gfpoly("x0*x1", 3))
    assert not s.is_smooth
    assert (s.dim_y, s.deg_y) == (0, 1)


def test_jacobian_scheme_double_line():
    s = jacobian_scheme(gfpoly("x0^2*x1", 3))
    assert (s.dim_y, s.deg_y) == (1, 1)


def test_jacobian_scheme_rejects_prime_dividing_degree():
    f = reduce_mod_p(parse_poly("x0^3 + x1^3 + x2^3", 3), 3)
    with pytest.raises(ValueError):
        jacobian_scheme(f)


def test_jacobian_scheme_rejects_zero():
    with pytest.raises(ValueError):
        jacobian_scheme(Polynomial(3, {}, PrimeField(P)))


# -- projective degrees ---------------------------------------------------------


def test_degrees_smooth_bezout():
    for d in (2, 3, 4):
        text = f"x0^{d} + x1^{d} + x2^{d}" if d > 1 else "x0"
        pd, scheme = projective_degrees(parse_poly(text, 3), LIGHT)
        e = d - 1
        assert pd.g == tuple(e**i for i in range(3))
        assert scheme.is_smooth


def test_degrees_quadric_cone():
    pd, _ = projective_degrees(parse_poly("x0^2 + x1^2 + x2^2", 4), LIGHT)
    assert pd.g == (1, 1, 1, 0)


def test_degrees_double_line_plus_line():
    pd, _ = projective_degrees(parse_poly("x0^2*x1", 3), LIGHT)
    assert pd.g == (1, 1, 0)


def test_degrees_record_trials():
    pd, _ = projective_degrees(parse_poly("x0*x1", 3), TWO_PRIME)
    assert len(pd.trials) == 2
    assert all(t.accepted for t in pd.trials)
    assert {t.seed for t in pd.trials} == {101, 102}


def test_degrees_multi_prime_agreement():
    for text, nvars in [("x0*x1*x2", 3), ("x1^2*x2 - x0^3", 3)]:
        runs = set()
        for p in (32003, 65537):
            pd, _ = projective_degrees(
                parse_poly(text, nvars), TrialPolicy(primes=(p,), seeds=(11, 12))
            )
            runs.add(pd.g)
        assert len(runs) == 1


def test_degrees_coordinate_invariance(substitute_linear):
    rng = random.Random(43)
    f = parse_poly("x1^2*x2 - x0^3 - x0^2*x2", 3)
    reference, _ = projective_degrees(f, LIGHT)
    for _ in range(3):
        while True:
            matrix = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            if _det(matrix) != 0:
                break
        moved, _ = projective_degrees(substitute_linear(f, matrix), LIGHT)
        assert moved.g == reference.g


def _det(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_projective_degrees_validation():
    with pytest.raises(CsmhypError):
        ProjectiveDegrees(n=2, e=1, g=(2, 1, 0))
    with pytest.raises(CsmhypError):
        ProjectiveDegrees(n=2, e=2, g=(1, 3, 0))


def test_policy_with_unusable_primes():
    # a policy whose only prime divides d is rejected up front
    with pytest.raises(ValueError):
        projective_degrees(
            parse_poly("x0^3 + x1^3 + x2^3", 3), TrialPolicy(primes=(3,), seeds=(1,))
        )


# -- class assembly --------------------------------------------------------------


def test_segre_from_degrees_examples():
    quadric_cone = ProjectiveDegrees(n=3, e=1, g=(1, 1, 1, 0))
    assert segre_from_degrees(quadric_cone) == ChowClass(3, [0, 0, 0, 1])
    crossing = ProjectiveDegrees(n=2, e=1, g=(1, 1, 0))
    assert segre_from_degrees(crossing) == ChowClass(2, [0, 0, 1])


def test_segre_telescoping_identity_symbolically():
    # smooth degrees (e^j) always assemble to zero, checked exactly
    for n in range(1, 6):
        for e in range(1, 6):
            pd = ProjectiveDegrees(n=n, e=e, g=tuple(e**i for i in range(n + 1)))
            s = segre_from_degrees(pd)
            assert all(c == 0 for c in s.coeffs), (n, e)


def test_segre_pipeline_matches_point_oracle():
    s, _, scheme = segre_singular_scheme(parse_poly("x0*x1", 3), LIGHT)
    assert s == segre_linear_subspace(2, 0)
    assert (scheme.dim_y, scheme.deg_y) == (0, 1)


def test_segre_pipeline_matches_line_oracle():
    # two planes in P^3 are singular along a line
    s, _, _ = segre_singular_scheme(parse_poly("x0*x1", 4), LIGHT)
    assert s == segre_linear_subspace(3, 1)


def test_segre_pipeline_nodal_cubic():
    s, _, _ = segre_singular_scheme(
        parse_poly("x1^2*x2 - x0^3 - x0^2*x2", 3), LIGHT
    )
    assert s == segre_linear_subspace(2, 0)


def test_segre_zero_iff_smooth():
    cases = [
        ("x0^2 + x1^2 + x2^2", 3, True),
        ("x0^3 + x1^3 + x2^3", 3, True),
        ("x0*x1", 3, False),
        ("x0^2*x1", 3, False),
        ("x0^2 + x1^2 + x2^2", 4, False),
    ]
    for text, nvars, smooth in cases:
        s, _, scheme = segre_singular_scheme(parse_poly(text, nvars), LIGHT)
        assert scheme.is_smooth == smooth
        assert all(c == 0 for c in s.coeffs) == smooth


def test_segre_support_constraint():
    # codimension of the singular scheme bounds the support of the class
    s, _, scheme = segre_singular_scheme(parse_poly("x0^2*x1", 4), LIGHT)
    codim = scheme.n - scheme.dim_y
    assert codim == 1
    assert all(s.coeffs[k] == 0 for k in range(codim))
    assert s.coeffs[codim] == scheme.deg_y


def test_disagreeing_trials_escalate_then_fail(monkeypatch):
    import csmhyp.segre as segre_mod

    calls = []

    def flaky(scheme, rng):
        calls.append(1)
        # never confirm the same vector twice
        return (1, len(calls) % 7, 0)

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", flaky)
    with pytest.raises(RandomnessError) as err:
        projective_degrees(parse_poly("x0*x1", 3), TWO_PRIME)
    assert err.value.trials  # audit log travels with the failure
    assert len(calls) >= 4


def test_disagreement_then_confirmation_marks_rejected_trials(monkeypatch):
    import csmhyp.segre as segre_mod

    outputs = iter([(1, 1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 0)])

    def scripted(scheme, rng):
        return next(outputs)

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", scripted)
    pd, _ = projective_degrees(parse_poly("x0*x1", 3), TWO_PRIME)
    assert pd.g == (1, 1, 0)
    flags = [t.accepted for t in pd.trials]
    assert flags.count(False) == 1 and flags.count(True) == 2


def test_jacobian_scheme_rejects_undersized_prime():
    f = reduce_mod_p(parse_poly("x0^3 + x1^2*x2", 3), 5)
    with pytest.raises(ValueError, match="too small"):
        jacobian_scheme(f)
