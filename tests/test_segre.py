"""Segre engine: jacobian schemes, projective degrees, class assembly.

Expected Segre classes come from closed-form oracles (linear subspaces,
reduced points) and from the telescoping identity for smooth inputs, never
from the engine under test.
"""

from __future__ import annotations

import itertools
import random

import pytest

from csmhyp.chow import ChowClass
from csmhyp.errors import CsmhypError, RandomnessError
from csmhyp.oracles import segre_linear_subspace
from csmhyp.poly import (
    PrimeField,
    Polynomial,
    parse_poly,
    random_linear_combination,
    reduce_mod_p,
    variable,
)
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


# -- random slices ---------------------------------------------------------------


def test_random_linear_form_matches_the_scaled_sum():
    # The hyperplanes of a cut are random combinations of the variables.
    # Reference: sum of x_i.scale(c_i) over the same draws, retried while
    # it vanishes; GF(3) makes zero draws and all-zero retries common.
    gf = PrimeField(3)
    xs = [variable(3, i, gf) for i in range(3)]
    got_rng, ref_rng = random.Random(8), random.Random(8)
    for _ in range(50):
        got = random_linear_combination(xs, got_rng)
        ref = Polynomial(3, {}, gf)
        while ref.is_zero:
            for i in range(3):
                ref = ref + variable(3, i, gf).scale(ref_rng.randrange(3))
        assert got == ref and list(got.terms) == list(ref.terms)
    assert got_rng.random() == ref_rng.random()


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


def test_one_groebner_basis_per_prime_for_the_jacobian_only(monkeypatch):
    # Cuts of dimension two and up go straight into saturate, point and
    # line cuts need no basis at all; buchberger runs once per prime, on
    # the nonzero partials of F mod that prime.
    import csmhyp.segre as segre_mod

    seen = []
    real = segre_mod.buchberger

    def counting(gens):
        seen.append(list(gens))
        return real(gens)

    monkeypatch.setattr(segre_mod, "buchberger", counting)
    one_seed = TrialPolicy(primes=(32003, 65537), seeds=(101,))
    for text, nvars in [("x0*x1", 3), ("x0^2*x1", 4), ("x0^3 + x1^3 + x2^3", 3)]:
        for policy in (TWO_PRIME, one_seed):
            seen.clear()
            F = parse_poly(text, nvars)
            pd, _ = projective_degrees(F, policy)
            primes = sorted({t.prime for t in pd.trials})
            assert sorted(gens[0].field.p for gens in seen) == primes
            for gens in seen:
                Fp = reduce_mod_p(F, gens[0].field.p)
                partials = [Fp.partial(k) for k in range(nvars)]
                assert gens == [q for q in partials if not q.is_zero]


def test_jacobian_scheme_rejects_undersized_prime():
    f = reduce_mod_p(parse_poly("x0^3 + x1^2*x2", 3), 5)
    with pytest.raises(ValueError, match="too small"):
        jacobian_scheme(f)


# -- hard tier ------------------------------------------------------------------


def test_quadric_times_cubic_threefold_at_default_seeds():
    # The union X = Q u C in P^4 of the Fermat quadric and cubic threefolds,
    # singular along the K3 surface Q n C.  Its last cuts grow bases of
    # over a hundred elements, where the pair criteria and the reducer's
    # first-divisor memo do real work, and their inhomogeneous
    # saturations are where sugar pair selection saves the most.
    from csmhyp.charclasses import build_report

    report = build_report(
        "(x0^2+x1^2+x2^2+x3^2+x4^2)*(x0^3+x1^3+x2^3+x3^3+x4^3)", 5
    )
    assert report.projective_degrees.g == (1, 4, 10, 22, 46)
    # By inclusion-exclusion, chi(X) = chi(Q) + chi(C) - chi(Q n C), each
    # term the top Chern number of a smooth complete intersection in P^4,
    # the h^dim coefficient of (1+h)^5 / prod(1 + d_k h) times prod d_k:
    #   Q, degree 2:      h^3 of (1+h)^5 / (1+2h)         = 2,  chi = 2*2 = 4
    #   C, degree 3:      h^3 of (1+h)^5 / (1+3h)         = -2, chi = -2*3 = -6
    #   Q n C, (2,3) K3:  h^2 of (1+h)^5 / (1+2h)(1+3h)   = 4,  chi = 4*6 = 24
    # so chi(X) = 4 + (-6) - 24 = -26.
    assert report.euler == -26
    assert report.all_passed


def test_saturate_runs_only_for_cuts_of_dimension_two_and_up(monkeypatch):
    # One trial makes n + 1 cuts; the point and line cuts (i = 0, 1) are
    # solved on their linear space, so n - 1 of them reach saturate.
    import csmhyp.segre as segre_mod

    calls = []
    real = segre_mod.saturate

    def counting(I, J):
        calls.append(len(I.gens))
        return real(I, J)

    monkeypatch.setattr(segre_mod, "saturate", counting)

    def one_trial(text, nvars):
        # the first trial of the default policy: prime 32003, seed 101
        scheme = jacobian_scheme(reduce_mod_p(parse_poly(text, nvars), 32003))
        calls.clear()
        segre_mod._degrees_one_trial(scheme, random.Random("csmhyp:32003:101"))
        return len(calls)

    for text, nvars in [
        ("x0^2*x1 + x1^3", 2),
        ("x0^2 + x1^2 + x2^2", 3),
        ("x0*x1", 3),
        ("x1^2*x2 - x0^3", 3),
        ("x0^2*x1", 4),
        ("x0^3 + x1^3 + x2^3 + x3^3", 4),
    ]:
        assert one_trial(text, nvars) == max(nvars - 2, 0), text
    # the smooth conic's plane cut still supplies saturate spans
    assert one_trial("x0^2 + x1^2 + x2^2", 3) >= 1


# -- point and line cuts -------------------------------------------------------

NONISOLATED = [
    ("x1^2*x2^2 + x2^2*x0^2 + x0^2*x1^2 - x0*x1*x2*x3", 4),
    ("(x0^2+x1^2+x2^2-x3^2)^2 + x3^4", 4),
    ("(x0^3+x1^3+x2^3)^2 + x3^6", 4),
    ("(x0^4+x1^4+x2^4+x3^4)^2 + x3^8", 4),
    ("(x0^2+x1^2+x2^2+x3^2+x4^2)^2 + x4^4", 5),
    ("x0*x1*x2*x3", 4),
]


def _value(f, point, p):
    total = 0
    for m, c in f.terms.items():
        for x, k in zip(point, m):
            c *= x**k
        total += c
    return total % p


def _power(nvars, k, e, field):
    exps = tuple(e if j == k else 0 for j in range(nvars))
    return Polynomial(nvars, {exps: 1}, field)


def _singular_point(partials, nvars, p):
    """A point with coordinates in {0, 1, -1} where every partial
    vanishes, or None."""
    for point in itertools.product((0, 1, p - 1), repeat=nvars):
        if any(point) and not any(_value(q, point, p) for q in partials):
            return point
    return None


def _force(kind, i, g, forms, planes, singular, rng):
    """Rework one seeded draw into the degenerate case ``kind``; the cut
    is left as drawn where the case does not apply."""
    from csmhyp.segre import _null_space

    nvars = g.nvars
    p = g.field.p
    e = g.degree
    xs = [variable(nvars, k, g.field) for k in range(nvars)]
    if kind == "dependent" and len(planes) >= 2:
        planes[-1] = random_linear_combination(planes[:-1], rng)
    elif kind == "g_on_cut" and planes:
        g = planes[0] * _power(nvars, 0, e - 1, g.field)
    elif kind == "f_on_line" and i == 1 and planes:
        forms[0] = planes[0] * _power(nvars, 1, e - 1, g.field)
    elif kind == "singular" and singular is not None:
        k = next(k for k, x in enumerate(singular) if x)
        inv = pow(singular[k], -1, p)
        planes = [h - xs[k].scale(_value(h, singular, p) * inv) for h in planes]
    elif kind in ("shared_at_b", "double_at_a") and i == 1:
        rows = [[h.terms.get(next(iter(x.terms)), 0) for x in xs] for h in planes]
        basis = _null_space(rows, nvars, p)
        if len(basis) == 2:
            # The line is a + s*b.  x_u restricts to 1 and x_v to s.
            a, b = basis
            u = next(k for k in range(nvars) if (a[k], b[k]) == (1, 0))
            v = next(k for k in range(nvars) if (a[k], b[k]) == (0, 1))
            if kind == "shared_at_b":  # f and g vanish at s = infinity
                forms[0] = forms[0] - _power(nvars, v, e, g.field).scale(
                    _value(forms[0], b, p))
                g = g - _power(nvars, v, e, g.field).scale(_value(g, b, p))
            else:  # f|L has a double root at s = 0, g|L a simple one
                f = forms[0]
                slope = sum(b[k] * _value(f.partial(k), a, p) for k in range(nvars))
                forms[0] = (
                    f
                    - _power(nvars, u, e, g.field).scale(_value(f, a, p))
                    - (_power(nvars, u, e - 1, g.field) * xs[v]).scale(slope)
                )
                g = g - _power(nvars, u, e, g.field).scale(_value(g, a, p))
    return g, forms, planes


def test_point_and_line_cuts_match_the_elimination():
    # Reference: dim_degree(saturate(cut, g)).  Besides plain draws, each
    # input gets dependent hyperplanes, g vanishing on the cut's point or
    # line, f vanishing on the line, a cut through a singular point of F,
    # f, g sharing the line's point b (s = infinity), and a root of f|L
    # of multiplicity 2 that g|L shares once.  The fallback must be taken
    # exactly for dependent hyperplanes or f on the line, both decided
    # here by a Groebner basis of the hyperplanes.
    from csmhyp.groebner import (
        IdealBasis,
        buchberger,
        dim_degree,
        normal_form,
        saturate,
    )
    from csmhyp.oracles import default_fixtures
    from csmhyp.segre import _point_or_line_degree

    inputs = [(c.poly, c.n + 1) for c in default_fixtures()] + NONISOLATED
    kinds = (
        "plain", "dependent", "g_on_cut", "f_on_line", "singular", "shared_at_b",
        "double_at_a",
    )
    seen = {}
    for text, nvars in inputs:
        F = parse_poly(text, nvars)
        n = nvars - 1
        for p in (7, 11, 13, 32003):
            if p <= 2 * F.degree:
                continue
            scheme = jacobian_scheme(reduce_mod_p(F, p))
            xs = [variable(nvars, k, PrimeField(p)) for k in range(nvars)]
            singular = _singular_point(scheme.partials, nvars, p)
            rng = random.Random(f"{text}:{p}")
            for i, kind, _ in itertools.product((0, 1), kinds, range(2)):
                g = random_linear_combination(scheme.partials, rng)
                forms = [
                    random_linear_combination(scheme.partials, rng) for _ in range(i)
                ]
                planes = [random_linear_combination(xs, rng) for _ in range(n - i)]
                g, forms, planes = _force(kind, i, g, forms, planes, singular, rng)
                if any(q.is_zero for q in [g] + forms + planes):
                    continue
                line = buchberger(planes) if planes else None
                dependent = bool(planes) and dim_degree(line)[0] != n - len(planes)
                on_line = i == 1 and not dependent and (
                    normal_form(forms[0], line) if planes else forms[0]
                ).is_zero
                got = _point_or_line_degree(forms, planes, g, n, p)
                dim, deg = dim_degree(
                    saturate(IdealBasis(tuple(forms + planes)), IdealBasis((g,)))
                )
                where = (text, p, i, kind)
                assert (got is None) == (dependent or on_line), where
                if got is not None:
                    assert dim in (None, 0) and got == deg, where
                key = "fallback" if got is None else (i, kind, got > 0)
                seen[key] = seen.get(key, 0) + 1
    assert seen["fallback"] > 0
    for i in (0, 1):
        assert seen[(i, "g_on_cut", False)] and seen[(i, "singular", False)]
        assert seen[(i, "plain", True)]
    assert seen[(1, "shared_at_b", True)] and seen[(1, "double_at_a", True)]
