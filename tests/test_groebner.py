"""Groebner engine: certification, saturation, and Hilbert extraction.

Expected values for the Hilbert cases were frozen from the brute-force
graded dimension count implemented below; saturations are confirmed by
membership tests, not by trusting the engine under test.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from math import comb

import pytest

from csmhyp.groebner import (
    IdealBasis,
    buchberger,
    dim_degree,
    hilbert_numerator,
    normal_form,
    saturate,
)
from csmhyp.poly import Polynomial, PrimeField, grevlex_key, parse_poly, reduce_mod_p

P = 32003
GF = PrimeField(P)


def gf(text, nvars, p=P):
    return reduce_mod_p(parse_poly(text, nvars), p)


def basis_strings(basis: IdealBasis):
    from csmhyp.poly import to_string

    return sorted(to_string(g) for g in basis.gens)


# -- brute-force oracles -------------------------------------------------------


def monomials_of_degree(nvars, d):
    for combo in combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def brute_quotient_dimension(gens, nvars, degree):
    """Monomials of one degree outside a monomial ideal, by enumeration."""
    count = 0
    for m in monomials_of_degree(nvars, degree):
        if not any(all(x >= y for x, y in zip(m, g)) for g in gens):
            count += 1
    return count


def hilbert_function_from_numerator(num, nvars, degree):
    """H(degree) recovered from N(t)/(1-t)^nvars."""
    total = 0
    for i, c in enumerate(num):
        if i <= degree:
            total += c * comb(degree - i + nvars - 1, nvars - 1)
    return total


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lf = max(f.terms, key=grevlex_key)
    lg = max(g.terms, key=grevlex_key)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    xf = Polynomial(f.nvars, {tuple(a - b for a, b in zip(lcm, lf)): 1}, f.field)
    xg = Polynomial(g.nvars, {tuple(a - b for a, b in zip(lcm, lg)): 1}, g.field)
    cf = f.field.inv(f.terms[lf])
    cg = g.field.inv(g.terms[lg])
    return xf * f.scale(cf) - xg * g.scale(cg)


def assert_is_groebner(basis: IdealBasis):
    """Certify by reducing every S-polynomial to zero."""
    gens = basis.gens
    for i in range(len(gens)):
        for j in range(i):
            assert normal_form(spolynomial(gens[i], gens[j]), basis).is_zero


# -- buchberger ----------------------------------------------------------------


def test_buchberger_examples():
    assert basis_strings(buchberger([gf("x0", 3)])) == ["x0"]
    b = buchberger([gf("x0*x1", 3), gf("x0^2", 3)])
    assert basis_strings(b) == ["x0*x1", "x0^2"]
    assert_is_groebner(b)
    b2 = buchberger([gf("x0+x1", 3), gf("x0-x1", 3)])
    assert basis_strings(b2) == ["x0", "x1"]


def test_buchberger_zero_ideal():
    b = buchberger([])
    assert b.groebner and not b.gens


def test_buchberger_idempotent_and_certified():
    rng = random.Random(3)
    for _ in range(10):
        nvars = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            terms = {}
            for m in monomials_of_degree(nvars, d):
                c = rng.randint(0, 4)
                if c:
                    terms[m] = c
            if terms:
                gens.append(Polynomial(nvars, terms, GF))
        basis = buchberger(gens)
        assert_is_groebner(basis)
        again = buchberger(basis.gens)
        assert basis_strings(again) == basis_strings(basis)
        # leading terms of a reduced basis are pairwise non-divisible
        for i, a in enumerate(basis.leading_terms):
            for j, b in enumerate(basis.leading_terms):
                if i != j:
                    assert not all(x <= y for x, y in zip(a, b))


def test_buchberger_requires_prime_field():
    with pytest.raises(ValueError):
        buchberger([parse_poly("x0", 2)])


def test_normal_form_examples():
    b = buchberger([gf("x0", 3)])
    assert normal_form(gf("x0^2", 3), b).is_zero
    assert normal_form(gf("x1^2", 3), b) == gf("x1^2", 3)
    b2 = buchberger([gf("x0^2", 3), gf("x0*x1", 3)])
    assert normal_form(gf("x0*x1 + x1^2", 3), b2) == gf("x1^2", 3)


def test_normal_form_requires_groebner_flag():
    raw = IdealBasis((gf("x0", 3),), "grevlex", False, ())
    with pytest.raises(ValueError):
        normal_form(gf("x0", 3), raw)


def test_membership_soundness_spot_check():
    # f reduces to zero exactly when it is a combination of generators
    b = buchberger([gf("x0^2 - x1*x2", 4), gf("x1^2 - x0*x3", 4)])
    inside = gf("x0^2 - x1*x2", 4) * gf("x1^3", 4) + gf("x1^2 - x0*x3", 4) * gf(
        "x0*x2^2", 4
    )
    assert normal_form(inside, b).is_zero
    assert not normal_form(gf("x0*x1", 4), b).is_zero


# -- saturation ----------------------------------------------------------------


def test_saturate_removes_the_line_component():
    # (x0^2, x0*x1) = x0 * (x0, x1): saturating by x1 removes the embedded
    # point and leaves the line x0 = 0
    I = buchberger([gf("x0^2", 3), gf("x0*x1", 3)])
    out = saturate(I, buchberger([gf("x1", 3)]))
    assert basis_strings(out) == ["x0"]


def test_saturate_by_element_vanishing_on_all_components():
    # x0 vanishes on every component of (x0^2, x0*x1), so saturation by it
    # removes everything
    I = buchberger([gf("x0^2", 3), gf("x0*x1", 3)])
    out = saturate(I, buchberger([gf("x0", 3)]))
    assert out.is_unit_ideal()


def test_saturate_by_nonzerodivisor_is_identity():
    I = buchberger([gf("x0", 3)])
    out = saturate(I, buchberger([gf("x1", 3)]))
    assert basis_strings(out) == ["x0"]


def test_saturate_by_unit_ideal_is_identity():
    I = buchberger([gf("x0^2", 3), gf("x0*x1", 3)])
    one = Polynomial(3, {(0, 0, 0): 1}, GF)
    out = saturate(I, buchberger([one]))
    assert basis_strings(out) == basis_strings(I)


def test_saturate_contains_original_ideal():
    rng = random.Random(7)
    for _ in range(6):
        d1, d2 = rng.randint(1, 2), rng.randint(1, 3)
        f = gf("x0", 3) * _random_form(rng, 3, d1)
        g = _random_form(rng, 3, d2)
        I = buchberger([f, g])
        out = saturate(I, buchberger([gf("x0", 3)]))
        for gen in I.gens:
            assert normal_form(gen, out).is_zero


def _random_form(rng, nvars, d):
    while True:
        terms = {}
        for m in monomials_of_degree(nvars, d):
            c = rng.randint(0, 6)
            if c:
                terms[m] = c
        if terms:
            return Polynomial(nvars, terms, GF)


def test_saturate_takes_a_principal_ideal_only():
    I = buchberger([gf("x0^2", 3), gf("x0*x1", 3)])
    with pytest.raises(ValueError):
        saturate(I, buchberger([gf("x0", 3), gf("x1", 3)]))
    with pytest.raises(ValueError):
        saturate(I, IdealBasis())


# -- hilbert series and dimension/degree ----------------------------------------


def test_hilbert_numerator_base_cases():
    assert hilbert_numerator([], 3) == [1]
    assert hilbert_numerator([(1, 0, 0)], 3) == [1, -1]
    assert hilbert_numerator([(0, 0, 0)], 3) == [0]


def test_hilbert_numerator_frozen_case():
    # brute-force graded count for (x0^2, x0*x1) gives H = 1, 3, 4, 5, ...
    # whose numerator over (1-t)^3 is 1 - 2t^2 + t^3
    gens = [(2, 0, 0), (1, 1, 0)]
    num = hilbert_numerator(gens, 3)
    assert num == [1, 0, -2, 1]
    for degree in range(7):
        assert hilbert_function_from_numerator(num, 3, degree) == (
            brute_quotient_dimension(gens, 3, degree)
        )


def test_hilbert_numerator_matches_brute_force_on_random_monomial_ideals():
    rng = random.Random(13)
    for _ in range(15):
        nvars = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 5)):
            m = tuple(rng.randint(0, 3) for _ in range(nvars))
            if any(m):
                gens.append(m)
        if not gens:
            continue
        num = hilbert_numerator(gens, nvars)
        for degree in range(7):
            assert hilbert_function_from_numerator(num, nvars, degree) == (
                brute_quotient_dimension(gens, nvars, degree)
            )


def test_dim_degree_examples():
    assert dim_degree(buchberger([gf("x0", 3), gf("x1", 3)])) == (0, 1)
    assert dim_degree(buchberger([gf("x0^2", 3), gf("x1", 3)])) == (0, 2)
    assert dim_degree(buchberger([gf("x0*x1", 3)])) == (1, 2)


def test_dim_degree_empty_scheme():
    gens = [gf("x0", 3), gf("x1", 3), gf("x2", 3)]
    assert dim_degree(buchberger(gens)) == (None, 0)
    one = Polynomial(3, {(0, 0, 0): 1}, GF)
    assert dim_degree(buchberger([one])) == (None, 0)


def test_dim_degree_bezout_on_random_complete_intersections():
    rng = random.Random(19)
    trials = 0
    while trials < 8:
        nvars = rng.randint(3, 4)
        k = rng.randint(1, min(3, nvars - 1))
        degs = [rng.randint(1, 3) for _ in range(k)]
        gens = [_random_form(rng, nvars, d) for d in degs]
        basis = buchberger(gens)
        dim, deg = dim_degree(basis)
        # random forms are a complete intersection with high probability;
        # skip the rare degenerate draw
        if dim != nvars - 1 - k:
            continue
        expected = 1
        for d in degs:
            expected *= d
        assert deg == expected
        trials += 1


def test_dim_degree_invariant_under_coordinate_change(substitute_linear):
    rng = random.Random(31)
    ideal_gens = [gf("x0^2 - x1*x2", 3), gf("x0*x1^2", 3)]
    reference = dim_degree(buchberger(ideal_gens))
    for _ in range(4):
        matrix = _random_invertible_matrix(rng, 3)
        moved = [substitute_linear(g, matrix) for g in ideal_gens]
        assert dim_degree(buchberger(moved)) == reference


def _random_invertible_matrix(rng, n):
    while True:
        matrix = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
        if _det_mod_p(matrix, P) != 0:
            return matrix


def _det_mod_p(matrix, p):
    m = [row[:] for row in matrix]
    n = len(m)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], p - 2, p)
        for r in range(col + 1, n):
            factor = m[r][col] * inv % p
            m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[col])]
    return det % p


def _divide_with_certificate(f, basis):
    """Classical division tracking quotients: returns (qs, r) with
    f == sum(q*g) + r, no term of r divisible by any basis lead.

    Independent of the engine's heap-driven reduction; for a Groebner
    basis the remainder must agree with normal_form (uniqueness).
    """
    gens = list(basis.gens)
    zero = Polynomial(f.nvars, {}, f.field)
    quotients = [zero for _ in gens]
    remainder = zero
    work = f
    leads = [max(g.terms, key=grevlex_key) for g in gens]
    while not work.is_zero:
        m = max(work.terms, key=grevlex_key)
        c = work.terms[m]
        for i, g in enumerate(gens):
            lt = leads[i]
            if all(a <= b for a, b in zip(lt, m)):
                shift = tuple(a - b for a, b in zip(m, lt))
                q_term = Polynomial(
                    f.nvars, {shift: f.field.mul(c, f.field.inv(g.terms[lt]))},
                    f.field,
                )
                quotients[i] = quotients[i] + q_term
                work = work - q_term * g
                break
        else:
            t = Polynomial(f.nvars, {m: c}, f.field)
            remainder = remainder + t
            work = work - t
    return quotients, remainder


def test_membership_certificates_on_small_cases():
    rng = random.Random(47)
    for _ in range(8):
        gens = [_random_form(rng, 3, rng.randint(1, 2)) for _ in range(2)]
        basis = buchberger(gens)
        if basis.is_zero_ideal() or basis.is_unit_ideal():
            continue
        # a known member: explicit combination of the generators
        member = gens[0] * _random_form(rng, 3, 1) + gens[1] * _random_form(rng, 3, 2)
        qs, r = _divide_with_certificate(member, basis)
        assert r.is_zero
        recombined = Polynomial(3, {}, GF)
        for q, g in zip(qs, basis.gens):
            recombined = recombined + q * g
        assert recombined == member
        assert normal_form(member, basis).is_zero
        # on arbitrary input the certificate remainder matches normal_form
        probe = _random_form(rng, 3, 2)
        _, r2 = _divide_with_certificate(probe, basis)
        assert r2 == normal_form(probe, basis)
