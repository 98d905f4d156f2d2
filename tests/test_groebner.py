"""Groebner engine: certification, saturation, and Hilbert extraction.

Expected values for the Hilbert cases were frozen from the brute-force
graded dimension count implemented below; saturations are confirmed by
membership tests, not by trusting the engine under test.  Reduced bases
and saturations are also compared with a textbook Buchberger below that
reduces every pair, so the engine's pair criteria are checked against an
algorithm without them.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from csmhyp import groebner
from csmhyp.charclasses import build_report
from csmhyp.groebner import (
    LIMIT,
    IdealBasis,
    _Layout,
    buchberger,
    dim_degree,
    hilbert_numerator,
    normal_form,
    saturate,
    standard_monomial_count,
)
from csmhyp.oracles import affine_milnor_total, default_fixtures
from csmhyp.poly import (
    Polynomial,
    PrimeField,
    grevlex_key,
    parse_poly,
    random_linear_combination,
    reduce_mod_p,
    to_string,
    variable,
)

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
    cf = pow(f.terms[lf], -1, f.field.p)
    cg = pow(g.terms[lg], -1, g.field.p)
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
    b = buchberger([Polynomial(3, {}, GF)])
    assert b.groebner and not b.gens and not b.leading_terms
    assert (b.nvars, b.field) == (3, GF)


def test_an_ideal_needs_a_generator_to_name_its_ring():
    with pytest.raises(ValueError, match="ring"):
        buchberger([])
    with pytest.raises(ValueError, match="ring"):
        IdealBasis(())


def test_the_zero_ideal_is_all_of_projective_space():
    # The zero ideal of k[x0, x1, x2] cuts out P^2, of degree 1, and its
    # quotient, the whole ring, has infinitely many standard monomials.
    basis = buchberger([Polynomial(3, {}, GF)])
    assert dim_degree(basis) == (2, 1)
    assert standard_monomial_count(basis) is None


def test_the_zero_ideal_divides_and_saturates_to_itself():
    zero = Polynomial(3, {}, GF)
    basis = buchberger([zero])
    f = gf("x0^2 + 3*x1*x2 - x2^2", 3)
    assert normal_form(f, basis) == f
    sat = saturate(IdealBasis((zero,)), IdealBasis((gf("x0", 3),)))
    assert sat.groebner and not sat.gens
    assert (sat.nvars, sat.field) == (3, GF)
    assert dim_degree(sat) == (2, 1)


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
    raw = IdealBasis((gf("x0", 3),))
    with pytest.raises(ValueError):
        normal_form(gf("x0", 3), raw)


def test_a_caller_cannot_claim_a_groebner_basis():
    # Only buchberger and saturate make a Groebner basis: a caller's
    # generators are a generating set, whatever they are.
    x0 = gf("x0", 2)
    with pytest.raises(TypeError):
        IdealBasis((x0,), True)
    with pytest.raises(TypeError):
        IdealBasis((x0,), groebner=True)
    with pytest.raises(TypeError):
        IdealBasis((x0,), leading_terms=((1, 0),))
    raw = IdealBasis((x0,))
    assert not raw.groebner
    with pytest.raises(AttributeError):
        raw.groebner = True
    with pytest.raises(ValueError):
        raw.leading_terms
    assert buchberger([x0]).groebner and buchberger([x0 - x0]).groebner
    assert saturate(raw, IdealBasis((gf("x1", 2),))).groebner


def test_generating_sets_are_refused_and_computed_bases_are_right():
    # At p = 101, x0 = -x1/2 = 50*x1 modulo 2*x0 + x1.  Monic division by
    # the engine's own basis gives it; a generating set is refused, as it
    # is by dim_degree.  The point x0 = 0 of P^1 has dimension 0, degree 1.
    p = 101
    x0, line = gf("x0", 2, p), gf("2*x0 + x1", 2, p)
    assert normal_form(x0, buchberger([line])) == gf("50*x1", 2, p)
    raw = IdealBasis((line,))
    with pytest.raises(ValueError, match="Groebner"):
        normal_form(x0, raw)
    with pytest.raises(ValueError, match="Groebner"):
        dim_degree(raw)
    assert dim_degree(buchberger([x0])) == (0, 1)


def test_membership_soundness_spot_check():
    # f reduces to zero exactly when it is a combination of generators
    b = buchberger([gf("x0^2 - x1*x2", 4), gf("x1^2 - x0*x3", 4)])
    inside = gf("x0^2 - x1*x2", 4) * gf("x1^3", 4) + gf("x1^2 - x0*x3", 4) * gf(
        "x0*x2^2", 4
    )
    assert normal_form(inside, b).is_zero
    assert not normal_form(gf("x0*x1", 4), b).is_zero


# -- pair criteria against a criteria-free reference ---------------------------

SMALL = 7  # a small prime, so that cancellations and equal lcms are common


def _ref_reduce(f, basis, order, p):
    """Full reduction of term dict f by (lead, monic dict) pairs, always
    dividing the largest remaining monomial by the first lead that divides
    it."""
    f = dict(f)
    remainder = {}
    while f:
        m = max(f, key=order)
        c = f.pop(m)
        for lt, g in basis:
            if all(a <= b for a, b in zip(lt, m)):
                shift = tuple(b - a for a, b in zip(lt, m))
                for mg, cg in g.items():
                    if mg != lt:
                        mm = tuple(a + b for a, b in zip(shift, mg))
                        v = (f.get(mm, 0) - c * cg) % p
                        if v:
                            f[mm] = v
                        else:
                            f.pop(mm, None)
                break
        else:
            remainder[m] = c
    return remainder


def reference_reduced_basis(gens, p, order=grevlex_key):
    """Reduced Groebner basis of term dicts by the textbook Buchberger
    algorithm: every pair is reduced, smallest lcm first, with no
    criterion; the result is then minimalized and tail-reduced.  Returned
    as a sorted list of sorted term tuples."""
    basis, pairs = [], []

    def add(f):
        lt = max(f, key=order)
        inv = pow(f[lt], p - 2, p)
        for i, (li, _) in enumerate(basis):
            lcm = tuple(map(max, li, lt))
            heapq.heappush(pairs, (order(lcm), i, len(basis), lcm))
        basis.append((lt, {m: c * inv % p for m, c in f.items()}))

    for g in gens:
        if g:
            add(g)
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        (li, gi), (lj, gj) = basis[i], basis[j]
        s = {}
        for lt, g, sign in ((li, gi, 1), (lj, gj, -1)):
            shift = tuple(a - b for a, b in zip(lcm, lt))
            for m, c in g.items():
                mm = tuple(a + b for a, b in zip(shift, m))
                s[mm] = (s.get(mm, 0) + sign * c) % p
        r = _ref_reduce({m: c for m, c in s.items() if c}, basis, order, p)
        if r:
            add(r)
    basis.sort(key=lambda e: order(e[0]))
    minimal = []
    for lt, g in basis:
        if not any(all(a <= b for a, b in zip(m, lt)) for m, _ in minimal):
            minimal.append((lt, g))
    return sorted(
        tuple(sorted(_ref_reduce(g, minimal[:k] + minimal[k + 1 :], order, p).items()))
        for k, (_, g) in enumerate(minimal)
    )


def _terms(basis: IdealBasis):
    return sorted(tuple(sorted(g.terms.items())) for g in basis.gens)


def _random_terms(rng, nvars, degrees, density):
    """A random term dict with monomials of the given degrees, nonzero."""
    while True:
        terms = {}
        for d in degrees:
            for m in monomials_of_degree(nvars, d):
                if rng.random() < density:
                    terms[m] = rng.randrange(1, SMALL)
        if terms:
            return terms


def _random_monomial(rng, nvars, top):
    return tuple(rng.randint(0, top) for _ in range(nvars))


def _random_ideal(rng, family):
    """(nvars, generators as term dicts) of one family of test ideals."""
    if family == "homogeneous":
        nvars = rng.randint(2, 4)
        top = 3 if nvars < 4 else 2
        gens = [
            _random_terms(rng, nvars, [rng.randint(1, top)], 0.4)
            for _ in range(rng.randint(2, 3))
        ]
    elif family == "inhomogeneous":
        nvars = rng.randint(2, 3)
        gens = [
            _random_terms(rng, nvars, range(rng.randint(1, 3) + 1), 0.3)
            for _ in range(rng.randint(2, 3))
        ]
    elif family == "rabinowitsch":
        # an ideal in x plus 1 - t*g, with t the last variable
        nx = rng.randint(2, 3)
        nvars = nx + 1
        gens = [
            {m + (0,): c for m, c in _random_terms(rng, nx, [rng.randint(1, 2)], 0.5).items()}
            for _ in range(rng.randint(1, 2))
        ]
        g = _random_terms(rng, nx, [rng.randint(1, 2)], 0.5)
        rel = {m + (1,): -c % SMALL for m, c in g.items()}
        rel[(0,) * nvars] = 1
        gens.append(rel)
    else:  # monomials and binomials, where equal lcms and coprime ties abound
        nvars = rng.choice((2, 3, 3))
        gens = []
        for _ in range(rng.randint(3, 6)):
            a = _random_monomial(rng, nvars, 3)
            if rng.random() < 0.3:
                gens.append({a: 1})
                continue
            b = _random_monomial(rng, nvars, 3)
            if a == b:
                continue
            gens.append({a: 1, b: rng.randrange(1, SMALL)})
    return nvars, gens


@pytest.fixture
def tail_reductions(monkeypatch):
    """The calls of the deferred tail reduction, recorded as they run."""
    real = groebner._tail_reduced
    calls = []

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "_tail_reduced", recording)
    return calls


def assert_reduced_on_first_read(basis, calls):
    """Reads of a computed basis other than ``gens`` run no tail reduction;
    the first read of ``gens`` runs one and a second read returns the same
    tuple, whose leading monomials are ``leading_terms`` in order."""
    before = len(calls)
    assert basis.leading_terms
    nvars, field = basis.nvars, basis.field
    dim_degree(basis)
    assert len(calls) == before
    gens = basis.gens
    assert len(calls) == before + 1
    assert basis.gens is gens
    assert len(calls) == before + 1
    assert all(g.nvars == nvars and g.field == field for g in gens)
    assert basis.leading_terms == tuple(max(g.terms, key=grevlex_key) for g in gens)


def test_buchberger_matches_a_criteria_free_reference(tail_reductions):
    # Reduced bases are unique, so dropping pairs by the criteria, and the
    # first-divisor memo, must not change any basis.
    field = PrimeField(SMALL)
    rng = random.Random(61)
    families = ("homogeneous", "inhomogeneous", "rabinowitsch", "binomial", "binomial")
    for k in range(600):
        nvars, gens = _random_ideal(rng, families[k % 5])
        got = buchberger([Polynomial(nvars, g, field) for g in gens])
        assert_reduced_on_first_read(got, tail_reductions)
        assert _terms(got) == reference_reduced_basis(gens, SMALL), (nvars, gens)


def test_saturate_matches_a_criteria_free_elimination(tail_reductions):
    # I : g^infty is the t-free part of the reduced basis of I + (1 - t*g)
    # in an order comparing the t exponent first.
    field = PrimeField(SMALL)
    rng = random.Random(67)

    def eliminate_t(m):
        return (m[-1], grevlex_key(m[:-1]))

    for k in range(120):
        nvars = rng.randint(2, 3)
        degrees = [rng.randint(1, 2)] if k % 2 else range(3)
        gens = [_random_terms(rng, nvars, degrees, 0.5) for _ in range(2)]
        g = _random_terms(rng, nvars, [rng.randint(1, 2)], 0.5)
        rel = {m + (1,): -c % SMALL for m, c in g.items()}
        rel[(0,) * (nvars + 1)] = 1
        ext = [{m + (0,): c for m, c in f.items()} for f in gens] + [rel]
        expected = [
            tuple((m[:-1], c) for m, c in f)
            for f in reference_reduced_basis(ext, SMALL, eliminate_t)
            if all(m[-1] == 0 for m, _ in f)
        ]
        got = saturate(
            IdealBasis(tuple(Polynomial(nvars, f, field) for f in gens)),
            IdealBasis((Polynomial(nvars, g, field),)),
        )
        assert_reduced_on_first_read(got, tail_reductions)
        assert _terms(got) == expected, (gens, g)


def test_the_reducer_reduces_each_coefficient_once_at_pop():
    # S-polynomials reach the reducer with coefficients not reduced mod p,
    # and it reduces each monomial's coefficient when it pops it.  A dict
    # whose coefficients are negative, at least p or 0 must give the
    # remainder of the same dict reduced mod p, which the textbook
    # reduction by the reduced basis confirms: every coefficient in
    # [1, p), in the same order, the leading term first.  Zero monomials
    # above the others make the leading entry 0 now and then.
    field = PrimeField(SMALL)
    rng = random.Random(79)
    families = ("homogeneous", "inhomogeneous", "rabinowitsch", "binomial")
    seen = set()
    for k in range(200):
        nvars, gens = _random_ideal(rng, families[k % 4])
        basis = buchberger([Polynomial(nvars, g, field) for g in gens])
        leads, polys, lay = basis._computed
        f = _random_terms(rng, nvars, range(4), 0.3)
        raw = {m: c + SMALL * rng.randint(-3, 3) for m, c in f.items()}
        for m in monomials_of_degree(nvars, rng.randint(2, 5)):
            if m not in f and rng.random() < 0.3:
                raw[m] = SMALL * rng.randint(-2, 2)
        want = groebner._reduce_full(
            {lay.pack(m): c for m, c in f.items()}, leads, polys, lay, SMALL, {}
        )
        got = groebner._reduce_full(
            {lay.pack(m): c for m, c in raw.items()}, leads, polys, lay, SMALL, {}
        )
        where = (nvars, gens, raw)
        assert list(got.items()) == list(want.items()), where
        assert all(0 < c < SMALL for c in got.values()), where
        assert list(got) == sorted(got, key=lay.key, reverse=True), where
        reference = _ref_reduce(
            f, [(max(g.terms, key=grevlex_key), g.terms) for g in basis.gens],
            grevlex_key, SMALL,
        )
        assert {lay.unpack(m): c for m, c in got.items()} == reference, where
        seen.add((bool(got), max(raw, key=grevlex_key) in f))
    assert {(True, True), (True, False), (False, True)} <= seen


def test_a_computed_basis_carries_leads_and_monic_tails():
    # Each element is its lead and its tail, the list of its other terms,
    # which all lie strictly below the lead, with coefficients in [1, p);
    # the lead's coefficient, 1, is not stored.
    field = PrimeField(SMALL)
    rng = random.Random(83)
    families = ("homogeneous", "inhomogeneous", "rabinowitsch", "binomial")
    tails_seen = 0
    for k in range(200):
        nvars, gens = _random_ideal(rng, families[k % 4])
        polys = [Polynomial(nvars, g, field) for g in gens]
        g = Polynomial(nvars, _random_terms(rng, nvars, [1, 2], 0.5), field)
        for basis in (buchberger(polys), saturate(IdealBasis(tuple(polys)), IdealBasis((g,)))):
            leads, tails, lay = basis._computed
            assert len(leads) == len(tails)
            for lt, tail in zip(leads, tails):
                assert type(tail) is list
                assert all(lay.key(m) < lay.key(lt) for m, _ in tail), (nvars, gens)
                assert all(0 < c < SMALL for _, c in tail), (nvars, gens)
                assert len({m for m, _ in tail}) == len(tail)
                tails_seen += bool(tail)
            assert basis.leading_terms == tuple(lay.unpack(m) for m in leads)
    assert tails_seen > 100


def test_an_s_polynomial_holds_no_entry_at_the_lcm():
    # The S-polynomial of two carried elements is u*tail_i - v*tail_j:
    # the textbook S-polynomial of the full monic elements, whose entry
    # at the lcm is 0, with that entry dropped.
    field = PrimeField(SMALL)
    rng = random.Random(89)
    families = ("homogeneous", "inhomogeneous", "rabinowitsch", "binomial")
    pairs = 0
    for k in range(120):
        nvars, gens = _random_ideal(rng, families[k % 4])
        basis = buchberger([Polynomial(nvars, g, field) for g in gens])
        leads, tails, lay = basis._computed
        full = [
            Polynomial(nvars, {lay.unpack(m): c for m, c in [(lt, 1), *tail]}, field)
            for lt, tail in zip(leads, tails)
        ]
        for i in range(len(leads)):
            for j in range(i):
                L = lay.lcm(leads[i], leads[j])
                s = groebner._spoly(tails[i], leads[i], tails[j], leads[j], L, lay.guard)
                assert L not in s
                got = {lay.unpack(m): c % SMALL for m, c in s.items() if c % SMALL}
                want = spolynomial(full[i], full[j]).terms
                assert lay.unpack(L) not in want
                assert got == want, (nvars, gens, i, j)
                pairs += 1
    assert pairs > 100


def test_reduced_bases_do_not_depend_on_the_generator_order():
    # The sugar of a pair depends on the degrees of the inputs it comes
    # from, so the pair taken first changes with the generator order;
    # reduced bases are unique, so the results must not.  The binomials'
    # shared lcms also exercise the pair criteria.
    field = PrimeField(SMALL)
    rng = random.Random(71)
    families = ("homogeneous", "inhomogeneous", "rabinowitsch", "binomial")
    for k in range(160):
        nvars, gens = _random_ideal(rng, families[k % 4])
        g = Polynomial(nvars, _random_terms(rng, nvars, [1, 2], 0.5), field)
        polys = [Polynomial(nvars, f, field) for f in gens]
        basis = _terms(buchberger(polys))
        saturated = _terms(saturate(IdealBasis(tuple(polys)), IdealBasis((g,))))
        for _ in range(2):
            rng.shuffle(polys)
            assert _terms(buchberger(polys)) == basis, (nvars, gens)
            got = saturate(IdealBasis(tuple(polys)), IdealBasis((g,)))
            assert _terms(got) == saturated, (nvars, gens, g)


# -- packed monomials ----------------------------------------------------------


def _random_exponents(rng, nvars, cap):
    """Mostly small exponents, some zeros, now and then one near ``cap``."""
    exps = [rng.choice((0, 0, 1, 2, 3, rng.randint(0, 9))) for _ in range(nvars)]
    if rng.random() < 0.2:
        exps[rng.randrange(nvars)] = rng.randint(0, cap)
    return tuple(exps)


def test_packed_monomials_match_tuple_definitions():
    rng = random.Random(5)
    for nvars in range(2, 8):
        # graded: all nvars variables; elimination: the last one is t
        lay, lay_t = _Layout(nvars), _Layout(nvars - 1)
        cap = LIMIT // (2 * nvars)  # keeps every lcm's degree in range
        monos = [_random_exponents(rng, nvars, cap) for _ in range(40)]
        packed = [lay.pack(m) for m in monos]
        elim = [lay_t.pack(m[:-1]) + (m[-1] << lay_t.tshift) for m in monos]
        for a, pa, ea in zip(monos, packed, elim):
            assert lay.unpack(pa) == a
            for b, pb, eb in zip(monos, packed, elim):
                assert (lay.key(pa) < lay.key(pb)) == (grevlex_key(a) < grevlex_key(b))
                assert (lay_t.key(ea) < lay_t.key(eb)) == (
                    (a[-1], grevlex_key(a[:-1])) < (b[-1], grevlex_key(b[:-1]))
                )
                top = tuple(max(x, y) for x, y in zip(a, b))
                assert lay.lcm(pa, pb) == lay.pack(top)
                assert lay_t.lcm(ea, eb) == (
                    lay_t.pack(top[:-1]) + (top[-1] << lay_t.tshift)
                )
                # the kernel's divisibility test: one masked subtract
                divides = all(x <= y for x, y in zip(a, b))
                assert (not (pb - pa) & lay.guard) == divides
                assert (not (eb - ea) & lay_t.guard) == divides


def test_exponent_overflow_is_a_value_error():
    big = Polynomial(2, {(2**15, 0): 1}, GF)
    with pytest.raises(ValueError, match="exceeds"):
        buchberger([big])
    with pytest.raises(ValueError, match="exceeds"):
        normal_form(big, buchberger([gf("x1", 2)]))
    # inputs in range whose S-pair lcm is not: the kernel raises too
    f = Polynomial(2, {(20000, 0): 1, (0, 1): 1}, GF)
    g = Polynomial(2, {(0, 20000): 1, (1, 0): 1}, GF)
    with pytest.raises(ValueError, match="exceeds"):
        buchberger([f, g])


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
    assert dim_degree(out) == (None, 0)
    assert basis_strings(out) == ["1"]


def test_saturate_by_nonzerodivisor_is_identity():
    I = buchberger([gf("x0", 3)])
    out = saturate(I, buchberger([gf("x1", 3)]))
    assert basis_strings(out) == ["x0"]


def test_saturate_by_unit_ideal_is_identity(monkeypatch):
    I = buchberger([gf("x0^2", 3), gf("x0*x1", 3)])
    one = Polynomial(3, {(0, 0, 0): 1}, GF)
    out = saturate(I, buchberger([one]))
    assert basis_strings(out) == basis_strings(I)
    # A nonzero constant g, as a chart cut saturated by its chart variable
    # has, gives the basis of I's own generators, computed with no
    # relation 1 - t*g: the same leads and gens as ``buchberger``, for
    # inhomogeneous generators and for a computed basis alike.
    inputs = []
    real = groebner._buchberger

    def recorded(gens, lay, p):
        inputs.append([m for d in gens for m in d])
        return real(gens, lay, p)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    t = 1 << groebner._layout(2).tshift
    rng = random.Random(23)
    sizes = set()
    for c, _ in product((1, 5, P - 1), range(4)):
        unit = IdealBasis((Polynomial(2, {(0, 0): c}, GF),))
        gens = [_random_form(rng, 3, rng.randint(1, 3)).dehomogenize(2) for _ in "fg"]
        want = buchberger(gens)
        for I in (IdealBasis(tuple(gens)), want):
            inputs.clear()
            out = saturate(I, unit)
            assert out.leading_terms == want.leading_terms
            assert out.gens == want.gens
            assert len(inputs) == 1 and all(m < t for m in inputs[0])
        sizes.add(len(want.gens))
    assert max(sizes) >= 3


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


def test_saturate_of_raw_generators_matches_saturate_of_their_basis(tail_reductions):
    # The cuts of the projective-degree computation: i random combinations
    # of the partials of F and n - i random hyperplanes, saturated by one
    # more combination of the partials.  The reduced basis of an ideal is
    # unique, so saturating the generators directly must give the same
    # basis as saturating their reduced Groebner basis.
    rng = random.Random(53)
    cases = ["x0*x1*x2", "x0^2*x1 + x2^3", "x0^2*x1", "x0*x1*x2*x3", "x0^2*x1*x2 + x3^4"]
    for _ in range(2):
        cases.append(to_string(_random_form(rng, 4, 3)))
    for text in cases:
        nvars = 4 if "x3" in text else 3
        F = gf(text, nvars)
        partials = [q for q in (F.partial(k) for k in range(nvars)) if not q.is_zero]
        xs = [variable(nvars, k, GF) for k in range(nvars)]
        J = IdealBasis((random_linear_combination(partials, rng),))
        for i in range(nvars):
            gens = [random_linear_combination(partials, rng) for _ in range(i)]
            gens += [random_linear_combination(xs, rng) for _ in range(nvars - 1 - i)]
            raw = saturate(IdealBasis(tuple(gens)), J)
            via_basis = saturate(buchberger(gens), J)
            # the elimination and the normal form take a computed basis's
            # elements unreduced
            assert normal_form(J.gens[0] * gens[0], via_basis).is_zero
            assert not tail_reductions
            assert raw.gens == via_basis.gens
            assert raw.leading_terms == via_basis.leading_terms
            tail_reductions.clear()


def test_the_pipeline_and_the_milnor_oracle_never_reduce_a_basis(
    monkeypatch, bench_workloads
):
    # The projective degrees are Hilbert-function counts, which read only
    # leading terms, so no report needs a basis tail-reduced or unpacked;
    # nor does the Milnor oracle, which saturates a computed basis.
    def refuse(*args):
        raise AssertionError("a Groebner basis was tail-reduced")

    monkeypatch.setattr(groebner, "_tail_reduced", refuse)
    for workload in ("corpus", "nonisolated"):
        for case in bench_workloads.WORKLOADS[workload]():
            report = build_report(case.poly, case.nvars)
            got = report.to_json_dict()
            assert {k: got.get(k) for k in case.expected} == case.expected, case.name
            assert report.all_passed, case.name
    for fix in default_fixtures():
        if fix.milnor_oracle is not None:
            assert affine_milnor_total(fix.parse()) == fix.milnor_oracle, fix.name


def test_a_chart_cut_and_the_milnor_oracle_unpack_no_lead(monkeypatch, bench_workloads):
    # A count reads the packed leads that a computed basis carries, so
    # neither a chart cut nor the Milnor oracle unpacks a monomial.
    from csmhyp import segre

    cuts, chart_degree = [], segre._chart_degree

    def capture(*args):
        cuts.append(args)
        return chart_degree(*args)

    monkeypatch.setattr(segre, "_chart_degree", capture)
    corpus = bench_workloads.WORKLOADS["corpus"]()
    case = next(c for c in corpus if c.name == "smooth_cubic_p3")
    build_report(case.poly, case.nvars, segre.TrialPolicy(seeds=(7, 8)))
    unpacked, unpack = [], _Layout.unpack

    def count(lay, m):
        unpacked.append(m)
        return unpack(lay, m)

    monkeypatch.setattr(_Layout, "unpack", count)
    assert chart_degree(*cuts[0]) == 8  # g_3 of a smooth cubic surface, (d - 1)^3
    assert affine_milnor_total(parse_poly("x1^2*x2 - x0^3 - x0^2*x2", 3)) == 1
    assert unpacked == []


def test_saturate_takes_a_principal_ideal_only():
    I = buchberger([gf("x0^2", 3), gf("x0*x1", 3)])
    with pytest.raises(ValueError):
        saturate(I, buchberger([gf("x0", 3), gf("x1", 3)]))
    with pytest.raises(ValueError):
        saturate(I, IdealBasis())


# -- hilbert series and dimension/degree ----------------------------------------


def monomial_basis(monomials, nvars):
    """The computed basis of the monomial ideal that the exponent tuples
    generate: ``buchberger`` of the monomials as polynomials, or of the
    zero polynomial of the ring when there are none."""
    gens = [Polynomial(nvars, {m: 1}, GF) for m in monomials]
    return buchberger(gens or [Polynomial(nvars, {}, GF)])


def test_hilbert_numerator_base_cases():
    assert hilbert_numerator(monomial_basis([], 3)) == [1]  # the zero ideal
    assert hilbert_numerator(monomial_basis([(1, 0, 0)], 3)) == [1, -1]
    assert hilbert_numerator(monomial_basis([(0, 0, 0)], 3)) == [0]  # the unit ideal


def test_hilbert_numerator_frozen_case():
    # brute-force graded count for (x0^2, x0*x1) gives H = 1, 3, 4, 5, ...
    # whose numerator over (1-t)^3 is 1 - 2t^2 + t^3
    gens = [(2, 0, 0), (1, 1, 0)]
    num = hilbert_numerator(monomial_basis(gens, 3))
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
        num = hilbert_numerator(monomial_basis(gens, nvars))
        for degree in range(7):
            assert hilbert_function_from_numerator(num, nvars, degree) == (
                brute_quotient_dimension(gens, nvars, degree)
            )


def graded_standard_counts(gens, nvars, top):
    """Standard monomials of a monomial ideal counted degree by degree up
    to ``top``: those of degree k + 1 are the standard multiples x_i * m
    of those of degree k, since a divisor of a standard monomial is
    standard."""
    def inside(m):
        return any(all(x >= y for x, y in zip(m, g)) for g in gens)

    level = {m for m in [(0,) * nvars] if not inside(m)}
    counts = [len(level)]
    for _ in range(top):
        level = {
            m[:i] + (m[i] + 1,) + m[i + 1 :] for m in level for i in range(nvars)
        }
        level = {m for m in level if not inside(m)}
        counts.append(len(level))
    return counts


def test_packed_hilbert_numerator_matches_graded_counts():
    # Random monomial ideals in up to 6 variables with exponents up to 5,
    # redundant and repeated generators included.  N(t) has degree at
    # most that of the lcm of the generators, so (1-t)^nvars times the
    # counts up to that degree is all of it; ideals whose lcm has degree
    # above 14 are redrawn to keep the counts small.
    rng = random.Random(2024)
    done = 0
    while done < 80:
        nvars = rng.randint(1, 6)
        gens = []
        for _ in range(rng.randint(1, 7)):
            support = rng.sample(range(nvars), rng.randint(1, min(3, nvars)))
            gens.append(
                tuple(rng.randint(1, 5) if j in support else 0 for j in range(nvars))
            )
        if rng.random() < 0.2:
            gens.append(rng.choice(gens))
        if rng.random() < 0.05:
            gens.append((0,) * nvars)
        top = sum(max(m[j] for m in gens) for j in range(nvars))
        if top > 14:
            continue
        done += 1
        series = graded_standard_counts(gens, nvars, top)
        for _ in range(nvars):  # multiply by (1 - t), truncated at t^top
            series = [series[0]] + [b - a for a, b in zip(series, series[1:])]
        while len(series) > 1 and series[-1] == 0:
            series.pop()
        assert hilbert_numerator(monomial_basis(gens, nvars)) == series, gens


def test_hilbert_numerator_rejects_bad_monomials():
    num = hilbert_numerator(monomial_basis([(LIMIT, 0)], 2))
    assert num == [1] + [0] * (LIMIT - 1) + [-1]
    with pytest.raises(ValueError, match=f"exceeds {LIMIT}"):
        hilbert_numerator(monomial_basis([(LIMIT + 1, 0, 0)], 3))


def brute_standard_monomial_count(gens, nvars):
    """Monomials outside an Artinian monomial ideal, by enumerating the box
    under the smallest pure power of each variable."""
    bounds = [
        min(m[i] for m in gens if m[i] and sum(m) == m[i]) for i in range(nvars)
    ]
    return sum(
        1
        for m in product(*(range(b) for b in bounds))
        if not any(all(x >= y for x, y in zip(m, g)) for g in gens)
    )


def test_standard_monomial_count_matches_a_box_count():
    rng = random.Random(71)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(1, 4) if j == i else 0 for j in range(nvars))
            for i in range(nvars)
        ]
        gens += [_random_monomial(rng, nvars, 3) for _ in range(rng.randint(0, 4))]
        gens = [m for m in gens if any(m)]
        assert standard_monomial_count(monomial_basis(gens, nvars)) == (
            brute_standard_monomial_count(gens, nvars)
        )


def test_standard_monomial_count_edge_cases():
    def count(monomials, nvars):
        return standard_monomial_count(monomial_basis(monomials, nvars))

    assert count([], 2) is None  # the zero ideal
    assert count([(0, 0)], 2) == 0  # the unit ideal
    assert count([(2, 0), (1, 1)], 2) is None  # a line
    assert count([(2, 0), (0, 3)], 2) == 6
    assert count([(3,)], 1) == 3


def test_every_count_refuses_a_generating_set():
    raw = IdealBasis((gf("x0", 3),))
    for count in (hilbert_numerator, standard_monomial_count, dim_degree):
        with pytest.raises(ValueError, match="Groebner"):
            count(raw)
    # An empty generator list names no ring, so it is refused first.
    with pytest.raises(ValueError, match="ring"):
        dim_degree(buchberger([]))


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
                    f.nvars, {shift: c * pow(g.terms[lt], -1, f.field.p) % f.field.p},
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
        if not basis.leading_terms or dim_degree(basis) == (None, 0):
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
