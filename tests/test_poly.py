"""Polynomial arithmetic, parsing, and the field plumbing."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from csmhyp.errors import PolynomialParseError
from csmhyp.poly import (
    Polynomial,
    PrimeField,
    QQ,
    euler_check,
    parse_poly,
    random_linear_combination,
    reduce_mod_p,
    to_string,
    variable,
)


def monomials_of_degree(nvars, d):
    for combo in combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def random_form(rng, nvars, d, lo=-3, hi=3):
    while True:
        terms = {}
        for m in monomials_of_degree(nvars, d):
            c = rng.randint(lo, hi)
            if c:
                terms[m] = c
        if terms:
            return Polynomial(nvars, terms, QQ)


def test_parse_examples():
    f = parse_poly("x0^2 + x1^2 + x2^2", 3)
    assert f.degree == 2 and len(f.terms) == 3
    g = parse_poly("x1^2*x2 - x0^3", 3)
    assert g.degree == 3 and len(g.terms) == 2
    h = parse_poly("x0^2 + x1^2 - x1^2", 3)
    assert h == parse_poly("x0^2", 3)


def test_parse_rejects_zero_polynomial():
    with pytest.raises(PolynomialParseError):
        parse_poly("x0 - x0", 3)


def test_parse_rejects_inhomogeneous():
    with pytest.raises(PolynomialParseError):
        parse_poly("x0^2 + x1", 3)


def test_parse_rejects_unknown_variable():
    with pytest.raises(PolynomialParseError):
        parse_poly("x0 + x5", 3)


def test_parse_rejects_garbage():
    with pytest.raises(PolynomialParseError):
        parse_poly("x0 + ", 3)
    with pytest.raises(PolynomialParseError):
        parse_poly("x0 @ x1", 3)
    with pytest.raises(PolynomialParseError):
        parse_poly("(x0 + x1", 3)


def test_parse_parentheses_and_powers():
    f = parse_poly("(x0 + x1)^2 - 2*x0*x1", 3)
    assert f == parse_poly("x0^2 + x1^2", 3)


def test_print_parse_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        nvars = rng.randint(2, 4)
        f = random_form(rng, nvars, rng.randint(1, 4))
        assert parse_poly(to_string(f), nvars) == f


def test_partial_derivative_examples():
    f = parse_poly("x0^2*x1", 3)
    assert f.partial(0) == parse_poly("2*x0*x1", 3)
    assert f.partial(2).is_zero
    g = parse_poly("x1^2*x2 - x0^3", 3)
    assert g.partial(0) == parse_poly("0 - 3*x0^2", 3)
    with pytest.raises(IndexError):
        f.partial(3)


def test_homogeneity_preserved_by_operations():
    rng = random.Random(17)
    for _ in range(20):
        f = random_form(rng, 3, 3)
        g = random_form(rng, 3, 3)
        assert (f + g).is_homogeneous()
        assert (f * g).is_homogeneous()
        assert f.partial(1).is_homogeneous()


def test_euler_check_over_q():
    assert euler_check(parse_poly("x0*x1*x2", 3))
    rng = random.Random(29)
    for _ in range(20):
        f = random_form(rng, rng.randint(2, 4), rng.randint(1, 5))
        assert euler_check(f)


def test_euler_check_prime_field():
    p = 5
    gf = PrimeField(p)
    f = Polynomial(2, {(p, 0): 1}, gf)  # x0^p: all partials vanish
    assert not euler_check(f)
    g = reduce_mod_p(parse_poly("x0^2*x1", 3), p)
    assert euler_check(g)  # p does not divide 3


def test_random_linear_combination_determinism():
    f = reduce_mod_p(parse_poly("x0^2+x1^2+x2^2", 3), 32003)
    partials = [f.partial(i) for i in range(3)]
    a = random_linear_combination(partials, random.Random("fixed"))
    b = random_linear_combination(partials, random.Random("fixed"))
    assert a == b and not a.is_zero
    assert a.degree == 1


def test_random_linear_combination_single_poly_never_zero():
    f = reduce_mod_p(parse_poly("x0^2", 3), 32003)
    for seed in range(10):
        c = random_linear_combination([f], random.Random(seed))
        assert not c.is_zero


def test_random_linear_combination_errors():
    gf = PrimeField(32003)
    with pytest.raises(ValueError):
        random_linear_combination([], random.Random(0))
    mixed = [
        Polynomial(2, {(1, 0): 1}, gf),
        Polynomial(2, {(2, 0): 1}, gf),
    ]
    with pytest.raises(ValueError):
        random_linear_combination(mixed, random.Random(0))
    rational = [parse_poly("x0", 2)]
    with pytest.raises(ValueError):
        random_linear_combination(rational, random.Random(0))


def test_reduce_mod_p_examples():
    assert reduce_mod_p(parse_poly("3*x0^2", 3), 5) == Polynomial(
        3, {(2, 0, 0): 3}, PrimeField(5)
    )
    with pytest.raises(ValueError):
        reduce_mod_p(parse_poly("5*x0^2", 3), 5)
    half = Polynomial(3, {(1, 1, 0): Fraction(1, 2)}, QQ)
    assert reduce_mod_p(half, 7).terms == {(1, 1, 0): 4}
    bad_denominator = Polynomial(3, {(1, 0, 0): Fraction(1, 5)}, QQ)
    with pytest.raises(ValueError):
        reduce_mod_p(bad_denominator, 5)


def test_prime_field_rejects_composites():
    for n in (32004, 561, 3215031751, 10**18 + 1):
        with pytest.raises(ValueError):
            PrimeField(n)


def test_prime_field_accepts_large_primes():
    assert PrimeField(2147483647).p == 2147483647
    assert PrimeField(10**18 + 3).p == 10**18 + 3

def test_dehomogenize():
    f = parse_poly("x1^2*x2 - x0^3 - x0^2*x2", 3)
    g = f.dehomogenize(2)
    assert g.nvars == 2
    assert g == Polynomial(2, {(0, 2): 1, (3, 0): -1, (2, 0): -1}, QQ)


def test_substitute_linear_identity_and_composition(substitute_linear):
    f = parse_poly("x0^2*x1 - x2^3", 3)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert substitute_linear(f, eye) == f
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert substitute_linear(f, swap) == parse_poly("x1^2*x0 - x2^3", 3)


def test_zero_polynomial_is_distinguished():
    z = Polynomial(3, {}, QQ)
    assert z.is_zero
    assert z.degree is None
    assert to_string(z) == "0"


def test_variable_and_degree_guard():
    x0 = variable(3, 0, QQ)
    mixed = x0 + x0 * x0
    assert not mixed.is_homogeneous()
    with pytest.raises(ValueError):
        _ = mixed.degree
