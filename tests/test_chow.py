"""Chow-ring arithmetic: worked examples plus the calculus laws."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from csmhyp.chow import (
    ChowClass,
    chern_tangent_pn,
    hyperplane_power,
    line_bundle,
    unit,
)


def _random_class(rng, n, lo=-9, hi=9):
    return ChowClass(n, [Fraction(rng.randint(lo, hi)) for _ in range(n + 1)])


def _random_unit(rng, n):
    c = _random_class(rng, n)
    coeffs = list(c.coeffs)
    coeffs[0] = Fraction(rng.choice([1, -1, 2, 3]))
    return ChowClass(n, coeffs)


def test_make_class_examples():
    assert ChowClass(2, [1, 0, 0]).coeffs == (1, 0, 0)
    assert ChowClass(2, [0, 2, 0]) == hyperplane_power(2, 1) * 2
    assert ChowClass(3, [0, 0, 0, 1]) == hyperplane_power(3, 3)


def test_make_class_length_mismatch():
    with pytest.raises(ValueError):
        ChowClass(2, [1, 0])
    with pytest.raises(ValueError):
        ChowClass(2, [1, 0, 0, 0])


def test_mul_examples():
    one_plus_h = ChowClass(2, [1, 1, 0])
    assert (one_plus_h * one_plus_h).coeffs == (1, 2, 1)
    assert (ChowClass(2, [0, 2, 0]) * ChowClass(2, [0, 3, 0])).coeffs == (0, 0, 6)
    # truncated product feeding the crossing-lines class downstream
    cube = one_plus_h**3
    assert (cube * ChowClass(2, [0, 2, -3])).coeffs == (0, 2, 3)


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        ChowClass(2, [1, 0, 0]) * ChowClass(3, [1, 0, 0, 0])


def test_inverse_examples():
    assert ChowClass(2, [1, 2, 0]).inverse().coeffs == (1, -2, 4)
    assert unit(3).inverse() == unit(3)
    sq = ChowClass(2, [1, 1, 0]) ** 2
    assert sq.inverse().coeffs == (1, -2, 3)
    assert (sq * sq.inverse()) == unit(2)


def test_inverse_requires_unit():
    with pytest.raises(ValueError):
        ChowClass(2, [0, 1, 0]).inverse()


def test_inverse_is_two_sided_on_random_units():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(0, 6)
        a = _random_unit(rng, n)
        assert a * a.inverse() == unit(n)
        assert a.inverse() * a == unit(n)


def test_dual_examples():
    assert ChowClass(2, [1, 2, 3]).dual().coeffs == (1, -2, 3)
    assert hyperplane_power(3, 3).dual().coeffs == (0, 0, 0, -1)


def test_dual_is_involution():
    rng = random.Random(23)
    for _ in range(50):
        a = _random_class(rng, rng.randint(0, 6))
        assert a.dual().dual() == a


def test_tensor_examples():
    assert hyperplane_power(2, 1).tensor(2).coeffs == (0, 1, -2)
    assert hyperplane_power(3, 3).tensor(3) == hyperplane_power(3, 3)
    a = ChowClass(2, [5, -1, 2])
    assert a.tensor(0) == a


def _tensor_by_expansion(a: ChowClass, d: int) -> ChowClass:
    # definitional route: sum_i a_i h^i / (1 + d h)^i, expanded from scratch
    n = a.n
    acc = ChowClass(n, [a.coeffs[0]] + [0] * n)
    for i in range(1, n + 1):
        piece = hyperplane_power(n, i) * a.coeffs[i]
        acc = acc + piece * (line_bundle(n, d).inverse() ** i)
    return acc


def test_tensor_matches_expansion_and_composes():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(0, 6)
        a = _random_class(rng, n)
        d1 = rng.randint(-5, 5)
        d2 = rng.randint(-5, 5)
        assert a.tensor(d1) == _tensor_by_expansion(a, d1)
        assert a.tensor(d1).tensor(d2) == a.tensor(d1 + d2)


def test_dual_tensor_sign_compatibility():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(0, 6)
        a = _random_class(rng, n)
        d = rng.randint(-5, 5)
        assert a.tensor(d).dual() == a.dual().tensor(-d)


def test_chern_tangent_examples():
    assert chern_tangent_pn(1).coeffs == (1, 2)
    assert chern_tangent_pn(2).coeffs == (1, 3, 3)
    assert chern_tangent_pn(3).coeffs == (1, 4, 6, 4)


def test_integral_examples():
    assert ChowClass(2, [0, 2, 3]).integral() == 3
    for n in range(1, 5):
        assert unit(n).integral() == 0
        assert hyperplane_power(n, n).integral() == 1


def test_integral_of_product_is_symmetric():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(0, 5)
        a, b = _random_class(rng, n), _random_class(rng, n)
        assert (a * b).integral() == (b * a).integral()


def test_serialization_round_trip():
    a = ChowClass(3, [Fraction(1, 2), -2, 0, 7])
    strings = a.to_strings()
    assert strings == ["1/2", "-2", "0", "7"]
    assert ChowClass.from_strings(3, strings) == a


def test_rendering():
    a = ChowClass(2, [0, 2, 3])
    assert a.to_h_string() == "2h + 3h^2"
    assert a.to_bracket_string() == "2[P^1] + 3[P^0]"
    assert ChowClass(2, [0, 0, 0]).to_h_string() == "0"
