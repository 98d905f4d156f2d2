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
    return ChowClass(n, [rng.randint(lo, hi) for _ in range(n + 1)])


def _random_unit(rng, n):
    c = _random_class(rng, n)
    coeffs = list(c.coeffs)
    coeffs[0] = rng.choice([1, -1])
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


def test_line_bundle_matches_the_powers_of_1_plus_dh():
    # Reference: ChowClass.__pow__, by repeated products and, for k < 0,
    # ChowClass.inverse().
    for n in range(7):
        for a in range(-3, 7):
            for k in range(-8, 9):
                got = line_bundle(n, a, k)
                assert got == line_bundle(n, a) ** k, (n, a, k)
                assert all(type(c) is int for c in got.coeffs)


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
    a = ChowClass(3, [1, -2, 0, 7])
    strings = a.to_strings()
    assert strings == ["1", "-2", "0", "7"]
    assert ChowClass.from_strings(3, strings) == a
    for n, strings in [(2, ["-1", "4", "-16"]), (1, ["123456789012345678901", "0"])]:
        assert ChowClass.from_strings(n, strings).to_strings() == strings


def test_fraction_coefficients_with_denominator_1_are_stored_as_int():
    # Z[h]/(h^(n+1)) stores int coefficients only: int input and every
    # operation keep them int, and anything else, even a Fraction with
    # denominator 1, is refused rather than normalised
    a = ChowClass(1, [3, 0])
    assert [type(c) for c in a.coeffs] == [int, int]
    assert [type(c) for c in (a * 2).coeffs] == [int, int]
    assert ChowClass.from_strings(1, ["3", "0"]) == a
    for bad in (Fraction(3), Fraction(1, 2), 0.5, 3.0, True):
        with pytest.raises(ValueError):
            ChowClass(1, [bad, 0])
    with pytest.raises(ValueError):
        ChowClass.from_strings(1, ["1/2", "0"])


def test_inverse_of_a_non_unit_constant_term_is_exact():
    # only the units +-1 + (h) have an inverse, and it has int coefficients;
    # a non-unit is refused instead of getting a rational inverse
    with pytest.raises(ValueError):
        ChowClass(2, [2, 1, 0]).inverse()
    for c0 in (1, -1):
        a = ChowClass(2, [c0, 1, 0])
        inv = a.inverse()
        assert [type(c) for c in inv.coeffs] == [int, int, int]
        assert a * inv == unit(2)


def _inverse_by_fractions(coeffs):
    # the division recurrence b_k = -(sum_i a_i b_(k-i)) / a_0, all in Q
    a = [Fraction(c) for c in coeffs]
    b = [1 / a[0]]
    for k in range(1, len(a)):
        b.append(-sum(a[i] * b[k - i] for i in range(1, k + 1)) / a[0])
    return b


def test_int_and_fraction_coefficients_give_the_same_classes():
    # the int inverse of a unit equals the inverse computed in Q
    rng = random.Random(67)
    for _ in range(80):
        n = rng.randint(0, 6)
        us = [rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(n)]
        u = ChowClass(n, us)
        assert u.inverse().coeffs == tuple(_inverse_by_fractions(us))
        assert u ** -2 * u ** 2 == unit(n)


def test_rendering():
    # Signs, +-1 coefficients, a negative constant or leading term, P^0 and
    # the zero class, in both string forms.
    table = [
        (2, [0, 2, 3], "2h + 3h^2", "2[P^1] + 3[P^0]"),
        (2, [0, 0, 0], "0", "0"),
        (0, [0], "0", "0"),
        (0, [1], "1", "[P^0]"),
        (0, [-1], "-1", "-[P^0]"),
        (0, [-7], "-7", "-7[P^0]"),
        (2, [1, -1, 1], "1 - h + h^2", "[P^2] - [P^1] + [P^0]"),
        (2, [-1, 1, -1], "-1 + h - h^2", "-[P^2] + [P^1] - [P^0]"),
        (3, [-4, 0, 2, -3], "-4 + 2h^2 - 3h^3", "-4[P^3] + 2[P^1] - 3[P^0]"),
        (3, [0, -1, 0, 5], "-h + 5h^3", "-[P^2] + 5[P^0]"),
        (3, [0, 0, -12, -1], "-12h^2 - h^3", "-12[P^1] - [P^0]"),
        (1, [1, -2], "1 - 2h", "[P^1] - 2[P^0]"),
    ]
    for n, coeffs, h_form, bracket_form in table:
        c = ChowClass(n, coeffs)
        assert c.to_h_string() == h_form, coeffs
        assert c.to_bracket_string() == bracket_form, coeffs
