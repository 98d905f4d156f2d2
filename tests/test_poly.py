"""Polynomial arithmetic, parsing, and the field plumbing."""

from __future__ import annotations

import ast
import os
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from csmhyp.errors import PolynomialParseError
from csmhyp.oracles import default_fixtures
from csmhyp.poly import (
    Polynomial,
    PrimeField,
    QQ,
    _combine,
    _random_combination,
    _random_row,
    compose,
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


def test_parse_takes_powers_and_nesting_up_to_their_bounds():
    from csmhyp import groebner, poly

    assert groebner.LIMIT == poly.LIMIT == 32767
    assert parse_poly("x0^32767 + (x0*x1)^16383*x1", 2).degree == 32767
    assert parse_poly("(-1)^32767*x0", 2).terms == {(1, 0): -1}
    assert parse_poly("(" * 100 + "x0" + ")" * 100, 2) == parse_poly("x0", 2)
    with pytest.raises(PolynomialParseError, match="^parentheses nested more than 100 deep$"):
        parse_poly("(" * 101 + "x0" + ")" * 101, 2)


def test_parse_refuses_a_power_of_a_sum_past_its_work_bound(monkeypatch):
    # Each step of a power of a sum is refused before it is taken once the
    # expansion's terms, times the sum's, times the bits of its largest
    # coefficient pass EXPANSION.  Before the step from (x0+x1)^j that is
    # (j + 1) * 2 * bits(C(j, j // 2)): 48 at j = 5 and 70 at j = 6.  A
    # power of one term takes no step.
    from csmhyp import poly

    monkeypatch.setattr(poly, "EXPANSION", 60)
    assert parse_poly("(x0 + x1)^6", 2) == reference_parse("(x0 + x1)^6", 2)
    assert parse_poly("(3*x0*x1)^300", 2).terms == {(300, 300): 3**300}
    for k in (7, 30000):
        with pytest.raises(PolynomialParseError) as info:
            parse_poly(f"(x0 + x1)^{k}", 2)
        assert str(info.value) == (
            "a power of a sum of 2 terms grew to 7 terms of up to 5 bits, past"
            " 60 term-bit products per step, the most the parser expands"
        )


def test_parse_refuses_a_product_past_its_work_bound(monkeypatch):
    # A product is refused before it is taken once the two sides' terms,
    # times the bits of their largest coefficient, pass EXPANSION:
    # (x0+x1)^3 * (x0+x1)^3 is 4 * 4 * 2 = 32 and (x0+x1)^4 * (x0+x1)^4 is
    # 5 * 5 * 3 = 75.  A power on the right is refused at the step where
    # the left side and its expansion so far pass it: 5 * 5 * 3 again,
    # long before (x0+x1)^9 is expanded.
    from csmhyp import poly

    monkeypatch.setattr(poly, "EXPANSION", 60)
    for text in ("(x0+x1)^3*(x0+x1)^3", "x0*(x0+x1)^5*x1", "(3*x0*x1)^10*(x0+x1)^2"):
        assert parse_poly(text, 2) == reference_parse(text, 2)
    for text in ("(x0+x1)^4*(x0+x1)^4", "(x0+x1)^4*(x0+x1)^9"):
        with pytest.raises(PolynomialParseError) as info:
            parse_poly(text, 2)
        assert str(info.value) == (
            "a product of 5 terms by 5 terms of up to 3 bits is past 60"
            " term-bit products, the most the parser expands"
        )


def test_parse_takes_coefficients_up_to_the_integer_text_limit(int_text_limit):
    # Python writes no integer of more than sys.get_int_max_str_digits()
    # digits as text, 4300 by default, and reads none; 0 lifts the limit.
    import sys

    digits = int_text_limit
    assert parse_poly("2^14284*x0", 2).terms == {(1, 0): 2**14284}  # 4300 digits
    assert parse_poly("9" * digits + "*x0", 2).terms == {(1, 0): 10**digits - 1}
    assert parse_poly("-(3*x0)^2 * 5", 2).terms == {(2, 0): -45}
    with pytest.raises(PolynomialParseError, match="more than 4300 digits"):
        parse_poly("2^14285*x0", 2)
    sys.set_int_max_str_digits(0)
    assert parse_poly("2^32767*x0", 2).terms == {(1, 0): 2**32767}
    assert parse_poly("1" * 5000 + "*x0", 2).terms == {(1, 0): int("1" * 5000)}


def reference_parse(text, nvars):
    """The polynomial a valid input denotes, by Polynomial arithmetic over
    Q: Python's parser reads the text with ``^`` as ``**``, which binds
    like the grammar's ``^`` on valid input, and the tree is evaluated
    here, a power by repeated multiplication."""

    def constant(c):
        return Polynomial(nvars, {(0,) * nvars: c}, QQ)

    def ev(node):
        if isinstance(node, ast.Constant):
            return constant(node.value)
        if isinstance(node, ast.Name):
            return variable(nvars, int(node.id[1:]), QQ)
        if isinstance(node, ast.UnaryOp):
            inner = ev(node.operand)
            return -inner if isinstance(node.op, ast.USub) else inner
        left = ev(node.left)
        if isinstance(node.op, ast.Pow):
            out = constant(1)
            for _ in range(node.right.value):
                out = out * left
            return out
        right = ev(node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        assert isinstance(node.op, ast.Mult)
        return left * right

    return ev(ast.parse(text.replace("^", "**"), mode="eval").body)


def test_parse_matches_polynomial_arithmetic(bench_workloads):
    inputs = [(f.poly, f.n + 1) for f in default_fixtures()]
    inputs += [
        (c.poly, c.nvars) for make in bench_workloads.WORKLOADS.values() for c in make()
    ]
    inputs += [
        ("0*x0 + x1", 2),
        ("2^70*x0", 2),
        ("-2^70*x0 + 3*x1 - 0*x1", 2),
        ("((x0 + x1)^2)^3 - (x0^2 - x1^2)^3", 2),
        ("(-(x0 - 2*x1)^2)^2*x2^0", 3),
        ("x0^0*x1^0*x2 + 0", 3),
        ("((x0))^1 * (1 + 1)", 1),
    ]
    assert len(inputs) > 40
    for text, nvars in inputs:
        got = parse_poly(text, nvars)
        ref = reference_parse(text, nvars)
        assert got == ref, text
        assert all(type(c) is int for c in got.terms.values()), text


TOO_LONG = (
    "{} has more than 4300 digits, the bound that"
    " sys.get_int_max_str_digits() sets on an integer's text"
)


@pytest.mark.parametrize(
    "text, nvars, message",
    [
        ("x0 + y1", 3, "unexpected character 'y' at position 5"),
        ("x0 + 1.5*x1", 3, "unexpected character '.' at position 6"),
        ("x0^x1", 3, "exponent must be a nonnegative integer"),
        ("x0^", 3, "exponent must be a nonnegative integer"),
        ("x0^-1", 3, "exponent must be a nonnegative integer"),
        ("x5^2", 3, "unknown variable x5: only x0..x2 are in scope"),
        ("(x0 + x1", 3, "unbalanced parentheses"),
        ("x0 +", 3, "unexpected token 'end'"),
        ("", 3, "unexpected token 'end'"),
        ("x0 - -x1", 3, "unexpected token '-'"),
        ("()", 2, "unexpected token ')'"),
        ("x0**2", 2, "unexpected token '*'"),
        ("x0 x1", 3, "trailing input at token 'var'"),
        ("x0)", 3, "trailing input at token ')'"),
        ("x0^2^3", 3, "trailing input at token '^'"),
        ("x0 - x0", 3, "polynomial is identically zero"),
        ("2*(x0 - x0)*x1", 3, "polynomial is identically zero"),
        ("x0^2 + x1", 3, "polynomial is not homogeneous"),
        ("x0", 0, "nvars must be at least 1"),
        (
            "x0^32768", 2,
            "a power with exponent 32768 and degree 32768 is above 32767,"
            " the largest exponent or degree a monomial may have",
        ),
        (
            "(x0*x1)^16384", 2,
            "a power with exponent 16384 and degree 32768 is above 32767,"
            " the largest exponent or degree a monomial may have",
        ),
        (
            "2^32768*x0", 2,
            "a power with exponent 32768 and degree 0 is above 32767,"
            " the largest exponent or degree a monomial may have",
        ),
        ("2^32767*x0 + x1", 2, TOO_LONG.format("a coefficient")),
        pytest.param(
            "1" * 5000 + "*x0", 2, TOO_LONG.format("an integer literal"),
            id="5000-digit literal",
        ),
        pytest.param(
            "0" * 4300 + "1*x0", 2, TOO_LONG.format("an integer literal"),
            id="4301-digit literal with leading zeros",
        ),
        ("(2^4000)^32767*x0", 2, TOO_LONG.format("a coefficient")),
        ("(x0 + 2^4000*x1)^32767", 2, TOO_LONG.format("a coefficient")),
        ("2^14000*x0*2^14000", 2, TOO_LONG.format("a coefficient")),
        ("(2^6000*x0 + x1)^2 * 2^6000", 2, TOO_LONG.format("a coefficient")),
    ],
)
def test_parse_error_messages(int_text_limit, text, nvars, message):
    with pytest.raises(PolynomialParseError) as info:
        parse_poly(text, nvars)
    assert str(info.value) == message


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


def test_random_linear_combination_determinism():
    f = reduce_mod_p(parse_poly("x0^2+x1^2+x2^2", 3), 32003)
    partials = [f.partial(i) for i in range(3)]
    a = random_linear_combination(partials, random.Random("fixed"))
    b = random_linear_combination(partials, random.Random("fixed"))
    assert a == b and not a.is_zero
    assert a.degree == 1


def test_random_linear_combination_matches_the_scaled_sum():
    # Reference: sum of f.scale(c) over the same draws in the same order,
    # retried while it vanishes.  GF(5) makes zero draws, cancelling terms
    # and all-zero retries common.
    gf = PrimeField(5)
    polys = [
        Polynomial(2, {(1, 0): 1, (0, 1): 2}, gf),
        Polynomial(2, {(1, 0): 4, (0, 1): 3}, gf),
    ]
    got_rng, ref_rng = random.Random(3), random.Random(3)
    for _ in range(50):
        got = random_linear_combination(polys, got_rng)
        ref = Polynomial(2, {}, gf)
        while ref.is_zero:
            for f in polys:
                ref = ref + f.scale(ref_rng.randrange(5))
        assert got == ref and list(got.terms) == list(ref.terms)
    assert got_rng.random() == ref_rng.random()


def test_unchecked_combination_draws_like_the_checked_one():
    # Both draws are held to the reference draw: one randrange(p) per
    # polynomial in order, summed as f.scale(c), the round repeated while
    # the sum vanishes.  Same polynomial, same term order and the same
    # rng state after every draw, for partials, for variables, and at
    # GF(2) and GF(3), where all-zero rounds are common.
    cases = []
    for p in (2, 3, 32003):
        gf = PrimeField(p)
        xs = [variable(4, k, gf) for k in range(4)]
        # partials sharing monomials, so that terms cancel at small p
        F = reduce_mod_p(parse_poly("(x0 + x1 + x2 + x3)^4 - x2*x3^3", 4), p)
        partials = [q for q in (F.partial(k) for k in range(4)) if not q.is_zero]
        cases += [(xs, p), (partials, p), (xs[:1], p)]
    retried = set()
    for polys, p in cases:
        rngs = [random.Random(p) for _ in range(3)]
        for _ in range(40):
            ref = Polynomial(polys[0].nvars, {}, polys[0].field)
            while ref.is_zero:
                for f in polys:
                    ref = ref + f.scale(rngs[0].randrange(p))
                if ref.is_zero:
                    retried.add(p)
            for got in (
                _random_combination(polys, p, rngs[1]),
                random_linear_combination(polys, rngs[2]),
            ):
                assert got == ref and list(got.terms) == list(ref.terms)
            assert rngs[0].getstate() == rngs[1].getstate() == rngs[2].getstate()
    assert retried >= {2, 3}


def test_row_draws_like_the_combination():
    # A row of coefficients is drawn as _random_combination draws its
    # combination, redraws included, when a combination counts as zero
    # exactly when it is zero at the leads of a basis of the span: the
    # same row combines to the same polynomial, and rng ends in the same
    # state.  The partials include two equal ones, so nonzero rows
    # vanish, and GF(2) and GF(3) make such rows common.
    from csmhyp.groebner import buchberger

    class Counting(random.Random):
        calls = 0

        def randrange(self, *args):
            self.calls += 1
            return super().randrange(*args)

    redrawn = set()
    for p in (2, 3, 32003):
        gf = PrimeField(p)
        xs = [variable(4, k, gf) for k in range(4)]
        F = reduce_mod_p(parse_poly("(x0 + x1 + x2 + x3)^4 - x2*x3^3", 4), p)
        partials = [q for q in (F.partial(k) for k in range(4)) if not q.is_zero]
        for polys in (xs, partials, xs[:1]):
            d = polys[0].degree
            columns = [
                tuple(q.terms.get(m, 0) for q in polys)
                for m in buchberger(polys).leading_terms
                if sum(m) == d
            ]
            ref, rng = random.Random(p), Counting(p)
            for _ in range(40):
                want = _random_combination(polys, p, ref)
                before = rng.calls
                row = _random_row(columns, p, rng)
                got = polys[0]._wrap(_combine(polys, row, p))
                assert got == want and list(got.terms) == list(want.terms)
                assert ref.getstate() == rng.getstate()
                if rng.calls - before > len(polys):
                    redrawn.add(p)
    assert redrawn >= {2, 3}


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
    assert reduce_mod_p(parse_poly("-x0*x1", 3), 7).terms == {(1, 1, 0): 6}
    # Coefficients are ints over Q and GF(p) alike; nothing else is taken.
    for c in (Fraction(1, 2), Fraction(1, 5), Fraction(3), 0.5, 3.0, True):
        for field in (QQ, PrimeField(5)):
            with pytest.raises(ValueError, match="is not an int"):
                Polynomial(3, {(1, 1, 0): c}, field)


def test_no_package_module_imports_fractions():
    # Coefficients are ints in polynomials and in the Chow ring alike.
    import csmhyp

    package = os.path.dirname(os.path.abspath(csmhyp.__file__))
    modules = [name for name in os.listdir(package) if name.endswith(".py")]
    assert "poly.py" in modules
    for name in modules:
        with open(os.path.join(package, name)) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "fractions" for m in imported), name


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
    # Inhomogeneous input: terms that meet in the chart are added, and
    # dropped when they cancel, over Q and over GF(p).
    gf = PrimeField(5)
    for f, chart, want in [
        (Polynomial(2, {(1, 1): 1, (1, 0): 2}, QQ), 1, Polynomial(1, {(1,): 3}, QQ)),
        (Polynomial(2, {(1, 1): 1, (0, 1): -1}, QQ), 0, Polynomial(1, {}, QQ)),
        (Polynomial(2, {(1, 1): 3, (1, 0): 4}, gf), 1, Polynomial(1, {(1,): 2}, gf)),
        (Polynomial(2, {(2, 1): 2, (2, 0): 3, (0, 1): 1}, gf), 1,
         Polynomial(1, {(0,): 1}, gf)),
        (Polynomial(3, {(1, 0, 2): 2, (1, 0, 0): 3, (1, 1, 0): 1}, gf), 2,
         Polynomial(2, {(1, 1): 1}, gf)),
    ]:
        g = f.dehomogenize(chart)
        assert g == want and g.nvars == f.nvars - 1, (f, chart)
        assert all(g.terms.values()), (f, chart)
    f = Polynomial(2, {(1, 1): 1}, gf)
    for chart in (-1, 2):
        with pytest.raises(IndexError):
            f.dehomogenize(chart)


def test_substitute_linear_identity_and_composition(substitute_linear):
    f = parse_poly("x0^2*x1 - x2^3", 3)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert substitute_linear(f, eye) == f
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert substitute_linear(f, swap) == parse_poly("x1^2*x0 - x2^3", 3)


def _unimodular(rng, n):
    """A seeded integer matrix L * U, L unit lower and U unit upper
    triangular: det 1, so invertible over Q and mod every prime."""
    low = [[1 if i == j else rng.randint(-3, 3) * (i > j) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else rng.randint(-3, 3) * (i < j) for j in range(n)] for i in range(n)]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _linear_forms(matrix, field):
    n = len(matrix)
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    return [Polynomial(n, dict(zip(units, row)), field) for row in matrix]


def _evaluate(f, point, p):
    total = 0
    for m, c in f.terms.items():
        for x, e in zip(point, m):
            c *= x**e
        total += c
    return total % p


COMPOSE_INPUTS = [("x1^2*x2 - x0^3 - x0^2*x2", 3), ("x0*x1*x2*x3", 4)]


@pytest.mark.parametrize("text, nvars", COMPOSE_INPUTS, ids=["nodal-cubic", "four-planes"])
def test_compose_agrees_with_pointwise_evaluation(text, nvars):
    p = 32003
    rng = random.Random(f"compose:{text}")
    f = parse_poly(text, nvars)
    forms = _linear_forms(_unimodular(rng, nvars), QQ)
    g = compose(f, forms)
    assert g.degree == f.degree and len(g.terms) > len(f.terms)
    for _ in range(20):
        point = [rng.randrange(p) for _ in range(nvars)]
        image = [_evaluate(x, point, p) for x in forms]
        assert _evaluate(g, point, p) == _evaluate(f, image, p)


@pytest.mark.parametrize("text, nvars", COMPOSE_INPUTS, ids=["nodal-cubic", "four-planes"])
def test_reduce_mod_p_commutes_with_compose(text, nvars):
    f = parse_poly(text, nvars)
    forms = _linear_forms(_unimodular(random.Random(f"compose:{text}"), nvars), QQ)
    for p in (7, 32003):
        reduced = [reduce_mod_p(x, p) for x in forms]
        assert reduce_mod_p(compose(f, forms), p) == compose(reduce_mod_p(f, p), reduced)


def test_compose_takes_one_form_per_variable_in_the_ring_of_f():
    f = parse_poly("x0*x1", 2)
    xs = [variable(2, 0, QQ), variable(2, 1, QQ)]
    with pytest.raises(ValueError, match="need 2 forms"):
        compose(f, xs[:1])
    with pytest.raises(ValueError, match="field mismatch"):
        compose(f, [variable(2, 0, PrimeField(7))] * 2)
    assert compose(f, xs[::-1]) == f


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


def test_negative_exponents_are_rejected():
    # The Groebner kernel packs exponents into unsigned fields, where a
    # negative one used to end in struct.error.
    from csmhyp.groebner import buchberger

    with pytest.raises(ValueError, match=r"exponent vector \(-1, 2\)"):
        buchberger([Polynomial(2, {(-1, 2): 1}, PrimeField(5))])
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(3, {(1, 0, 0): 1, (0, 2, -1): 3}, QQ)
    with pytest.raises(ValueError, match=r"\(1, 0\) has length 2, expected 3"):
        Polynomial(3, {(1, 0): 1}, QQ)
