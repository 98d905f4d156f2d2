"""Class formulas: worked fixtures, the four equal routes, thickening
polynomiality (pinned by Lagrange interpolation), normal crossings,
the smooth-singularity shortcut, and reduced invariance."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from csmhyp.charclasses import (
    HypersurfaceInput,
    build_report,
    classes_from_segre,
    csm,
    csm_normal_crossings,
    csm_smooth_singularity,
    csm_via_mu,
    csm_via_thickening,
    euler_characteristic,
    fulton,
    milnor_total,
    mu_class,
    s_x_minus_y_binomial,
    s_x_minus_y_compact,
    segre_singular_nc,
    segre_thickened,
    segre_x,
)
from csmhyp.chow import (
    ChowClass,
    chern_tangent_pn,
    hyperplane_power,
    line_bundle,
    unit,
)
from csmhyp.oracles import smooth_chern_class
from csmhyp.poly import parse_poly
from csmhyp.segre import (
    ProjectiveDegrees,
    TrialPolicy,
    segre_from_degrees,
    segre_singular_scheme,
)

LIGHT = TrialPolicy(primes=(32003,), seeds=(101,))

SMOOTH_CONIC = HypersurfaceInput(2, 2, ChowClass(2, [0, 0, 0]))
TWO_LINES = HypersurfaceInput(2, 2, ChowClass(2, [0, 0, 1]))
QUADRIC_CONE = HypersurfaceInput(3, 2, ChowClass(3, [0, 0, 0, 1]))
NODAL_CUBIC = HypersurfaceInput(2, 3, ChowClass(2, [0, 0, 1]))


def _random_input(rng):
    n = rng.randint(1, 5)
    d = rng.randint(1, 5)
    coeffs = [0] + [rng.randint(-6, 6) for _ in range(n)]
    return HypersurfaceInput(n, d, ChowClass(n, coeffs))


def test_input_validation():
    with pytest.raises(ValueError):
        HypersurfaceInput(2, 0, ChowClass(2, [0, 0, 0]))
    with pytest.raises(ValueError):
        HypersurfaceInput(2, 2, ChowClass(2, [1, 0, 0]))


def test_segre_x_examples():
    assert segre_x(2, 2).coeffs == (0, 2, -4)
    assert segre_x(3, 2).coeffs == (0, 2, -4, 8)
    assert segre_x(1, 3).coeffs == (0, 3)


def test_residual_class_examples():
    assert s_x_minus_y_binomial(SMOOTH_CONIC) == segre_x(2, 2)
    assert s_x_minus_y_binomial(TWO_LINES).coeffs == (0, 2, -3)
    assert s_x_minus_y_binomial(QUADRIC_CONE).coeffs == (0, 2, -4, 7)
    assert s_x_minus_y_compact(TWO_LINES).coeffs == (0, 2, -3)
    assert s_x_minus_y_compact(QUADRIC_CONE).coeffs == (0, 2, -4, 7)


def test_residual_routes_agree_on_random_inputs():
    rng = random.Random(61)
    for _ in range(60):
        inp = _random_input(rng)
        assert s_x_minus_y_binomial(inp) == s_x_minus_y_compact(inp)


def test_csm_examples():
    assert csm(SMOOTH_CONIC).coeffs == (0, 2, 2)
    assert csm(TWO_LINES).coeffs == (0, 2, 3)
    assert csm(QUADRIC_CONE).coeffs == (0, 2, 4, 3)


def test_fulton_examples():
    assert fulton(SMOOTH_CONIC).coeffs == (0, 2, 2)
    assert fulton(QUADRIC_CONE).coeffs == (0, 2, 4, 4)
    assert fulton(TWO_LINES).coeffs == (0, 2, 2)


def test_thickening_examples():
    assert segre_thickened(TWO_LINES, 0) == segre_x(2, 2)
    assert segre_thickened(QUADRIC_CONE, 0) == segre_x(3, 2)
    assert segre_thickened(TWO_LINES, -1) == s_x_minus_y_binomial(TWO_LINES)
    assert segre_thickened(QUADRIC_CONE, -1) == s_x_minus_y_binomial(QUADRIC_CONE)


def _lagrange_value_at(points, values, x):
    """Exact Lagrange interpolation through (points, values) evaluated at x."""
    total = Fraction(0)
    for i, xi in enumerate(points):
        term = Fraction(values[i])
        for j, xj in enumerate(points):
            if i != j:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def test_thickening_is_polynomial_in_k():
    # coefficients of s(X(k)) are degree <= n polynomials in k: values on
    # n+2 integer nodes interpolate every other value, including k = -1
    rng = random.Random(67)
    for inp in (TWO_LINES, QUADRIC_CONE, NODAL_CUBIC, _random_input(rng)):
        n = inp.n
        nodes = list(range(n + 2))
        samples = [segre_thickened(inp, k) for k in nodes]
        for target in (-1, n + 5, -3):
            direct = segre_thickened(inp, target)
            for c_ in range(n + 1):
                values = [s.coeffs[c_] for s in samples]
                assert _lagrange_value_at(nodes, values, target) == direct.coeffs[c_]


def test_csm_four_routes_on_fixtures():
    for inp in (SMOOTH_CONIC, TWO_LINES, QUADRIC_CONE, NODAL_CUBIC):
        reference = csm(inp)
        assert csm_via_thickening(inp) == reference
        assert csm_via_mu(inp) == reference
        assert chern_tangent_pn(inp.n) * s_x_minus_y_binomial(inp) == reference


def test_classes_from_segre_gives_the_compact_csm_fulton_and_mu():
    # The cached affine map must agree with the formulas on every (n, d),
    # at the zero class, at d = 1 and at large random Segre classes.
    rng = random.Random(79)
    inputs = [SMOOTH_CONIC, TWO_LINES, QUADRIC_CONE, NODAL_CUBIC]
    for n in range(1, 6):
        for d in range(1, 7):
            inputs.append(HypersurfaceInput(n, d, ChowClass(n, [0] * (n + 1))))
            for _ in range(3):
                coeffs = [0] + [rng.randint(-10**6, 10**6) for _ in range(n)]
                inputs.append(HypersurfaceInput(n, d, ChowClass(n, coeffs)))
    for inp in inputs:
        got = classes_from_segre(inp.n, inp.d, inp.s_y)
        assert got == (csm(inp), fulton(inp), mu_class(inp))
        assert all(type(c) is int for cls in got for c in cls.coeffs)


def test_classes_from_segre_evaluates_the_formulas_once_per_n_and_d(monkeypatch):
    # The map of (n, d) is built from csm at n + 1 points and then reused,
    # so a second input with the same (n, d) calls csm no more.
    from csmhyp import charclasses

    calls = []

    def counted(inp):
        calls.append(inp)
        return csm(inp)

    monkeypatch.setattr(charclasses, "csm", counted)
    charclasses._class_map.cache_clear()
    first = classes_from_segre(3, 4, ChowClass(3, [0, 0, 2, 5]))
    built = len(calls)
    assert built == 4
    second = classes_from_segre(3, 4, ChowClass(3, [0, 1, -3, 7]))
    assert len(calls) == built
    assert first[0] == csm(HypersurfaceInput(3, 4, ChowClass(3, [0, 0, 2, 5])))
    assert second[0] == csm(HypersurfaceInput(3, 4, ChowClass(3, [0, 1, -3, 7])))
    charclasses._class_map.cache_clear()  # no map built from the counter stays


def test_csm_four_routes_on_random_inputs():
    rng = random.Random(71)
    for _ in range(60):
        inp = _random_input(rng)
        reference = csm(inp)
        assert csm_via_thickening(inp) == reference
        assert csm_via_mu(inp) == reference


def test_mu_class_examples():
    assert all(c == 0 for c in mu_class(SMOOTH_CONIC).coeffs)
    assert mu_class(QUADRIC_CONE).coeffs == (0, 0, 0, 1)
    assert mu_class(NODAL_CUBIC).coeffs == (0, 0, 1)


def test_milnor_total_examples():
    cusp = HypersurfaceInput(2, 3, ChowClass(2, [0, 0, 2]))
    for inp, chi, milnor in ((NODAL_CUBIC, 1, 1), (cusp, 2, 2), (QUADRIC_CONE, 3, 1)):
        assert euler_characteristic(csm(inp)) == chi
        assert milnor_total(mu_class(inp)) == milnor


def test_mu_route_top_coefficient_is_the_milnor_identity():
    # The piece a_m h^m of mu adds (-1)^m a_m h^m (1 + d h)^(n-1-m) to
    # c(L)^(n-1) (mu^v tensor L), so its h^n coefficient is (-1)^n a_n:
    # wherever the mu route agrees, chi = chi_virtual + (-1)^n deg mu.
    rng = random.Random(73)
    for _ in range(200):
        n, d = rng.randint(1, 6), rng.randint(1, 6)
        mu = ChowClass(n, [rng.randint(-9, 9) for _ in range(n + 1)])
        correction = line_bundle(n, d, n - 1) * mu.dual().tensor(d)
        assert correction.integral() == (-1) ** n * milnor_total(mu), (n, d, mu)
    for _ in range(60):
        inp = _random_input(rng)
        chi = euler_characteristic(csm_via_mu(inp))
        virtual = fulton(inp).integral()
        assert chi == virtual + (-1) ** inp.n * milnor_total(mu_class(inp))


def test_smooth_singularity_shortcut():
    # quadric cone: singular scheme is a reduced point, c(TY)[Y] = h^3
    cty = ChowClass(3, [0, 0, 0, 1])
    assert csm_smooth_singularity(QUADRIC_CONE, cty, 3) == csm(QUADRIC_CONE)
    # nodal cubic: node is a point in P^2
    cty2 = ChowClass(2, [0, 0, 1])
    assert csm_smooth_singularity(NODAL_CUBIC, cty2, 2) == csm(NODAL_CUBIC)
    # empty singular scheme degenerates to the Fulton class
    zero = ChowClass(2, [0, 0, 0])
    assert csm_smooth_singularity(SMOOTH_CONIC, zero, 2) == fulton(SMOOTH_CONIC)


def test_normal_crossings_csm_examples():
    assert csm_normal_crossings(2, [1, 1]).coeffs == (0, 2, 3)
    assert csm_normal_crossings(2, [1, 1, 1]).coeffs == (0, 3, 3)
    for d in (1, 2, 3):
        assert csm_normal_crossings(2, [d]) == smooth_chern_class(2, d)


def test_normal_crossings_reject_degree_below_1_and_n_below_1():
    for n, degrees in [(2, [0, 1]), (2, [-1]), (0, [1, 1]), (2, [])]:
        with pytest.raises(ValueError):
            csm_normal_crossings(n, degrees)
        with pytest.raises(ValueError):
            segre_singular_nc(n, degrees)


def test_normal_crossings_segre_examples():
    assert segre_singular_nc(2, [1, 1]).coeffs == (0, 0, 1)
    assert all(c == 0 for c in segre_singular_nc(2, [3]).coeffs)
    assert segre_singular_nc(2, [1, 1, 1]).coeffs == (0, 0, 3)
    assert segre_singular_nc(3, [1, 1, 1]).coeffs == (0, 0, 3, -10)


def test_normal_crossings_matches_groebner_pipeline():
    for text, nvars, degrees in [
        ("x0*x1", 3, [1, 1]),
        ("x0*x1*x2", 3, [1, 1, 1]),
        ("(x0 + x1 + x2) * (x0^2 + x1^2 - x2^2)", 3, [1, 2]),
        ("x0*x1", 4, [1, 1]),
        ("x0*x1*x2", 4, [1, 1, 1]),
    ]:
        n = nvars - 1
        s, _, _ = segre_singular_scheme(parse_poly(text, nvars), LIGHT)
        assert s == segre_singular_nc(n, degrees)
        inp = HypersurfaceInput(n, sum(degrees), s)
        assert csm(inp) == csm_normal_crossings(n, degrees)


def test_inclusion_exclusion_for_generic_line_arrangements():
    # chi of r generic lines: each pair meets in one point
    for r in range(1, 6):
        chi = euler_characteristic(csm_normal_crossings(2, [1] * r))
        assert chi == 2 * r - r * (r - 1) // 2


def test_reduced_invariance_of_double_line_value():
    report = build_report("x0^2", 3, LIGHT)
    assert report.csm.coeffs == (0, 1, 2)
    assert report.euler == 2


def test_build_report_fixture_values():
    report = build_report("x0*x1", 3, LIGHT)
    assert report.csm.to_strings() == ["0", "2", "3"]
    assert report.euler == 3
    assert report.milnor_total == 1
    assert report.all_passed
    c_tm = chern_tangent_pn(report.n)
    assert c_tm * segre_thickened(report.input, 0) == fulton(TWO_LINES)
    assert c_tm * segre_thickened(report.input, -1) == csm(TWO_LINES)


def test_build_report_smooth_conic():
    report = build_report("x0^2 + x1^2 + x2^2", 3, LIGHT)
    assert report.csm == report.fulton == smooth_chern_class(2, 2)
    assert report.euler == 2
    assert report.milnor_total == 0
    assert report.all_passed


def test_build_report_quadrifolium():
    # rational sextic: chi = 2 - (4 - 1) for the 4-branch point at the
    # origin; mu = 13 there plus two cusps (mu = 2) at the circular points.
    # The leading Segre coefficient is the multiplicity of Y (17), above
    # its length (16, the Tjurina total): the bound g_2 <= 25 - 16 of
    # segre._certify must allow it.
    report = build_report("(x0^2+x1^2)^3 - 4*x0^2*x1^2*x2^2", 3)
    assert report.projective_degrees.g == (1, 5, 8)
    assert report.segre_singular.coeffs[2] == 17
    assert report.euler == -1
    assert report.milnor_total == 17
    assert report.all_passed


def test_euler_characteristic_rejects_non_integer():
    # a class with a non-integer degree cannot be built, so it never
    # reaches euler_characteristic
    with pytest.raises(ValueError):
        euler_characteristic(ChowClass(2, [0, 0, Fraction(1, 2)]))
    assert euler_characteristic(ChowClass(2, [0, 0, 3])) == 3


def test_report_json_round_trip():
    import json

    report = build_report("x0*x1", 3, LIGHT)
    payload = json.loads(report.to_json())
    assert ChowClass.from_strings(2, payload["csm"]) == report.csm
    assert ChowClass.from_strings(2, payload["segre_singular"]) == report.segre_singular
    assert payload["euler"] == report.euler
    assert payload["projective_degrees"] == list(report.projective_degrees.g)


def test_pipeline_on_the_projective_line():
    # minimum ambient dimension: a double point on P^1 has the class of
    # the reduced point
    report = build_report("x0^2", 2, LIGHT)
    assert report.segre_singular.coeffs == (0, 1)
    assert report.csm.coeffs == (0, 1)
    assert report.euler == 1
    smooth = build_report("x0*x1 + x1^2", 2, LIGHT)  # two distinct points
    assert smooth.euler == 2
    assert all(c == 0 for c in smooth.segre_singular.coeffs)


def test_concurrent_reports_match_sequential():
    from concurrent.futures import ThreadPoolExecutor

    cases = [
        ("x0*x1", 3),
        ("x1^2*x2 - x0^3", 3),
        ("x0^2 + x1^2 + x2^2", 4),
        ("x0*x1*x2", 4),
    ]
    sequential = [build_report(t, nv, LIGHT).to_json() for t, nv in cases]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(
            pool.map(lambda c: build_report(c[0], c[1], LIGHT).to_json(), cases)
        )
    assert concurrent == sequential


def test_closed_forms_match_the_inverse_based_products():
    # Reference: ChowClass.inverse() and ring products, the way these
    # classes are defined.
    rng = random.Random(9)
    for n in range(7):
        for d in range(-3, 7):
            inv = line_bundle(n, d).inverse()
            assert line_bundle(n, d, -1) == inv, (n, d)
            if d < 1:
                continue
            assert segre_x(n, d) == hyperplane_power(n, 1) * d * inv, (n, d)
            e = d - 1
            for _ in range(3):
                g = (1,) + tuple(rng.randint(0, e**i) for i in range(1, n + 1))
                ref, power = unit(n), line_bundle(n, e).inverse()
                for j in range(n + 1):
                    ref = ref - hyperplane_power(n, j) * power * g[j]
                    power = power * line_bundle(n, e).inverse()
                assert segre_from_degrees(ProjectiveDegrees(n, e, g)) == ref, (n, e, g)
