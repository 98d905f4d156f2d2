"""Acceptance suite: every exit criterion at its stated tolerance.

All comparisons are exact (integer/rational equality); there are no
floating-point tolerances anywhere.  Each test prints one verdict line,
visible under ``pytest -s`` or in the failure report.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from csmhyp.charclasses import (
    HypersurfaceInput,
    build_report,
    csm,
    csm_normal_crossings,
    csm_smooth_singularity,
    csm_via_mu,
    csm_via_thickening,
    fulton,
    s_x_minus_y_binomial,
    segre_singular_nc,
)
from csmhyp.chow import ChowClass, chern_tangent_pn
from csmhyp.oracles import affine_milnor_total, default_fixtures, smooth_chern_class
from csmhyp.poly import Polynomial, QQ, parse_poly
from csmhyp.segre import ProjectiveDegrees, TrialPolicy, segre_from_degrees

LIGHT = TrialPolicy(primes=(32003,), seeds=(101,))

SMOOTH_CASES = [(2, d) for d in (1, 2, 3, 4)] + [(3, d) for d in (1, 2, 3)]

SINGULAR_EULER_CASES = [
    ("x1^2*x2 - x0^3 - x0^2*x2", 3, 1, "nodal cubic"),
    ("x1^2*x2 - x0^3", 3, 2, "cuspidal cubic"),
    ("x0*x1", 3, 3, "two lines"),
    ("x0*x1*x2", 3, 3, "three coordinate lines"),
    ("x0*x1*(x0 + x1 + x2)", 3, 3, "three generic lines"),
    ("x0^2 + x1^2 + x2^2", 4, 3, "quadric cone"),
]


def _verdict(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _fermat(nvars: int, d: int) -> str:
    if d == 1:
        return " + ".join(f"x{i}" for i in range(nvars))
    return " + ".join(f"x{i}^{d}" for i in range(nvars))


def test_acceptance_01_smooth_coincidence(report_cache):
    ok = True
    for n, d in SMOOTH_CASES:
        report = report_cache(_fermat(n + 1, d), n + 1)
        closed_form = smooth_chern_class(n, d)
        ok = ok and all(c == 0 for c in report.segre_singular.coeffs)
        ok = ok and report.csm == report.fulton == closed_form
    _verdict("smooth-coincidence (s(Y)=0 and csm=fulton=closed form)", ok)


def test_acceptance_02_singular_euler_characteristics(report_cache):
    ok = True
    for text, nvars, chi, label in SINGULAR_EULER_CASES:
        started = time.monotonic()
        report = report_cache(text, nvars)
        elapsed = time.monotonic() - started
        ok = ok and report.euler == chi
        if nvars == 3:
            ok = ok and elapsed < 2.0
    _verdict("singular-euler-characteristics (exact, P^2 cases < 2s)", ok)


def _monomials(nvars, d):
    for combo in combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def _random_form(rng, nvars, d):
    while True:
        terms = {}
        for m in _monomials(nvars, d):
            c = rng.randint(-3, 3)
            if c:
                terms[m] = c
        if terms:
            return Polynomial(nvars, terms, QQ)


def test_acceptance_03_four_route_identity(report_cache):
    cases = []
    for fix in default_fixtures():
        report = report_cache(fix.poly, fix.n + 1)
        cases.append((report.n, report.d, report.segre_singular))
    rng = random.Random(2024)
    degree_plan = [(3, d) for d in (2, 2, 3, 3, 3, 4, 4, 4, 2, 3, 4, 2)]
    degree_plan += [(4, d) for d in (2, 2, 2, 3, 3, 3, 2, 3)]
    assert len(degree_plan) == 20
    for nvars, d in degree_plan:
        form = _random_form(rng, nvars, d)
        report = build_report(form, policy=LIGHT)
        cases.append((report.n, report.d, report.segre_singular))
    ok = True
    for n, d, s_y in cases:
        inp = HypersurfaceInput(n, d, s_y)
        reference = csm(inp)  # compact route
        ok = ok and chern_tangent_pn(n) * s_x_minus_y_binomial(inp) == reference
        ok = ok and csm_via_thickening(inp) == reference
        ok = ok and csm_via_mu(inp) == reference
    _verdict("four-route-identity (fixtures + 20 random forms, exact)", ok)


def test_acceptance_04_milnor_identity(report_cache):
    ok = True
    for fix in default_fixtures():
        report = report_cache(fix.poly, fix.n + 1)
        virtual = report.fulton.integral()
        lhs = Fraction(report.milnor_total)
        rhs = (-1) ** report.n * (report.euler - virtual)
        ok = ok and lhs == rhs
    for text, nvars, expected in [
        ("x1^2*x2 - x0^3 - x0^2*x2", 3, 1),
        ("x1^2*x2 - x0^3", 3, 2),
        ("x0^2 + x1^2 + x2^2", 4, 1),
    ]:
        report = report_cache(text, nvars)
        oracle = affine_milnor_total(parse_poly(text, nvars))
        ok = ok and report.milnor_total == oracle == expected
    _verdict("milnor-identity (degree identity + affine oracle)", ok)


def test_acceptance_05_normal_crossings_consistency(report_cache):
    two = report_cache("x0*x1", 3)
    three = report_cache("x0*x1*x2", 3)
    ok = two.csm == csm_normal_crossings(2, [1, 1]) == ChowClass(2, [0, 2, 3])
    ok = ok and three.csm == csm_normal_crossings(2, [1, 1, 1]) == ChowClass(
        2, [0, 3, 3]
    )
    ok = ok and two.segre_singular == segre_singular_nc(2, [1, 1])
    ok = ok and three.segre_singular == segre_singular_nc(2, [1, 1, 1])
    _verdict("normal-crossings-consistency (closed form = pipeline)", ok)


def test_acceptance_06_reduced_invariance(report_cache):
    ok = report_cache("x0^2*x1", 3).csm == report_cache("x0*x1", 3).csm
    ok = ok and report_cache("x0^2", 3).csm == report_cache("x0", 3).csm
    _verdict("reduced-invariance (csm ignores multiplicities)", ok)


def test_acceptance_07_smooth_singularity_shortcut(report_cache):
    cone = report_cache("x0^2 + x1^2 + x2^2", 4)
    shortcut = csm_smooth_singularity(
        cone.input, ChowClass(3, [0, 0, 0, 1]), codim_y=3
    )
    ok = shortcut == cone.csm
    nodal = report_cache("x1^2*x2 - x0^3 - x0^2*x2", 3)
    shortcut = csm_smooth_singularity(
        nodal.input, ChowClass(2, [0, 0, 1]), codim_y=2
    )
    ok = ok and shortcut == nodal.csm
    _verdict("smooth-singularity-shortcut (point singular loci)", ok)


def test_acceptance_08_segre_engine_oracles(report_cache):
    ok = True
    # telescoping: smooth degree vectors assemble to exactly zero
    for n in range(1, 6):
        for e in range(1, 6):
            pd = ProjectiveDegrees(n=n, e=e, g=tuple(e**i for i in range(n + 1)))
            ok = ok and all(c == 0 for c in segre_from_degrees(pd).coeffs)
    # reduced-point singular schemes push to h^n
    for text, nvars in [("x0*x1", 3), ("x1^2*x2 - x0^3 - x0^2*x2", 3),
                        ("x0^2 + x1^2 + x2^2", 4)]:
        n = nvars - 1
        report = report_cache(text, nvars)
        point = ChowClass(n, [0] * n + [1])
        ok = ok and report.segre_singular == point
    # multi-prime and multi-seed agreement on the whole corpus
    for fix in default_fixtures():
        runs = set()
        for p in (32003, 65537):
            r = build_report(
                fix.parse(), policy=TrialPolicy(primes=(p,), seeds=(201, 202))
            )
            runs.add(r.projective_degrees.g)
        ok = ok and len(runs) == 1
    _verdict("segre-engine-oracles (telescoping, points, prime stability)", ok)


def test_acceptance_09_calculus_laws():
    rng = random.Random(99)
    ok = True
    for _ in range(100):
        n = rng.randint(0, 6)
        a = ChowClass(n, [rng.randint(-9, 9) for _ in range(n + 1)])
        d1 = rng.randint(-5, 5)
        d2 = rng.randint(-5, 5)
        ok = ok and a.dual().dual() == a
        ok = ok and a.tensor(d1).tensor(d2) == a.tensor(d1 + d2)
        ok = ok and a.tensor(d1).dual() == a.dual().tensor(-d1)
    _verdict("calculus-laws (dual involution, tensor composition, signs)", ok)


def test_acceptance_10_determinism():
    policy = TrialPolicy(primes=(32003,), seeds=(7,))
    started = time.monotonic()
    first = build_report("x1^2*x2 - x0^3", 3, policy).to_json()
    elapsed = time.monotonic() - started
    second = build_report("x1^2*x2 - x0^3", 3, policy).to_json()
    third = build_report("x0^2*x1", 4, policy).to_json()
    fourth = build_report("x0^2*x1", 4, policy).to_json()
    ok = first == second and third == fourth and elapsed < 60.0
    _verdict("determinism (pinned prime/seed gives byte-identical JSON)", ok)
