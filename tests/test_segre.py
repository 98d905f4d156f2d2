"""Segre engine: jacobian schemes, projective degrees, class assembly.

Expected Segre classes come from closed-form oracles (linear subspaces,
reduced points) and from the telescoping identity for smooth inputs, never
from the engine under test.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

from csmhyp.chow import ChowClass
from csmhyp.errors import CsmhypError, RandomnessError
from csmhyp.oracles import default_fixtures, segre_linear_subspace
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
GOLDEN = Path(__file__).parent / "golden"
LIGHT = TrialPolicy(primes=(P,), seeds=(101,))
TWO_PRIME = TrialPolicy(primes=(32003, 65537), seeds=(101, 102))
QUADRIFOLIUM = "(x0^2+x1^2)^3 - 4*x0^2*x1^2*x2^2"  # g = (1, 5, 8)


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
    # g_3 of four planes has no upper bound to meet, so a second trial runs.
    pd, _ = projective_degrees(parse_poly("x0*x1*x2*x3", 4), TWO_PRIME)
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
    # a policy whose only prime divides d (so p <= 2d) has no usable prime
    with pytest.raises(ValueError):
        projective_degrees(
            parse_poly("x0^3 + x1^3 + x2^3", 3), TrialPolicy(primes=(3,), seeds=(1,))
        )


def test_policy_rejects_empty_grids_and_primes_below_2():
    # An empty seed list would leave the schedule without a pair; a prime
    # of 0 would divide by zero in the support check.  Every prime is
    # checked for primality and range up front, not only those reached,
    # and every seed for being an int: a string would fail inside
    # ``schedule``, and a float would run and be recorded as given.
    for kwargs in (
        {"seeds": ()},
        {"seeds": ("7",)},
        {"seeds": (1.5,)},
        {"seeds": (101, True)},
        {"primes": ()},
        {"primes": (0,)},
        {"primes": (1,)},
        {"primes": (32003, -7)},
        {"primes": (32003.0,)},
        {"primes": (32003, 32004)},
        {"primes": (32003, 561)},
        {"primes": (32003, 10**25)},
    ):
        with pytest.raises(ValueError):
            TrialPolicy(**kwargs)


def test_no_trial_records_a_g0_other_than_1(monkeypatch):
    # g_0 is the degree of P^n.  At tiny primes a computed g_0 would come
    # out 0 whenever the combination g vanished at the cut's point.
    import csmhyp.segre as segre_mod

    vectors = []
    real = segre_mod._degrees_one_trial

    def recording(scheme, rng, certified):
        vectors.append(real(scheme, rng, certified))
        return vectors[-1]

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", recording)
    inputs = [
        ("x0*x1", 3),
        ("x1^2*x2 - x0^3", 3),
        ("x0^2 + x1^2 + x2^2", 3),
        ("x0*x1*x2", 4),
    ]
    for p, seed, (text, nvars) in itertools.product((7, 11, 13), range(1, 60), inputs):
        try:
            pd, _ = projective_degrees(
                parse_poly(text, nvars), TrialPolicy(primes=(p,), seeds=(seed,))
            )
            assert all(t.g[0] == 1 for t in pd.trials)
        except RandomnessError as err:
            assert all(t["g"][0] == 1 for t in err.trials)
    assert vectors and all(g[0] == 1 for g in vectors)


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
    codim = scheme.codim
    assert codim == 1
    assert all(s.coeffs[k] == 0 for k in range(codim))
    assert s.coeffs[codim] == scheme.deg_y


def test_disagreeing_trials_escalate_then_fail(monkeypatch):
    import csmhyp.segre as segre_mod

    calls = []

    def flaky(scheme, rng, certified):
        calls.append(1)
        # never confirm the same vector twice, and g_2 below its bound
        # 9 - 6, so that nothing but g_0 and the settled g_1 is certified
        return (1, 3, 2, len(calls))

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", flaky)
    with pytest.raises(RandomnessError) as err:
        projective_degrees(parse_poly("x0*x1*x2*x3", 4), TWO_PRIME)
    assert err.value.trials  # audit log travels with the failure
    assert len(calls) == 5


def test_disagreement_then_confirmation_marks_rejected_trials(monkeypatch):
    import csmhyp.segre as segre_mod

    # The quadrifolium: g_1 = 5 is certified, and g_2 <= 25 - 16 at c = 2
    # stays open.  The second trial disagrees on it; the third, at the
    # other prime, agrees with the first.
    outputs = iter([(1, 5, 8), (1, 5, 7), (1, 5, 8)])

    def scripted(scheme, rng, certified):
        return next(outputs)

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", scripted)
    pd, _ = projective_degrees(parse_poly(QUADRIFOLIUM, 3), TWO_PRIME)
    assert pd.g == (1, 5, 8)
    assert [t.accepted for t in pd.trials] == [True, False, True]


def test_a_repeat_on_the_fifth_trial_is_accepted(monkeypatch):
    import csmhyp.segre as segre_mod

    # Four planes: g_1 = 3 is certified; g_2 <= 9 - 6 at c = 2 reads low,
    # so g_3 has no bound, and both stay open.  The third trial reads the
    # componentwise max first, and the fifth repeats it.
    outputs = iter(
        [(1, 3, 2, 1), (1, 3, 1, 2), (1, 3, 2, 2), (1, 3, 1, 0), (1, 3, 2, 2)]
    )

    def scripted(scheme, rng, certified):
        return next(outputs)

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", scripted)
    pd, _ = projective_degrees(parse_poly("x0*x1*x2*x3", 4), TWO_PRIME)
    assert pd.g == (1, 3, 2, 2)
    assert [t.accepted for t in pd.trials] == [False, False, True, False, True]
    assert [(t.prime, t.seed) for t in pd.trials] == [
        (32003, 101), (32003, 102), (65537, 101), (65537, 102), (32003, 100104)
    ]


def test_upper_bounds_of_the_projective_degrees():
    import csmhyp.segre as segre_mod

    # e^i below c = codim Y, e^c - deg_y at c, g_(i-1)^2 // g_(i-2) above
    # c once both are certified, and 0 from the rank r on.  g_1 and the
    # zeros from r on are settled before any trial, g_1 at its bound, or
    # at 0 when r = 1.  A vector at every bound is certified whole; one
    # above any bound below r is refuted.
    for text, nvars, bounds in [
        ("x0^2 + x1^2 + x2^2", 3, [1, 1, 1]),  # smooth: every e^i
        ("x0*x1", 3, [1, 1, 0]),  # r = 2
        ("x0*x1*x2", 3, [1, 2, 1]),  # three points: 4 - 3
        (QUADRIFOLIUM, 3, [1, 5, 9]),  # 25 - 16
        ("x0*x1*x2*x3", 4, [1, 3, 3, 3]),  # six lines: 9 - 6, then 9 // 3
        ("x0^2 + x1^2 + x2^2", 4, [1, 1, 1, 0]),  # a cone, r = 3
        ("x0^2*x1", 3, [1, 1, 0]),  # c = 1: g_1 = 2 - 1, and r = 2
        ("x0^3", 3, [1, 0, 0]),  # r = 1, and g_1 = 2 - 2 at c = 1
    ]:
        scheme = jacobian_scheme(gfpoly(text, nvars))
        r = len(scheme.columns)
        settled = segre_mod._settled(scheme)
        assert settled == {1: bounds[1], **dict.fromkeys(range(r, nvars), 0)}, text
        exact = dict(settled)
        segre_mod._certify(scheme, tuple(bounds), exact)
        assert exact == dict(enumerate(bounds)), text
        for i in range(r):
            high = bounds[:i] + [bounds[i] + 1] + bounds[i + 1 :]
            with pytest.raises(
                CsmhypError, match=f"g_{i} = {high[i]} is above its bound {bounds[i]} "
            ):
                segre_mod._certify(scheme, tuple(high), dict(settled))


def test_the_componentwise_max_is_accepted_over_an_earlier_repeat(monkeypatch):
    # Four planes: g_2 and g_3 stay open.  A reading is never high, so the
    # repeat of (1, 3, 2, 2), below the first trial's g_3 = 4, is not
    # accepted; the repeat of the max is.
    _scripted(monkeypatch, [(1, 3, 2, 4), (1, 3, 2, 2), (1, 3, 2, 2), (1, 3, 2, 4)])
    pd, _ = projective_degrees(parse_poly("x0*x1*x2*x3", 4), TWO_PRIME)
    assert pd.g == (1, 3, 2, 4)
    assert [t.accepted for t in pd.trials] == [True, False, False, True]


def test_a_vector_that_meets_every_bound_takes_one_trial():
    # The smooth conic meets e^i everywhere; the node of the cubic is
    # quasi-homogeneous, so g_2 = e^2 - deg_y.
    for text in ("x0^2 + x1^2 + x2^2", "x1^2*x2 - x0^3 - x0^2*x2"):
        pd, _ = projective_degrees(parse_poly(text, 3), TWO_PRIME)
        assert len(pd.trials) == 1 and pd.trials[0].accepted, text


def _record_cuts(monkeypatch) -> list:
    """Per trial, the list of the cut kernels it calls, in order."""
    import csmhyp.segre as segre_mod

    calls = []
    for name in ("_plane_degree", "_chart_degree"):

        def wrapped(*args, _name=name, _real=getattr(segre_mod, name)):
            calls[-1].append(_name)
            return _real(*args)

        monkeypatch.setattr(segre_mod, name, wrapped)
    real = segre_mod._degrees_one_trial

    def trial(scheme, rng, certified):
        calls.append([])
        return real(scheme, rng, certified)

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", trial)
    return calls


def test_a_later_trial_draws_only_the_open_cuts(monkeypatch):
    calls = _record_cuts(monkeypatch)
    # g_1 is settled before any trial.  The quadrifolium's g_2 = 8 stays
    # below 25 - 16, so its top cut is drawn again.
    pd, _ = projective_degrees(
        parse_poly("(x0^2+x1^2)^3 - 4*x0^2*x1^2*x2^2", 3), TWO_PRIME
    )
    assert pd.g == (1, 5, 8) and [t.accepted for t in pd.trials] == [True, True]
    assert calls == [["_chart_degree"], ["_chart_degree"]]
    # Four planes certify g_2 = 9 - 6; g_3 = 1 stays below 9 // 3.
    calls.clear()
    pd, _ = projective_degrees(parse_poly("x0*x1*x2*x3", 4), TWO_PRIME)
    assert pd.g == (1, 3, 3, 1) and len(pd.trials) == 2
    assert calls == [["_plane_degree", "_chart_degree"], ["_chart_degree"]]


def test_a_trial_that_meets_a_bound_overrules_a_low_one(monkeypatch):
    import csmhyp.segre as segre_mod

    # Three lines: g_2 <= 4 - 3.  The second trial certifies the whole
    # vector, and the first, low at g_2, is not accepted.
    outputs = iter([(1, 2, 0), (1, 2, 1)])
    seen = []

    def scripted(scheme, rng, certified):
        seen.append(dict(certified))
        return next(outputs)

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", scripted)
    pd, _ = projective_degrees(parse_poly("x0*x1*x2", 3), TWO_PRIME)
    assert pd.g == (1, 2, 1)
    assert [t.accepted for t in pd.trials] == [False, True]
    assert seen == [{1: 2}, {0: 1, 1: 2}]


def test_an_earlier_trial_that_differs_on_a_later_certified_coordinate_is_rejected(
    monkeypatch,
):
    import csmhyp.segre as segre_mod

    # Four planes: the first trial is low at g_2 <= 9 - 6, the second
    # certifies it, and the two agree on g_3, the one open coordinate.
    # Only the third trial, which reads the second's whole vector, accepts
    # it, and the first trial, whose vector is not the accepted one, is
    # not marked accepted.
    outputs = iter([(1, 3, 2, 1), (1, 3, 3, 1), (1, 3, 3, 1)])
    seen = []

    def scripted(scheme, rng, certified):
        seen.append(dict(certified))
        return next(outputs)

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", scripted)
    pd, _ = projective_degrees(parse_poly("x0*x1*x2*x3", 4), TWO_PRIME)
    assert pd.g == (1, 3, 3, 1)
    assert [t.accepted for t in pd.trials] == [False, True, True]
    assert [t.prime for t in pd.trials] == [32003, 32003, 65537]
    assert seen == [{1: 3}, {0: 1, 1: 3}, {1: 3}]


def test_a_trial_at_another_prime_draws_every_cut(monkeypatch):
    import csmhyp.segre as segre_mod

    # Four planes, one seed: the trials alternate 32003 and 65537.  What
    # 32003 certified is not given to 65537, and comes back at 32003.  g_2
    # reads low at c = 2, so g_3 has no bound, and both stay open.  The
    # third trial repeats the first, the componentwise max.
    outputs = iter([(1, 3, 2, 1), (1, 3, 1, 1), (1, 3, 2, 1)])
    seen = []

    def scripted(scheme, rng, certified):
        seen.append(dict(certified))
        return next(outputs)

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", scripted)
    one_seed = TrialPolicy(primes=(32003, 65537), seeds=(101,))
    pd, _ = projective_degrees(parse_poly("x0*x1*x2*x3", 4), one_seed)
    assert pd.g == (1, 3, 2, 1)
    assert [t.prime for t in pd.trials] == [32003, 65537, 32003]
    assert [t.accepted for t in pd.trials] == [True, False, True]
    assert seen == [{1: 3}, {1: 3}, {0: 1, 1: 3}]


def test_a_trial_above_a_bound_is_refused_at_once(monkeypatch):
    import csmhyp.segre as segre_mod

    # Three lines: g_2 = 2 is above 4 - 3, which refutes the first trial.
    calls = []

    def scripted(scheme, rng, certified):
        calls.append(1)
        return (1, 2, 2)

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", scripted)
    with pytest.raises(CsmhypError, match="g_2 = 2 is above its bound 1 at prime 32003"):
        segre_singular_scheme(parse_poly("x0*x1*x2", 3), TWO_PRIME)
    assert len(calls) == 1


def test_a_reading_low_below_the_codimension_is_never_accepted_by_agreement(
    monkeypatch,
):
    # Below c, e^i is the proven value: trials that agree on a low g_2 of
    # a quadric cone in P^3 (one point, c = 3) settle nothing, and the run
    # is exhausted.  Its g_1 = 1 is settled and its g_3 = 0 from r = 3.
    seen = _scripted(monkeypatch, [(1, 1, 0, 0)] * 5)
    with pytest.raises(RandomnessError) as err:
        projective_degrees(parse_poly("x0^2 + x1^2 + x2^2", 4), TWO_PRIME)
    assert len(err.value.trials) == 5 and len(seen) == 5
    assert [t["accepted"] for t in err.value.trials] == [False] * 5


def _log_concave_without_internal_zeros(g) -> bool:
    support = [i for i, gi in enumerate(g) if gi]
    return all(g[i] ** 2 >= g[i - 1] * g[i + 1] for i in range(1, len(g) - 1)) and (
        support == list(range(support[0], support[-1] + 1))
    )


def test_every_expected_g_vector_is_log_concave_with_no_internal_zeros(
    bench_workloads,
):
    # The premise of the log-concave bound, on every g-vector the repo
    # expects: the fixtures, the benchmark's workloads and the goldens
    # (those of `compute`; verify.json holds verdicts only).
    vectors = [f.expected.get("projective_degrees") for f in default_fixtures()]
    vectors += [
        c.expected.get("projective_degrees")
        for make in bench_workloads.WORKLOADS.values()
        for c in make()
    ]
    vectors += [
        json.loads(path.read_text())["projective_degrees"]
        for path in GOLDEN.glob("compute_*.json")
    ]
    vectors = [g for g in vectors if g is not None]
    assert len(vectors) >= 18 + 6 + 5
    assert not _log_concave_without_internal_zeros([1, 0, 1])
    assert not _log_concave_without_internal_zeros([1, 2, 0, 1])
    assert not _log_concave_without_internal_zeros([1, 1, 2])
    for g in vectors:
        assert _log_concave_without_internal_zeros(g), g


def test_log_concavity_gives_four_nonisolated_inputs_one_trial(
    monkeypatch, bench_workloads
):
    calls = _record_cuts(monkeypatch)
    # g_3 meets g_2^2 // g_1 (and g_4 = g_3^2 // g_2) on four inputs;
    # roman_steiner (4 < 36 // 3) and four_planes (1 < 9 // 3) keep g_3 open.
    for case in bench_workloads.nonisolated_cases():
        calls.clear()
        pd, _ = projective_degrees(parse_poly(case.poly, case.nvars), TrialPolicy())
        assert list(pd.g) == case.expected["projective_degrees"], case.name
        if case.name in ("roman_steiner", "four_planes"):
            assert len(pd.trials) == 2 and calls[1] == ["_chart_degree"], case.name
        else:
            assert len(pd.trials) == 1 and pd.trials[0].accepted, case.name


DOUBLE_QUADRIC = "(x0^2+x1^2+x2^2+x3^2+x4^2)^2 + x4^4"  # g = (1, 3, 3, 3, 3)
DOUBLE_CONIC = "(x0^2+x1^2+x2^2-x3^2)^2 + x3^4"  # g = (1, 3, 3, 3)


def _scripted(monkeypatch, outputs) -> list:
    """Trials that read ``outputs`` in turn; returns the list that collects
    the certified values each trial is given."""
    import csmhyp.segre as segre_mod

    outputs = iter(outputs)
    seen = []

    def scripted(scheme, rng, certified):
        seen.append(dict(certified))
        return next(outputs)

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", scripted)
    return seen


def test_log_concavity_certifies_g3_then_g4_in_one_pass(monkeypatch):
    import csmhyp.segre as segre_mod

    # Above c = 2 a bound needs certified values: with g_2 low, nothing
    # bounds g_3 or g_4.
    scheme = jacobian_scheme(gfpoly(DOUBLE_QUADRIC, 5))
    exact = {}
    segre_mod._certify(scheme, (1, 3, 2, 9, 27), exact)
    assert exact == {0: 1, 1: 3}
    # g_3 = 9 // 3 is certified, and bounds g_4 by 9 // 3 in the same pass.
    seen = _scripted(monkeypatch, [(1, 3, 3, 3, 3)])
    pd, _ = projective_degrees(parse_poly(DOUBLE_QUADRIC, 5), TWO_PRIME)
    assert pd.g == (1, 3, 3, 3, 3) and len(pd.trials) == 1 and seen == [{1: 3}]
    # A low g_4 stays open; the certified g_3 goes to the next trial.
    seen = _scripted(monkeypatch, [(1, 3, 3, 3, 2), (1, 3, 3, 3, 3)])
    pd, _ = projective_degrees(parse_poly(DOUBLE_QUADRIC, 5), TWO_PRIME)
    assert pd.g == (1, 3, 3, 3, 3)
    assert [t.accepted for t in pd.trials] == [False, True]
    assert seen == [{1: 3}, {0: 1, 1: 3, 2: 3, 3: 3}]
    # A low g_3 certifies neither g_3 nor g_4 above it, though g_4 meets
    # g_3^2 // g_2 = 4 // 3.
    seen = _scripted(monkeypatch, [(1, 3, 3, 2, 1), (1, 3, 3, 3, 3)])
    pd, _ = projective_degrees(parse_poly(DOUBLE_QUADRIC, 5), TWO_PRIME)
    assert pd.g == (1, 3, 3, 3, 3) and seen == [{1: 3}, {0: 1, 1: 3, 2: 3}]


def test_a_reading_below_the_log_concave_bound_stays_open(monkeypatch):
    seen = _scripted(monkeypatch, [(1, 3, 3, 2), (1, 3, 3, 3)])
    pd, _ = projective_degrees(parse_poly(DOUBLE_CONIC, 4), TWO_PRIME)
    assert pd.g == (1, 3, 3, 3)
    assert [t.accepted for t in pd.trials] == [False, True]
    assert seen == [{1: 3}, {0: 1, 1: 3, 2: 3}]


def test_a_reading_above_the_log_concave_bound_is_not_certified(monkeypatch):
    # g_2 = 2 reads low at c = 2, so g_3 = 4, above 3^2 // 3, has no
    # bound: it stays open, two trials agree on it, as on any open
    # coordinate, and neither is given it.
    seen = _scripted(monkeypatch, [(1, 3, 2, 4), (1, 3, 2, 4)])
    pd, _ = projective_degrees(parse_poly(DOUBLE_CONIC, 4), TWO_PRIME)
    assert pd.g == (1, 3, 2, 4)
    assert [t.accepted for t in pd.trials] == [True, True]
    assert seen == [{1: 3}, {0: 1, 1: 3}]


def test_a_reading_above_the_log_concave_bound_is_refuted(monkeypatch):
    # g_3 = 4 > 9 // 3 once g_1 and g_2 are certified: the first trial is
    # refuted, so no second trial runs to agree with it.
    seen = _scripted(monkeypatch, [(1, 3, 3, 4), (1, 3, 3, 4)])
    with pytest.raises(CsmhypError) as err:
        projective_degrees(parse_poly(DOUBLE_CONIC, 4), TWO_PRIME)
    assert str(err.value) == "projective degree g_3 = 4 is above its bound 3 at prime 32003"
    assert seen == [{1: 3}]
    # Two planes and a quadric: g_2 <= 9 - 5 and g_3 <= 16 // 3 = 5, so 6,
    # 16 / 3 rounded up, is refuted.
    _scripted(monkeypatch, [(1, 3, 4, 6)])
    with pytest.raises(CsmhypError, match="g_3 = 6 is above its bound 5 "):
        projective_degrees(parse_poly("x0*x1*(x0^2+x1^2+x2^2+x3^2)", 4), TWO_PRIME)


def test_log_concave_certificates_stay_at_their_prime(monkeypatch):
    # One seed: the trials alternate 32003 and 65537.  The g_3 that 32003
    # certified by log-concavity is not given to 65537, and comes back at
    # 32003.
    seen = _scripted(
        monkeypatch, [(1, 3, 3, 3, 2), (1, 3, 3, 3, 1), (1, 3, 3, 3, 3)]
    )
    one_seed = TrialPolicy(primes=(32003, 65537), seeds=(101,))
    pd, _ = projective_degrees(parse_poly(DOUBLE_QUADRIC, 5), one_seed)
    assert pd.g == (1, 3, 3, 3, 3)
    assert [t.prime for t in pd.trials] == [32003, 65537, 32003]
    assert [t.accepted for t in pd.trials] == [False, False, True]
    assert seen == [{1: 3}, {1: 3}, {0: 1, 1: 3, 2: 3, 3: 3}]


def test_schedule_keeps_the_usable_primes_in_policy_order():
    policy = TrialPolicy(primes=(7, 65537, 11, 32003), seeds=(1, 100004))
    quartic = parse_poly("x0^4 + x1^4 + 11*x2^4", 3)  # 7 <= 2d, 11 divides 11
    assert policy.schedule(quartic) == [
        (65537, 1), (65537, 100004), (32003, 1), (32003, 100004), (65537, 200007)
    ]
    assert TrialPolicy(primes=(13,), seeds=(5,)).schedule(quartic) == [
        (13, 5 + 100003 * k) for k in range(5)
    ]
    with pytest.raises(ValueError, match="no usable prime"):
        TrialPolicy(primes=(7, 11), seeds=(1,)).schedule(quartic)


def test_one_groebner_basis_per_prime_for_the_jacobian_only(monkeypatch):
    # Cuts of dimension two and up go straight into saturate, g_0 = 1 and
    # g_1 are not cut and the plane cut needs no basis at all; buchberger
    # runs once per prime, on the nonzero partials of F mod that prime.
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
    # One trial sets g_0 = 1 and g_1 with no cut.  When 2 < n it reads
    # g_2 on a random plane, unless the singular scheme has codimension
    # one or e^2 >= p; every other cut with 2 <= i < r reaches saturate,
    # where r is the rank of the partials.  x0*x1 and x0^2*x1 have r = 2,
    # so their cuts with i >= 2 are not drawn.
    import csmhyp.segre as segre_mod

    calls = []

    def counting(name):
        real = getattr(segre_mod, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(segre_mod, name, wrapped)

    counting("saturate")
    counting("_plane_degree")

    def one_trial(text, nvars, p=32003):
        # the first trial of the default policy at p: seed 101
        scheme = jacobian_scheme(reduce_mod_p(parse_poly(text, nvars), p))
        calls.clear()
        rng = random.Random(f"csmhyp:{p}:101")
        segre_mod._degrees_one_trial(scheme, rng, segre_mod._settled(scheme))
        return calls.count("saturate"), "_plane_degree" in calls

    fermat_quintic = "x0^5 + x1^5 + x2^5 + x3^5"
    for text, nvars, p, want in [
        ("x0^2*x1 + x1^3", 2, 32003, (0, False)),
        ("x0^2 + x1^2 + x2^2", 3, 32003, (1, False)),  # the top cut i = n = 2
        ("x0*x1", 3, 32003, (0, False)),
        ("x1^2*x2 - x0^3", 3, 32003, (1, False)),
        ("x0^2*x1", 4, 32003, (0, False)),  # codimension one, r = 2
        ("x0^3 + x1^3 + x2^3 + x3^3", 4, 32003, (1, True)),
        ("x0^3 + x1^3 + x2^3 + x3^3", 4, 7, (1, True)),  # e^2 = 4 < 7
        (fermat_quintic, 4, 17, (1, True)),  # e^2 = 16 < 17
        (fermat_quintic, 4, 13, (2, False)),  # e^2 = 16 >= 13
        ("x0*x1*x2*x3*x4", 5, 32003, (2, True)),
    ]:
        assert one_trial(text, nvars, p) == want, (text, p)
    # the smooth conic's plane cut still supplies saturate spans
    assert one_trial("x0^2 + x1^2 + x2^2", 3)[0] >= 1


# -- g_1 --------------------------------------------------------------------------

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


def _pow(f, k):
    out = Polynomial(f.nvars, {(0,) * f.nvars: 1}, f.field)
    for _ in range(k):
        out = out * f
    return out


CODIM_ONE = [
    ("x0^3*x1^2*(x0+x2)", 3),  # divisorial part of length 2 + 1
    ("(x0^2+x1^2-x2^2)^2*x1", 3),  # a double conic
    ("x0^3*x1^2*(x0+x1)", 2),  # binary forms with multiple roots
    ("(x0^2+x1^2)^2*x0", 2),
]


def test_the_settled_g1_matches_the_elimination(bench_workloads):
    # g_1 = e - deg_y when Y has codimension one and e otherwise, with no
    # draw.  Reference: dim_degree(saturate(f + n - 1 hyperplanes, g)) for
    # seeded random combinations f and g of the partials and seeded
    # hyperplanes, on every input of three benchmark workloads, on
    # codimension-one inputs with non-reduced divisorial parts, and on
    # binary forms (n = 1), where the cut is f alone.
    from csmhyp.groebner import IdealBasis, dim_degree, saturate
    from csmhyp.segre import _settled

    inputs = [
        (case.poly, case.nvars)
        for name in ("corpus", "nonisolated", "isolated")
        for case in bench_workloads.WORKLOADS[name]()
    ]
    seen = set()
    for text, nvars in inputs + CODIM_ONE:
        for p in (32003, 65537):
            scheme = jacobian_scheme(gfpoly(text, nvars, p))
            xs = [variable(nvars, k, PrimeField(p)) for k in range(nvars)]
            rng = random.Random(f"{text}:{p}:g1")
            want = _settled(scheme)[1]
            for _ in range(2):
                g, f = (random_linear_combination(scheme.partials, rng) for _ in "gf")
                planes = [random_linear_combination(xs, rng) for _ in range(nvars - 2)]
                residual = saturate(IdealBasis((f, *planes)), IdealBasis((g,)))
                dim, deg = dim_degree(residual)
                assert deg == want and dim == (0 if want else None), (text, p)
            seen.add((scheme.codim == 1, nvars == 2, want == 0))
    assert {(True, False, False), (True, True, False), (False, False, False)} <= seen
    assert (True, False, True) in seen  # x0^2, where r = 1


# -- plane cuts ----------------------------------------------------------------

ISOLATED = [
    ("(x0^2+x1^2+x2^2+x3^2)^2 - 4*x0*x1*x2*x3", 4),
    ("x0^3 + x1^3 + x2^3 + x3^3 + x4^3 + x5^3", 6),
    ("x0^5 + x1^5 + x2^5 + x3^5 + x4^5", 5),
]


def _hyperplanes(points, xs, p):
    """A basis of the linear forms that vanish at the points: the null
    space of their matrix mod p, from its reduced echelon form."""
    rows, pivots = [], []
    for x in points:
        r = list(x)
        for k, q in zip(pivots, rows):
            r = [(u - r[k] * v) % p for u, v in zip(r, q)]
        k = next((k for k, u in enumerate(r) if u), None)
        if k is None:
            continue
        r = [u * pow(r[k], -1, p) % p for u in r]
        rows = [[(u - q[k] * v) % p for u, v in zip(q, r)] for q in rows]
        rows.append(r)
        pivots.append(k)
    forms = []
    for j, x in enumerate(xs):
        if j not in pivots:
            for k, q in zip(pivots, rows):
                x = x - xs[k].scale(q[j])
            forms.append(x)
    return forms


def _through(f, point, p, order=1):
    """f minus the terms of its expansion at the point of order below
    ``order`` (1 or 2), so that it vanishes there, to first order when
    order = 2.  With k a coordinate where the point is nonzero, those
    terms are f(pt)/pt_k^e x_k^e and, for each j != k,
    df/dx_j(pt)/pt_k^(e-1) x_k^(e-1) (x_j - pt_j/pt_k x_k)."""
    e = f.degree
    nvars = f.nvars
    k = next(k for k, x in enumerate(point) if x)
    xs = [variable(nvars, j, f.field) for j in range(nvars)]
    out = f - _pow(xs[k], e).scale(_value(f, point, p) * pow(point[k], -e, p))
    if order == 2:
        for j in range(nvars):
            if j != k:
                slope = _value(f.partial(j), point, p) * pow(point[k], 1 - e, p)
                local = xs[j] - xs[k].scale(point[j] * pow(point[k], -1, p))
                out = out - (_pow(xs[k], e - 1) * local).scale(slope)
    return out


def _force_plane(kind, f1, f2, g, a, b, c, rng):
    """Rework one seeded draw into the degenerate case ``kind``."""
    p = g.field.p
    if kind == "dependent":
        r, t = rng.randrange(p), rng.randrange(p)
        c = [(r * x + t * y) % p for x, y in zip(a, b)]
    elif kind == "c_on_f1":
        f1 = _through(f1, c, p)
    elif kind == "c_on_f2":
        f2 = _through(f2, c, p)
    elif kind == "c_on_g":
        g = _through(g, c, p)
    elif kind == "b_on_cut":  # s = infinity is a root of R12, not of R1G
        f1, f2 = _through(f1, b, p), _through(f2, b, p)
    elif kind == "b_on_all":  # ... and of R1G as well
        f1, f2, g = _through(f1, b, p), _through(f2, b, p), _through(g, b, p)
    elif kind == "double_at_a":  # f2 singular at a, f1 and g through it
        f1, f2, g = _through(f1, a, p), _through(f2, a, p, 2), _through(g, a, p)
    return f1, f2, g, a, b, c


def _coincidence(f1, f2, g, a, b, c, xs, p):
    """Whether a GF(p)-line through c in the plane of a, b and c meets
    both the residual (f1, f2) : g^infty and the points where f1 and g
    meet.  Seen from c the two then lie on one line, whose root the
    plane cut strips from R12 together with the residual point's."""
    from csmhyp.groebner import IdealBasis, buchberger, dim_degree, saturate

    for q in [[(x + s * y) % p for x, y in zip(a, b)] for s in range(p)] + [b]:
        line = _hyperplanes((c, q), xs, p)
        residual = saturate(IdealBasis((f1, f2, *line)), IdealBasis((g,)))
        if dim_degree(residual)[1] and dim_degree(buchberger([f1, g, *line]))[0] == 0:
            return True
    return False


def test_plane_cuts_match_the_elimination():
    # Reference: dim_degree(saturate(f1, f2 + hyperplanes through a, b,
    # c; g)).  Besides plain draws, each input gets dependent points, c
    # on each of the three curves, f1 and f2 through b (a root at
    # s = infinity), f1, f2 and g through b (one that R1G shares), and a
    # point a where f2 is singular and f1 and g pass simply.  A draw is
    # redrawn exactly when the points are dependent, c lies on a curve,
    # or f1 shares a curve of the plane with f2 or with g.  Where the
    # singular scheme has codimension one, f1 and g always share one, so
    # those inputs stay with the elimination.
    #
    # The plane cut sees the plane from c, so it can only come out lower,
    # when a line through c meets a residual point and a point of f1 and
    # g.  With p + 1 lines through c that happens on about one draw in
    # ten at p = 11 and 13; each such draw must show that line, and at
    # p = 32003 none may occur.
    from csmhyp.groebner import IdealBasis, buchberger, dim_degree, saturate
    from csmhyp.oracles import default_fixtures
    from csmhyp.segre import _plane_degree

    inputs = [(c.poly, c.n + 1) for c in default_fixtures() if c.n >= 3]
    inputs += NONISOLATED + ISOLATED
    kinds = (
        "plain", "dependent", "c_on_f1", "c_on_f2", "c_on_g",
        "b_on_cut", "b_on_all", "double_at_a",
    )
    seen = set()
    for text, nvars in inputs:
        F = parse_poly(text, nvars)
        e = F.degree - 1
        for p in (11, 13, 32003):
            if p <= 2 * F.degree or e * e >= p:
                continue
            scheme = jacobian_scheme(reduce_mod_p(F, p))
            xs = [variable(nvars, k, PrimeField(p)) for k in range(nvars)]
            rng = random.Random(f"{text}:{p}")
            for kind in kinds:
                g, f1, f2 = (random_linear_combination(scheme.partials, rng) for _ in "gff")
                a, b, c = ([rng.randrange(p) for _ in xs] for _ in "abc")
                f1, f2, g, a, b, c = _force_plane(kind, f1, f2, g, a, b, c, rng)
                if f1.is_zero or f2.is_zero or g.is_zero:
                    continue
                got = _plane_degree(f1, f2, g, a, b, c, p)
                where = (text, p, kind)
                planes = _hyperplanes((a, b, c), xs, p)
                if len(planes) > nvars - 3 or not all(
                    _value(h, c, p) for h in (f1, f2, g)
                ):
                    assert got is None, where
                    seen.add((kind, "redraw"))
                elif any(dim_degree(buchberger([f1, h, *planes]))[0] for h in (f2, g)):
                    assert got is None, where
                    seen.add((kind, "codim one" if scheme.dim_y == nvars - 2 else "redraw"))
                else:
                    dim, deg = dim_degree(
                        saturate(IdealBasis((f1, f2, *planes)), IdealBasis((g,)))
                    )
                    assert not dim and got is not None and got <= deg, where
                    if got < deg:
                        assert p < 100 and _coincidence(f1, f2, g, a, b, c, xs, p), where
                        seen.add((kind, "coincidence"))
                    else:
                        seen.add((kind, "zero" if not deg else
                                  "full" if deg == e * e else "drop"))
    assert ("plain", "full") in seen and ("plain", "drop") in seen
    assert ("plain", "zero") in seen and ("plain", "codim one") in seen
    for kind in ("dependent", "c_on_f1", "c_on_f2", "c_on_g"):
        assert (kind, "redraw") in seen, kind
    for kind in ("b_on_cut", "b_on_all", "double_at_a"):
        assert (kind, "drop") in seen, kind


def _sylvester(a, b, p):
    """Res(a, b) of coefficient lists, lowest first, as the determinant
    mod p of their Sylvester matrix, by Gaussian elimination."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * k + a[::-1] + [0] * (n - 1 - k) for k in range(n)]
    rows += [[0] * k + b[::-1] + [0] * (m - 1 - k) for k in range(m)]
    det = 1
    for j in range(m + n):
        i = next((i for i in range(j, m + n) if rows[i][j] % p), None)
        if i is None:
            return 0
        if i != j:
            rows[i], rows[j] = rows[j], rows[i]
            det = -det
        det = det * rows[j][j] % p
        inv = pow(rows[j][j], -1, p)
        for r in rows[j + 1 :]:
            c = r[j] * inv
            r[:] = [(x - c * y) % p for x, y in zip(r, rows[j])]
    return det % p


def test_resultants_match_the_sylvester_determinant():
    # The plane cut's resultants run Euclid on all interpolation nodes at
    # once and run a node whose remainder loses more than one degree
    # again on its own; at p = 5 and 7 most node sets have one.
    from csmhyp.segre import _resultants

    rng = random.Random(29)
    for p, e, _ in itertools.product((5, 7, 32003), range(1, 6), range(4)):
        nodes = e * e + 1
        a, b = (
            [[rng.randrange(p) for _ in range(nodes)] for _ in range(e)]
            + [[rng.randrange(1, p) for _ in range(nodes)]]
            for _ in "ab"
        )
        got = _resultants(a, b, p)
        for i in range(nodes):
            a_i, b_i = [c[i] for c in a], [c[i] for c in b]
            want = _sylvester(a_i, b_i, p)
            assert got[i] == want, (p, e, i)


def _random_form(e, nvars, p, rng, terms):
    """A nonzero form of degree e with at most ``terms`` random monomials."""
    monos = [
        m for m in itertools.product(range(e + 1), repeat=nvars) if sum(m) == e
    ]
    support = rng.sample(monos, min(terms, len(monos)))
    return Polynomial(
        nvars, {m: rng.randrange(1, p) for m in support}, PrimeField(p)
    )


def _restriction(f, a, b, c, s, p):
    """The coefficients in u, lowest first, of f(a + s*b + u*c) mod p:
    each monomial expanded as a product of the linear polynomials
    (x + s*y) + z*u, one factor per unit of its exponents."""
    out = [0] * (f.degree + 1)
    for m, coef in f.terms.items():
        poly = [coef]
        for x, y, z, k in zip(a, b, c, m):
            for _ in range(k):
                poly = [(x + s * y) * q + z * r for q, r in zip(poly + [0], [0] + poly)]
        out = [(o + q) % p for o, q in zip(out, poly)]
    return out


def test_plane_restriction_matches_direct_evaluation():
    # The triangle's values give every u-coefficient of f(a + s*b + u*c)
    # at every s = 0..e^2, the nodes of the plane cut's resultants.  The
    # forms have sparse and dense supports; a point has a zero coordinate.
    from csmhyp.segre import _on_plane

    rng = random.Random(17)
    for p, e in itertools.product((101, 32003), range(1, 9)):
        forms = [_random_form(e, 4, p, rng, terms) for terms in (2, 8, 40)]
        a, b, c = ([rng.randrange(p) for _ in range(4)] for _ in "abc")
        b[rng.randrange(4)] = 0
        got = _on_plane(forms, a, b, c, p, e * e + 1)
        for f, cols in zip(forms, got):
            assert len(cols) == e + 1 and all(len(col) == e * e + 1 for col in cols)
            for s in range(e * e + 1):
                want = _restriction(f, a, b, c, s, p)
                assert [col[s] for col in cols] == want, (p, e, s)


def test_plane_cut_evaluates_the_forms_on_the_triangle(monkeypatch):
    # (e+1)(e+2)/2 values fix a ternary form of degree e, so the plane
    # cut evaluates f1, f2 and g at exactly that many points, once.
    from csmhyp import segre

    sizes = []
    values = segre._values

    def counting(forms, points, p):
        sizes.append((len(forms), len(points)))
        return values(forms, points, p)

    monkeypatch.setattr(segre, "_values", counting)
    rng = random.Random(5)
    p = 32003
    for e in range(1, 8):
        f1, f2, g = (_random_form(e, 4, p, rng, 200) for _ in "ffg")
        a, b, c = ([rng.randrange(p) for _ in range(4)] for _ in "abc")
        sizes.clear()
        segre._plane_degree(f1, f2, g, a, b, c, p)
        assert sizes == [(3, (e + 1) * (e + 2) // 2)], e


def test_values_match_direct_evaluation():
    # Sparse forms (the four planes x0*x1*x2*x3, its partials, and forms
    # missing variables), points with zero coordinates, and coordinates
    # at or above p, which the evaluation reduces only at the end.
    from csmhyp.segre import _values

    p = 101
    four = gfpoly("x0*x1*x2*x3", 4, p)
    forms = [four, *(four.partial(k) for k in range(4))]
    forms += [gfpoly(t, 4, p) for t in ("x3^5", "x0^2 + 3*x1*x2", "5*x0^4*x2 - x1^3*x3^2")]
    rng = random.Random(3)
    points = [
        [0, 0, 0, 1], [0, 7, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0],
        [p, 2 * p + 1, 5, 0], [250, 0, 7 * p - 1, 10**6 + 3],
    ]
    points += [[rng.randrange(3 * p) for _ in range(4)] for _ in range(6)]
    got = _values(forms, points, p)
    assert got == [[_value(f, x, p) for x in points] for f in forms]
    assert _values(forms[:1], points[:1], p) == [[_value(forms[0], points[0], p)]]


# -- chart cuts ----------------------------------------------------------------

CHART_ONLY = [  # the isolated inputs with n = 2, which have no plane cut
    ("x0^8 + x1^8 + x0^3*x1^3*x2^2 + x1^2*x2^6", 3),
    ("(x0^2+x1^2)^3 - 4*x0^2*x1^2*x2^2", 3),
]


def _eliminated_cuts(scheme, p):
    """The i whose cut a trial counts with ``_chart_degree``: every
    i >= 2 but the plane cut's."""
    n = scheme.n
    plane = 2 < n and (scheme.d - 1) ** 2 < p and scheme.dim_y != n - 1
    return [i for i in range(2, n + 1) if not (i == 2 and plane)]


def _chart_of(g, n):
    """The k of the chart x_k = 1 that ``_chart_degree`` counts a cut
    saturated by g in: the last variable that divides every term of g,
    and n when none does or g is 0."""
    return max((k for k in range(n + 1) if all(m[k] for m in g.terms)), default=n)


def test_chart_cuts_match_the_projective_elimination():
    # Reference: dim_degree(saturate(forms + hyperplanes, g)) in P^n.
    # The chart count must equal it, be None when the residual is
    # positive-dimensional, and be 0 when the residual is empty.  It may
    # only come out lower, or finite for a positive-dimensional residual,
    # when g has no variable factor and the residual meets x_n = 0 in its
    # own dimension: the part lost lies on that hyperplane.  Besides
    # plain draws, each cut gets a repeated form, which leaves a
    # positive-dimensional residual, and a point q on x_n = 0 that the
    # forms and hyperplanes are reworked to pass through, which the chart
    # must lose.  Plain draws lose a point that way with probability about
    # 1/p, so only p = 11 and 13 may show it.  Each cut is also saturated
    # by x_k * g for a random k: the chart x_k = 1 then misses only points
    # of V(x_k * g), which the saturation removes, so it never reads low,
    # at any prime, q included.
    from csmhyp.groebner import IdealBasis, buchberger, dim_degree, saturate
    from csmhyp.oracles import default_fixtures
    from csmhyp.segre import _chart_degree

    inputs = [(c.poly, c.n + 1) for c in default_fixtures()]
    inputs += NONISOLATED + ISOLATED + CHART_ONLY
    seen = set()
    for text, nvars in inputs:
        F = parse_poly(text, nvars)
        n = nvars - 1
        for p in (11, 13, 32003):
            if p <= 2 * F.degree:
                continue
            scheme = jacobian_scheme(reduce_mod_p(F, p))
            xs = [variable(nvars, k, PrimeField(p)) for k in range(nvars)]
            rng = random.Random(f"{text}:{p}:chart")
            for i, kind in itertools.product(
                _eliminated_cuts(scheme, p), ("plain", "repeat", "at_infinity")
            ):
                g = random_linear_combination(scheme.partials, rng)
                forms = [random_linear_combination(scheme.partials, rng) for _ in range(i)]
                planes = [random_linear_combination(xs, rng) for _ in range(n - i)]
                if kind == "repeat":
                    forms[-1] = forms[0]
                elif kind == "at_infinity":
                    q = [rng.randrange(1, p) for _ in range(n)] + [0]
                    forms = [_through(f, q, p) for f in forms]
                    planes = [_through(h, q, p) for h in planes]
                cut = forms + planes
                if any(f.is_zero for f in cut):
                    continue
                for locus in (g, xs[rng.randrange(nvars)] * g):
                    residual = saturate(IdealBasis(tuple(cut)), IdealBasis((locus,)))
                    dim, deg = dim_degree(residual)
                    got = _chart_degree(cut, locus, n)
                    factor = locus is not g
                    where = (text, p, i, kind, factor)
                    if dim is None:
                        assert got == 0, where
                        seen.add((kind, factor, "zero"))
                    elif got == (None if dim else deg):
                        seen.add((kind, factor, "redraw" if dim else "equal"))
                    else:
                        # Lost on x_n = 0: a point, or every
                        # positive-dimensional component of the residual,
                        # whose dimension the hyperplane then keeps.
                        assert not factor, where
                        assert got is not None and (dim or got < deg), where
                        assert kind == "at_infinity" or p < 100, where
                        at_infinity = buchberger([*residual.gens, xs[n]])
                        assert dim_degree(at_infinity)[0] == dim, where
                        seen.add((kind, factor, "low" if not dim else "curve lost"))
    for factor in (False, True):
        assert ("plain", factor, "equal") in seen and ("plain", factor, "zero") in seen
        assert ("repeat", factor, "redraw") in seen
    assert ("at_infinity", False, "low") in seen and ("at_infinity", True, "equal") in seen


def test_the_chart_count_can_only_lose_points_at_infinity():
    # On the smooth conic, the forms x2 and x0 - x1 cut the point
    # (1:1:0), where g = x0 + 2*x1 does not vanish: the projective count
    # is 1, but the point lies on x2 = 0, and no variable divides g, so
    # the chart x2 = 1 counts 0.  The forms x0 and x1 cut (0:0:1), inside
    # that chart, which both count unless g vanishes there as well.
    from csmhyp.groebner import IdealBasis, dim_degree, saturate
    from csmhyp.segre import _chart_degree

    x0, x1, x2 = (variable(3, k, PrimeField(P)) for k in range(3))
    for forms, g, want in [
        ((x2, x0 - x1), x0 + x1.scale(2), (1, 0)),
        ((x0, x1), x0 + x1.scale(2) + x2, (1, 1)),
        ((x0, x1), x0 + x1.scale(2), (0, 0)),
    ]:
        dim, deg = dim_degree(saturate(IdealBasis(forms), IdealBasis((g,))))
        chart = _chart_degree(forms, g, 2)
        assert (deg, chart) == want, (forms, g)
        assert dim == (0 if deg else None)


def test_a_cut_is_counted_in_the_chart_of_a_variable_that_divides_g():
    # The forms x0*x1 and x2*(x0 - x1) cut (0:0:1), (0:1:0) and (1:0:0).
    # Saturated by g = x0, the residual is (1:0:0), on x2 = 0: the chart
    # x0 = 1 holds every point off V(g), so it counts 1 where the chart
    # x2 = 1 would count 0.  Saturated by x0*x1, which vanishes at all
    # three, the residual is empty and the chart x1 = 1 counts 0.
    from csmhyp.groebner import IdealBasis, dim_degree, saturate
    from csmhyp.segre import _chart_degree

    x0, x1, x2 = (variable(3, k, PrimeField(P)) for k in range(3))
    forms = (x0 * x1, x2 * (x0 - x1))
    for g, want in [(x0, 1), (x0 * x1, 0)]:
        assert _chart_degree(forms, g, 2) == want, g
        residual = saturate(IdealBasis(forms), IdealBasis((g,)))
        assert dim_degree(residual) == ((0, 1) if want else (None, 0)), g


CONES = [  # partials that are linearly dependent: d0 F = d1 F
    ("(x0+x1)^2*x2 - x2^3", 3),
    ("(x0+x1+x2)^4 - x2*x3^3", 4),
]


def test_row_reduced_chart_cuts_count_as_the_dense_draws():
    # A trial builds each chart cut from an echelon form of its i rows of
    # coefficients and saturates it by g less its multiples of those
    # rows: the same ideal I, and a g that differs by an element of I,
    # so the saturation is that of the dense forms and g.  Counted in one
    # chart, the counts must be equal, exactly, at every prime.  The
    # reduced g, often one partial, may have a variable factor that the
    # dense g lacks; it is then counted in that variable's chart, which
    # loses nothing, and the dense count in x_n = 1 may only be lower, by
    # a point on x_n = 0, which takes a small prime.  Besides plain
    # draws, each cut gets a repeated row (rank below i) and a g in the
    # span of the forms, which reduces to 0 and counts 0 both ways.  Each
    # echelon row is 0 at the others' pivots and the reduced g at all of
    # them.
    from csmhyp.oracles import default_fixtures
    from csmhyp.poly import _random_row
    from csmhyp.segre import _chart_degree, _combination, _reduced_cut

    inputs = [(c.poly, c.n + 1) for c in default_fixtures()]
    inputs += NONISOLATED + ISOLATED + CHART_ONLY + CONES
    seen = set()
    for text, nvars in inputs:
        F = parse_poly(text, nvars)
        n = nvars - 1
        for p in (11, 13, 32003):
            if p <= 2 * F.degree:
                continue
            scheme = jacobian_scheme(reduce_mod_p(F, p))
            partials, k = scheme.partials, len(scheme.partials)
            xs = [variable(nvars, j, PrimeField(p)) for j in range(nvars)]
            rng = random.Random(f"{text}:{p}:rows")
            for i, kind in itertools.product(
                _eliminated_cuts(scheme, p), ("plain", "repeat", "in_span")
            ):
                g_row = _random_row(scheme.columns, p, rng)
                rows = [_random_row(scheme.columns, p, rng) for _ in range(i)]
                planes = [random_linear_combination(xs, rng) for _ in range(n - i)]
                if kind == "repeat":
                    rows[-1] = rows[0]
                elif kind == "in_span":
                    cs = [rng.randrange(1, p) for _ in rows]
                    g_row = [sum(c * r[j] for c, r in zip(cs, rows)) % p for j in range(k)]
                dense = [_combination(partials, r, p) for r in rows]
                g = _combination(partials, g_row, p)
                want = _chart_degree(dense + planes, g, n)
                forms, rest = _reduced_cut(partials, rows, g_row, p)
                got = _chart_degree(forms + planes, rest, n)
                where = (text, p, i, kind)
                if got != want:
                    assert _chart_of(g, n) == n != _chart_of(rest, n) and p < 100, where
                    assert want is not None and (got is None or want < got), where
                    seen.add((kind, "lost at infinity"))
                assert len(forms) <= i - (kind == "repeat"), where
                if kind == "in_span":
                    assert rest.is_zero and got == 0, where
                size = len(rest.terms)
                seen.add((kind, "zero" if not size else "one" if size == 1 else "dense"))
    assert {("plain", "dense"), ("plain", "one"), ("repeat", "dense")} <= seen
    assert ("in_span", "zero") in seen and ("plain", "lost at infinity") in seen


def test_echelon_rows_span_the_rows_and_clear_the_other_pivots():
    # Small primes make zero and repeated rows common.
    from csmhyp.segre import _echelon, _reduced

    rng = random.Random(13)
    for p, k, i in itertools.product((2, 5, 32003), range(1, 6), range(1, 6)):
        rows = [[rng.randrange(p) for _ in range(k)] for _ in range(i)]
        if i > 1 and rng.random() < 0.3:
            rows[-1] = rows[0]
        echelon, pivots = _echelon(rows, p)
        assert len(pivots) == len(set(pivots)) == len(echelon) == _rank(rows, p)
        for q, col in zip(echelon, pivots):
            assert all(0 <= x < p for x in q) and q[col]
            assert all(q[other] == 0 for other in pivots if other != col)
        # every input row lies in their span, and reduces to 0
        for r in rows:
            assert not any(_reduced(r, echelon, pivots, p))
        assert _rank(echelon + rows, p) == len(echelon)
        other = [rng.randrange(p) for _ in range(k)]
        rest = _reduced(other, echelon, pivots, p)
        assert all(rest[col] == 0 for col in pivots)
        assert _rank(echelon + [rest], p) == _rank(echelon + [other], p)


def _rank(rows, p):
    """Rank mod p by Gaussian elimination with inverses."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in rows[rank:] if r[col] % p), None)
        if piv is None:
            continue
        rows.remove(piv)
        rows.insert(rank, piv)
        inv = pow(piv[col], -1, p)
        for r in rows[rank + 1 :]:
            c = r[col] * inv
            r[:] = [(x - c * y) % p for x, y in zip(r, piv)]
        rank += 1
    return rank


def test_batched_inverses_map_zero_to_one():
    # One pow per Euclid step: the inverses of a column of leading
    # coefficients, with 1 where the column is 0, as pow(v or 1, -1, p).
    from csmhyp.segre import _inverses

    rng = random.Random(7)
    for p in (2, 5, 7, 32003, 2147483647):
        for size in (1, 2, 3, 10, 50):
            for zeros in (0, 1, size):
                vs = [rng.randrange(1, p) for _ in range(size)]
                for j in rng.sample(range(size), zeros):
                    vs[j] = 0
                assert _inverses(vs, p) == [pow(v or 1, -1, p) for v in vs], (p, vs)


def test_jacobian_scheme_columns_detect_every_vanishing_combination():
    # A combination of the partials vanishes iff it vanishes at the
    # leads of the jacobian basis in degree d - 1: one column per
    # independent partial, fewer for a cone, whose rows (1, -1, 0, ...)
    # vanish.
    for (text, nvars), rank in zip(CONES + NONISOLATED[:1], (2, 3, 4)):
        for p in (11, 13, 32003):
            scheme = jacobian_scheme(gfpoly(text, nvars, p))
            k = len(scheme.partials)
            assert len(scheme.columns) == rank
            assert all(len(col) == k for col in scheme.columns)
            monos = {m for q in scheme.partials for m in q.terms}
            vanished = 0
            for row in itertools.product((0, 1, p - 1), repeat=k):
                combo = [
                    sum(c * q.terms.get(m, 0) for c, q in zip(row, scheme.partials)) % p
                    for m in monos
                ]
                at = [sum(c * x for c, x in zip(row, col)) % p for col in scheme.columns]
                assert any(combo) == any(at), (text, p, row)
                vanished += any(row) and not any(combo)
            assert bool(vanished) == (rank < k), (text, p)


# -- cuts decided by the rank of the partials ------------------------------------

RANK_BELOW = [  # partials that span r < n + 1 forms
    ("x0*x1", 3),
    ("x0*x1", 4),
    ("x0^2", 3),
    ("x0^2*x1", 4),
    ("x0*x1*x2", 4),
]


def test_cuts_at_or_above_the_rank_of_the_partials_count_zero():
    # For i >= r, i generic rows span all the partials, so the cut
    # contains the jacobian ideal, and its saturation by g, which lies in
    # it, is the unit ideal: g_i = 0.  A trial decides these cuts without
    # drawing them; here the elimination runs on seeded draws, with the
    # row-reduced forms and g and with the dense ones, and must count 0
    # at 32003.  At 11 and 13 degenerate rows are common: they may leave
    # a positive-dimensional residual, but never a positive count.
    from csmhyp.poly import _random_row
    from csmhyp.segre import _chart_degree, _combination, _reduced_cut

    seen = set()
    for text, nvars in RANK_BELOW:
        n = nvars - 1
        for p in (11, 13, 32003):
            scheme = jacobian_scheme(gfpoly(text, nvars, p))
            partials, r = scheme.partials, len(scheme.columns)
            assert r <= n
            xs = [variable(nvars, j, PrimeField(p)) for j in range(nvars)]
            rng = random.Random(f"{text}:{p}:rank")
            for i, _ in itertools.product(range(r, n + 1), range(5)):
                g_row = _random_row(scheme.columns, p, rng)
                rows = [_random_row(scheme.columns, p, rng) for _ in range(i)]
                planes = [random_linear_combination(xs, rng) for _ in range(n - i)]
                forms, rest = _reduced_cut(partials, rows, g_row, p)
                dense = [_combination(partials, row, p) for row in rows]
                g = _combination(partials, g_row, p)
                for kind, cut, locus in (("reduced", forms, rest), ("dense", dense, g)):
                    got = _chart_degree(cut + planes, locus, n)
                    where = (text, p, i, kind)
                    if p == 32003:
                        assert len(forms) == r and got == 0, where
                    else:
                        assert got in (0, None), where
                    seen.add((kind, len(forms) == r, got))
    assert {("reduced", True, 0), ("dense", True, 0)} <= seen
    assert ("reduced", False, None) in seen  # degenerate rows were drawn


def test_a_trial_makes_no_cut_at_or_above_the_rank(monkeypatch):
    # g_1 and the cuts i >= r are decided before any draw: a trial draws
    # the rows of g and of the cuts 2 <= i < r, and calls one cut kernel
    # for each of those, in order, and none for the rest.
    import csmhyp.segre as segre_mod

    calls = []
    for name in ("_plane_degree", "_chart_degree", "saturate", "_random_row"):

        def wrapped(*args, _name=name, _real=getattr(segre_mod, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(segre_mod, name, wrapped)

    inputs = RANK_BELOW + CONES + [("x0^2 + x1^2 + x2^2", 3), ("x0*x1*x2*x3", 4)]
    for text, nvars in inputs:
        n = nvars - 1
        for p in (32003, 65537):
            scheme = jacobian_scheme(gfpoly(text, nvars, p))
            r = len(scheme.columns)
            plane = 2 < n and (scheme.d - 1) ** 2 < p and scheme.codim != 1
            want = ["_random_row"]
            for i in range(2, r):
                want += ["_random_row"] * i
                if i == 2 and plane:
                    want.append("_plane_degree")
                else:
                    want += ["_chart_degree", "saturate"]
            calls.clear()
            rng = random.Random(f"csmhyp:{p}:101")
            g = segre_mod._degrees_one_trial(scheme, rng, segre_mod._settled(scheme))
            assert calls == want, (text, p)
            assert len(g) == nvars and g[r:] == (0,) * (nvars - r), (text, p)


def test_a_cone_at_tiny_primes_needs_no_draw_for_its_top_cuts():
    # Two planes in P^3 meet in a line: chi = 3 + 3 - 2 = 4.  At 11 these
    # seeds draw degenerate rows for g_2 four times, which used to end in
    # a RandomnessError; the partials have rank 2, so g_2 = g_3 = 0.
    from csmhyp.charclasses import build_report

    report = build_report("x0*x1", 4, TrialPolicy((11, 13), (481434895, 1399770677)))
    assert list(report.projective_degrees.g) == [1, 1, 0, 0]
    assert report.euler == 4


def test_four_planes_at_small_primes_take_the_settled_g1():
    # At 101, g_1 = 3 is settled before any draw, the first trial
    # certifies g_2 = 9 - 6, and the second agrees with it on g_3, below
    # 9 // 3, so 103 is not used.
    from csmhyp.charclasses import build_report

    policy = TrialPolicy((101, 103), (481434895, 1399770677))
    report = build_report("x0*x1*x2*x3", 4, policy)
    assert report.projective_degrees.g == (1, 3, 3, 1)
    assert (report.euler, report.milnor_total) == (4, 20)
    assert [(t.prime, t.g, t.accepted) for t in report.projective_degrees.trials] == [
        (101, (1, 3, 3, 1), True), (101, (1, 3, 3, 1), True)
    ]


# -- a singular scheme inside x_n = 0 -------------------------------------------


def test_y_at_infinity_reads_only_the_last_variable():
    # The cuspidal cubic's Y is the point (0:0:1): it lies in x0 = 0 and
    # x1 = 0 but not in x2 = 0, the hyperplane that the chart drops.
    flagged = [
        ("x0^2 + x1^2 + x2^2", 3),
        ("(x0^4+x1^4+x2^4+x3^4)^2 + x3^8", 4),
        ("(x0^2+x1^2+x2^2+x3^2+x4^2)^2 + x4^4", 5),
    ]
    unflagged = [NONISOLATED[0], NONISOLATED[-1], ("x1^2*x2 - x0^3", 3)]
    cases = [(c, True) for c in flagged] + [(c, False) for c in unflagged]
    for (text, nvars), want in cases:
        assert jacobian_scheme(gfpoly(text, nvars)).y_at_infinity is want, text


def test_y_at_infinity_iff_a_power_of_x_n_lies_in_j(bench_workloads):
    # Reference: J : x_n^infty is the unit ideal exactly when some x_n^k
    # lies in J, that is when Y lies in x_n = 0.
    from csmhyp.groebner import IdealBasis, saturate

    seen = set()
    for name in ("corpus", "nonisolated", "isolated"):
        for case in bench_workloads.WORKLOADS[name]():
            scheme = jacobian_scheme(gfpoly(case.poly, case.nvars))
            x_n = variable(case.nvars, case.nvars - 1, PrimeField(P))
            colon = saturate(IdealBasis(scheme.partials), IdealBasis((x_n,)))
            unit = colon.leading_terms == ((0,) * case.nvars,)
            assert scheme.y_at_infinity is unit, case.name
            if scheme.is_smooth:
                assert unit, case.name
            seen.add((scheme.is_smooth, unit))
    assert seen == {(True, True), (False, True), (False, False)}


def _one_trial(text, nvars, flag, certified=None, p=P, seed=101):
    """One trial of the default policy's draws at (p, seed), with the
    scheme's ``y_at_infinity`` set to ``flag``."""
    import dataclasses

    from csmhyp.segre import _degrees_one_trial, _settled

    scheme = jacobian_scheme(gfpoly(text, nvars, p))
    scheme = dataclasses.replace(scheme, y_at_infinity=flag)
    rng = random.Random(f"csmhyp:{p}:{seed}")
    return _degrees_one_trial(scheme, rng, certified or _settled(scheme))


def test_a_chart_cut_at_infinity_does_not_read_g(monkeypatch):
    # With g in the cut ideal, saturating by g leaves the unit ideal, so
    # the g reading is 0; with Y inside x_n = 0 the chart cut is
    # saturated by x_n instead and reads the octic's g_3 = 63.  Roman
    # Steiner's Y does not lie in x_3 = 0, so it keeps g and reads 0.
    import csmhyp.segre as segre_mod

    real = segre_mod._reduced_cut

    def g_in_the_cut(partials, rows, g_row, p):
        forms, _ = real(partials, rows, g_row, p)
        return forms, forms[0]

    monkeypatch.setattr(segre_mod, "_reduced_cut", g_in_the_cut)
    octic, roman = NONISOLATED[3], NONISOLATED[0]
    assert _one_trial(*octic, True) == (1, 7, 21, 63)
    assert _one_trial(*octic, False)[3] == 0
    assert jacobian_scheme(gfpoly(*roman)).y_at_infinity is False
    assert _one_trial(*roman, False)[3] == 0


def test_a_plane_cut_at_infinity_does_not_read_g(monkeypatch):
    # Every row the trial draws lies in the span of two fixed rows, so
    # the base form g lies in (f1, f2) and R1G shares every root of R12:
    # the g reading of g_2 is 0, and the x_n reading is the octic's 21.
    import csmhyp.segre as segre_mod

    real = segre_mod._random_row
    span = []

    def in_a_plane(columns, p, rng):
        if not span:
            span.extend(real(columns, p, rng) for _ in "uv")
        x, y = rng.randrange(p), rng.randrange(p)
        return [(x * u + y * v) % p for u, v in zip(*span)]

    monkeypatch.setattr(segre_mod, "_random_row", in_a_plane)
    only_g2 = {1: 7, 3: 63}
    octic, roman = NONISOLATED[3], NONISOLATED[0]
    assert _one_trial(*octic, True, only_g2) == (1, 7, 21, 63)
    span.clear()
    assert _one_trial(*octic, False, only_g2)[2] == 0
    span.clear()
    assert _one_trial(*roman, False, {1: 3, 3: 0})[2] == 0


def test_cuts_at_infinity_read_as_the_g_cuts(bench_workloads):
    # Reference: the g path, on the same seeded draws.  Over the four
    # nonisolated inputs whose Y lies in x_n = 0 and the smooth corpus
    # inputs, both cut kinds read what the g cuts read, which on these
    # draws is the expected vector, e^i for a smooth input.
    cases = list(bench_workloads.nonisolated_cases())
    cases += [c for c in bench_workloads.corpus_cases() if c.name.startswith("smooth")]
    kinds = set()
    for case in cases:
        scheme = jacobian_scheme(gfpoly(case.poly, case.nvars))
        if not scheme.y_at_infinity:
            assert not scheme.is_smooth, case.name
            continue
        e = scheme.d - 1
        expected = case.expected.get(
            "projective_degrees", [e**i for i in range(scheme.n + 1)]
        )
        kinds.update(_eliminated_cuts(scheme, P))
        if 2 < scheme.n:
            kinds.add("plane")
        for seed in range(6):
            want = _one_trial(case.poly, case.nvars, False, seed=seed)
            assert _one_trial(case.poly, case.nvars, True, seed=seed) == want, case.name
            assert list(want) == expected, case.name
    assert {2, 3, 4, "plane"} <= kinds


def test_plane_cuts_at_infinity_match_the_elimination():
    # Reference: dim_degree(saturate(f1, f2 + hyperplanes through a', b,
    # c'; x_n)), for inputs whose Y lies in x_n = 0, where a' and c' are a
    # and c moved onto x_n = 0.  Besides plain draws, b on x_n = 0 is
    # redrawn (the plane would lie in x_n = 0); f1 and f2 through b put a
    # residual point on the line through b and c, counted at s = infinity;
    # and f1 and f2 through a point q of the line s = 0 that is not on Y
    # put one on x_n = 0, which the reading loses as the elimination does.
    from csmhyp.groebner import IdealBasis, dim_degree, saturate
    from csmhyp.segre import _plane_degree

    inputs = [
        (c.poly, c.n + 1) for c in default_fixtures()
        if c.n >= 3 and c.name.startswith("smooth")
    ]
    inputs += NONISOLATED[1:5] + ISOLATED[1:]
    kinds = ("plain", "b_at_infinity", "b_on_cut", "q_on_cut")
    seen = set()
    for text, nvars in inputs:
        F = parse_poly(text, nvars)
        e = F.degree - 1
        for p in (101, 32003):
            if p <= 2 * F.degree or e * e >= p:
                continue
            scheme = jacobian_scheme(reduce_mod_p(F, p))
            assert scheme.y_at_infinity, text
            xs = [variable(nvars, k, PrimeField(p)) for k in range(nvars)]
            rng = random.Random(f"{text}:{p}:x_n")
            for kind in kinds:
                f1, f2 = (random_linear_combination(scheme.partials, rng) for _ in "ff")
                a, b, c = ([rng.randrange(p) for _ in xs] for _ in "abc")
                moved_a, moved_c = [*a[:-1], 0], [*c[:-1], 0]
                if kind == "b_at_infinity":
                    b[-1] = 0
                if kind == "b_on_cut":
                    f1, f2 = _through(f1, b, p), _through(f2, b, p)
                if kind == "q_on_cut":
                    u = rng.randrange(1, p)
                    q = [(x + u * z) % p for x, z in zip(moved_a, moved_c)]
                    f1, f2 = _through(f1, q, p), _through(f2, q, p)
                got = _plane_degree(f1, f2, None, a, b, c, p)
                where = (text, p, kind)
                planes = _hyperplanes((moved_a, b, moved_c), xs, p)
                if len(planes) > nvars - 3 or not b[-1] or not all(
                    _value(h, moved_c, p) for h in (f1, f2)
                ):
                    assert got is None, where
                    seen.add((kind, "redraw"))
                    continue
                residual = saturate(IdealBasis((f1, f2, *planes)), IdealBasis((xs[-1],)))
                dim, deg = dim_degree(residual)
                assert not dim and got == deg, where
                seen.add((kind, deg == e * e))
    assert ("plain", True) in seen and ("b_at_infinity", "redraw") in seen
    # on the smooth inputs b is a residual point, counted at s = infinity
    assert ("b_on_cut", True) in seen
    # q is not on Y but on x_n = 0, so the reading and the elimination lose it
    assert ("q_on_cut", False) in seen and ("q_on_cut", True) not in seen


def test_plane_cuts_at_infinity_never_read_above_the_elimination(
    bench_workloads, monkeypatch
):
    # Reference: the same elimination as above, on the planes that seeded
    # trials at p = 101 draw, for the flagged nonisolated inputs and the
    # smooth corpus inputs with n >= 3; and the expected g_2 above it.
    import csmhyp.segre as segre_mod
    from csmhyp.groebner import IdealBasis, dim_degree, saturate

    p = 101
    real = segre_mod._plane_degree
    calls = []

    def recorded(f1, f2, g, a, b, c, p, bound):
        got = real(f1, f2, g, a, b, c, p, bound)
        calls.append((f1, f2, a, b, c, got))
        return got

    monkeypatch.setattr(segre_mod, "_plane_degree", recorded)
    cases = list(bench_workloads.nonisolated_cases())
    cases += [c for c in bench_workloads.corpus_cases() if c.name.startswith("smooth")]
    checked = []
    for case in cases:
        scheme = jacobian_scheme(gfpoly(case.poly, case.nvars, p))
        if not scheme.y_at_infinity or scheme.n < 3:
            continue
        e = scheme.d - 1
        expected = case.expected.get("projective_degrees", [e**i for i in range(4)])[2]
        xs = [variable(case.nvars, k, PrimeField(p)) for k in range(case.nvars)]
        only_g2 = {i: 0 for i in range(scheme.n + 1) if i != 2}
        for seed in range(30):
            calls.clear()
            _one_trial(case.poly, case.nvars, True, only_g2, p=p, seed=seed)
            for f1, f2, a, b, c, got in calls:
                if got is None:
                    continue
                planes = _hyperplanes(([*a[:-1], 0], b, [*c[:-1], 0]), xs, p)
                residual = saturate(IdealBasis((f1, f2, *planes)), IdealBasis((xs[-1],)))
                dim, deg = dim_degree(residual)
                assert not dim and got <= deg <= expected, (case.name, seed)
                checked.append(case.name)
    assert len(set(checked)) == 6 and len(checked) >= 6 * 30


def test_the_reversed_plane_reads_the_coefficient_reversal_of_r12():
    # The plane cut at infinity restricts the forms to b + s*a + u*c, so
    # its resultant is s^(e^2) R12(1/s) for the R12 of a + s*b + u*c.
    # Half the draws put both forms through a, so that R12 vanishes at
    # s = 0 and the reversed resultant drops in degree.
    from csmhyp.segre import _interpolate, _on_plane, _resultants, _trim

    rng = random.Random(41)
    seen = set()
    draws = itertools.product((101, 32003), range(1, 7), (False, True), range(3))
    for p, e, through_a, _ in draws:
        if e * e >= p:
            continue
        forms = [_random_form(e, 4, p, rng, terms) for terms in (3, 40)]
        a, b, c = ([rng.randrange(p) for _ in range(4)] for _ in "abc")
        if through_a:
            forms = [_through(f, a, p) for f in forms]
        if not all(_value(f, c, p) for f in forms):
            continue
        nodes = e * e + 1
        r12 = _interpolate(_resultants(*_on_plane(forms, a, b, c, p, nodes), p), p)
        r = _interpolate(_resultants(*_on_plane(forms, b, a, c, p, nodes), p), p)
        assert r == _trim((r12 + [0] * (nodes - len(r12)))[::-1]), (p, e)
        seen.add((through_a, len(r) < nodes))
    assert (True, True) in seen and (False, False) in seen


def test_plane_cuts_at_infinity_read_alike_on_the_bound_nodes():
    # The plane cut at infinity interpolates at min(B + 2, e^2 + 1) nodes,
    # for the proven bound B on g_2; a full-node reading (bound None) is
    # the reference.  Seeded draws on every input with n >= 3 whose Y lies
    # in x_n = 0, at three primes: plain draws, of which a few give None
    # at random, and b on x_n = 0, dependent points and c on a curve,
    # which always do.  No full-node reading may exceed B.
    from csmhyp.segre import _bound, _plane_degree

    inputs = [
        (c.poly, c.n + 1) for c in default_fixtures()
        if c.n >= 3 and c.name.startswith("smooth")
    ]
    inputs += NONISOLATED[1:5] + ISOLATED[1:]
    kinds = ("plain", "plain", "plain", "b_at_infinity", "dependent", "c_on_f1")
    seen = set()
    fewer = 0
    for text, nvars in inputs:
        F = parse_poly(text, nvars)
        e = F.degree - 1
        for p in (101, 1009, 32003):
            if p <= 2 * F.degree or e * e >= p:
                continue
            scheme = jacobian_scheme(reduce_mod_p(F, p))
            assert scheme.y_at_infinity, text
            bound = _bound(scheme, 2, {})
            fewer += bound + 2 < e * e + 1
            rng = random.Random(f"{text}:{p}:nodes")
            for kind in kinds * 5:
                f1, f2 = (random_linear_combination(scheme.partials, rng) for _ in "ff")
                a, b, c = ([rng.randrange(p) for _ in range(nvars)] for _ in "abc")
                if kind == "b_at_infinity":
                    b[-1] = 0
                elif kind == "dependent":
                    k = rng.randrange(1, p)
                    c = [k * x % p for x in a]
                elif kind == "c_on_f1":
                    f1 = _through(f1, [*c[:-1], 0], p)
                full = _plane_degree(f1, f2, None, a, b, c, p)
                got = _plane_degree(f1, f2, None, a, b, c, p, bound)
                assert got == full, (text, p, kind)
                assert full is None or full <= bound, (text, p, kind)
                seen.add((kind, full is None))
    assert fewer >= 8
    assert ("plain", False) in seen
    for kind in ("b_at_infinity", "dependent", "c_on_f1"):
        assert (kind, True) in seen and (kind, False) not in seen, kind


def test_the_expected_g_is_supported_below_the_hessian_rank(bench_workloads):
    # Fact 1 of the Hessian rule: for deg F >= 2, g_i > 0 exactly for
    # i < h, the generic rank of F's Hessian, and the rank at any one
    # integer point, over Q or mod a prime, is at most that.  Reference:
    # the rank mod 2^61 - 1 at one seeded point in [-50, 50], against the
    # expected g of every corpus and nonisolated input (e^i when the
    # input is smooth and has none).
    q = (1 << 61) - 1
    rng = random.Random("hessian")
    for case in [*bench_workloads.corpus_cases(), *bench_workloads.nonisolated_cases()]:
        F = parse_poly(case.poly, case.nvars)
        e = F.degree - 1
        point = [rng.randint(-50, 50) for _ in range(case.nvars)]
        rows = [
            [_value(F.partial(i).partial(j), point, q) for j in range(case.nvars)]
            for i in range(case.nvars)
        ]
        rank = 0
        for j in range(case.nvars):
            pivot = next((r for r in range(rank, len(rows)) if rows[r][j]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = pow(rows[rank][j], -1, q)
            for r in range(rank + 1, len(rows)):
                k = rows[r][j] * inv % q
                rows[r] = [(x - k * y) % q for x, y in zip(rows[r], rows[rank])]
            rank += 1
        g = case.expected.get("projective_degrees", [e**i for i in range(case.nvars)])
        assert [i for i, gi in enumerate(g) if gi] == list(range(rank)), case.name
