"""Closed-form baselines and the affine Milnor oracle."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from csmhyp.charclasses import (
    REPORT_KEYS,
    Verification,
    build_report,
    report_shape_error,
)
from csmhyp import oracles
from csmhyp.oracles import (
    FixtureCase,
    affine_milnor_total,
    check_fixture,
    default_fixtures,
    load_fixtures,
    segre_linear_subspace,
    smooth_chern_class,
)
from csmhyp.poly import parse_poly, to_string
from csmhyp.segre import TrialPolicy

LIGHT = TrialPolicy(primes=(32003,), seeds=(101,))


def test_smooth_chern_class_examples():
    assert smooth_chern_class(2, 2).coeffs == (0, 2, 2)
    assert smooth_chern_class(2, 3).coeffs == (0, 3, 0)
    assert smooth_chern_class(3, 2).coeffs == (0, 2, 4, 4)


def test_smooth_chern_class_rejects_degree_below_1_and_n_below_1():
    for n, d in [(2, 0), (2, -2), (0, 2), (-1, 3)]:
        with pytest.raises(ValueError):
            smooth_chern_class(n, d)


def test_segre_linear_subspace_examples():
    assert segre_linear_subspace(2, 0).coeffs == (0, 0, 1)
    assert segre_linear_subspace(3, 1).coeffs == (0, 0, 1, -2)
    assert segre_linear_subspace(3, 2).coeffs == (0, 1, -1, 1)
    with pytest.raises(ValueError):
        segre_linear_subspace(3, 3)


def test_affine_milnor_node_and_cusp():
    nodal = parse_poly("x1^2*x2 - x0^3 - x0^2*x2", 3)
    assert affine_milnor_total(nodal) == 1
    cusp = parse_poly("x1^2*x2 - x0^3", 3)
    assert affine_milnor_total(cusp) == 2


def test_the_generic_chart_of_the_cusp_is_pinned():
    # The chart of the cusp at 32003: the rng's draws and the substituted
    # polynomial, expanded and dehomogenized, as first computed.
    chart = oracles._generic_chart(parse_poly("x1^2*x2 - x0^3", 3), 32003)
    assert to_string(chart) == "32002*x0^3 + 16507*x0*x1^2 + 16945*x1^3 + x1^2"


def test_affine_milnor_smooth_and_cone():
    conic = parse_poly("x0^2 + x1^2 + x2^2", 3)
    assert affine_milnor_total(conic) == 0
    cone = parse_poly("x0^2 + x1^2 + x2^2", 4)
    assert affine_milnor_total(cone) == 1


def test_affine_milnor_non_isolated():
    double_line = parse_poly("x0^2*x1", 3)
    assert affine_milnor_total(double_line) is None


def test_affine_milnor_two_lines():
    assert affine_milnor_total(parse_poly("x0*x1", 3)) == 1


@pytest.mark.parametrize(
    "text, nvars, milnor",
    [
        # x^4 + y^5 + x^2 y^2 at (0:0:1) is not quasi-homogeneous: its
        # Tjurina number is 9, its Milnor number 2*9 - 4 - 5 + 1 = 10
        # (Kouchnirenko, Newton non-degenerate)
        ("x0^4*x2 + x1^5 + x0^2*x1^2*x2", 3, 10),
        # singular points on every coordinate hyperplane
        ("x0*x1*x2", 3, 3),
        ("(x0^2+x1^2+x2^2+x3^2)^2 - 4*x0*x1*x2*x3", 4, 12),
        # smooth conics of bad reduction at 32003, nodal mod 32003
        ("x0^2 + x1^2 + 32003*x2^2", 3, 0),
        ("x0^2 + 2*x0*x1 + 32004*x1^2 + x2^2", 3, 0),
    ],
)
def test_affine_milnor_counts_every_singular_point(text, nvars, milnor):
    assert affine_milnor_total(parse_poly(text, nvars)) == milnor


def test_affine_milnor_reads_only_at_usable_primes(monkeypatch):
    # 3 <= 2 deg F and 7 divides a coefficient, so neither is read; the
    # first two usable primes agree, so the third is not read either.
    from csmhyp import oracles
    from csmhyp.segre import usable_primes

    read = []

    def chart(F, p, _real=oracles._generic_chart):
        read.append(p)
        return _real(F, p)

    monkeypatch.setattr(oracles, "_generic_chart", chart)
    conic = parse_poly("x0^2 + x1^2 + 7*x2^2", 3)
    primes = (3, 7, 32003, 65537, 2147483647)
    assert usable_primes(conic, primes) == [32003, 65537, 2147483647]
    assert affine_milnor_total(conic, primes) == 0
    assert read == [32003, 65537]
    # 65537 * 2147483647: only 32003 of the default primes is usable.
    read.clear()
    assert affine_milnor_total(parse_poly("x0^2 + x1^2 + 140739635773439*x2^2", 3)) == 0
    assert read == [32003]
    # A repeated prime is one prime: its second reading would repeat the
    # first, and must not count as a reading at a second prime.
    read.clear()
    assert usable_primes(conic, (32003, 32003)) == [32003]
    assert affine_milnor_total(conic, (32003, 32003)) == 0
    assert read == [32003]


def test_affine_milnor_rejects_a_point_or_a_constant():
    for text, nvars in (("x0^2", 1), ("1", 3)):
        with pytest.raises(ValueError, match="hypersurface"):
            affine_milnor_total(parse_poly(text, nvars))


def test_default_fixtures_well_formed():
    fixtures = default_fixtures()
    assert len(fixtures) >= 12
    names = [f.name for f in fixtures]
    assert len(names) == len(set(names))
    for fix in fixtures:
        poly = fix.parse()
        assert poly.nvars == fix.n + 1
        assert fix.provenance
        assert fix.expected


def test_fixture_corpus_matches_pipeline():
    for fix in default_fixtures():
        report = build_report(fix.parse(), policy=LIGHT)
        # load_fixtures takes an expected key when it is one of these
        assert set(report.to_json_dict()) == REPORT_KEYS, fix.name
        verdicts = check_fixture(fix, report.to_json_dict())
        bad = [v.name for v in verdicts if not v.ok]
        assert not bad, f"{fix.name}: {bad}"
        assert report.all_passed, fix.name


def test_every_report_value_has_the_shape_load_fixtures_checks(report_cache):
    for fix in default_fixtures():
        report = report_cache(fix.poly, fix.n + 1).to_json_dict()
        for key, value in report.items():
            assert report_shape_error(key, value) is None, (fix.name, key)


def test_fixture_classes_have_int_coefficients(report_cache):
    # Every class of the pipeline lies in Z[h]/(h^(n+1)) and every inverse
    # it takes has constant term 1, so no Fraction may appear.
    for fix in default_fixtures():
        report = report_cache(fix.poly, fix.n + 1)
        for name in ("segre_singular", "csm", "fulton", "mu"):
            coeffs = getattr(report, name).coeffs
            assert all(type(c) is int for c in coeffs), (fix.name, name, coeffs)


def test_fixture_milnor_oracle_agreement():
    for fix in default_fixtures():
        if fix.milnor_oracle is None:
            continue
        got = affine_milnor_total(fix.parse(), LIGHT.primes)
        assert got == fix.milnor_oracle, fix.name


def test_fixture_json_round_trip(tmp_path):
    fixtures = default_fixtures()
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([dataclasses.asdict(f) for f in fixtures]), encoding="utf-8")
    loaded = load_fixtures(path)
    assert loaded == fixtures


def test_load_fixtures_names_the_row_and_key(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{"name": "a", "n": 2}]), encoding="utf-8")
    with pytest.raises(ValueError, match="row 0 lacks the required key 'poly'"):
        load_fixtures(path)


def test_the_built_in_corpus_is_package_data_beside_the_module():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    assert "fixtures.json" in package_data["csmhyp"]
    path = Path(oracles.FIXTURES)
    assert path.is_file()
    assert path.parent == Path(oracles.__file__).resolve().parent


def test_the_built_in_corpus_passes_the_checks_of_any_corpus(tmp_path):
    rows = json.loads(Path(oracles.FIXTURES).read_text(encoding="utf-8"))
    rows.append({**rows[0], "name": "misspelt", "expected": {"eular": 2}})
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    with pytest.raises(ValueError, match=f"row {len(rows) - 1} .*'eular'"):
        load_fixtures(path)


def test_default_fixtures_returns_fresh_expected_dicts():
    first = default_fixtures()
    first[0].expected["euler"] = 99
    assert default_fixtures()[0].expected["euler"] != 99


def test_check_fixture_flags_corruption():
    fix = default_fixtures()[0]
    report = build_report(fix.parse(), policy=LIGHT)
    corrupted = FixtureCase(
        name=fix.name,
        poly=fix.poly,
        n=fix.n,
        expected={**fix.expected, "euler": 99},
        provenance=fix.provenance,
    )
    verdicts = check_fixture(corrupted, report.to_json_dict())
    assert Verification("euler", False) in verdicts
    assert all(v.ok for v in verdicts if v.name != "euler")
