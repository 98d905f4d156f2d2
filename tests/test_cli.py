"""CLI surface: subcommands, exit codes, output formats, determinism."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from csmhyp.chow import ChowClass
from csmhyp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_compute_two_lines_json(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "x0*x1", "--nvars", "3", "--json", "--seed", "101"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["csm"] == ["0", "2", "3"]
    assert payload["euler"] == 3
    assert payload["projective_degrees"] == [1, 1, 0]
    assert all(v["pass"] for v in payload["verification"])


def test_compute_quadric_cone(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "x0^2+x1^2+x2^2", "--nvars", "4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["euler"] == 3
    assert payload["milnor_total"] == 1


def test_compute_smooth_conic_text(capsys):
    code, out, _ = run_cli(capsys, "compute", "x0^2+x1^2+x2^2", "--nvars", "3")
    assert code == 0
    assert "euler characteristic: 2" in out
    assert "s(Y)       = 0" in out
    assert "legend:" in out


def test_compute_with_milnor_oracle_verify(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "x1^2*x2 - x0^3", "--nvars", "3", "--verify", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert {"name": "milnor_affine_oracle", "pass": True} in payload["verification"]


def test_compute_json_says_on_stderr_that_the_oracle_was_skipped(capsys):
    # Two planes in P^3 meet along a line: the affine Milnor oracle has no
    # finite count to compare, so --verify adds no verdict.  The note goes
    # to stderr and leaves the JSON on stdout as it is without --verify.
    argv = ("compute", "x0*x1", "--nvars", "4", "--json", "--seed", "101")
    code, out, err = run_cli(capsys, *argv, "--verify")
    assert code == 0 and json.loads(out)["verification"] == []
    assert err == "affine Milnor oracle: non-isolated singular locus, skipped\n"
    assert run_cli(capsys, *argv) == (0, out, "")


def test_compute_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "compute", "x0 +", "--nvars", "3")
    assert code == 2
    assert "error" in err


def test_compute_inhomogeneous_exit_2(capsys):
    code, _, _ = run_cli(capsys, "compute", "x0^2 + x1", "--nvars", "3")
    assert code == 2


def test_compute_without_a_projective_line_exit_2(capsys):
    code, _, err = run_cli(capsys, "compute", "x0", "--nvars", "1")
    assert code == 2
    assert "n >= 1" in err


def test_compute_constant_exit_2(capsys):
    code, _, err = run_cli(capsys, "compute", "7", "--nvars", "3")
    assert code == 2
    assert "degree >= 1" in err


def test_compute_with_a_large_prime(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "x0^2+x1^2+x2^2", "--nvars", "3", "--json",
        "--prime", "1000000000000000003",
    )
    assert code == 0
    assert json.loads(out)["euler"] == 2


def test_compute_rejects_a_prime_past_the_exact_primality_range(capsys):
    code, _, err = run_cli(
        capsys, "compute", "x0^2+x1^2+x2^2", "--nvars", "3", "--prime", str(10**25)
    )
    assert code == 2
    assert "too large" in err


def test_compute_rejects_a_prime_below_2_exit_2(capsys):
    for prime in ("0", "1", "-7"):
        result = run_cli(
            capsys, "compute", "x0*x1", "--nvars", "3", "--prime", prime
        )
        assert_one_error_line(*result)
        assert "integer >= 2" in result[2]


def test_compute_skips_a_prime_that_divides_a_coefficient(capsys):
    # mod 32003 the smooth conic loses its x2^2 term and becomes two lines
    code, out, _ = run_cli(
        capsys, "compute", "x0^2 + x1^2 + 32003*x2^2", "--nvars", "3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["euler"], payload["milnor_total"]) == (2, 0)
    assert {t["prime"] for t in payload["trials"]} == {65537}


def test_compute_checks_every_policy_prime_up_front(capsys):
    result = run_cli(
        capsys, "compute", "x0*x1", "--nvars", "3",
        "--prime", "32003", "--prime", "32004",
    )
    assert_one_error_line(*result)
    assert "32004 is not prime" in result[2]


def test_compute_skips_a_prime_at_most_twice_the_degree(capsys):
    quartic = ("compute", "x0^4 + x1^4 + x2^4", "--nvars", "3", "--json")
    code, out, _ = run_cli(capsys, *quartic, "--prime", "7", "--prime", "32003")
    assert code == 0
    assert {t["prime"] for t in json.loads(out)["trials"]} == {32003}
    result = run_cli(capsys, *quartic, "--prime", "7")
    assert_one_error_line(*result)
    assert "no usable prime" in result[2]


def test_compute_exponent_past_the_kernel_fields_exit_2(capsys):
    # The partials have degree 39999, past the 2^15 - 1 that a packed
    # monomial field holds; the large prime passes the p > 2d check.
    result = run_cli(
        capsys, "compute", "x0^40000 + x1^40000", "--nvars", "2",
        "--prime", "2147483647",
    )
    assert_one_error_line(*result)


@pytest.mark.parametrize("poly", ["x0^99999999", "2^99999999*x0 + x1"])
def test_compute_refuses_a_huge_power_before_expanding_it(poly):
    # The parser expands a power one product per unit of its exponent, so
    # it refuses an exponent or a degree above 32767 first; in its own
    # process, so that a hang ends at the timeout.
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "csmhyp.cli", "compute", poly, "--nvars", "2"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    assert_one_error_line(done.returncode, done.stdout, done.stderr)
    assert "above 32767" in done.stderr


@pytest.mark.parametrize(
    "poly", ["2^32767*x0 + x1", "1" * 5000 + "*x0 + x1"], ids=["power", "literal"]
)
def test_compute_refuses_a_coefficient_past_the_integer_text_limit(
    capsys, int_text_limit, poly
):
    # Such a coefficient could not be printed in the report, nor a literal
    # read, so the parser refuses it, naming the bound.
    result = run_cli(capsys, "compute", poly, "--nvars", "2")
    assert_one_error_line(*result)
    assert "more than 4300 digits" in result[2]
    assert "sys.get_int_max_str_digits()" in result[2]


def test_compute_refuses_a_power_of_a_sum_past_the_parser_work_bound(capsys):
    # (x0+x1)^30000 would expand one product per unit of its exponent;
    # the parser stops it near k = 1000, where a step passes EXPANSION.
    result = run_cli(capsys, "compute", "(x0+x1)^30000", "--nvars", "2")
    assert_one_error_line(*result)
    assert "term-bit products per step, the most the parser expands" in result[2]


def test_compute_refuses_a_product_past_the_parser_work_bound(capsys):
    # Each (x0+x1)^1000 passes the per-step bound, but their product would
    # take 1001 * 1001 products of ~1000-bit coefficients; the second power
    # is refused after its first steps, where the product passes EXPANSION.
    poly = "(x0+x1)^1000*(x0+x1)^1000"
    result = run_cli(capsys, "compute", poly, "--nvars", "2")
    assert_one_error_line(*result)
    assert "a product of 1001 terms by" in result[2]
    assert "term-bit products, the most the parser expands" in result[2]


def test_compute_refuses_deeply_nested_parentheses(capsys, tmp_path):
    # 300 levels would reach Python's recursion limit in the parser.
    poly = "(" * 300 + "x0" + ")" * 300
    result = run_cli(capsys, "compute", poly, "--nvars", "2")
    assert_one_error_line(*result)
    assert "nested more than 100 deep" in result[2]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps([{"name": "deep", "poly": poly, "n": 1}]), encoding="utf-8")
    result = run_cli(capsys, "verify", str(path))
    assert_one_error_line(*result)
    assert "row 0" in result[2] and "nested" in result[2]


def test_closed_forms_reject_degree_below_1_and_n_below_1(capsys):
    for argv in (
        ["oracle", "smooth", "--n", "2", "--d", "-2"],
        ["oracle", "smooth", "--n", "2", "--d", "0"],
        ["oracle", "smooth", "--n", "0", "--d", "2"],
        ["nc", "--n", "2", "0", "1"],
        ["nc", "--n", "2", "-1"],
        ["nc", "--n", "0", "1", "1"],
    ):
        assert_one_error_line(*run_cli(capsys, *argv))


def test_json_output_round_trips(capsys):
    code, out, _ = run_cli(capsys, "compute", "x0*x1*x2", "--nvars", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    c = ChowClass.from_strings(payload["n"], payload["csm"])
    assert c.integral() == payload["euler"]


def test_pinned_randomness_is_byte_identical(capsys):
    args = (
        "compute", "x1^2*x2 - x0^3 - x0^2*x2", "--nvars", "3", "--json",
        "--prime", "32003", "--seed", "7",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_nc_command(capsys):
    code, out, _ = run_cli(capsys, "nc", "--n", "2", "1", "1", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["csm"] == ["0", "3", "3"]
    assert payload["euler"] == 3

    code, out, _ = run_cli(capsys, "nc", "--n", "2", "1", "1")
    assert code == 0
    assert "2h + 3h^2" in out

    code, out, _ = run_cli(capsys, "nc", "--n", "3", "1")
    assert code == 0
    assert "euler characteristic: 3" in out


def test_verify_default_corpus(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "101")
    assert code == 0
    assert "FAIL" not in out
    assert "smooth_conic" in out and "quadric_cone" in out


def test_verify_corrupted_corpus_exits_3(capsys, tmp_path):
    corpus = [
        {
            "name": "two_lines_bad",
            "poly": "x0*x1",
            "n": 2,
            "expected": {"euler": 99},
            "provenance": "deliberately corrupted",
        }
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(corpus), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path), "--seed", "101")
    assert code == 3
    assert "FAIL  failing: euler" in out


def test_verify_empty_corpus_warns_exit_0(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "warning" in out
    # --json keeps stdout to the (empty) JSON list and the warning on stderr
    code, out, err = run_cli(capsys, "verify", str(path), "--json")
    assert code == 0
    assert json.loads(out) == [] and "warning" in err


def test_verify_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err


def test_verify_malformed_fixture_rows_exit_2(capsys, tmp_path):
    good = {"name": "two_lines", "poly": "x0*x1", "n": 2}
    bad_rows = [
        ({"poly": "x0*x1", "n": 2}, "'name'"),
        ({"name": "no_poly", "n": 2}, "'poly'"),
        ({**good, "milnor_orcale": 5}, "'milnor_orcale'"),
        ({**good, "chart": 2}, "'chart'"),
        ({**good, "name": 5}, "'name'"),
        ({**good, "provenance": ["a"]}, "'provenance'"),
        ({**good, "expected": {"bogus": 1}}, "'bogus'"),
        ({**good, "poly": "x0^2 + x1"}, "'poly'"),
        (
            {**good, "poly": "x0*x5"},
            "'poly' 'x0*x5', which does not parse in 3 variables: unknown variable x5",
        ),
        ({**good, "n": 0}, "'n'"),
        ({**good, "n": -1}, "'n'"),
        (good, "'two_lines'"),
        # An expected value of the wrong JSON type would read as a wrong
        # answer, not as a malformed row.
        ({**good, "expected": {"euler": "3"}}, "'euler' '3', not an integer"),
        ({**good, "expected": {"csm": [0, 3, 3]}}, "'csm' [0, 3, 3], not a list of strings"),
        ({**good, "expected": {"d": True}}, "'d'"),
        ({**good, "expected": {"milnor_total": 1.0}}, "'milnor_total'"),
        ({**good, "expected": {"poly": 5}}, "'poly'"),
        ({**good, "expected": {"mu": "0"}}, "'mu'"),
        ({**good, "expected": {"projective_degrees": ["1", "2"]}}, "'projective_degrees'"),
        ({**good, "expected": {"trials": {}}}, "'trials'"),
    ]
    for row, key in bad_rows:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([good, row]), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert_one_error_line(code, out, err)
        assert "row 1" in err and key in err
    # JSON nested past the reader's recursion limit, as the whole corpus or
    # as one expected value, is refused with the file named.
    deep = "[" * 100000 + "]" * 100000
    for body in (deep, f'[{json.dumps(good)[:-1]}, "expected": {{"csm": {deep}}}}}]'):
        path = tmp_path / "deep.json"
        path.write_text(body, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert_one_error_line(code, out, err)
        assert str(path) in err and "too deeply" in err


def test_verify_corpus_that_is_not_a_list_exits_2(capsys, tmp_path):
    # An object or a string would be iterated over its keys or characters,
    # and a number or null would not be iterable at all.
    for body in ("5", "null", '{"a": 1}', '"abc"'):
        path = tmp_path / "bad.json"
        path.write_text(body, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert_one_error_line(code, out, err)
        assert "not a JSON list" in err, body


def test_verify_mistyped_fixture_values_exit_2(capsys, tmp_path):
    good = {"name": "two_lines", "poly": "x0*x1", "n": 2}
    bad_rows = [
        ({**good, "n": "2"}, "'n'"),
        ({**good, "poly": 7}, "'poly'"),
        ({**good, "n": True}, "'n'"),
        ({**good, "milnor_oracle": "1"}, "'milnor_oracle'"),
        ({**good, "expected": [1]}, "'expected'"),
    ]
    for row, key in bad_rows:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([good, row]), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert_one_error_line(code, out, err)
        assert "row 1" in err and key in err


def test_oracle_commands(capsys):
    code, out, _ = run_cli(capsys, "oracle", "smooth", "--n", "2", "--d", "3")
    assert code == 0
    assert "euler characteristic: 0" in out

    code, out, _ = run_cli(capsys, "oracle", "linear", "--n", "3", "--m", "1")
    assert code == 0
    assert "h^2 - 2h^3" in out

    code, out, _ = run_cli(
        capsys, "oracle", "milnor", "x1^2*x2 - x0^3", "--nvars", "3"
    )
    assert code == 0
    assert out.strip() == "2"

    code, out, _ = run_cli(
        capsys, "oracle", "milnor", "x0^2*x1", "--nvars", "3"
    )
    assert code == 0
    assert out.strip() == "non-isolated"


@pytest.mark.parametrize(
    "poly, nvars",
    [
        # the three coordinate lines meet on every coordinate hyperplane
        ("x0*x1*x2", "3"),
        # 12 nodes where two coordinates vanish, some of them with x3 = 0
        ("(x0^2+x1^2+x2^2+x3^2)^2 - 4*x0*x1*x2*x3", "4"),
        # x^4 + y^5 + x^2 y^2 at (0:0:1): Tjurina number 9, Milnor number 10
        ("x0^4*x2 + x1^5 + x0^2*x1^2*x2", "3"),
        # smooth; 65537 * 2147483647 divides a coefficient, so the
        # pipeline and the oracle both read at 32003 alone
        ("x0^2 + x1^2 + 140739635773439*x2^2", "3"),
    ],
    ids=["three-lines", "quartic-12-nodes", "x4+y5+x2y2", "conic-two-bad-primes"],
)
def test_compute_verify_passes_the_oracle_off_the_coordinate_charts(
    capsys, poly, nvars
):
    code, out, _ = run_cli(capsys, "compute", poly, "--nvars", nvars, "--verify")
    assert code == 0
    assert "  [pass] milnor_affine_oracle" in out.splitlines()
    assert "skipped" not in out


def test_compute_verify_checks_a_conic_of_bad_reduction(capsys):
    # smooth over Q, two lines mod 32003: the oracle reads 1 there and 0
    # at 65537 and 2147483647, so it counts 0 Milnor points, whatever the
    # pipeline reports
    conic = ("compute", "x0^2 + 2*x0*x1 + 32004*x1^2 + x2^2", "--nvars", "3", "--verify")
    code, out, _ = run_cli(capsys, *conic, "--json")
    payload = json.loads(out)
    oracle = {"name": "milnor_affine_oracle", "pass": payload["milnor_total"] == 0}
    assert oracle in payload["verification"]
    assert code == (0 if all(v["pass"] for v in payload["verification"]) else 3)
    # At 32003 and 65537 alone the two counts differ, and no third prime
    # outside the policy breaks the tie.
    code, _, err = run_cli(capsys, *conic, "--prime", "32003", "--prime", "65537")
    assert code == 4
    assert "affine Milnor dimensions disagree across primes [32003, 65537]: [1, 0]" in err


def test_compute_verify_reads_the_oracle_at_the_usable_policy_primes(capsys):
    # 7 divides a coefficient: neither the trials nor the oracle read there
    code, out, _ = run_cli(
        capsys, "compute", "x0^2 + x1^2 + 7*x2^2", "--nvars", "3", "--verify",
        "--prime", "7", "--prime", "32003", "--prime", "65537",
        "--prime", "2147483647",
    )
    assert code == 0
    assert "  [pass] milnor_affine_oracle" in out.splitlines()


def test_four_planes_at_small_primes_accept_the_componentwise_max(capsys):
    # The first trial at 103 reads g_3 = 0, as the first at 101 did, but
    # the second at 101 read g_3 = 1: the max, which the second trial at
    # 103 repeats.
    code, out, _ = run_cli(
        capsys, "compute", "x0*x1*x2*x3", "--nvars", "4",
        "--prime", "101", "--prime", "103",
        "--seed", "186052889", "--seed", "847400473",
    )
    assert code == 0
    assert "projective degrees: [1, 3, 3, 1]\n" in out
    assert "euler characteristic: 4\n" in out


def test_compute_verify_oracle_mismatch_exits_3(capsys, monkeypatch):
    from csmhyp import oracles

    # the cusp (0:0:1) lies in the chart, so the oracle runs; a wrong
    # count from it must fail the check
    monkeypatch.setattr(oracles, "affine_milnor_total", lambda *args: 3)
    code, out, _ = run_cli(
        capsys, "compute", "x1^2*x2 - x0^3", "--nvars", "3", "--verify"
    )
    assert code == 3
    assert "[FAIL] milnor_affine_oracle" in out


def test_randomness_exhaustion_exits_4(capsys, monkeypatch):
    from csmhyp import charclasses
    from csmhyp.errors import RandomnessError

    def explode(*args, **kwargs):
        raise RandomnessError("trials disagree", trials=[{"prime": 5, "seed": 1}])

    monkeypatch.setattr(charclasses, "build_report", explode)
    code, _, err = run_cli(capsys, "compute", "x0*x1", "--nvars", "3")
    assert code == 4
    assert "randomness exhausted" in err


def test_internal_identity_failure_exits_3(capsys, monkeypatch):
    from csmhyp import charclasses
    from csmhyp.errors import CsmhypError

    def explode(*args, **kwargs):
        raise CsmhypError("projective degree g_2 = 4 is above its bound 3 at prime 32003")

    monkeypatch.setattr(charclasses, "build_report", explode)
    code, out, err = run_cli(capsys, "compute", "x0*x1", "--nvars", "3")
    assert code == 3
    assert out == ""
    assert err == "error: projective degree g_2 = 4 is above its bound 3 at prime 32003\n"


@pytest.mark.parametrize(
    "poly,nvars,g,code,message",
    [
        # smooth, but every trial reads g_2 = 0 below c = 3, which only a
        # certified e^2 settles: the trials run out
        ("x0^2 + x1^2 + x2^2", 3, (1, 1, 0), 4, "randomness exhausted"),
        # one node (degree 1), so g_2 <= 4 - 1
        ("x1^2*x2 - x0^3 - x0^2*x2", 3, (1, 2, 4), 3, "g_2 = 4 is above its bound 3"),
        # singular along a conic: g_3 <= 9 // 3 once g_1 and g_2 are certified
        ("(x0^2+x1^2+x2^2-x3^2)^2 + x3^4", 4, (1, 3, 3, 4), 3,
         "g_3 = 4 is above its bound 3"),
    ],
    ids=["smooth-conic", "nodal-cubic", "double-conic"],
)
def test_segre_support_check_refuses_inconsistent_degrees(
    capsys, monkeypatch, poly, nvars, g, code, message
):
    # Degrees that would give s(Y) a component below the codimension of
    # Y, or a leading coefficient below deg Y, or that break log-concavity,
    # are never accepted: a reading above a bound ends in exit 3 with one
    # error line, and one that stays low below c exhausts the trials.
    from csmhyp import segre

    monkeypatch.setattr(segre, "_degrees_one_trial", lambda scheme, rng, certified: g)
    got, out, err = run_cli(capsys, "compute", poly, "--nvars", str(nvars), "--verify")
    assert got == code
    assert out == ""
    assert err.startswith(("error:", "randomness exhausted")), err
    assert message in err and "Traceback" not in err
    if code == 3:
        assert len(err.splitlines()) == 1, err


def test_a_trial_low_at_a_later_certified_coordinate_is_rejected(capsys, monkeypatch):
    # Four planes: the first trial reads g_2 = 2 below 9 - 6, the second
    # certifies g_2 = 3, and agrees with the first on g_3, the one open
    # coordinate; the third reads the second's whole vector, which
    # accepts it.  The first trial's vector was not accepted, so the log
    # rejects it.
    from csmhyp import segre

    outputs = iter([(1, 3, 2, 1), (1, 3, 3, 1), (1, 3, 3, 1)])
    monkeypatch.setattr(
        segre, "_degrees_one_trial", lambda scheme, rng, certified: next(outputs)
    )
    code, out, _ = run_cli(
        capsys, "compute", "x0*x1*x2*x3", "--nvars", "4",
        "--prime", "32003", "--seed", "7",
    )
    assert code == 0
    assert "projective degrees: [1, 3, 3, 1]\n" in out
    trials = [line for line in out.splitlines() if line.startswith("  trial ")]
    assert trials == [
        "  trial prime=32003 seed=7 g=[1, 3, 2, 1] REJECTED",
        "  trial prime=32003 seed=100010 g=[1, 3, 3, 1] accepted",
        "  trial prime=32003 seed=200013 g=[1, 3, 3, 1] accepted",
    ]


def test_a_report_carries_no_verdict_without_verify(capsys):
    # the CSM formulations are equal for every s_Y, so they are law tests,
    # not verdicts; only an oracle run under --verify fills `verification`
    from csmhyp import charclasses

    report = charclasses.build_report("x0*x1", 3)
    assert report.verification == ()
    assert report.all_passed
    code, out, _ = run_cli(capsys, "compute", "x0*x1", "--nvars", "3")
    assert code == 0
    assert "verification:" not in out
    assert "legend:" in out
    assert "route" not in out


def test_legend_names_every_verdict(capsys):
    # every verdict printed has a legend line, and every legend line that
    # is not a class label names a verdict these runs print
    from csmhyp.cli import _LEGEND

    printed, labels = set(), set()
    for poly in ("x0^2 + x1^2 + x2^2", "x1^2*x2 - x0^3 - x0^2*x2"):
        _, out, _ = run_cli(capsys, "compute", poly, "--nvars", "3", "--verify")
        for line in out.splitlines():
            if line.startswith(("  [pass] ", "  [FAIL] ")):
                printed.add(line.split()[1])
            elif line.startswith("  ") and line.split()[1:2] == ["="]:
                labels.add(line.split()[0])
    assert labels == {"s(Y)", "c_SM(X)", "c_F(X)", "mu(Y)"}
    assert "milnor_affine_oracle" in printed
    assert printed == {key for key, _ in _LEGEND} - labels


def test_cross_process_byte_determinism():
    import subprocess
    import sys

    cmd = [
        sys.executable, "-m", "csmhyp.cli",
        "compute", "x1^2*x2 - x0^3", "--nvars", "3", "--json",
        "--prime", "32003", "--seed", "7",
    ]
    runs = [
        subprocess.run(cmd, capture_output=True, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_verify_json_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json", "--seed", "101")
    assert code == 0
    payload = json.loads(out)
    assert all(row["pass"] for row in payload)
    assert {row["name"] for row in payload} >= {"smooth_conic", "quadric_cone"}


def _readme_cli_commands():
    """The argument lists of the ``csmhyp`` lines in the README's CLI block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("csmhyp ")
    ]


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_cli_lines_exit_0(capsys, argv):
    if any(a.endswith(".json") and not Path(a).exists() for a in argv):
        pytest.skip("names a fixture file that does not exist")
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
