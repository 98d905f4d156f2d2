"""CLI surface: subcommands, exit codes, output formats, determinism."""

from __future__ import annotations

import json

import pytest

from csmhyp.chow import ChowClass
from csmhyp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_seed_env_var_sets_default(capsys, monkeypatch):
    monkeypatch.setenv("CSMHYP_SEED", "4242")
    code, out, _ = run_cli(capsys, "compute", "x0*x1", "--nvars", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert {t["seed"] for t in payload["trials"]} == {4242, 4243}


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
    assert "FAIL" in out


def test_verify_empty_corpus_warns_exit_0(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "warning" in out


def test_verify_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err


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


def test_compute_verify_oracle_mismatch_exits_3(capsys):
    # the three coordinate lines have singular points in every chart's
    # complement, so the affine oracle undercounts and the check must fail
    code, out, _ = run_cli(
        capsys, "compute", "x0*x1*x2", "--nvars", "3", "--verify", "--chart", "2"
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
        raise CsmhypError("segre class has a nonzero codimension-0 part")

    monkeypatch.setattr(charclasses, "build_report", explode)
    code, out, err = run_cli(capsys, "compute", "x0*x1", "--nvars", "3")
    assert code == 3
    assert out == ""
    assert err == "error: segre class has a nonzero codimension-0 part\n"


def test_disagreeing_route_is_a_failing_verdict(capsys, monkeypatch):
    from csmhyp import charclasses
    from csmhyp.chow import hyperplane_power

    binomial = charclasses.s_x_minus_y_binomial

    def off_by_a_point(inp):
        return binomial(inp) + hyperplane_power(inp.n, inp.n)

    monkeypatch.setattr(charclasses, "s_x_minus_y_binomial", off_by_a_point)
    report = charclasses.build_report("x0*x1", 3)
    verdict = report.verification[0]
    assert verdict.name == "csm_residual_binomial_route"
    assert not verdict.ok
    assert verdict.difference == hyperplane_power(2, 2)
    assert not report.all_passed
    code, out, _ = run_cli(capsys, "compute", "x0*x1", "--nvars", "3", "--json")
    assert code == 3
    payload = json.loads(out)
    assert {"name": "csm_residual_binomial_route", "pass": False} in payload[
        "verification"
    ]


def test_legend_names_every_verdict(capsys):
    from csmhyp.cli import _LEGEND

    printed = set()
    for poly in ("x0^2 + x1^2 + x2^2", "x1^2*x2 - x0^3 - x0^2*x2"):
        _, out, _ = run_cli(capsys, "compute", poly, "--nvars", "3", "--verify")
        for line in out.splitlines():
            if line.startswith(("  [pass] ", "  [FAIL] ")):
                printed.add(line.split()[1])
    assert {"smooth_coincidence", "milnor_affine_oracle"} <= printed
    assert printed <= {key for key, _ in _LEGEND}


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
