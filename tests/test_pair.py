"""Paired timing of two checkouts by bench/pair.py, on two conics."""

from __future__ import annotations

import dataclasses
import importlib.util
import io
import os
from types import SimpleNamespace

import pytest

from csmhyp.charclasses import build_report
from csmhyp.poly import parse_poly

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PAIR = os.path.join(ROOT, "bench", "pair.py")
CONICS = [
    SimpleNamespace(name="smooth_conic", poly="x0^2 + x1^2 + x2^2", nvars=3),
    SimpleNamespace(name="two_lines", poly="x0^2 + x1^2", nvars=3),
]


def _pair():
    spec = importlib.util.spec_from_file_location("pair", PAIR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_repo_against_itself_differs_nowhere():
    pair = _pair()
    base = pair.load_checkout(ROOT, "csmhyp_pair_base")
    head = pair.load_checkout(ROOT, "csmhyp_pair_head")
    assert base is not head and base.build_report is not head.build_report
    assert base.poly.__name__ == "csmhyp_pair_base.poly"
    seeds = pair.seed_pairs(2, 1)
    assert len(set(seeds)) == 2 and all(a != b for a, b in seeds)
    out = io.StringIO()
    differ = pair.run_pairs(base, head, CONICS, None, seeds, 3, out)
    lines = out.getvalue().splitlines()
    assert differ == 0 and lines[-1] == "0 of 6 reports differ"
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:3]}
    assert set(rows) == {"smooth_conic", "two_lines"}
    for base_ms, head_ms, ratio, faster in rows.values():
        assert float(base_ms) > 0 and float(head_ms) > 0 and float(ratio) > 0
        assert faster.endswith("/3") and 0 <= int(faster[:-2]) <= 3
    assert lines[3].startswith("sum of medians")
    assert lines[4].startswith("geometric mean of ratios")


def test_one_heavy_input_does_not_decide_the_geometric_mean():
    # The heavy input is 2% slower on HEAD in every round and decides the
    # ratio of summed medians; the light ones are 20% faster in 4 of 5
    # rounds, which only the geometric mean and the win counts show.
    pair = _pair()
    times = {
        "heavy": ([1.0] * 5, [1.02] * 5),
        "light_a": ([0.001] * 5, [0.0008] * 4 + [0.0012]),
        "light_b": ([0.002] * 5, [0.0016] * 4 + [0.0024]),
    }
    lines = pair.timing_table(times)
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:4]}
    assert rows["heavy"] == ["1000.000", "1020.000", "1.020", "0/5"]
    assert rows["light_a"] == ["1.000", "0.800", "0.800", "4/5"]
    assert rows["light_b"] == ["2.000", "1.600", "0.800", "4/5"]
    summed = lines[4].split()
    assert summed[:3] == ["sum", "of", "medians"] and summed[-1] == "1.019"
    geometric = lines[5].split()
    assert geometric[:4] == ["geometric", "mean", "of", "ratios"]
    assert geometric[-1] == f"{(1.02 * 0.8 * 0.8) ** (1 / 3):.3f}"  # about 0.87
    assert len(lines) == 6


def test_a_differing_answer_is_reported(monkeypatch):
    # The head side raises on the line pair: its error text differs from
    # the base side's report there, at every primes and seeds.
    pair = _pair()
    base = pair.load_checkout(ROOT, "csmhyp_pair_base")
    head = pair.load_checkout(ROOT, "csmhyp_pair_head")
    real = head.build_report

    def broken(poly, nvars, policy):
        if poly == "x0^2 + x1^2":
            raise head.CsmhypError("broken on purpose")
        return real(poly, nvars, policy)

    monkeypatch.setattr(head, "build_report", broken)
    out = io.StringIO()
    differ = pair.run_pairs(base, head, CONICS, (101, 103), pair.seed_pairs(1, 2), 2, out)
    text = out.getvalue()
    assert differ == 2 and "2 of 4 reports differ" in text
    assert "DIFFERS two_lines" in text and "head: CsmhypError: broken on purpose" in text
    assert "DIFFERS smooth_conic" not in text


def test_main_runs_a_perfbench_workload_and_exits_0(capsys):
    pair = _pair()
    assert pair.main([ROOT, ROOT, "--workload", "corpus", "--rounds", "1",
                      "--seed-pairs", "1", "--prime", "32003", "--prime", "65537"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "0 of 18 reports differ"


def test_an_unknown_workload_is_a_usage_error(capsys):
    pair = _pair()
    with pytest.raises(SystemExit) as exit_info:
        pair.main([ROOT, ROOT, "--workload", "nosuch"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "invalid choice" in err and "nosuch" in err


def test_an_ignored_key_is_left_out_of_the_comparison(monkeypatch):
    # The head side drops its trial records: they differ unless the
    # comparison leaves `trials` out, and nothing else does.
    pair = _pair()
    base = pair.load_checkout(ROOT, "csmhyp_pair_base")
    head = pair.load_checkout(ROOT, "csmhyp_pair_head")
    real = head.build_report

    def no_trials(poly, nvars, policy):
        report = real(poly, nvars, policy)
        pd = dataclasses.replace(report.projective_degrees, trials=())
        return dataclasses.replace(report, projective_degrees=pd)

    monkeypatch.setattr(head, "build_report", no_trials)
    seeds = pair.seed_pairs(1, 3)
    out = io.StringIO()
    assert pair.run_pairs(base, head, CONICS, None, seeds, 1, out) == 2
    assert '"trials":[]' in out.getvalue()
    out = io.StringIO()
    assert pair.run_pairs(base, head, CONICS, None, seeds, 1, out, ignore=["trials"]) == 0
    assert out.getvalue().splitlines()[-1] == "0 of 2 reports differ"
    out = io.StringIO()
    assert pair.run_pairs(base, head, CONICS, None, seeds, 1, out, ignore=["euler"]) == 2


def test_dense_inputs_keep_their_g_vectors(bench_workloads):
    # Each input is composed with its own seeded matrix in general
    # position: the text gains terms, and the g-vector stays.
    pair = _pair()
    cases = {c.name: c for make in bench_workloads.WORKLOADS.values() for c in make()}
    subset = [cases["nodal_cubic"], cases["four_planes"]]
    moved = pair.dense(subset)
    assert moved == pair.dense(subset)
    assert [c.name for c in moved] == ["nodal_cubic", "four_planes"]
    for case, dense_case in zip(subset, moved):
        assert dense_case.expected == case.expected
        sparse_terms = parse_poly(case.poly, case.nvars).terms
        assert len(parse_poly(dense_case.poly, case.nvars).terms) > len(sparse_terms)
        g = build_report(dense_case.poly, case.nvars).projective_degrees.g
        assert g == build_report(case.poly, case.nvars).projective_degrees.g
        assert list(g) == case.expected["projective_degrees"]
    assert [c.name for c in pair.workload_cases(bench_workloads, "dense")] == list(cases)
    assert pair._invertible([[0, 1], [1, 0]])
    assert not pair._invertible([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
