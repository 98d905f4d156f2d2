"""Tests of the benchmark itself: its answer check, its failure accounting
and its tracer.  Run with ``python3 -m pytest -q perfbench`` from the root
of a checkout."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

csmhyp = run.load_package()

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Case  # noqa: E402

CONIC = Case("conic", "x0^2 + x1^2 + x2^2", 3,
             {"projective_degrees": [1, 1, 1], "euler": 2, "milnor_total": 0})
WRONG = Case("conic_wrong", CONIC.poly, 3, {"euler": 3})
RAISES = Case("bad_text", "x0^2 + x7", 3, {"euler": 2})


def _spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _main_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def test_wrong_expected_value_counts_as_failed():
    good = run.run_op(csmhyp.build_report, CONIC, csmhyp.TrialPolicy())
    bad = run.run_op(csmhyp.build_report, WRONG, csmhyp.TrialPolicy())
    assert good.error is None and run.correct([good])
    assert bad.error == "wrong euler" and not run.correct([good, bad])


def test_raising_op_counts_as_failed_and_the_run_goes_on():
    passes, _ = run.run_untraced(csmhyp, [RAISES, CONIC, WRONG], random.Random(1), 0, 1)
    ops = {o.case: o for p in passes for o in p}
    assert len(passes) == 1 and set(ops) == {"bad_text", "conic", "conic_wrong"}
    assert ops["bad_text"].error.startswith("raised PolynomialParseError")
    assert not ops["bad_text"].expected
    assert ops["conic"].error is None
    assert not run.correct([ops["conic"], ops["bad_text"]])


def test_only_the_known_error_of_a_case_keeps_the_run_correct():
    known = Case("bad_text", RAISES.poly, 3, {}, expected_error="x7")
    other = Case("bad_text", RAISES.poly, 3, {}, expected_error="leading coefficient")
    ok = run.run_op(csmhyp.build_report, known, csmhyp.TrialPolicy())
    bad = run.run_op(csmhyp.build_report, other, csmhyp.TrialPolicy())
    assert ok.error is not None and ok.expected and run.correct([ok])
    assert bad.error is not None and not bad.expected and not run.correct([bad])


def _ok(case, latency):
    return run.Outcome(case, latency, scaled=latency / 2)


def test_timings_leave_out_failed_ops():
    passes = [[_ok("a", 2.0), _ok("b", 4.0)],
              [run.Outcome("a", 0.001, "raised CsmhypError: x", scaled=0.0005),
               _ok("b", 6.0)]]
    assert run.median_latencies(passes) == {"a": 2.0, "b": 5.0}
    assert run.pass_rate(passes) == 2 / 7.0
    metrics = run.end_to_end(passes, 2, [0.1])
    assert metrics["ops_per_s"][0] == 2 / 3.5
    assert metrics["op_p50_s"][0] == 1.75
    assert metrics["op_tail_s"][0] == 2.5  # too few for a percentile: slowest input


def test_run_pass_scales_each_op_by_the_samples_around_it(monkeypatch):
    samples = iter([0.003, 0.001])
    monkeypatch.setattr(run, "host_sample", lambda: next(samples))
    plan = [(CONIC, csmhyp.TrialPolicy()), (CONIC, csmhyp.TrialPolicy())]
    outcomes, last = run.run_pass(csmhyp.build_report, plan, 0.001)
    assert last == 0.001
    for o, around in zip(outcomes, (0.004, 0.004)):
        assert o.error is None
        assert abs(o.scaled - o.latency * 2 * run.REFERENCE_S / around) < 1e-15


def test_absent_name_is_reported_not_fatal():
    targets = spans.TARGETS + (("csmhyp.groebner", "intersect_removed", "groebner.gone"),)
    before = spans.originals()
    tracer = spans.Tracer(targets)
    tracer.install()
    try:
        outcome = tracer.call("op", run.run_op, csmhyp.build_report, CONIC,
                              csmhyp.TrialPolicy())
    finally:
        tracer.uninstall()
    assert tracer.absent == ["groebner.gone"]
    assert outcome.error is None
    assert tracer.self_times()["groebner.saturate"][1] > 0
    after = spans.originals()
    assert all(after[k] is f for k, f in before.items())


def test_untraced_run_leaves_every_traced_name_untouched():
    before = spans.originals()
    assert len(before) == len(spans.TARGETS)
    run.run_untraced(csmhyp, [CONIC], random.Random(2), 0, 1)
    after = spans.originals()
    assert all(after[k] is f for k, f in before.items())


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer(())
    tracer.call("outer", lambda: tracer.call("inner", sum, range(100000)))
    selfs = tracer.self_times()
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    assert abs(selfs["outer"][0] + selfs["inner"][0] - (outer.end - outer.start)) < 1e-9


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(100)], 100) == (89.0, 90.0, 100)
    assert run.tail([float(i) for i in range(200)], 100) == (179.0, 90.0, 200)
    assert run.tail([float(i) for i in range(20)], 20) is None


def test_tail_percentile_does_not_move_with_passes():
    def passes(k):
        return [[_ok(c, 2.0 + i / 50) for c in "abcdefghijklmnopqrstu"]
                for i in range(k)]
    for k, value in ((3, 1.02), (9, 1.07)):
        got, _, note = run.end_to_end(passes(k), 3, [0.1])["op_tail_s"]
        assert abs(got - value) < 1e-12 and note.startswith(f"p84.13 of n={21 * k},")


def test_setup_probes_are_spread_over_the_run(monkeypatch):
    monkeypatch.setattr(run, "host_sample", lambda: run.REFERENCE_S)
    stamps = []
    passes, probes = run.run_untraced(
        csmhyp, [CONIC], random.Random(3), 0.5, 1,
        probe=lambda: stamps.append(time.perf_counter()) or 0.1)
    assert len(probes) == run.SETUP_PROBES and len(passes) > 1
    assert all(abs(p - 0.1) < 1e-12 for p in probes)
    assert stamps[-1] - stamps[0] > 0.3


def test_end_to_end_run_reports_exactly_the_listed_metrics():
    lines, result = _main_json(["--workload", "corpus", "--seconds", "0", "--trace", "0"])
    spec = _spec()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 18 * workloads.MIN_PASSES["corpus"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("e2e failed_ratio = 0 ratio") for line in lines)


def test_traced_run_reports_exactly_the_listed_metrics():
    before = spans.originals()
    _, result = _main_json(["--workload", "corpus", "--seconds", "0", "--trace", "1"])
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["attempted"] == 36 and result["failed"] == 0
    after = spans.originals()
    assert all(after[k] is f for k, f in before.items())


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
