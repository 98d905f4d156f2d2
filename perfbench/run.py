#!/usr/bin/env python3
"""Benchmark of ``csmhyp.build_report``: one process, one client, closed loop.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 50 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
there and nowhere else.  One op is one ``build_report(text, nvars, policy)``
call.  The workload seed picks the ``TrialPolicy`` seeds of every op and the
order of the inputs within each pass; the program receives only the
polynomial and the policy.  Whole passes over the workload's input list
run until ``--seconds`` have elapsed (and at least the workload's
``MIN_PASSES``), and every answer is checked against the expected values in
``workloads.py``.

With ``--trace 0`` nothing is wrapped and the end-to-end metrics are
reported; their timings are scaled to a fixed host speed (see
``run_pass``).  With ``--trace 1`` each pass runs twice with the same inputs and
seeds, once plain and once with ``spans.Tracer`` installed, until
``--seconds`` have elapsed (at least one such pair), and the per-layer
metrics are reported.  Human-readable lines come first; the last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-ups measured in fresh processes, spread evenly over an untraced run.
SETUP_PROBES = 11
# A smooth conic: cheap, and touches every stage of the pipeline.
WARMUP = ("x0^2 + x1^2 + x2^2", 3)
TAIL_BEYOND = 10


def load_package():
    """Import csmhyp from this checkout's ``src/``; exit 2 if it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "csmhyp", "__init__.py")):
        print(f"perfbench: no csmhyp package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    import csmhyp

    if not os.path.abspath(csmhyp.__file__).startswith(src + os.sep):
        print(f"perfbench: csmhyp imported from {csmhyp.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return csmhyp


def prepare(workload: str):
    """Everything a run does before its first timed op: import the package,
    generate the inputs and their expected values, run one warm-up op."""
    csmhyp = load_package()
    sys.path.insert(0, HERE)
    import workloads

    cases = workloads.WORKLOADS[workload]()
    csmhyp.build_report(WARMUP[0], WARMUP[1])
    return csmhyp, cases, workloads.MIN_PASSES[workload]


# -- one op --------------------------------------------------------------------


@dataclass
class Outcome:
    case: str
    latency: float
    error: str | None = None  # why the op failed, None if it passed
    # The failure is the one its case records as known (Case.expected_error).
    expected: bool = False
    scaled: float | None = None  # latency at the reference host speed


def mismatches(expected: dict, got: dict) -> list[str]:
    """Checked fields whose computed value differs from the expected one."""
    return [key for key, want in expected.items() if got.get(key) != want]


def run_op(build_report, case, policy) -> Outcome:
    """Time one build_report call and check its answer.

    An op fails when it raises, when the report's own verifications do not
    all pass, or when a checked field differs from the expected value.
    """
    start = time.perf_counter()
    try:
        report = build_report(case.poly, case.nvars, policy)
    except Exception as exc:  # the run goes on; the op counts as failed
        latency = time.perf_counter() - start
        message = str(exc).splitlines()[0] if str(exc) else ""
        known = case.expected_error is not None and case.expected_error in message
        return Outcome(case.name, latency,
                       f"raised {type(exc).__name__}: {message}", expected=known)
    latency = time.perf_counter() - start
    bad = mismatches(case.expected, report.to_json_dict())
    if bad:
        return Outcome(case.name, latency, f"wrong {', '.join(bad)}")
    if not report.all_passed:
        failed = [v.name for v in report.verification if not v.ok]
        return Outcome(case.name, latency, f"verification failed: {', '.join(failed)}")
    return Outcome(case.name, latency)


def plan_pass(cases, rng, TrialPolicy):
    """One pass: every input once, in a seeded order, each with seeded trials."""
    order = rng.sample(cases, len(cases))
    plan = []
    for case in order:
        first = rng.randrange(1, 1 << 30)
        second = first + 1 + rng.randrange(1 << 30)
        plan.append((case, TrialPolicy(seeds=(first, second))))
    return plan


# -- statistics ----------------------------------------------------------------


def correct(ops) -> bool:
    """True when every op passed or failed only with its case's known error."""
    return all(o.error is None or o.expected for o in ops)


def per_input(passes, scaled=False) -> dict[str, list[float]]:
    """Each input's latencies over the passes of a run, or its scaled
    latencies, counting only ops that passed."""
    seen: dict[str, list[float]] = {}
    for outcomes in passes:
        for o in outcomes:
            if o.error is None:
                seen.setdefault(o.case, []).append(o.scaled if scaled else o.latency)
    return seen


def median_latencies(passes, scaled=False) -> dict[str, float]:
    return {c: statistics.median(v) for c, v in per_input(passes, scaled).items()}


def pass_rate(passes, scaled=False) -> float:
    """Ops per second over one pass made of each input at its median latency."""
    medians = median_latencies(passes, scaled)
    return len(medians) / sum(medians.values())


def tail(latencies, base):
    """The percentile with TAIL_BEYOND of ``base`` samples beyond it, taken
    over ``latencies`` by nearest rank.

    ``base`` is the op count of the workload's shortest run, so the
    percentile is fixed by the workload: a faster program, which runs more
    ops, is measured at the same percentile, with more samples beyond it.
    Returns ``(value, percentile, n)``, or None when that percentile would
    not lie above the median (``base`` of 20 or less).
    """
    if base - TAIL_BEYOND <= base / 2:
        return None
    n = len(latencies)
    rank = -(-(base - TAIL_BEYOND) * n // base)
    return sorted(latencies)[rank - 1], 100.0 * (base - TAIL_BEYOND) / base, n


# -- host speed ------------------------------------------------------------------
#
# On a shared 2-vCPU Xeon VM the same op ran up to 1.6 times slower in slow
# phases lasting seconds to minutes, often longer than a whole run, so the
# raw latencies of two runs of the same code differed by up to 0.6.  A
# fixed piece of pure-Python work, independent of the program, is therefore
# timed after every op of an untraced run, and each op's latency is scaled
# to the host speed at which that work takes REFERENCE_S.  Over two sets of
# ten 50 s runs each, nonisolated ops_per_s spread 0.20 and 0.31 from each
# input's best raw latency, and 0.014 and 0.027 from its median scaled one.

REFERENCE_S = 0.001


def reference_loop() -> float:
    """Seconds taken by a fixed loop like the program's inner ones: terms of a
    sparse polynomial in a dict keyed by exponent tuples, coefficients mod a
    prime.  About 1 ms on the reference host."""
    start = time.perf_counter()
    terms: dict[tuple[int, int, int], int] = {}
    for i in range(3000):
        key = (i % 17, i % 13, i % 11)
        terms[key] = (terms.get(key, 0) + i * 7919) % 32003
    return time.perf_counter() - start


def host_sample() -> float:
    return statistics.median(reference_loop() for _ in range(3))


def run_pass(build_report, plan, before: float):
    """Run one planned pass, scaling each op by the host samples taken just
    before and just after it.  Returns the outcomes and the last sample."""
    outcomes = []
    for case, policy in plan:
        o = run_op(build_report, case, policy)
        after = host_sample()
        o.scaled = o.latency * 2 * REFERENCE_S / (before + after)
        outcomes.append(o)
        before = after
    return outcomes, before


# -- set-up time -----------------------------------------------------------------


def probe_setup(workload: str) -> None:
    """Child side of the set-up measurement: set up, print the clock, exit."""
    prepare(workload)
    print(repr(time.monotonic()))


def measure_setup(workload: str) -> float:
    """Seconds from spawning a fresh process to its being ready for the
    first op."""
    spawned = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - spawned


# -- runs --------------------------------------------------------------------------


def run_untraced(csmhyp, cases, rng, seconds, min_passes, probe=None):
    """End-to-end run: whole passes, fresh seeds each, nothing wrapped.

    ``probe``, if given, is called SETUP_PROBES times between passes, spread
    evenly over the run, and its results are scaled like the ops.  Returns
    the passes and the scaled probe results.
    """
    passes, probes = [], []
    start = time.perf_counter()
    wanted = SETUP_PROBES if probe else 0
    sample = host_sample()

    def scaled_probe():
        nonlocal sample
        took = probe()
        after = host_sample()
        probes.append(took * 2 * REFERENCE_S / (sample + after))
        sample = after

    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        plan = plan_pass(cases, rng, csmhyp.TrialPolicy)
        outcomes, sample = run_pass(csmhyp.build_report, plan, sample)
        passes.append(outcomes)
        while (len(probes) < wanted
               and time.perf_counter() - start >= len(probes) * seconds / wanted):
            scaled_probe()
    while len(probes) < wanted:
        scaled_probe()
    return passes, probes


def run_traced(csmhyp, cases, rng, seconds, tracer):
    """Per-layer run: each pass plain, then again traced with the same
    inputs and seeds, so their ratio is the tracing overhead."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plan = plan_pass(cases, rng, csmhyp.TrialPolicy)
        plain.append([run_op(csmhyp.build_report, c, p) for c, p in plan])
        tracer.install()
        try:
            outcomes = []
            for case, policy in plan:
                tracer.op += 1
                outcomes.append(
                    tracer.call("op", run_op, csmhyp.build_report, case, policy)
                )
            traced.append(outcomes)
        finally:
            tracer.uninstall()
    return plain, traced


def end_to_end(passes, min_passes, setup_times):
    scaled = per_input(passes, scaled=True)
    medians = {c: statistics.median(v) for c, v in scaled.items()}
    reps = f"median of {len(passes)}, at reference speed"
    found = tail([t for v in scaled.values() for t in v], min_passes * len(scaled))
    if found:
        value, pct, n = found
        op_tail = (value, "s", f"p{pct:.2f} of n={n}, at reference speed; "
                   f"{TAIL_BEYOND} beyond in a run of {min_passes} passes")
    else:
        slowest = max(medians, key=medians.get)
        op_tail = (medians[slowest], "s",
                   f"{min_passes} passes are too few for {TAIL_BEYOND} beyond a "
                   f"percentile above the median: slowest input {slowest}, {reps}")
    return {
        "ops_per_s": (pass_rate(passes, scaled=True), "1/s",
                      f"{len(medians)} inputs, each {reps}; "
                      f"{pass_rate(passes):.6g} unscaled"),
        "op_p50_s": (statistics.median(medians.values()), "s",
                     f"median over {len(medians)} inputs, each {reps}"),
        "op_tail_s": op_tail,
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups in fresh processes, "
                    "spread over the run, at reference speed"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", "ru_maxrss of the measuring process"),
    }


def per_layer(tracer, plain, traced):
    ops = [o for p in traced for o in p]
    n_ops = len(ops)
    op_time = sum(o.latency for o in ops)
    selfs = tracer.self_times()
    counters = tracer.counters

    def s(name):
        total, spans = selfs.get(name, (0.0, 0))
        return (total / n_ops, "s/op", f"self time, {spans} spans over {n_ops} ops")

    def calls(name):
        spans = selfs.get(name, (0.0, 0))[1]
        return (spans / n_ops, "calls/op", f"{spans} calls over {n_ops} ops")

    def ratio(num, den, what):
        return (num / den if den else 0.0, "ratio", f"{what}, {num:g}/{den:g}")

    sat_self, sat_calls = selfs.get("groebner.saturate", (0.0, 0))
    route_spans = [k for k in selfs if k.startswith("charclasses.")]
    route_time = sum(selfs[k][0] for k in route_spans)
    route_count = sum(selfs[k][1] for k in route_spans)
    trials = counters.get("segre.trials", 0)
    return {
        "groebner.saturate.s": s("groebner.saturate"),
        "groebner.saturate.calls": calls("groebner.saturate"),
        "groebner.saturate.jacobian_gens": (
            counters.get("groebner.saturate.jacobian_gens", 0) / n_ops, "gens/op",
            f"sum of len(J.gens) over {sat_calls} calls, {n_ops} ops"),
        "groebner.saturate.basis_max": (
            counters.get("groebner.saturate.basis_max", 0), "count",
            f"largest result basis over {sat_calls} calls"),
        "groebner.saturate.share": (
            sat_self / op_time, "ratio",
            f"saturate self time / traced op time, {op_time:.3f} s over {n_ops} ops"),
        "groebner.buchberger.s": s("groebner.buchberger"),
        "groebner.buchberger.calls": calls("groebner.buchberger"),
        "groebner.buchberger.basis_max": (
            counters.get("groebner.buchberger.basis_max", 0), "count",
            f"largest basis over {selfs.get('groebner.buchberger', (0, 0))[1]} calls"),
        "groebner.dim_degree.s": s("groebner.dim_degree"),
        "groebner.dim_degree.calls": calls("groebner.dim_degree"),
        "segre.jacobian_scheme.s": s("segre.jacobian_scheme"),
        "segre.jacobian_scheme.calls": calls("segre.jacobian_scheme"),
        "segre.projective_degrees.self_s": s("segre.projective_degrees"),
        "segre.segre_from_degrees.s": s("segre.segre_from_degrees"),
        "segre.trials": (trials / n_ops, "trials/op", f"{trials} trials over {n_ops} ops"),
        "segre.trial_accept_ratio": ratio(
            counters.get("segre.trials_accepted", 0), trials, "accepted/trials"),
        "segre.cut_useful_ratio": ratio(
            counters.get("segre.cuts", 0), sat_calls, "(n+1)*trials / saturate calls"),
        "poly.parse_poly.s": s("poly.parse_poly"),
        "poly.reduce_mod_p.s": s("poly.reduce_mod_p"),
        "charclasses.routes.s": (route_time / n_ops, "s/op",
                                 f"self time, {route_count} spans over {n_ops} ops"),
        "trace_overhead_ratio": (
            pass_rate(traced) / pass_rate(plain),
            "ratio", f"traced/untraced pass rate, unscaled, {len(traced)} pass pairs"),
    }


def report_failures(outcomes):
    seen = {}
    for o in outcomes:
        if o.error is not None:
            key = (o.case, o.error, o.expected)
            seen[key] = seen.get(key, 0) + 1
    for (case, error, known), count in sorted(seen.items()):
        print(f"failed {case} x{count}: {error}{' (known)' if known else ''}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "isolated", "nonisolated"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        probe_setup(args.workload)
        return 0

    csmhyp, cases, min_passes = prepare(args.workload)
    import spans

    rng = random.Random(f"perfbench:{args.workload}:{args.seed}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs={len(cases)}")

    if args.trace:
        tracer = spans.Tracer()
        plain, traced = run_traced(csmhyp, cases, rng, args.seconds, tracer)
        ops = [o for p in plain + traced for o in p]
        metrics = per_layer(tracer, plain, traced)
        if tracer.absent:
            print("trace: absent names, reported as zero: " + ", ".join(tracer.absent))
        kind = "layer"
    else:
        before = spans.originals()
        passes, setup_times = run_untraced(
            csmhyp, cases, rng, args.seconds, min_passes,
            probe=lambda: measure_setup(args.workload))
        after = spans.originals()
        if any(after.get(k) is not f for k, f in before.items()):
            print("perfbench: a traced name was rebound during the untraced run",
                  file=sys.stderr)
            return 1
        print(f"trace: off; all {len(before)} traced names are the original functions")
        ops = [o for p in passes for o in p]
        metrics = end_to_end(passes, min_passes, setup_times)
        kind = "e2e"

    failed = sum(o.error is not None for o in ops)
    report_failures(ops)
    # failed_ratio is 0 on the listed workloads, so it is printed but kept out
    # of the JSON metrics, which must never read 0.  "failed" carries it
    # there, and any failure but a case's known one makes "correct" false.
    print(f"e2e failed_ratio = {failed / len(ops):.6g} ratio ({failed} of {len(ops)} ops)")
    for name, (value, unit, note) in metrics.items():
        print(f"{kind} {name} = {value:.6g} {unit} ({note})")
    result = {
        "correct": correct(ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
