#!/usr/bin/env python3
"""Alternating pairs of perfbench runs on two checkouts of csmhyp.

    python3 bench/perfpairs.py BASE HEAD --workload corpus --pairs 10 --seconds 50

``BASE`` and ``HEAD`` are roots of two checkouts.  Each pair runs the
benchmark command of this checkout's ``BENCHMARK.json`` (``perfbench/run.py``)
once in each checkout, from its root, with ``--workload``, ``--seconds``
and the workload seed ``--seed`` i for pair i = 1..N, so the pairs cover
N seeds and both sides of a pair run the same one.  The side that goes
first switches from one pair to the next, so a slow phase of a shared
host falls on both alike.  Each run is a fresh process, as the benchmark
itself runs it.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles over the pairs, the ratio of the medians HEAD / BASE,
how many pairs HEAD won in the metric's ``better`` direction, and whether
the medians differ by more than BASE's interquartile range.  It exits 1
when any run fails, reports ``correct: false`` or counts a failed op, else
0.  It reads ``perfbench/`` and ``BENCHMARK.json`` and writes neither, and
it needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(command, root: str, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run in the checkout at ``root``: the JSON object on
    the last line of its standard output, with ``ok`` added, False when
    the run failed, was not correct or counted a failed op."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seconds", f"{seconds:g}", "--seed", str(seed)],
        cwd=root, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"ok": False, "error": f"exit {done.returncode}: {tail}", "metrics": {}}
    clean = result.get("correct") is True and not result.get("failed")
    result["ok"] = done.returncode == 0 and clean
    return result


def quartiles(values) -> tuple:
    """(q1, median, q3) of ``values``, inclusive method; one value is its
    own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, end_to_end) -> list[dict]:
    """Per end-to-end metric, the summary of ``pairs``, a list of
    ``(base, head)`` run results: each side's quartiles, the ratio of the
    medians, HEAD's wins and whether the medians differ by more than
    BASE's interquartile range.  A metric a run lacks is left out."""
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        if not all(name in b["metrics"] and name in h["metrics"] for b, h in pairs):
            continue
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        higher = metric["better"] == "higher"
        wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
        bq, hq = quartiles(base), quartiles(head)
        rows.append({
            "name": name,
            "better": metric["better"],
            "base": bq,
            "head": hq,
            "ratio": hq[1] / bq[1] if bq[1] else float("nan"),
            "wins": wins,
            "pairs": len(pairs),
            "beyond_iqr": abs(hq[1] - bq[1]) > bq[2] - bq[0],
        })
    return rows


def pair_ratios(base: dict, head: dict, end_to_end) -> str:
    """``name=ratio`` of HEAD to BASE for each end-to-end metric of one pair
    that both runs report."""
    ratios = []
    for metric in end_to_end:
        b, h = (run["metrics"].get(metric["name"]) for run in (base, head))
        if b and h and b["value"]:
            ratios.append(f"{metric['name']}={h['value'] / b['value']:.4f}")
    return " ".join(ratios) or "n/a"


def render(rows) -> str:
    lines = [f"{'metric':12} {'base median [q1, q3]':>32} {'head median [q1, q3]':>32} "
             f"{'ratio':>7} {'wins':>6} beyond_iqr"]
    for r in rows:
        sides = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (r["base"], r["head"])]
        lines.append(f"{r['name']:12} {sides[0]:>32} {sides[1]:>32} {r['ratio']:7.4f} "
                     f"{r['wins']:>3}/{r['pairs']:<2} {'yes' if r['beyond_iqr'] else 'no'}"
                     f"  ({r['better']} is better)")
    return "\n".join(lines)


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="root of the reference checkout")
    parser.add_argument("head", help="root of the checkout under test")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 0:
        parser.error("need at least one pair and seconds >= 0")
    command = [sys.executable if c in ("python3", "python") else c for c in spec["command"]]
    roots = (os.path.abspath(args.base), os.path.abspath(args.head))
    pairs, bad = [], 0
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        results = [None, None]
        for side in order:
            results[side] = run_once(command, roots[side], args.workload, args.seconds, i + 1)
        for side, result in zip(("base", "head"), results):
            if not result["ok"]:
                bad += 1
                why = result.get("error") or (
                    f"correct={result.get('correct')} failed={result.get('failed')}")
                print(f"pair {i + 1}: {side} run not clean: {why}", file=out)
        pairs.append(tuple(results))
        first = "base" if order[0] == 0 else "head"
        print(f"pair {i + 1}/{args.pairs} ({first} first): head/base "
              + pair_ratios(*results, spec["end_to_end"]), file=out, flush=True)
    print(f"workload={args.workload} pairs={args.pairs} seconds={args.seconds:g}", file=out)
    print(render(summarize(pairs, spec["end_to_end"])), file=out)
    print(f"{bad} of {2 * args.pairs} runs not clean", file=out)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
