#!/usr/bin/env python3
"""Paired timing of two checkouts of csmhyp in one process.

    python3 bench/pair.py BASE HEAD --workload nonisolated
    python3 bench/pair.py /tmp/parent . --workload corpus --prime 101 --prime 103
    python3 bench/pair.py /tmp/parent . --workload corpus --ignore trials
    python3 bench/pair.py /tmp/parent . --workload dense --rounds 5

``BASE`` and ``HEAD`` are roots of two checkouts; the ``src/csmhyp`` of
each is imported under its own package name, so both run in this one
process, on the same host, in the same minutes.  The inputs are those of a
``perfbench/workloads.py`` workload of the checkout that holds this script,
or, for ``dense``, every input of those workloads in general position
(``dense``): the benchmark's inputs are sparse and aligned with the
coordinates, and their cuts cost far less than the same inputs' after a
change of coordinates.
``--seed-pairs`` pairs of trial seeds are drawn from ``--seed``; round r
gives every input the pair r mod ``--seed-pairs`` and the ``--prime``s
(the default policy's primes when none is given), on both sides.  Within a
round each input runs on both sides back to back, and which side goes
first alternates, so a slow phase of a shared host falls on both alike.

Per input it prints the median time of each side, their ratio
HEAD / BASE and the number of rounds in which HEAD was faster; then the
ratio of the summed medians, which the heaviest input can decide alone,
and the geometric mean of the per-input ratios, which weighs every input
alike.  It times unscaled reports, one call at a time in one process,
so its ratios are not perfbench's metrics and can disagree with them: a
speed claim rests on ``bench/perfpairs.py``, and this script checks that
the reports are byte-identical.  Every call's report
(``to_json()``), or the type and text of the error it raised, is compared
between the sides; the script exits 1 when any differs, else 0.  Each
``--ignore KEY`` leaves the top-level report key KEY out of the
comparison, so that a deliberate change of one part of the output, such as
the ``trials`` records, still gets timed and the rest still compared.  It
needs only the standard library.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def use_this_checkout() -> None:
    """Put ``src/`` and ``perfbench/`` of this checkout first on ``sys.path``."""
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")):
        if path not in sys.path:
            sys.path.insert(0, path)


def write_table(name: str, label: str, out: str, make) -> str:
    """Check that ``label`` is a plain file-name part, ``[\\w.-]+``, then
    write the table ``make()`` to ``<out>/<name>_<label>.json``, indented,
    with a final newline; returns its path."""
    if not label or not all(c.isalnum() or c in "_.-" for c in label):
        raise ValueError(f"label {label!r} is not a plain file-name part")
    table = make()
    path = os.path.join(out, f"{name}_{label}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(table, indent=1) + "\n")
    return path


def load_checkout(root: str, name: str):
    """The package ``src/csmhyp`` under ``root``, imported as ``name``."""
    path = os.path.join(os.path.abspath(root), "src", "csmhyp")
    init = os.path.join(path, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"pair: no csmhyp package under {root}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[path]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def policy(package, primes, seeds):
    """``package``'s ``TrialPolicy`` with these seeds, at ``primes`` or,
    when that is None, at the default primes."""
    if primes is None:
        return package.TrialPolicy(seeds=seeds)
    return package.TrialPolicy(primes, seeds)


def outcome(package, case, primes, seeds, ignore=()):
    """One ``build_report`` call: its time, and its report as in
    ``to_json()`` less the top-level keys in ``ignore``, or its error
    text."""
    trial_policy = policy(package, primes, seeds)
    start = time.perf_counter()
    try:
        report = package.build_report(case.poly, case.nvars, trial_policy)
    except Exception as exc:  # an error is an answer too, compared as text
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    took = time.perf_counter() - start
    kept = {k: v for k, v in report.to_json_dict().items() if k not in ignore}
    return took, json.dumps(kept, sort_keys=True, separators=(",", ":"))


def run_pairs(base, head, cases, primes, seed_pairs, rounds, out=None, ignore=()) -> int:
    """Time and compare both packages on every case, printing to ``out``
    (standard output by default), with the report keys in ``ignore`` left
    out of the comparison; returns the number of calls whose answers
    differ."""
    out = sys.stdout if out is None else out
    times = {case.name: ([], []) for case in cases}
    differ = 0
    for r in range(rounds):
        seeds = seed_pairs[r % len(seed_pairs)]
        for j, case in enumerate(cases):
            sides = [(0, base), (1, head)]
            if (r + j) % 2:
                sides.reverse()
            texts = [None, None]
            for k, package in sides:
                took, texts[k] = outcome(package, case, primes, seeds, ignore)
                times[case.name][k].append(took)
            if texts[0] != texts[1]:
                differ += 1
                print(f"DIFFERS {case.name} seeds={seeds}", file=out)
                print(f"  base: {texts[0]}", file=out)
                print(f"  head: {texts[1]}", file=out)
    for line in timing_table(times):
        print(line, file=out)
    print(f"{differ} of {rounds * len(cases)} reports differ", file=out)
    return differ


def timing_table(times) -> list[str]:
    """The lines of the timing table of ``times``, which maps each input's
    name to its ``(base, head)`` lists of seconds, one entry a round: per
    input each side's median, their ratio HEAD / BASE and the rounds in
    which HEAD was faster; then the ratio of the summed medians and the
    geometric mean of the per-input ratios."""
    lines = [f"{'input':28} {'base_ms':>10} {'head_ms':>10} {'ratio':>7} {'faster':>7}"]
    total, ratios = [0.0, 0.0], []
    for name, (base, head) in times.items():
        medians = [statistics.median(base), statistics.median(head)]
        total = [a + b for a, b in zip(total, medians)]
        ratios.append(medians[1] / medians[0])
        faster = f"{sum(h < b for b, h in zip(base, head))}/{len(base)}"
        lines.append(f"{name:28} {medians[0] * 1e3:10.3f} {medians[1] * 1e3:10.3f} "
                     f"{ratios[-1]:7.3f} {faster:>7}")
    lines.append(f"{'sum of medians':28} {total[0] * 1e3:10.3f} {total[1] * 1e3:10.3f} "
                 f"{total[1] / total[0]:7.3f}")
    lines.append(f"{'geometric mean of ratios':50} {statistics.geometric_mean(ratios):7.3f}")
    return lines


def _invertible(rows) -> bool:
    """Whether a square integer matrix has det != 0, by elimination over Q."""
    rows = [[Fraction(x) for x in row] for row in rows]
    for k in range(len(rows)):
        j = next((j for j in range(k, len(rows)) if rows[j][k]), None)
        if j is None:
            return False
        rows[k], rows[j] = rows[j], rows[k]
        pivot = rows[k]
        rows[k + 1 :] = [
            [a - row[k] / pivot[k] * b for a, b in zip(row, pivot)]
            for row in rows[k + 1 :]
        ]
    return True


def dense(cases) -> list:
    """``cases`` in general position: each polynomial composed with the
    change of coordinates x_i -> sum_j M[i][j] x_j and expanded.  M has
    entries in [-2, 2] drawn by ``random.Random(case name)``, drawn again
    until det M != 0, so the g-vector and every expected value stay."""
    from csmhyp.poly import QQ, Polynomial, compose, parse_poly, to_string  # this checkout's own

    out = []
    for case in cases:
        rng = random.Random(case.name)
        size = range(case.nvars)
        while True:
            m = [[rng.randint(-2, 2) for _ in size] for _ in size]
            if _invertible(m):
                break
        units = [tuple(int(k == j) for k in size) for j in size]
        forms = [Polynomial(case.nvars, dict(zip(units, row)), QQ) for row in m]
        poly = to_string(compose(parse_poly(case.poly, case.nvars), forms))
        out.append(dataclasses.replace(case, poly=poly))
    return out


def workload_cases(workloads, name: str) -> list:
    """The inputs of workload ``name`` of ``workloads`` (a
    ``perfbench/workloads.py``), or, for ``dense``, every input of its
    workloads in general position (``dense``)."""
    if name == "dense":
        return dense([c for make in workloads.WORKLOADS.values() for c in make()])
    return workloads.WORKLOADS[name]()


def seed_pairs(count: int, seed: int) -> list:
    """``count`` pairs of distinct trial seeds, drawn as perfbench draws them."""
    rng = random.Random(f"pair:{seed}")
    pairs = []
    for _ in range(count):
        first = rng.randrange(1, 1 << 30)
        pairs.append((first, first + 1 + rng.randrange(1 << 30)))
    return pairs


def main(argv=None) -> int:
    use_this_checkout()  # the workloads read fixture texts from this csmhyp
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="root of the reference checkout")
    parser.add_argument("head", help="root of the checkout under test")
    parser.add_argument(
        "--workload", default="nonisolated", choices=(*workloads.WORKLOADS, "dense")
    )
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds")
    parser.add_argument("--seed-pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1, help="draws the seed pairs")
    parser.add_argument("--prime", type=int, action="append", dest="primes")
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="KEY",
        help="a top-level report key to leave out of the comparison (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.seed_pairs < 1:
        parser.error("need at least one round and one seed pair")
    base = load_checkout(args.base, "csmhyp_base")
    head = load_checkout(args.head, "csmhyp_head")
    cases = workload_cases(workloads, args.workload)
    primes = tuple(args.primes) if args.primes else None
    pairs = seed_pairs(args.seed_pairs, args.seed)
    differ = run_pairs(base, head, cases, primes, pairs, args.rounds, ignore=args.ignore)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
