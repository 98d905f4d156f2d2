#!/usr/bin/env python3
"""Wrong answers that exit 0, counted over a grid of trial policies.

    python3 bench/trust.py --label mine
    python3 bench/trust.py --label 7d69fcb --checkout /tmp/parent --seed-pairs 20

``--checkout`` (this checkout by default) is the root of the checkout whose
``src/csmhyp`` is run; the inputs and their expected values are those of the
``corpus`` and ``nonisolated`` workloads of ``perfbench/workloads.py`` in the
checkout that holds this script, which is only read.  Every input runs at
every policy of ``POLICIES`` with each of ``--seed-pairs`` pairs of trial
seeds, drawn from ``--seed`` as ``bench/pair.py`` draws them.

A report that ``build_report`` returns is what ``csmhyp compute`` prints
with exit 0.  It is wrong when a field that the workload checks differs
from the expected value (``perfbench/run.py``'s ``mismatches``); a call
that raises ends in a typed error and a nonzero exit, and is counted
apart.  ``TRUST_<label>.json``, in the directory ``--out DIR``
(``bench/`` by default), holds per policy the number of reports, of
wrong ones and of raises, and each wrong or raising report by input and
seeds; a raise carries its error type and the first line of its message,
which names the check that refused the report.  It needs only the
standard library.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import pair  # bench/pair.py, beside this script

WORKLOADS = ("corpus", "nonisolated")
# Policy name -> its primes; None keeps the default policy's primes.
POLICIES = {"default": None, "1009-1013": (1009, 1013), "101-103": (101, 103)}


def count(package, cases, policies, seed_pairs, mismatches) -> list:
    """Run every (workload, case) at every policy and seed pair; one
    record per policy.  ``package`` has ``build_report`` and
    ``TrialPolicy``, and ``mismatches(expected, got)`` lists the checked
    fields of a report's ``to_json_dict()`` that differ."""
    out = []
    for name, primes in policies.items():
        wrong, raised = [], []
        for seeds in seed_pairs:
            policy = pair.policy(package, primes, seeds)
            for _, case in cases:
                where = {"input": case.name, "seeds": list(seeds)}
                try:
                    report = package.build_report(case.poly, case.nvars, policy)
                except Exception as exc:  # a typed error is an answer, not a crash
                    first = str(exc).partition("\n")[0]
                    raised.append({**where, "error": type(exc).__name__, "message": first})
                    continue
                bad = mismatches(case.expected, report.to_json_dict())
                if bad:
                    wrong.append({**where, "fields": bad})
        out.append({
            "policy": name,
            "primes": list(primes) if primes else None,
            "reports": len(seed_pairs) * len(cases),
            "wrong": len(wrong),
            "raised": len(raised),
            "wrong_reports": wrong,
            "raised_reports": raised,
        })
    return out


def write_trust(package, cases, label, seed_pairs, mismatches, out) -> str:
    """Count with ``count`` at ``POLICIES`` and write the table; returns
    its path."""
    return pair.write_table("TRUST", label, out, lambda: {
        "label": label,
        "workloads": sorted({w for w, _ in cases}),
        "seed_pairs": [list(s) for s in seed_pairs],
        "policies": count(package, cases, POLICIES, seed_pairs, mismatches),
    })


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names TRUST_<label>.json")
    parser.add_argument("--checkout", default=ROOT, help="root of the checkout to run")
    parser.add_argument("--seed-pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1, help="draws the seed pairs")
    parser.add_argument(
        "--out", default=HERE, metavar="DIR",
        help="directory that TRUST_<label>.json is written to (default: bench/)",
    )
    args = parser.parse_args(argv)
    if args.seed_pairs < 1:
        parser.error("need at least one seed pair")
    package = pair.load_checkout(args.checkout, "csmhyp_trust")
    pair.use_this_checkout()  # the workloads read fixture texts from this csmhyp
    import run
    import workloads

    cases = [(w, case) for w in WORKLOADS for case in workloads.WORKLOADS[w]()]
    pairs = pair.seed_pairs(args.seed_pairs, args.seed)
    print(write_trust(package, cases, args.label, pairs, run.mismatches, args.out))


if __name__ == "__main__":
    main()
