#!/usr/bin/env python3
"""Per-input wall times of ``csmhyp.build_report``, one ladder per commit.

    python3 bench/ladder.py --label 741e0af
    python3 bench/ladder.py --label mine --repeats 9 --out /tmp
    python3 bench/ladder.py --label mine-dense --workload dense

Run from the root of a checkout: ``csmhyp`` is imported from ``src/`` there,
and the inputs (``perfbench/workloads.py``) and the host-speed reference
(``perfbench/run.py``) from ``perfbench/``, which is only read.  For each
input of the ``--workload``s (by default ``corpus``, ``nonisolated`` and
``isolated``; ``dense`` is every one of their inputs in general position,
as ``bench/pair.py`` composes them), one untimed call fills the caches.
Then ``--repeats`` rounds each time one call per input at the default
``TrialPolicy``, so a slow phase of a shared host falls on every input
alike.  As in perfbench, each call is scaled to the host
speed at which the reference loop takes ``run.REFERENCE_S``, from samples of
that loop taken just before and just after it.

``BENCH_<label>.json`` (in ``bench/`` unless ``--out`` says otherwise) holds
per input the median scaled time and the accepted g-vector, a fingerprint
that a change to the program's speed must keep.  A committed ladder pair
measured at different times cannot show a per-input change below about
25%, even scaled to host speed; use ``bench/pair.py`` for that.  It needs
only the standard library.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import pair  # bench/pair.py, beside this script

WORKLOADS = ("corpus", "nonisolated", "isolated")


def write_ladder(build_report, cases, label: str, repeats: int, out: str) -> str:
    """Time ``build_report`` on each (workload, case) and write the ladder;
    returns its path.  A case has ``name``, ``poly`` and ``nvars``."""
    if repeats < 1:
        raise ValueError("need at least one timed round")
    pair.use_this_checkout()
    import run  # perfbench/run.py

    def ladder():
        g = [list(build_report(c.poly, c.nvars).projective_degrees.g) for _, c in cases]
        times = [[] for _ in cases]
        before = run.host_sample()
        for _ in range(repeats):
            for took, (_, case) in zip(times, cases):
                start = time.perf_counter()
                build_report(case.poly, case.nvars)
                latency = time.perf_counter() - start
                after = run.host_sample()
                took.append(latency * 2 * run.REFERENCE_S / (before + after))
                before = after
        return {
            "label": label,
            "repeats": repeats,
            "reference_s": run.REFERENCE_S,
            "host": {
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
            },
            "inputs": [
                {
                    "workload": workload,
                    "input": case.name,
                    "nvars": case.nvars,
                    "median_s": round(statistics.median(took), 7),
                    "g": gv,
                }
                for (workload, case), took, gv in zip(cases, times, g)
            ],
        }

    return pair.write_table("BENCH", label, out, ladder)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--repeats", type=int, default=7, help="timed rounds")
    parser.add_argument("--out", default=HERE, help="directory to write to")
    parser.add_argument(
        "--workload", action="append", dest="workloads",
        choices=WORKLOADS + ("dense",), help="a workload to time (repeatable)",
    )
    args = parser.parse_args(argv)
    pair.use_this_checkout()
    import csmhyp
    import workloads

    cases = [
        (w, case)
        for w in args.workloads or WORKLOADS
        for case in pair.workload_cases(workloads, w)
    ]
    print(write_ladder(csmhyp.build_report, cases, args.label, args.repeats, args.out))


if __name__ == "__main__":
    main()
