"""Command-line surface.

Subcommands: ``compute`` (full pipeline report for one polynomial),
``nc`` (closed-form normal-crossings classes), ``verify`` (fixture
suite), ``oracle`` (closed-form baselines).  Exit codes: 0 success,
2 parse/input error, 3 verification failure or broken internal
identity, 4 randomness exhaustion.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import charclasses, oracles
from .chow import ChowClass
from .errors import CsmhypError, PolynomialParseError, RandomnessError
from .poly import parse_poly
from .segre import DEFAULT_PRIMES, DEFAULT_SEEDS, TrialPolicy

_LEGEND = [
    ("s(Y)", "Segre class of the singular scheme, pushed to the Chow ring of P^n"),
    ("c_SM(X)", "Chern-Schwartz-MacPherson class: c(TM)(s(X) + c(L)^-1 (s(Y)^v (x) L))"),
    ("c_F(X)", "Fulton (virtual tangent bundle) class: c(TM) s(X)"),
    ("mu(Y)", "mu-class c(T*M (x) L) s(Y); its degree is the total Milnor number"),
    ("csm_residual_binomial_route", "dimensionwise binomial residual formula agrees"),
    ("csm_thickening_route", "Fulton class of the formal (-1)-thickening agrees"),
    ("csm_mu_class_route", "c_F(X) + c(L)^(n-1) (mu^v (x) L) agrees"),
    ("milnor_degree_identity", "deg mu = (-1)^n (chi(X) - chi of a smooth member)"),
    ("segre_smooth_vanishing", "s(Y) = 0 exactly when the hypersurface is smooth"),
    ("integrality", "every reported class has integer coefficients"),
    ("smooth_coincidence", "c_SM(X) = c_F(X) when the hypersurface is smooth"),
    ("milnor_affine_oracle", "deg mu = affine Jacobian colength (compute --verify)"),
]


def _default_seeds():
    env = os.environ.get("CSMHYP_SEED")
    if env is not None:
        base = int(env)
        return (base, base + 1)
    return DEFAULT_SEEDS


def _policy_from_args(args) -> TrialPolicy:
    primes = tuple(args.prime) if args.prime else DEFAULT_PRIMES[:2]
    seeds = tuple(args.seed) if args.seed else _default_seeds()
    return TrialPolicy(primes=primes, seeds=seeds)


def _print_class(label: str, c: ChowClass) -> None:
    print(f"  {label:<10} = {c.to_h_string():<28} | {c.to_bracket_string()}")


def _render_report(report, show_legend=True) -> None:
    print(f"hypersurface: {report.poly}  (P^{report.n}, degree {report.d})")
    print(f"projective degrees: {list(report.projective_degrees.g)}")
    for t in report.projective_degrees.trials:
        tag = "accepted" if t.accepted else "REJECTED"
        print(f"  trial prime={t.prime} seed={t.seed} g={list(t.g)} {tag}")
    print("classes (h-polynomial | by dimension):")
    _print_class("s(Y)", report.segre_singular)
    _print_class("c_SM(X)", report.csm)
    _print_class("c_F(X)", report.fulton)
    _print_class("mu(Y)", report.mu)
    print(f"euler characteristic: {report.euler}")
    print(f"total Milnor number: {report.milnor_total}")
    print("verification:")
    for v in report.verification:
        print(f"  [{'pass' if v.ok else 'FAIL'}] {v.name}")
    if show_legend:
        print("legend:")
        for key, text in _LEGEND:
            print(f"  {key:<28} {text}")


def _cmd_compute(args) -> int:
    policy = _policy_from_args(args)
    poly = parse_poly(args.poly, args.nvars)
    report = charclasses.build_report(poly, policy=policy)
    verdicts = list(report.verification)
    oracle_note = None
    if args.verify:
        chart = args.chart if args.chart is not None else args.nvars - 1
        milnor = oracles.affine_milnor_total(poly, chart, policy.primes)
        if milnor is None:
            oracle_note = "affine Milnor oracle: non-isolated singular locus, skipped"
        else:
            ok = milnor == report.milnor_total
            verdicts.append(
                charclasses.Verification("milnor_affine_oracle", ok)
            )
    report = dataclasses.replace(report, verification=tuple(verdicts))
    if args.json:
        print(report.to_json())
    else:
        _render_report(report)
        if oracle_note:
            print(oracle_note)
    return 0 if report.all_passed else 3


def _cmd_nc(args) -> int:
    c = charclasses.csm_normal_crossings(args.n, args.degrees)
    s = charclasses.segre_singular_nc(args.n, args.degrees)
    euler = charclasses.euler_characteristic(c)
    if args.json:
        payload = {
            "n": args.n,
            "degrees": list(args.degrees),
            "csm": c.to_strings(),
            "segre_singular": s.to_strings(),
            "euler": euler,
        }
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(
            f"normal-crossings arrangement of degrees {list(args.degrees)} in P^{args.n}"
        )
        _print_class("c_SM(X)", c)
        _print_class("s(Y)", s)
        print(f"euler characteristic: {euler}")
    return 0


def _cmd_verify(args) -> int:
    policy = _policy_from_args(args)
    if args.fixtures:
        fixtures = oracles.load_fixtures(args.fixtures)
    else:
        fixtures = oracles.default_fixtures()
    if not fixtures:
        print("warning: empty fixture corpus, nothing to verify")
        return 0
    any_failure = False
    rows = []
    for fix in fixtures:
        report = charclasses.build_report(fix.parse(), policy=policy)
        verdicts = oracles.check_fixture(fix, report.to_json_dict())
        identity_ok = report.all_passed
        expected_ok = all(ok for _, ok in verdicts)
        if fix.milnor_oracle is not None:
            got = oracles.affine_milnor_total(fix.parse(), fix.chart, policy.primes)
            verdicts.append(("milnor_affine_oracle", got == fix.milnor_oracle))
            expected_ok = expected_ok and got == fix.milnor_oracle
        ok = identity_ok and expected_ok
        any_failure = any_failure or not ok
        rows.append((fix.name, ok, verdicts, report))
    if args.json:
        payload = [
            {
                "name": name,
                "pass": ok,
                "checks": [{"name": k, "pass": v} for k, v in verdicts],
            }
            for name, ok, verdicts, _ in rows
        ]
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        width = max(len(name) for name, *_ in rows)
        for name, ok, verdicts, report in rows:
            failed = [k for k, v in verdicts if not v]
            failed += [v.name for v in report.verification if not v.ok]
            detail = "" if ok else f"  failing: {', '.join(failed)}"
            print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}{detail}")
    return 3 if any_failure else 0


def _cmd_oracle(args) -> int:
    if args.which == "smooth":
        c = oracles.smooth_chern_class(args.n, args.d)
        print(f"c(TX)[X] for a smooth degree-{args.d} hypersurface in P^{args.n}:")
        _print_class("class", c)
        print(f"euler characteristic: {charclasses.euler_characteristic(c)}")
    elif args.which == "linear":
        c = oracles.segre_linear_subspace(args.n, args.m)
        print(f"s(P^{args.m}, P^{args.n}):")
        _print_class("class", c)
    else:  # milnor
        poly = parse_poly(args.poly, args.nvars)
        chart = args.chart if args.chart is not None else args.nvars - 1
        value = oracles.affine_milnor_total(poly, chart)
        print("non-isolated" if value is None else value)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csmhyp",
        description=(
            "Characteristic classes of singular hypersurfaces in projective "
            "space, from a defining homogeneous polynomial."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_randomness(p):
        p.add_argument(
            "--prime", type=int, action="append",
            help="working prime (repeatable; default 32003, 65537)",
        )
        p.add_argument(
            "--seed", type=int, action="append",
            help="trial seed (repeatable; default from CSMHYP_SEED)",
        )

    p_compute = sub.add_parser("compute", help="full class report for one polynomial")
    p_compute.add_argument("poly", help="homogeneous polynomial in x0..x{nvars-1}")
    p_compute.add_argument("--nvars", type=int, required=True)
    p_compute.add_argument("--json", action="store_true")
    p_compute.add_argument(
        "--verify", action="store_true",
        help="also run the affine Milnor oracle cross-check",
    )
    p_compute.add_argument(
        "--chart", type=int, default=None,
        help="affine chart for the Milnor oracle (default: last variable)",
    )
    add_randomness(p_compute)
    p_compute.set_defaults(func=_cmd_compute)

    p_nc = sub.add_parser(
        "nc", help="closed-form classes of a normal-crossings arrangement"
    )
    p_nc.add_argument("--n", type=int, required=True, help="ambient dimension")
    p_nc.add_argument("degrees", type=int, nargs="+")
    p_nc.add_argument("--json", action="store_true")
    p_nc.set_defaults(func=_cmd_nc)

    p_verify = sub.add_parser("verify", help="run the fixture verification suite")
    p_verify.add_argument(
        "fixtures", nargs="?", default=None,
        help="path to a JSON fixture corpus (default: built-in)",
    )
    p_verify.add_argument("--json", action="store_true")
    add_randomness(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="closed-form baselines")
    oracle_sub = p_oracle.add_subparsers(dest="which", required=True)
    p_smooth = oracle_sub.add_parser("smooth", help="Chern class of a smooth hypersurface")
    p_smooth.add_argument("--n", type=int, required=True)
    p_smooth.add_argument("--d", type=int, required=True)
    p_linear = oracle_sub.add_parser("linear", help="Segre class of a linear subspace")
    p_linear.add_argument("--n", type=int, required=True)
    p_linear.add_argument("--m", type=int, required=True)
    p_milnor = oracle_sub.add_parser("milnor", help="affine Jacobian-colength Milnor count")
    p_milnor.add_argument("poly")
    p_milnor.add_argument("--nvars", type=int, required=True)
    p_milnor.add_argument("--chart", type=int, default=None)
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolynomialParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RandomnessError as exc:
        print(f"randomness exhausted: {exc}", file=sys.stderr)
        if exc.trials:
            print(json.dumps(exc.trials), file=sys.stderr)
        return 4
    except CsmhypError as exc:
        # a broken internal identity: the result cannot be trusted
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
