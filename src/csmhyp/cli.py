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
import sys

from . import charclasses, oracles
from .chow import ChowClass
from .errors import CsmhypError, PolynomialParseError, RandomnessError
from .poly import parse_poly
from .segre import TrialPolicy

_LEGEND = [
    ("s(Y)", "Segre class of the singular scheme, pushed to the Chow ring of P^n"),
    ("c_SM(X)", "Chern-Schwartz-MacPherson class: c(TM)(s(X) + c(L)^-1 (s(Y)^v (x) L))"),
    ("c_F(X)", "Fulton (virtual tangent bundle) class: c(TM) s(X)"),
    ("mu(Y)", "mu-class c(T*M (x) L) s(Y); its degree is the total Milnor number"),
    ("milnor_affine_oracle", "deg mu = Milnor count in a generic affine chart (--verify)"),
]


def _policy_from_args(args) -> TrialPolicy:
    given = {"primes": args.prime, "seeds": args.seed}
    return TrialPolicy(**{key: tuple(v) for key, v in given.items() if v})


def _print_class(label: str, c: ChowClass) -> None:
    print(f"  {label:<10} = {c.to_h_string():<28} | {c.to_bracket_string()}")


def _render_report(report) -> None:
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
    if report.verification:
        print("verification:")
        for v in report.verification:
            print(f"  [{'pass' if v.ok else 'FAIL'}] {v.name}")
    print("legend:")
    for key, text in _LEGEND:
        print(f"  {key:<28} {text}")


def _cmd_compute(args) -> int:
    policy = _policy_from_args(args)
    poly = parse_poly(args.poly, args.nvars)
    report = charclasses.build_report(poly, policy=policy)
    oracle_note = None
    if args.verify:
        milnor = oracles.affine_milnor_total(poly, policy.primes)
        if milnor is None:
            oracle_note = "affine Milnor oracle: non-isolated singular locus, skipped"
        else:
            verdict = charclasses.Verification(
                "milnor_affine_oracle", milnor == report.milnor_total
            )
            report = dataclasses.replace(report, verification=(verdict,))
    if args.json:
        print(report.to_json())
    else:
        _render_report(report)
    if oracle_note:  # kept off stdout in --json mode, which holds only the report
        print(oracle_note, file=sys.stderr if args.json else sys.stdout)
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
    fixtures = oracles.load_fixtures(args.fixtures)
    if not fixtures:  # in --json mode stdout holds only the empty list
        print(
            "warning: empty fixture corpus, nothing to verify",
            file=sys.stderr if args.json else sys.stdout,
        )
    rows = []
    for fix in fixtures:
        poly = fix.parse()
        report = charclasses.build_report(poly, policy=policy)
        checks = oracles.check_fixture(fix, report.to_json_dict())
        if fix.milnor_oracle is not None:
            got = oracles.affine_milnor_total(poly, policy.primes)
            ok = got == fix.milnor_oracle
            checks.append(charclasses.Verification("milnor_affine_oracle", ok))
        failed = [v.name for v in checks if not v.ok]
        rows.append((fix.name, checks, failed))
    if args.json:
        payload = [
            {
                "name": name,
                "pass": not failed,
                "checks": [v.to_json() for v in checks],
            }
            for name, checks, failed in rows
        ]
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        width = max((len(name) for name, *_ in rows), default=0)
        for name, _, failed in rows:
            detail = f"  failing: {', '.join(failed)}" if failed else ""
            print(f"{name:<{width}}  {'FAIL' if failed else 'pass'}{detail}")
    return 3 if any(failed for *_, failed in rows) else 0


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
        value = oracles.affine_milnor_total(poly)
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
        for flag, what, default in (
            ("--prime", "working prime", TrialPolicy.primes),
            ("--seed", "trial seed", TrialPolicy.seeds),
        ):
            p.add_argument(
                flag, type=int, action="append",
                help=f"{what} (repeatable; default {', '.join(map(str, default))})",
            )

    p_compute = sub.add_parser("compute", help="full class report for one polynomial")
    p_compute.add_argument("poly", help="homogeneous polynomial in x0..x{nvars-1}")
    p_compute.add_argument("--nvars", type=int, required=True)
    p_compute.add_argument("--json", action="store_true")
    p_compute.add_argument(
        "--verify", action="store_true",
        help="also run the affine Milnor oracle cross-check",
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
        "fixtures", nargs="?", default=oracles.FIXTURES,
        help="path to a JSON fixture corpus (default: the built-in corpus,"
        " csmhyp/fixtures.json in the installed package)",
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
    p_milnor = oracle_sub.add_parser(
        "milnor", help="total Milnor number counted in a generic affine chart"
    )
    p_milnor.add_argument("poly")
    p_milnor.add_argument("--nvars", type=int, required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PolynomialParseError, ValueError, OSError) as exc:
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
