"""Command line front end.

Subcommands mirror the library layers: classify and scan decide pairs,
certificate shows the recipe trace, model builds a cyclic selector witness,
catalog lists small structures up to isomorphism, fraisse runs the staged
construction, and verify's own subcommands rerun the exhaustive checks
(rc24 the pair-to-four rule, claim the cycle gcd claim, goldbach the sweep).

Exit codes: 0 success, 1 a verification or search came back negative,
2 usage errors, 3 a fixed bound was exceeded.  Default output is deterministic,
and timing is opt-in, on stderr, so stdout holds one comparable document.
"""

from __future__ import annotations

import json
import sys
import time

from .certificates import build_certificate
from .decomposition import Decomposition, Reason, Verdict, classify_detailed
from .errors import BoundExceeded, InvalidPart, RamseyChoiceError
from .numtheory import verify_goldbach
from .rc24 import EQUIVARIANCE_CHECKS, ORIENTATIONS, check_equivariance, verify_rc24
from .scan import ScanReport, ScanRow, run_scan  # noqa: F401  (ScanReport, ScanRow: re-exported)
from .selector_models import (
    build_cyclic_model,
    catalog_models,
    check_one_point_extension,
    run_fraisse_stages,
    verify_equivariance,
    verify_gcd_claim,
    witness_no_invariant_choice,
)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_classify(args) -> int:
    cls_, _ = classify_detailed(args.m, args.n, oracle=args.oracle)
    if args.json:
        _print_json(cls_.to_json_obj())
        return 0
    if cls_.verdict == Verdict.PROVABLE:
        tag = "diagonal" if cls_.reason == Reason.DIAGONAL else "pair-to-four construction"
        print(f"RC_{cls_.m} => RC_{cls_.n}: provable ({tag})")
    else:
        print(f"RC_{cls_.m} => RC_{cls_.n}: not provable (blocked by {cls_.certificate})")
    return 0


def cmd_scan(args) -> int:
    report, disagreements = run_scan(args.max_m, args.max_n, oracle=args.oracle)
    checked = report.oracle_checked
    if args.csv:
        sys.stdout.write(report.to_csv())
    elif args.json:
        obj = report.to_json_obj()
        if args.oracle:
            obj["oracle"] = {"checked": checked, "agree": checked - len(disagreements)}
        _print_json(obj)
    else:
        for line in report.summary_lines():
            print(line)
        if args.oracle:
            print(f"oracle agreement: {checked - len(disagreements)}/{checked}")
    for m, n, msg in disagreements:
        print(f"oracle disagreement at ({m},{n}): {msg}", file=sys.stderr)
    return 1 if disagreements else 0


def cmd_certificate(args) -> int:
    trace = build_certificate(args.m, args.n)
    if args.json:
        _print_json(trace.to_json_obj())
        return 0
    print(
        f"RC_{trace.m} => RC_{trace.n}: blocked by {trace.decomposition} "
        f"({trace.recipe.value})"
    )
    for line in trace.narrative:
        print(f"  - {line}")
    return 0


def cmd_model(args) -> int:
    d = Decomposition(args.parts)
    c = build_cyclic_model(args.m, args.S, d)
    ok_eq, counter = verify_equivariance(c)
    ok_free = witness_no_invariant_choice(c, d.total)
    if args.json:
        obj = {
            "m": args.m,
            "S_size": args.S,
            "parts": list(d.parts),
            "domain": len(c.model.domain),
            "fixed": list(c.fixed),
            "cycles": [list(cyc) for cyc in c.cycles],
            "sel": [
                {"subset": list(P), "choice": c.model.sel[P]}
                for P in sorted(c.model.sel)
            ],
            "equivariant": ok_eq,
            "fixed_point_free": ok_free,
        }
        _print_json(obj)
    else:
        print(c.dump())
        print("equivariance: " + ("ok" if ok_eq else f"FAIL at {counter}"))
        print(
            "fixed-point-free region: "
            + ("ok" if ok_free else "FAIL")
            + f" ({d.total} atoms)"
        )
    return 0 if ok_eq and ok_free else 1


def cmd_catalog(args) -> int:
    models = catalog_models(args.m, args.k)
    subsets = sorted(models[0].sel) if models and models[0].sel else []
    if args.json:
        obj = {
            "m": args.m,
            "k": args.k,
            "classes": len(models),
            "subsets": [list(s) for s in subsets],
            "tables": [[mod.sel[s] for s in subsets] for mod in models],
        }
        _print_json(obj)
        return 0
    print(f"catalog m={args.m} k={args.k}: {len(models)} classes")
    for i, mod in enumerate(models):
        cells = " ".join(
            "{%s}->%d" % (",".join(map(str, s)), mod.sel[s]) for s in subsets
        )
        print(f"class {i}:" + (f" {cells}" if cells else " (no m-subsets)"))
    return 0


def cmd_fraisse(args) -> int:
    chain = run_fraisse_stages(args.m, args.stages, ground_limit=args.ground_limit)
    complete = None
    missing = []
    if args.check is not None:
        complete, missing = check_one_point_extension(chain[-1], args.m, args.check)
    if args.json:
        obj = {
            "m": args.m,
            "stages": args.stages,
            "sizes": [len(mod.domain) for mod in chain],
        }
        if args.check is not None:
            obj["check_k"] = args.check
            obj["complete"] = complete
            obj["missing"] = len(missing)
        _print_json(obj)
    else:
        for i, mod in enumerate(chain):
            print(f"stage {i}: {len(mod.domain)} atoms")
        if args.check is not None:
            state = "complete" if complete else f"missing {len(missing)}"
            print(f"one-point extensions up to k={args.check}: {state}")
    if args.check is not None and not complete:
        return 1
    return 0


def cmd_verify_rc24(args) -> int:
    ok, census = verify_rc24()
    eq_ok, counter = check_equivariance()
    if args.json:
        _print_json(
            {
                "ok": ok and eq_ok,
                "census": census,
                "equivariance_ok": eq_ok,
                "equivariance_checks": EQUIVARIANCE_CHECKS,
            }
        )
    else:
        print(f"orientations: {census['total']}/{ORIENTATIONS} " + ("ok" if ok else "FAIL"))
        print(
            "cases: singleton=%d pair=%d triple=%d"
            % (
                census["case_singleton_min"],
                census["case_pair_min"],
                census["case_triple_min"],
            )
        )
        print(
            f"equivariance: ok ({EQUIVARIANCE_CHECKS} checks)"
            if eq_ok
            else f"equivariance: FAIL at {counter}"
        )
    return 0 if ok and eq_ok else 1


def cmd_verify_claim(args) -> int:
    ok, log = verify_gcd_claim(args.qmax)
    total = sum(entry["invariant_proper_subsets"] for entry in log.values())
    if args.json:
        _print_json(
            {
                "q_max": args.qmax,
                "ok": ok,
                "per_q": [
                    {"q": q, **entry} for q, entry in sorted(log.items())
                ],
            }
        )
    else:
        print(f"cycle lengths 2..{args.qmax}: " + ("ok" if ok else "FAIL"))
        print(f"invariant subsets checked: {total}")
    return 0 if ok else 1


def cmd_verify_goldbach(args) -> int:
    checked, failures = verify_goldbach(args.max)
    ok = not failures
    if args.json:
        _print_json(
            {"max": args.max, "checked": checked, "ok": ok, "failures": failures}
        )
    else:
        state = "all admit a prime triple" if ok else f"failures: {failures}"
        print(f"odd targets 7..{args.max}: {state} ({checked} checked)")
    return 0 if ok else 1


def _add_common(sub, func, *, csv_flag=False, oracle=False):
    """The flags every subcommand shares, and func, which main dispatches to."""
    sub.set_defaults(func=func, parser=sub)  # main reports unknown arguments through sub
    formats = sub.add_mutually_exclusive_group()  # stdout holds one document
    formats.add_argument("--json", action="store_true", help="machine readable output")
    if csv_flag:
        formats.add_argument("--csv", action="store_true", help="CSV table output")
    if oracle:
        sub.add_argument("--oracle", action="store_true",
                         help="cross-check against the oracle's column table")
    sub.add_argument("--timing", action="store_true", help="print elapsed time on stderr")


def build_parser():
    """The argument parser; argparse is imported here, so importing this module skips it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ramseychoice",
        description="Exact search and verification for Ramsey choice implications.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="decide one implication pair")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    _add_common(p, cmd_classify, oracle=True)

    p = subs.add_parser("scan", help="classify a whole grid of pairs")
    p.add_argument("max_m", type=int)
    p.add_argument("max_n", type=int)
    _add_common(p, cmd_scan, csv_flag=True, oracle=True)

    p = subs.add_parser("certificate", help="blocking certificate with its recipe trace")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    _add_common(p, cmd_certificate)

    p = subs.add_parser("model", help="cyclic selector model for a decomposition")
    p.add_argument("m", type=int)
    p.add_argument("S", type=int, help="number of pointwise-fixed atoms")
    p.add_argument("parts", type=int, nargs="+", help="cycle lengths, each >= 2")
    _add_common(p, cmd_model)

    p = subs.add_parser("catalog", help="selector structures up to isomorphism")
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    _add_common(p, cmd_catalog)

    p = subs.add_parser("fraisse", help="staged homogeneous construction")
    p.add_argument("m", type=int)
    p.add_argument("stages", type=int)
    p.add_argument("--check", type=int, default=None, metavar="K",
                   help="verify one-point extensions for substructures below K")
    p.add_argument("--ground-limit", type=int, default=None)
    _add_common(p, cmd_fraisse)

    verify = subs.add_parser("verify", help="rerun an exhaustive verification")
    targets = verify.add_subparsers(dest="target", required=True)
    p = targets.add_parser("rc24", help="the pair-to-four rule on every orientation")
    _add_common(p, cmd_verify_rc24)

    p = targets.add_parser("claim", help="the cycle gcd claim")
    p.add_argument("--qmax", type=int, default=12, help="cycle length cap")
    _add_common(p, cmd_verify_claim)

    p = targets.add_parser("goldbach", help="a prime triple for every odd target")
    p.add_argument("--max", type=int, default=1001, help="largest odd target")
    _add_common(p, cmd_verify_goldbach)

    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # reported with the usage of the subcommand that was parsed
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    start = time.perf_counter()
    try:
        return args.func(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidPart, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RamseyChoiceError as exc:  # a negative result: a provable pair, n = 1, a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:  # every exit is timed, also one through an exception
        if args.timing:  # on stderr, so stdout holds the result alone
            print(f"elapsed: {time.perf_counter() - start:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
