"""Command-line interface.

Exit codes: 0 all checks pass, 1 violation or witness found, 2 invalid
input or a certificate gap.
"""

from __future__ import annotations

import argparse
import json
import sys

from .parameters import (
    Condition,
    ModelScopeError,
    ParamSystem,
    classify_condition,
    condition_alphas,
    require_hypothesis_line_size,
    s2_from,
)
from .localization import CASE_MIN_ARG, CaseLabel, point_localize
from .obstructions import catalog, certify_no_square, sieve, verify_identity
from .geometries import (
    UnsupportedFieldError,
    alpha_from_profile,
    build_affine,
    build_projective,
    flat_profile,
    localize_at_point,
)
from .pipeline import Report, Verdict, _jsonable, eliminate, required_dimension, search
from .verify import check_threshold_grid, verify_all

def _print_json(payload) -> None:
    print(json.dumps(_jsonable(payload), indent=2))


def _cmd_verify_all(args) -> int:
    # Checked up front so that a bad size or --json path fails before any
    # check runs.
    for flag, value, least in (
        ("--sieve-limit", args.sieve_limit, 0),
        ("--s1-max", args.s1_max, 3),
        ("--alpha-max", args.alpha_max, 0),
    ):
        if value < least:
            print(f"invalid input: {flag} must be at least {least}", file=sys.stderr)
            return 2
    if args.json:
        # Append mode tests the path without truncating an existing report.
        try:
            open(args.json, "a").close()
        except OSError as exc:
            print(f"invalid input: --json: {exc}", file=sys.stderr)
            return 2
    report = verify_all(
        sieve_limit=args.sieve_limit, s1_max=args.s1_max, alpha_max=args.alpha_max
    )
    for check in report.checks:
        print(f"[{check.status.upper():4}] {check.name}")
    print(f"overall: {report.overall_status}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
        print(f"report written to {args.json}")
    return report.exit_code()


def _cmd_check_params(args) -> int:
    try:
        ps = ParamSystem(args.s1, args.alpha, args.alpha_prime, args.dim)
        verdict = eliminate(ps)
    except ModelScopeError as exc:
        _print_json({"verdict": Verdict.OUT_OF_MODELED_SCOPE.value, "error": str(exc)})
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    _print_json(verdict.to_record())
    return 1 if verdict.verdict is Verdict.SURVIVES_SQUARE_TEST else 0


def _cmd_localize(args) -> int:
    try:
        ps = ParamSystem(args.s1, args.alpha, args.alpha_prime, dim=required_dimension())
        require_hypothesis_line_size(ps.s1, "s1")
    except (ModelScopeError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    s1_hat = point_localize(ps.s1, ps.alpha)
    # Condition 1 is absent from forced when s1_hat is not a square.
    forced = condition_alphas(s1_hat)
    hypotheses = {
        cond.value: (
            {"alphaHat": forced[cond], "s2Hat": s2_from(s1_hat, forced[cond])}
            if cond in forced
            else None
        )
        for cond in Condition
        if cond.family
    }
    _print_json(
        {
            "input": ps.to_record(),
            "classification": sorted(c.value for c in classify_condition(ps)),
            "s1Hat": s1_hat,
            "localizedUnder": hypotheses,
        }
    )
    return 0


def _cmd_search(args) -> int:
    try:
        report = search(args.s1_max, args.alpha_max)
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    _print_json(report.to_json_dict())
    return report.exit_code()


def _cmd_thresholds(args) -> int:
    # s1 = 3 with driver 3 is the smallest grid holding a system on both routes.
    for flag, value in (("--s1-max", args.s1_max), ("--driver-max", args.driver_max)):
        if value < 3:
            print(f"invalid input: {flag} must be at least 3", file=sys.stderr)
            return 2
    report = Report()
    for route in ("alpha", "beta"):
        check_threshold_grid(report, route, args.s1_max, args.driver_max)
    _print_json({c.name: {"status": c.status, **c.details} for c in report.checks})
    return report.exit_code()


def _cmd_identities(args) -> int:
    worst = 0
    for label, obs in catalog().items():
        identity_ok = verify_identity(obs)
        cert = certify_no_square(obs)
        status = "ok" if identity_ok and cert.proved else ("gap" if identity_ok else "FAIL")
        print(
            f"case {label.value}: f = g^2 - h {'holds' if identity_ok else 'FAILS'}; "
            f"no-square certificate {cert.status.value} (t >= {obs.t_min})"
        )
        if not identity_ok:
            worst = max(worst, 1)
        elif not cert.proved:
            worst = max(worst, 2)
    return worst


def _cmd_sieve(args) -> int:
    obs = catalog()[CaseLabel(args.case)]
    if args.limit < 0:
        print("invalid input: limit must be nonnegative", file=sys.stderr)
        return 2
    found = sieve(obs, args.limit)
    survivors = [t for t in found if t >= obs.t_min]
    if args.raw:
        for t in found:
            print(t)
    else:
        _print_json(
            {
                "case": args.case,
                "limit": args.limit,
                "found": found,
                "expected": sorted(t for t in obs.known_square_args if t <= args.limit),
                "survivorsAtOrAboveTMin": survivors,
            }
        )
    return 1 if survivors else 0


def _cmd_geometry(args) -> int:
    try:
        g = (build_projective if args.type == "pg" else build_affine)(args.n, args.q)
    except (UnsupportedFieldError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    profile = flat_profile(g)
    payload = {
        "kind": str(g.kind),
        "points": len(g.points),
        "profile": list(profile.sizes),
        "alpha": alpha_from_profile(profile),
    }
    if args.localize:
        localized = localize_at_point(g, g.points[0], profile)
        payload["localizedProfile"] = list(localized.sizes)
    _print_json(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homgeom",
        description=(
            "Exact-arithmetic feasibility checks for the numerical invariants "
            "of finite homogeneous geometries."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="run every check and report")
    p.add_argument("--sieve-limit", type=int, default=10**6)
    p.add_argument("--s1-max", type=int, default=100)
    p.add_argument("--alpha-max", type=int, default=10**4)
    p.add_argument("--json", metavar="PATH", help="write the JSON report here")
    p.set_defaults(func=_cmd_verify_all)

    p = sub.add_parser("check-params", help="classify or eliminate one parameter system")
    p.add_argument("--s1", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--alpha-prime", type=int, default=0)
    p.add_argument("--dim", type=int, default=required_dimension())
    p.set_defaults(func=_cmd_check_params)

    p = sub.add_parser("localize", help="point-localization data for a parameter system")
    p.add_argument("--s1", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--alpha-prime", type=int, default=0)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("search", help="classify-or-eliminate every parameter system of a grid")
    p.add_argument("--s1-max", type=int, required=True)
    p.add_argument("--alpha-max", type=int, required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("thresholds", help="growth-threshold sweeps of both routes")
    p.add_argument("--s1-max", type=int, default=50)
    p.add_argument("--driver-max", type=int, default=2500)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("identities", help="square decompositions and certificates")
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("sieve", help="brute-force square sieve for one case")
    p.add_argument("--case", choices=sorted(c.value for c in CASE_MIN_ARG), required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--raw", action="store_true", help="stream found arguments, one per line")
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("geometry", help="build a classical geometry and print its profile")
    p.add_argument("--type", choices=["pg", "ag"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--localize", action="store_true")
    p.set_defaults(func=_cmd_geometry)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
