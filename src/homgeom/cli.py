"""Command-line interface.

Exit codes: 0 all checks pass, 1 violation or witness found, 2 invalid
input or a certificate gap.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import types

from .exact_arith import _jsonable
from .parameters import (
    Condition,
    ModelScopeError,
    ParamSystem,
    classify_condition,
    condition_alphas,
    require_hypothesis_line_size,
    s2_from,
)
from .localization import point_localize
from .geometries import (
    UnsupportedFieldError,
    alpha_from_profile,
    build_affine,
    build_projective,
    flat_profile,
    localize_at_point,
)


def _lazy(name: str) -> types.ModuleType:
    """The module homgeom.<name>, whose code runs on its first attribute access.

    This is importlib's LazyLoader recipe: the module object goes into
    sys.modules and onto the package at once, so a command that never
    touches the module never executes it.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# No command calls bounds or obstructions directly; registering them too puts
# every module of the package in sys.modules once the CLI is imported, where
# tools that wrap functions by module name (perfbench/tracer.py) find them.
_lazy("bounds")
_lazy("obstructions")
pipeline = _lazy("pipeline")
verify = _lazy("verify")


def _print_json(payload) -> None:
    print(json.dumps(_jsonable(payload), indent=2))


def _cmd_verify_all(args) -> int:
    # Checked up front so that a bad size, check name or --json path fails
    # before any check runs.  s1 = 3 with driver 3 is the smallest threshold
    # grid holding a system on both routes.
    for flag, value, least in (
        ("--sieve-limit", args.sieve_limit, 0),
        ("--s1-max", args.s1_max, 3),
        ("--alpha-max", args.alpha_max, 0),
        ("--grid-s1-max", args.grid_s1_max, 3),
        ("--driver-max", args.driver_max, 3),
    ):
        if value < least:
            print(f"invalid input: {flag} must be at least {least}", file=sys.stderr)
            return 2
    only = None if args.only is None else args.only.split(",")
    try:
        verify.select_checks(only)
    except ValueError as exc:
        print(f"invalid input: --only: {exc}", file=sys.stderr)
        return 2
    if args.json:
        # Append mode tests the path without truncating an existing report.
        try:
            open(args.json, "a").close()
        except OSError as exc:
            print(f"invalid input: --json: {exc}", file=sys.stderr)
            return 2
    report = verify.verify_all(
        only=only,
        sieve_limit=args.sieve_limit,
        s1_max=args.s1_max,
        alpha_max=args.alpha_max,
        grid_s1_max=args.grid_s1_max,
        driver_max=args.driver_max,
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
        dim = pipeline.required_dimension() if args.dim is None else args.dim
        ps = ParamSystem(args.s1, args.alpha, args.alpha_prime, dim)
        verdict = pipeline.eliminate(ps)
    except ModelScopeError as exc:
        _print_json({"verdict": pipeline.Verdict.OUT_OF_MODELED_SCOPE.value, "error": str(exc)})
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    _print_json(verdict.to_record())
    return 1 if verdict.verdict is pipeline.Verdict.SURVIVES_SQUARE_TEST else 0


def _cmd_localize(args) -> int:
    try:
        ps = ParamSystem(args.s1, args.alpha, args.alpha_prime, dim=pipeline.required_dimension())
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

    p = sub.add_parser("verify-all", help="run every check, or those named, and report")
    p.add_argument("--only", metavar="NAME[,NAME]", help="run only these checks")
    p.add_argument("--sieve-limit", type=int, default=10**6)
    p.add_argument("--s1-max", type=int, default=100)
    p.add_argument("--alpha-max", type=int, default=10**4)
    p.add_argument("--grid-s1-max", type=int, default=50, help="threshold grids' s1 bound")
    p.add_argument("--driver-max", type=int, default=2500, help="threshold grids' driver bound")
    p.add_argument("--json", metavar="PATH", help="write the JSON report here")
    p.set_defaults(func=_cmd_verify_all)

    p = sub.add_parser("check-params", help="classify or eliminate one parameter system")
    p.add_argument("--s1", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--alpha-prime", type=int, default=0)
    p.add_argument("--dim", type=int)
    p.set_defaults(func=_cmd_check_params)

    p = sub.add_parser("localize", help="point-localization data for a parameter system")
    p.add_argument("--s1", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--alpha-prime", type=int, default=0)
    p.set_defaults(func=_cmd_localize)

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
