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

from . import _jsonable


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


# Every module loads lazily, so a command executes only the modules it runs:
# `geometry` runs geometries alone, without the arithmetic layer, `localize`
# runs neither geometries nor pipeline, and `check-params` never runs
# geometries.  No command
# calls exact_arith, bounds or obstructions directly; registering them too
# puts every module of the package in sys.modules once the CLI is imported,
# where tools that wrap functions by module name (perfbench/tracer.py) find
# them.
_lazy("exact_arith")
_lazy("bounds")
_lazy("obstructions")
geometries = _lazy("geometries")
parameters = _lazy("parameters")
localization = _lazy("localization")
pipeline = _lazy("pipeline")
verify = _lazy("verify")


def _print_json(payload) -> None:
    print(json.dumps(_jsonable(payload), indent=2))


# verify-all's size flags: the least value each takes and its help.  A flag
# that is not given is not passed on, so verify_all's signature holds the
# one copy of the default sizes.  s1 = 3 with driver 3 is the smallest
# threshold grid holding a system on both routes.
_SIZE_FLAGS = (
    ("--sieve-limit", 0, None),
    ("--s1-max", 3, None),
    ("--alpha-max", 0, None),
    ("--grid-s1-max", 3, "threshold grids' s1 bound"),
    ("--driver-max", 3, "threshold grids' driver bound"),
)


def _cmd_verify_all(args) -> int:
    # Checked up front so that a bad size, check name or --json path fails
    # before any check runs.
    sizes = {}
    for flag, least, _ in _SIZE_FLAGS:
        key = flag[2:].replace("-", "_")
        if key in vars(args):
            sizes[key] = getattr(args, key)
            if sizes[key] < least:
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
    report = verify.verify_all(only=only, **sizes)
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
        dim = parameters.required_dimension() if args.dim is None else args.dim
        ps = parameters.ParamSystem(args.s1, args.alpha, args.alpha_prime, dim)
        verdict = pipeline.eliminate(ps)
    except parameters.ModelScopeError as exc:
        _print_json({"verdict": pipeline.Verdict.OUT_OF_MODELED_SCOPE.value, "error": str(exc)})
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    _print_json(verdict.to_record())
    return 1 if verdict.verdict is pipeline.Verdict.SURVIVES_SQUARE_TEST else 0


def _cmd_localize(args) -> int:
    try:
        ps = parameters.ParamSystem(
            args.s1, args.alpha, args.alpha_prime, dim=parameters.required_dimension()
        )
        parameters.require_hypothesis_line_size(ps.s1, "s1")
    except (parameters.ModelScopeError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    s1_hat = localization.point_localize(ps.s1, ps.alpha)
    # Condition 1 is absent from forced when s1_hat is not a square.
    forced = parameters.condition_alphas(s1_hat)
    hypotheses = {
        cond.value: (
            {"alphaHat": forced[cond], "s2Hat": parameters.s2_from(s1_hat, forced[cond])}
            if cond in forced
            else None
        )
        for cond in parameters.EXCEPTIONAL
    }
    labels = [c.value for c in parameters.classify_condition(ps)]
    if parameters.is_classical_shape(ps):
        labels.append("ClassicalCompatible")
    _print_json(
        {
            "input": ps.to_record(),
            "classification": sorted(labels or ["NoneApplies"]),
            "s1Hat": s1_hat,
            "localizedUnder": hypotheses,
        }
    )
    return 0


def _cmd_geometry(args) -> int:
    build = geometries.build_projective if args.type == "pg" else geometries.build_affine
    try:
        g = build(args.n, args.q)
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    profile = geometries.flat_profile(g)
    payload = {
        "kind": str(g.kind),
        "points": len(g.points),
        "profile": list(profile.sizes),
        "alpha": geometries.alpha_from_profile(profile),
    }
    if args.localize:
        localized = geometries.localize_at_point(g, g.points[0], profile)
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
    for flag, _, help_text in _SIZE_FLAGS:
        p.add_argument(flag, type=int, default=argparse.SUPPRESS, help=help_text)
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
