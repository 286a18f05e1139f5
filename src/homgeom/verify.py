"""The full verification run: every machine-checkable claim, one report row each.

This is the CLI's verify-all backend.  CHECKS is the one list of checks, and
verify-all --only runs any subset of it.  Each check is independent, runs in
exact arithmetic, and lands in the report as pass, fail, or (for an
impossibility certificate that could not be completed) gap.  A gap is
reported honestly rather than patched over: the sieve evidence still stands,
but the run's exit status signals that a certificate is missing.
"""

from __future__ import annotations

import time
from collections.abc import Collection
from functools import partial

from .exact_arith import UniPoly
from .parameters import Condition, FlatProfile, condition_alpha
from .bounds import (
    alpha_cap_terms,
    alpha_route_sweep,
    beta_route_sweep,
    first_r_exceeding,
    phi_of,
    spectral_identities,
)
from .localization import FORBIDDEN_PAIRS, CaseLabel
from .obstructions import (
    SquareObstruction,
    catalog,
    certify_no_square,
    factor_equation,
    sieve,
    verify_identity,
)
from .geometries import (
    alpha_from_profile,
    build_affine,
    build_projective,
    check_closure_axioms,
    flat_profile,
    localize_at_point,
)
from .pipeline import (
    ALPHA_ROUTE_MAX_R,
    BETA_ROUTE_MAX_R,
    LOCALIZATION_CHAIN_DEPTH,
    STANDARD_FORBIDDEN,
    Report,
    exceptional_min_dim,
    longest_condition_chain,
    required_dimension,
    search,
)

# The displayed factor pairs (A, 4h) for the three sextic cases, pinned as
# regression anchors for factor_equation.
EXPECTED_FACTOR_PAIRS = {
    CaseLabel.C: (UniPoly([0, -1, 0, 2]), UniPoly([-4, 0, 1])),
    CaseLabel.E: (UniPoly([-1, 1, 2, 2]), UniPoly([1, 6, 5])),
    CaseLabel.F: (UniPoly([-1, 2, 2, 2]), UniPoly([9, 8, 4])),
}


Catalog = dict[CaseLabel, SquareObstruction]


def _check_decompositions(report: Report, cat: Catalog) -> None:
    bad = [obs.label.value for obs in cat.values() if not verify_identity(obs)]
    factor_ok = all(
        factor_equation(cat[label]) == expected
        for label, expected in EXPECTED_FACTOR_PAIRS.items()
    )
    ok = not bad and factor_ok
    report.add(
        "square-decompositions",
        "pass" if ok else "fail",
        details={"casesChecked": sorted(o.value for o in cat), "failed": bad,
                 "factorPairsReproduced": factor_ok},
    )


def _check_certificates(report: Report, cat: Catalog) -> None:
    results = {}
    gaps = []
    for label, obs in cat.items():
        cert = certify_no_square(obs)
        results[label.value] = {
            "status": cert.status.value,
            "tMin": cert.t_min,
            "nonzeroSide": cert.nonzero_side,
        }
        if not cert.proved:
            gaps.append(label.value)
    report.add(
        "no-square-certificates",
        "gap" if gaps else "pass",
        details={"certificates": results, "gaps": gaps},
    )


def _check_sieve(report: Report, cat: Catalog, sieve_limit: int) -> None:
    results = {}
    ok = True
    for label, obs in cat.items():
        found = sieve(obs, sieve_limit)
        in_range = [t for t in found if t >= obs.t_min]
        expected = sorted(t for t in obs.known_square_args if t <= sieve_limit)
        ok = ok and found == expected and not in_range
        results[label.value] = {
            "found": found,
            "expected": expected,
            "survivorsAtOrAboveTMin": in_range,
        }
    report.add(
        "square-sieve",
        "pass" if ok else "fail",
        details={"limit": sieve_limit, "cases": results},
    )


def _check_threshold_grid(report: Report, route: str, grid_s1_max: int, driver_max: int) -> None:
    """Sweep one route ("alpha" or "beta") and add its growth-threshold check."""
    if route == "alpha":
        sweep, bound = alpha_route_sweep(grid_s1_max, driver_max), ALPHA_ROUTE_MAX_R + 1
    else:
        sweep, bound = beta_route_sweep(grid_s1_max, driver_max), BETA_ROUTE_MAX_R + 1
    ok = sweep.max_first_r <= bound and sweep.internal_steps_ok
    report.add(
        f"growth-threshold-{route}-route",
        "pass" if ok else "fail",
        details={
            "grid": {"s1Max": grid_s1_max, f"{route}Max": driver_max},
            "systemsChecked": sweep.systems_checked,
            "maxFirstRExceeding": sweep.max_first_r,
            "bound": bound,
            "internalStepsOk": sweep.internal_steps_ok,
            "worst": sweep.worst.to_record() if sweep.worst else None,
        },
    )


def _check_spectral_identities(report: Report) -> None:
    identities = spectral_identities()
    # Condition-2 parameters collapse the cap to exactly 1, as an identity in
    # s1: D = 0 gives core = 0, so the numerator -phi = 4*alpha*s1 is the
    # denominator.
    s1 = UniPoly.x()
    alpha = condition_alpha(Condition.COND2, s1)
    num, den = alpha_cap_terms(s1, alpha, phi_of(s1, alpha))
    cond2_cap_is_one = num == den
    ok = all(identities.values()) and cond2_cap_is_one
    report.add(
        "spectral-identities",
        "pass" if ok else "fail",
        details={"polynomialIdentities": identities, "cond2CapIsOne": cond2_cap_is_one},
    )


def _check_automaton(report: Report) -> None:
    longest = longest_condition_chain(STANDARD_FORBIDDEN)
    mutations = {}
    for pair in sorted(STANDARD_FORBIDDEN):
        mutated = longest_condition_chain(STANDARD_FORBIDDEN - {pair})
        mutations[str(pair)] = "cycle" if mutated == float("inf") else mutated
    sensitive = all(
        m == "cycle" or (isinstance(m, int) and m >= LOCALIZATION_CHAIN_DEPTH)
        for m in mutations.values()
    )
    ok = longest == 2 and sensitive
    # Each forbidden pair's case letter; "b" stands for both sign variants.
    letters = {
        (outer.family, target): case.value[0] for (outer, target), case in FORBIDDEN_PAIRS.items()
    }
    report.add(
        "condition-chain-automaton",
        "pass" if ok else "fail",
        details={
            "longestAllowedChain": longest,
            "requiredTransitions": LOCALIZATION_CHAIN_DEPTH,
            "forbiddenEdges": {str(pair): letters[pair] for pair in sorted(letters)},
            "singleEdgeRestorations": mutations,
        },
    )


def _check_dimension_threshold(report: Report) -> None:
    base = exceptional_min_dim()
    total = required_dimension()
    recomputed = required_dimension(alpha_route_max_r=16)
    ok = base == 20 and total == 23 and recomputed == 20
    report.add(
        "dimension-threshold",
        "pass" if ok else "fail",
        details={
            "exceptionalMinDim": base,
            "requiredDimension": total,
            "localizationChainDepth": total - base,
            "recomputedWithAlphaRoute16": recomputed,
        },
    )


def _check_search(report: Report, s1_max: int, alpha_max: int) -> None:
    report.checks.extend(search(s1_max, alpha_max).checks)


def _check_ground_truth(report: Report) -> None:
    instances = [
        ("pg", build_projective, 2, 2),
        ("pg", build_projective, 3, 2),
        ("pg", build_projective, 2, 3),
        ("ag", build_affine, 2, 2),
        ("ag", build_affine, 2, 3),
        ("ag", build_affine, 3, 3),
    ]
    details = {}
    ok = True
    for tag, builder, n, p in instances:
        g = builder(n, p)
        profile = flat_profile(g)
        alpha = alpha_from_profile(profile)
        if tag == "pg":
            expected = tuple((p ** (i + 1) - 1) // (p - 1) for i in range(n + 1))
            expected_alpha = 0
        else:
            expected = tuple(p**i for i in range(n + 1))
            expected_alpha = 1
        axioms = check_closure_axioms(g, samples=40)
        localized = localize_at_point(g, g.points[0], profile)
        quotient_expected = FlatProfile(
            tuple((profile.s(i + 1) - 1) // (profile.s(1) - 1) for i in range(n))
        )
        # Every r-flat is at least as large as the growth bound at r.
        s1, s2 = profile.s(1), profile.s(2)
        growth_ok = all(
            first_r_exceeding(s1, s2, profile.s(r)) > r for r in range(3, n + 1)
        )
        entry_ok = (
            profile.sizes == expected
            and alpha == expected_alpha
            and all(axioms.values())
            and localized == quotient_expected
            and growth_ok
        )
        ok = ok and entry_ok
        details[str(g.kind)] = {
            "profile": list(profile.sizes),
            "alpha": alpha,
            "axioms": axioms,
            "localizedProfile": list(localized.sizes),
            "growthBoundOk": growth_ok,
            "ok": entry_ok,
        }
    report.add("classical-ground-truth", "pass" if ok else "fail", details=details)


# Every report check in report order: its name, the function that adds it, and
# the verify_all keywords passed to that function ("cat" is the catalog).
_GRID = ("grid_s1_max", "driver_max")
CHECKS = (
    ("square-decompositions", _check_decompositions, ("cat",)),
    ("no-square-certificates", _check_certificates, ("cat",)),
    ("square-sieve", _check_sieve, ("cat", "sieve_limit")),
    ("growth-threshold-alpha-route", partial(_check_threshold_grid, route="alpha"), _GRID),
    ("growth-threshold-beta-route", partial(_check_threshold_grid, route="beta"), _GRID),
    ("spectral-identities", _check_spectral_identities, ()),
    ("condition-chain-automaton", _check_automaton, ()),
    ("dimension-threshold", _check_dimension_threshold, ()),
    ("parameter-search", _check_search, ("s1_max", "alpha_max")),
    ("classical-ground-truth", _check_ground_truth, ()),
)


def select_checks(only: Collection[str] | None = None) -> tuple:
    """The rows of CHECKS named in only, in table order; every row for None."""
    names = [name for name, _, _ in CHECKS]
    unknown = [name for name in only or () if name not in names]
    if unknown:
        raise ValueError(f"no check is named {unknown[0]!r}; the checks are: {', '.join(names)}")
    return tuple(row for row in CHECKS if only is None or row[0] in only)


def verify_all(
    *,
    only: Collection[str] | None = None,
    sieve_limit: int = 10**6,
    s1_max: int = 100,
    alpha_max: int = 10**4,
    grid_s1_max: int = 50,
    driver_max: int = 2500,
) -> Report:
    """Run the checks named in only (all for None); each check carries its own wall time."""
    inputs = dict(cat=catalog(), sieve_limit=sieve_limit, s1_max=s1_max, alpha_max=alpha_max,
                  grid_s1_max=grid_s1_max, driver_max=driver_max)
    report = Report()
    for _, check, reads in select_checks(only):
        start = time.perf_counter()
        check(report, **{key: inputs[key] for key in reads})
        report.checks[-1].elapsed_seconds = time.perf_counter() - start
    return report
