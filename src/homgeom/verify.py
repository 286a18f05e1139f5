"""The full verification run: every machine-checkable claim, one report row each.

This is the CLI's verify-all backend.  CHECKS is the one list of checks, and
verify-all --only runs any subset of it.  Each check is independent, runs in
exact arithmetic, and lands in the report as pass, fail, or (for an
impossibility certificate that could not be completed) gap.  A gap is
reported honestly rather than patched over: the sieve evidence still stands,
but the run's exit status signals that a certificate is missing.  A check
that raises is a fail row, never a traceback.
"""

from __future__ import annotations

import time
from collections.abc import Collection
from functools import partial

from .exact_arith import UniPoly
from .parameters import (
    ALPHA_ROUTE_MAX_R,
    BETA_ROUTE_MAX_R,
    LOCALIZATION_CHAIN_DEPTH,
    Condition,
    ParamSystem,
    condition_alpha,
    exceptional_min_dim,
    required_dimension,
)
from .bounds import (
    alpha_cap_terms,
    alpha_route_sweep,
    beta_route_sweep,
    first_r_exceeding,
    phi_of,
    spectral_identities,
)
from .localization import FORBIDDEN_PAIRS, CaseLabel, point_localize
from .obstructions import (
    SquareObstruction,
    catalog,
    certify_no_square,
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
    STANDARD_FORBIDDEN,
    EliminationVerdict,
    Report,
    ReportCheck,
    Verdict,
    eliminate,
    longest_condition_chain,
    search,
)

# The displayed factor pairs (A, H) for the three sextic cases, pinned as
# regression anchors for the derived catalog.
EXPECTED_FACTOR_PAIRS = {
    CaseLabel.C: (UniPoly([0, -1, 0, 2]), UniPoly([-4, 0, 1])),
    CaseLabel.E: (UniPoly([-1, 1, 2, 2]), UniPoly([1, 6, 5])),
    CaseLabel.F: (UniPoly([-1, 2, 2, 2]), UniPoly([9, 8, 4])),
}


Catalog = dict[CaseLabel, SquareObstruction]
# A check's report row: (status, details) or (status, details, witness).
Row = tuple


def _check_decompositions(cat: Catalog) -> Row:
    bad = [obs.label.value for obs in cat.values() if not verify_identity(obs)]
    factor_ok = all(
        (cat[label].A, cat[label].H) == expected
        for label, expected in EXPECTED_FACTOR_PAIRS.items()
    )
    # Conditions 1+ and 1- map to each other under t -> -t, and the rest of
    # the path reads only s1 = t^2, so f_{b-}(x) = f_{b+}(-x).
    b_plus, b_minus = cat[CaseLabel.B_PLUS].f, cat[CaseLabel.B_MINUS].f
    sign_flip = b_minus == UniPoly(-c if i % 2 else c for i, c in enumerate(b_plus.coeffs))
    ok = not bad and factor_ok and sign_flip
    return ("pass" if ok else "fail"), {
        "casesChecked": sorted(o.value for o in cat), "failed": bad,
        "factorPairsReproduced": factor_ok, "bMinusIsBPlusAtMinusX": sign_flip,
    }


def _check_certificates(cat: Catalog) -> Row:
    results = {}
    gaps = []
    for label, obs in cat.items():
        cert = certify_no_square(obs)
        results[label.value] = {
            "status": "proved-impossible" if cert.proved else "inconclusive",
            "tMin": cert.t_min,
            "nonzeroSide": cert.nonzero_side,
        }
        if not cert.proved:
            gaps.append(label.value)
    return ("gap" if gaps else "pass"), {"certificates": results, "gaps": gaps}


# The sieve's control beyond the first block: 2x^2 + 1 = y^2 is Pell's
# equation, whose solutions x = 0, 2, 12, 70, ... follow x' = 6x - x_prev,
# with no square test; up to 10^6 they reach the sieve's eighth block.
PELL_CONTROL = UniPoly([1, 0, 2])


def _check_sieve(cat: Catalog, sieve_limit: int) -> Row:
    """Sieve each case, and PELL_CONTROL, up to the limit.

    A case whose range [t_min, limit] holds no argument was not sieved at
    all, so the row is a gap.
    """
    results = {}
    ok = True
    for label, obs in cat.items():
        found = sieve(obs.f, sieve_limit)
        in_range = [t for t in found if t >= obs.t_min]
        expected = sorted(t for t in obs.known_square_args if t <= sieve_limit)
        ok = ok and found == expected and not in_range
        results[label.value] = {
            "found": found,
            "expected": expected,
            "survivorsAtOrAboveTMin": in_range,
        }
    pell, x, x_next = [], 0, 2
    while x <= sieve_limit:
        pell.append(x)
        x, x_next = x_next, 6 * x_next - x
    control = sieve(PELL_CONTROL, sieve_limit)
    ok = ok and control == pell
    unsieved = any(sieve_limit < obs.t_min for obs in cat.values())
    return ("fail" if not ok else "gap" if unsieved else "pass"), {
        "limit": sieve_limit, "cases": results,
        "pellControl": {"found": control, "expected": pell},
    }


def _check_threshold_grid(route: str, grid_s1_max: int, driver_max: int) -> Row:
    """Sweep one route ("alpha" or "beta") against its growth threshold.

    A grid that holds no system of the route checked nothing, so it is a gap.
    """
    if route == "alpha":
        sweep, bound = alpha_route_sweep(grid_s1_max, driver_max), ALPHA_ROUTE_MAX_R + 1
    else:
        sweep, bound = beta_route_sweep(grid_s1_max, driver_max), BETA_ROUTE_MAX_R + 1
    ok = sweep.max_first_r <= bound and sweep.internal_steps_ok
    return ("gap" if sweep.systems_checked == 0 else "pass" if ok else "fail"), {
        "grid": {"s1Max": grid_s1_max, f"{route}Max": driver_max},
        "systemsChecked": sweep.systems_checked,
        "maxFirstRExceeding": sweep.max_first_r,
        "bound": bound,
        "internalStepsOk": sweep.internal_steps_ok,
        "worst": sweep.worst.to_record() if sweep.worst else None,
    }


def _check_spectral_identities() -> Row:
    identities = spectral_identities()
    # Condition-2 parameters collapse the cap to exactly 1, as an identity in
    # s1: D = 0 gives core = 0, so the numerator -phi = 4*alpha*s1 is the
    # denominator.
    s1 = UniPoly.x()
    alpha = condition_alpha(Condition.COND2, s1)
    num, den = alpha_cap_terms(s1, alpha, phi_of(s1, alpha))
    cond2_cap_is_one = num == den
    ok = all(identities.values()) and cond2_cap_is_one
    return ("pass" if ok else "fail"), {
        "polynomialIdentities": identities, "cond2CapIsOne": cond2_cap_is_one,
    }


def _check_automaton() -> Row:
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
    return ("pass" if ok else "fail"), {
        "longestAllowedChain": longest,
        "requiredTransitions": LOCALIZATION_CHAIN_DEPTH,
        "forbiddenEdges": {str(pair): letters[pair] for pair in sorted(letters)},
        "singleEdgeRestorations": mutations,
    }


def _check_dimension_threshold() -> Row:
    base = exceptional_min_dim()
    total = required_dimension()
    recomputed = required_dimension(alpha_route_max_r=16)
    ok = base == 20 and total == 23 and recomputed == 20
    return ("pass" if ok else "fail"), {
        "exceptionalMinDim": base,
        "requiredDimension": total,
        "localizationChainDepth": total - base,
        "recomputedWithAlphaRoute16": recomputed,
    }


# (s1_max, alpha_max) of the grid on which the search check runs eliminate
# on every system: it holds every condition family and every classical
# shape, s1 = 4 and 8 have square divisors other than s1, and alpha_max = 65
# is condition 3's alpha at s1 = 8, so both ends of the search's alpha
# ranges are reached.
CROSS_CHECK_GRID = (8, 65)


def _category(verdict: EliminationVerdict) -> str:
    """The search category of one verdict: the rule that decided it, or
    "condition-eliminated" for a walk that eliminated the system.  A
    survivor stays "condition", no search category, so the counts disagree."""
    walked = verdict.rule == "condition" and verdict.verdict is Verdict.ELIMINATED
    return "condition-eliminated" if walked else verdict.rule


def _check_search(s1_max: int, alpha_max: int) -> Row:
    """The search's row, guarded twice: its counts and survivors must sum to
    systemsChecked, and on CROSS_CHECK_GRID eliminate's verdicts, bucketed
    by _category, must give the search's closed-form counts.  A failed
    guard fails the row, with its two sides as the witness unless the
    search already reported survivors.

    search and eliminate are looked up when the check runs, not bound into
    CHECKS, so that a tool that rebinds them in this module
    (perfbench/tracer.py) sees the calls.
    """
    status, details, witness = search(s1_max, alpha_max)
    counted = sum(details["counts"].values()) + len(witness or ())
    if counted != details["systemsChecked"]:
        status, witness = "fail", witness or {
            "counted": counted, "systemsChecked": details["systemsChecked"],
        }
    grid_s1_max, grid_alpha_max = CROSS_CHECK_GRID
    expected = search(grid_s1_max, grid_alpha_max)[1]["counts"]
    dim = required_dimension()
    counts = dict.fromkeys(expected, 0)
    for s1 in range(3, grid_s1_max + 1):
        for alpha in range(grid_alpha_max + 1):
            for alpha_prime in (0, 1):
                category = _category(eliminate(ParamSystem(s1, alpha, alpha_prime, dim)))
                counts[category] = counts.get(category, 0) + 1
    agrees = counts == expected
    details["crossCheck"] = {
        "grid": {"s1Max": grid_s1_max, "alphaMax": grid_alpha_max},
        "counts": counts,
        "agrees": agrees,
    }
    if not agrees:
        status, witness = "fail", witness or {"eliminate": counts, "search": expected}
    return status, details, witness


def _check_ground_truth() -> Row:
    """Six small geometries; a failed row's witness maps each failing instance to its failed keys."""
    instances = [
        ("pg", build_projective, 2, 2),
        ("pg", build_projective, 3, 2),
        ("pg", build_projective, 2, 3),
        ("ag", build_affine, 2, 2),
        ("ag", build_affine, 2, 3),
        ("ag", build_affine, 3, 3),
    ]
    details, witness = {}, {}
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
        axioms = check_closure_axioms(g)
        # Raises unless each size fits the quotient identity.
        localized = localize_at_point(g, g.points[0], profile)
        # Every r-flat is at least as large as the growth bound at r.
        s1, s2 = profile.s(1), profile.s(2)
        growth_ok = all(
            first_r_exceeding(s1, s2, profile.s(r)) > r for r in range(3, n + 1)
        )
        # The localized line size is the s1_hat that point_localize predicts.
        localize_ok = point_localize(s1, alpha) == localized.s(1)
        # eliminate classifies the instance's (s1, alpha) as classical.  The
        # geometries carry no alpha', so alpha' = 0 is assumed; s1 = 2 is
        # outside the hypothesis s1 >= 3.
        if s1 >= 3:
            verdict = eliminate(ParamSystem(s1, alpha, 0, required_dimension())).verdict
            classical_ok = verdict is Verdict.CLASSICAL
            classified = {"eliminate": verdict.value, "alphaPrimeAssumed": 0}
        else:
            classical_ok = True
            classified = {"eliminateSkipped": f"s1 = {s1} is below the hypothesis s1 >= 3"}
        keys_ok = {"profile": profile.sizes == expected, "alpha": alpha == expected_alpha,
                   "axioms": all(axioms.values()), "growthBoundOk": growth_ok,
                   "pointLocalizeOk": localize_ok, "eliminate": classical_ok}
        failed = [key for key, key_ok in keys_ok.items() if not key_ok]
        if failed:
            witness[str(g.kind)] = failed
        details[str(g.kind)] = {
            "profile": list(profile.sizes),
            "alpha": alpha,
            "axioms": axioms,
            "localizedProfile": list(localized.sizes),
            "growthBoundOk": growth_ok,
            "pointLocalizeOk": localize_ok,
            **classified,
            "ok": not failed,
        }
    return ("fail" if witness else "pass"), details, witness or None


# Every report check in report order: its name, the function that returns its
# row, and the verify_all keywords passed to that function ("cat" is the catalog).
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
    """The rows of CHECKS named in only, in table order; every row for None.

    An empty only would run no check and pass vacuously, so it is refused
    like an unknown name.
    """
    names = [name for name, _, _ in CHECKS]
    if only is not None and not only:
        raise ValueError(f"the selection names no check; the checks are: {', '.join(names)}")
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
    """Run the checks named in only (all for None); each row carries its check's wall time.

    The catalog is derived once, and only when a selected check reads it.
    A check that raises, or that reads a catalog whose derivation raised,
    becomes a fail row whose witness is "<Type>: <message>"; the other
    checks still run.
    """
    selected = select_checks(only)
    inputs = dict(sieve_limit=sieve_limit, s1_max=s1_max, alpha_max=alpha_max,
                  grid_s1_max=grid_s1_max, driver_max=driver_max)
    catalog_error = None
    if any("cat" in reads for _, _, reads in selected):
        try:
            inputs["cat"] = catalog()
        except Exception as exc:
            catalog_error = exc
    report = Report()
    for name, check, reads in selected:
        start = time.perf_counter()
        try:
            if catalog_error is not None and "cat" in reads:
                raise catalog_error
            row = check(**{key: inputs[key] for key in reads})
        except Exception as exc:
            row = "fail", {}, f"{type(exc).__name__}: {exc}"
        report.checks.append(
            ReportCheck(name, *row, elapsed_seconds=time.perf_counter() - start)
        )
    return report
