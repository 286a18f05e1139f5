"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact; every tolerance below is zero.  Runtime ceilings
are asserted where the criterion carries one.
"""

import time

from homgeom.exact_arith import UniPoly
from homgeom.bounds import (
    alpha_cap_terms,
    alpha_route_sweep,
    beta_route_sweep,
    phi_of,
    spectral_identities,
)
from homgeom.localization import CaseLabel
from homgeom.obstructions import catalog, certify_no_square, sieve, verify_identity
from homgeom.geometries import (
    alpha_from_profile,
    build_affine,
    build_projective,
    check_closure_axioms,
    flat_profile,
    localize_at_point,
)
from homgeom.parameters import ParamSystem, exceptional_min_dim, required_dimension
from homgeom.pipeline import STANDARD_FORBIDDEN, eliminate, longest_condition_chain, search

COMPUTABLE_CASES = (CaseLabel.C, CaseLabel.E, CaseLabel.F, CaseLabel.B_PLUS, CaseLabel.B_MINUS)


class _Criterion:
    def __init__(self, number: int, name: str, limit_seconds: float | None = None):
        self.number = number
        self.name = name
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, f"criterion overtime: {elapsed:.2f}s >= {self.limit}s"
        return False


def test_criterion_1_identity_suite():
    with _Criterion(1, "identity-suite", limit_seconds=1.0):
        cat = catalog()
        assert len(cat) == 5
        for obs in cat.values():
            assert verify_identity(obs), obs.label
        assert (cat[CaseLabel.C].A, cat[CaseLabel.C].H) == (
            UniPoly([0, -1, 0, 2]),
            UniPoly([-4, 0, 1]),
        )
        assert (cat[CaseLabel.E].A, cat[CaseLabel.E].H) == (
            UniPoly([-1, 1, 2, 2]),
            UniPoly([1, 6, 5]),
        )
        assert (cat[CaseLabel.F].A, cat[CaseLabel.F].H) == (
            UniPoly([-1, 2, 2, 2]),
            UniPoly([9, 8, 4]),
        )


def test_criterion_2_certificate_suite():
    with _Criterion(2, "certificate-suite", limit_seconds=1.0):
        cat = catalog()
        assert cat[CaseLabel.C].t_min == 3
        for case in COMPUTABLE_CASES:
            if case is not CaseLabel.C:
                assert cat[case].t_min == 2
            cert = certify_no_square(cat[case])
            assert cert.proved, case


def test_criterion_3_sieve_oracle():
    with _Criterion(3, "sieve-oracle", limit_seconds=60.0):
        limit = 10**6
        cat = catalog()
        expected = {
            CaseLabel.C: [0, 1, 2],
            CaseLabel.E: [0, 1],
            CaseLabel.F: [1],
        }
        for case in COMPUTABLE_CASES:
            found = sieve(cat[case], limit)
            if case in expected:
                assert found == expected[case], case
            else:  # the two b variants: the oracle decides, all below 2
                assert all(t < 2 for t in found), case
            assert not [t for t in found if t >= cat[case].t_min], case
        # The near-miss that makes the s1 >= 3 hypothesis essential.
        assert 2 in sieve(cat[CaseLabel.C], limit)
        assert cat[CaseLabel.C].f.evaluate(2) == 49 == 7**2


def test_criterion_4_threshold_chains():
    with _Criterion(4, "threshold-chains", limit_seconds=60.0):
        alpha_result = alpha_route_sweep(50, 2500)
        assert alpha_result.systems_checked > 0
        assert alpha_result.max_first_r <= 20, alpha_result.worst
        assert alpha_result.internal_steps_ok
        beta_result = beta_route_sweep(50, 2500)
        assert beta_result.systems_checked > 0
        assert beta_result.max_first_r <= 17, beta_result.worst
        assert beta_result.internal_steps_ok


def test_criterion_5_spectral_identities():
    with _Criterion(5, "spectral-identities"):
        identities = spectral_identities()
        assert identities and all(identities.values()), identities
        for s1 in range(3, 100):
            alpha = s1 * (s1 - 1)
            num, den = alpha_cap_terms(s1, alpha, phi_of(s1, alpha))
            assert num == den


def test_criterion_6_automaton():
    with _Criterion(6, "automaton"):
        assert longest_condition_chain(STANDARD_FORBIDDEN) == 2
        assert longest_condition_chain(STANDARD_FORBIDDEN) < 3
        assert exceptional_min_dim() == max(19, 16) + 1 == 20
        assert required_dimension() == 20 + 3 == 23
        # Recomputed from constituents, not a constant.
        assert required_dimension(alpha_route_max_r=16) == 20


def test_criterion_7_search_and_fault_injection():
    with _Criterion(7, "search-and-fault-injection"):
        status, details, witness = search(100, 10**4)
        assert status == "pass"
        assert witness is None
        # The search counts the shapes of classicalShapes at every s1 of its
        # grid, and eliminate decides each small prime's shapes by its
        # classical rule.
        shapes = {(w["alpha"], w["alphaPrime"]) for w in details["classicalShapes"]}
        assert {(0, 0), (1, 0)} <= shapes
        assert details["counts"]["classical"] == len(shapes) * (100 - 2)
        primes = [q for q in range(2, 98) if all(q % d for d in range(2, q))]
        for q in primes:
            verdict = eliminate(ParamSystem(q + 1, 0, 0, required_dimension()))
            assert verdict.rule == "classical", f"projective shape missing for q={q}"
        for q in primes:
            if q >= 3:  # the affine shape at q = 2 has s1 = 2, below hypothesis
                verdict = eliminate(ParamSystem(q, 1, 0, required_dimension()))
                assert verdict.rule == "classical", f"affine shape missing for q={q}"
        # Disabling any one case must surface at least one witnessed survivor.
        for case in ("a", "b+", "b-", "c", "d", "e", "f"):
            status, _, witness = search(10, 200, disabled_cases=frozenset({CaseLabel(case)}))
            assert status == "fail", case
            assert witness, case


def test_criterion_8_geometry_ground_truth():
    with _Criterion(8, "geometry-ground-truth", limit_seconds=30.0):
        pg = build_projective(3, 2)
        ag = build_affine(3, 3)
        assert flat_profile(pg).sizes == (1, 3, 7, 15)
        assert flat_profile(ag).sizes == (1, 3, 9, 27)
        larger = (build_projective(3, 3), build_projective(4, 2), build_affine(2, 7))
        for g in (pg, ag, build_projective(2, 3), build_affine(2, 2)) + larger:
            axioms = check_closure_axioms(g)
            assert list(axioms) == ["closed", "pairLines", "intersections", "coversPartition"]
            assert all(axioms.values()), (str(g.kind), axioms)
        for g in (pg, ag):
            parent = flat_profile(g)
            for x in g.points:
                localized = localize_at_point(g, x, parent)
                for i in range(localized.top_dim + 1):
                    assert localized.s(i) == (parent.s(i + 1) - 1) // (parent.s(1) - 1)
        assert alpha_from_profile(flat_profile(pg)) == 0
        assert alpha_from_profile(flat_profile(ag)) == 1
        assert alpha_from_profile(flat_profile(build_projective(2, 3))) == 0
        assert alpha_from_profile(flat_profile(build_affine(2, 5))) == 1
