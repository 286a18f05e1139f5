"""Tests for the parameter model."""

import math

import pytest

from homgeom.bounds import first_r_exceeding
from homgeom.geometries import FlatProfile
from homgeom.parameters import (
    EXCEPTIONAL,
    Condition,
    ModelScopeError,
    ParamSystem,
    classify_condition,
    condition_alpha,
    condition_alphas,
    integrality_alpha0,
    integrality_alpha1,
    is_classical_shape,
    s2_from,
)
from homgeom.exact_arith import is_perfect_square

PRIMES = [2, 3, 5, 7, 11]


def param_system_from_record(record: dict) -> ParamSystem:
    """The inverse of ParamSystem.to_record, for the report's JSON values."""
    return ParamSystem(
        s1=int(record["s1"]),
        alpha=int(record["alpha"]),
        alpha_prime=int(record["alphaPrime"]),
        dim=int(record["dim"]),
    )


def projective_profile(n: int, q: int) -> FlatProfile:
    return FlatProfile(tuple((q ** (i + 1) - 1) // (q - 1) for i in range(n + 1)))


def affine_profile(n: int, q: int) -> FlatProfile:
    return FlatProfile(tuple(q**i for i in range(n + 1)))


class TestParamSystem:
    def test_valid(self):
        ps = ParamSystem(3, 6, 0, 23)
        assert (ps.s1, ps.alpha, ps.alpha_prime, ps.dim) == (3, 6, 0, 23)

    def test_rejects_small_s1(self):
        with pytest.raises(ValueError):
            ParamSystem(1, 0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            ParamSystem(3, -1)

    def test_alpha_prime_out_of_scope_is_distinct_error(self):
        with pytest.raises(ModelScopeError):
            ParamSystem(3, 6, 2)

    def test_beta_defined_only_in_alpha1_regime(self):
        assert ParamSystem(3, 4, 1).beta == 3
        with pytest.raises(ValueError):
            _ = ParamSystem(3, 4, 0).beta
        with pytest.raises(ValueError):
            _ = ParamSystem(3, 0, 1).beta

    def test_record_round_trip(self):
        ps = ParamSystem(7, 42, 1, 23)
        assert param_system_from_record(ps.to_record()) == ps
        record = {"s1": "7", "alpha": "42", "alphaPrime": "1", "dim": "23"}
        assert param_system_from_record(record) == ps


class TestS2:
    def test_examples(self):
        assert s2_from(3, 6) == 19
        assert s2_from(4, 0) == 13  # projective shape at q = 3
        assert s2_from(3, 1) == 9  # affine shape at q = 3

    def test_two_closed_forms_agree(self):
        for s1 in range(2, 40):
            for alpha in range(0, 60):
                assert s2_from(s1, alpha) == 1 + (alpha + s1) * (s1 - 1)


class TestGrowthLowerBound:
    """The bound (s2-s1)^(r-1) / (s1-1)^(r-2), as bounds.first_r_exceeding applies it."""

    def test_examples(self):
        # (3, 7): bound 8 at r = 3 and 16 at r = 4; (3, 9): 18 at r = 3.
        assert first_r_exceeding(3, 7, 7) == 3
        assert first_r_exceeding(3, 7, 8) == 4
        assert first_r_exceeding(3, 7, 15) == 4
        assert first_r_exceeding(3, 7, 16) == 5
        assert first_r_exceeding(3, 9, 17) == 3
        assert first_r_exceeding(3, 9, 18) == 4

    def test_exact_rational(self):
        # (3, 8): bound 25/2 at r = 3; the comparison is exact at the boundary.
        assert first_r_exceeding(3, 8, 25, 2) == 4
        assert first_r_exceeding(3, 8, 25 * 10**30 - 2, 2 * 10**30) == 3  # 25/2 - 10^-30
        # The pair need not be in lowest terms.
        assert first_r_exceeding(3, 8, 25 * 6, 2 * 6) == 4

    def test_classical_profiles_satisfy_bound(self):
        for q in PRIMES:
            for profile in (projective_profile(4, q), affine_profile(4, q)):
                s1, s2 = profile.s(1), profile.s(2)
                for r in range(3, profile.top_dim + 1):
                    assert first_r_exceeding(s1, s2, profile.s(r)) > r


class TestIntegrality:
    def test_examples(self):
        assert integrality_alpha0(3, 6)
        assert not integrality_alpha0(3, 2)
        assert integrality_alpha1(3, 3)

    def test_beta_regime_failure(self):
        assert not integrality_alpha1(3, 4)

    def test_cond2_always_passes(self):
        for s1 in range(3, 60):
            assert integrality_alpha0(s1, s1 * (s1 - 1))


class TestClassify:
    def test_cond1_minus(self):
        assert classify_condition(ParamSystem(4, 4, 0)) == {Condition.COND1_MINUS}

    def test_cond2(self):
        assert classify_condition(ParamSystem(3, 6, 0)) == {Condition.COND2}

    def test_cond3(self):
        assert classify_condition(ParamSystem(3, 10, 1)) == {Condition.COND3}

    def test_cond1_requires_square_s1(self):
        # s1 = 5 is not a square, so no condition-1 alpha exists at all.
        assert Condition.COND1_PLUS not in condition_alphas(5)
        tags = classify_condition(ParamSystem(5, 5 * (1 + 1) ** 2, 0))
        assert Condition.COND1_PLUS not in tags

    def test_each_condition_holds_only_at_its_alpha_prime(self):
        for cond in Condition:
            for s1 in range(3, 201):
                if cond.family == 1 and not is_perfect_square(s1):
                    continue
                alpha = condition_alpha(cond, s1)
                assert cond in classify_condition(ParamSystem(s1, alpha, cond.alpha_prime))
                other = 1 - cond.alpha_prime
                assert cond not in classify_condition(ParamSystem(s1, alpha, other))

    def test_condition_holds_exactly_the_four_exceptional_families(self):
        assert EXCEPTIONAL == tuple(Condition)
        assert [(c.value, c.family, c.alpha_prime) for c in Condition] == [
            ("Cond1Plus", 1, 0), ("Cond1Minus", 1, 0), ("Cond2", 2, 0), ("Cond3", 3, 1),
        ]

    def test_cond3_needs_alpha_prime_one(self):
        assert classify_condition(ParamSystem(3, 10, 0)) == frozenset()

    def test_classical_tags(self):
        assert is_classical_shape(ParamSystem(4, 0, 0))
        assert is_classical_shape(ParamSystem(4, 0, 1))
        assert is_classical_shape(ParamSystem(3, 1, 0))
        assert not is_classical_shape(ParamSystem(3, 1, 1))
        # No classical shape satisfies an exceptional equation.
        for s1 in range(2, 200):
            for alpha, alpha_prime in ((0, 0), (0, 1), (1, 0)):
                assert classify_condition(ParamSystem(s1, alpha, alpha_prime)) == frozenset()

    def test_none_applies(self):
        ps = ParamSystem(3, 5, 0)
        assert classify_condition(ps) == frozenset()
        assert not is_classical_shape(ps)

    def test_cond1_plus_and_cond2_never_coincide(self):
        # The two alpha equations differ for every square s1 up to 10^4.
        k = 2
        while k * k <= 10_000:
            s1 = k * k
            tags = classify_condition(ParamSystem(s1, s1 * (s1 - 1), 0))
            assert Condition.COND2 in tags
            assert Condition.COND1_PLUS not in tags
            k += 1

    def test_cond2_implies_integrality(self):
        for s1 in range(3, 200):
            ps = ParamSystem(s1, s1 * (s1 - 1), 0)
            if Condition.COND2 in classify_condition(ps):
                assert integrality_alpha0(ps.s1, ps.alpha)

    def test_cond1_tags_need_square_alpha_match(self):
        tags = classify_condition(ParamSystem(9, 9 * 16, 0))  # 9*(3+1)^2
        assert tags == {Condition.COND1_PLUS}
        assert is_perfect_square(9)

    def test_condition_alphas_closed_forms(self):
        # The four condition equations, spelled out, against condition_alphas.
        for s1 in range(3, 2000):
            expected = {Condition.COND2: s1 * (s1 - 1), Condition.COND3: s1 * s1 + 1}
            root = math.isqrt(s1)
            if root * root == s1:
                expected[Condition.COND1_PLUS] = s1 * (root + 1) ** 2
                expected[Condition.COND1_MINUS] = s1 * (root - 1) ** 2
            assert condition_alphas(s1) == expected, s1

