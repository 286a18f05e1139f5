"""Tests for the exact arithmetic substrate."""

import math
import random
from fractions import Fraction

import pytest

from homgeom.exact_arith import (
    NEG_INF,
    UniPoly,
    eventually_positive,
    exact_sqrt,
    is_perfect_square,
)


def isqrt_bisect(n: int) -> int:
    """Independent oracle: bisection, no math.isqrt."""
    lo, hi = 0, max(1, n)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


class TestIsPerfectSquare:
    def test_simple(self):
        assert is_perfect_square(49)

    def test_negative_never_square(self):
        assert not is_perfect_square(-4)

    def test_between_consecutive_squares(self):
        assert 25**2 < 649 < 26**2
        assert not is_perfect_square(649)

    def test_agrees_with_enumerated_squares(self):
        squares = {k * k for k in range(1001)}
        for n in range(1_000_001):
            assert is_perfect_square(n) == (n in squares)


class TestExactSqrt:
    def test_integers(self):
        for r in range(200):
            assert exact_sqrt(r * r) == r
        for n in (2, 40, 48, 50, -4):
            with pytest.raises(ValueError):
                exact_sqrt(n)

    def test_polynomials(self):
        x = UniPoly.x()
        for root in (x, x + 1, 2 * x * x - 3 * x + 5):
            assert exact_sqrt(root * root) == root
        # Odd degree, a constant, and a nonzero remainder after sqrt_part.
        for p in (x, UniPoly.constant(4), x * x + 1):
            with pytest.raises(ValueError):
                exact_sqrt(p)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            exact_sqrt(-1)

    def test_large_value_against_bisection_oracle(self):
        assert isqrt_bisect(46801) == 216
        assert 216**2 < 46801 < 217**2
        assert not is_perfect_square(46801)
        with pytest.raises(ValueError):
            exact_sqrt(46801)
        rng = random.Random(7)
        for _ in range(200):
            r = isqrt_bisect(rng.randrange(10**30, 10**40))
            assert exact_sqrt(r * r) == r
            assert is_perfect_square(r * r) and not is_perfect_square(r * r + 1)


class TestUniPoly:
    def test_trailing_zeros_trimmed(self):
        assert UniPoly([1, 2, 0, 0]).coeffs == (1, 2)

    def test_zero_degree_sentinel(self):
        assert UniPoly().degree == NEG_INF
        assert UniPoly([0, 0]).is_zero()

    def test_degree(self):
        assert UniPoly([5]).degree == 0
        assert UniPoly([0, 0, 3]).degree == 2

    def test_immutability(self):
        p = UniPoly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = ()

    def test_eval_sextic(self):
        p = UniPoly([1, 0, 0, 0, -1, 0, 1])  # x^6 - x^4 + 1
        assert p.evaluate(2) == 49

    def test_eval_zero_poly(self):
        assert UniPoly().evaluate(7) == 0

    def test_eval_term_by_term(self):
        p = UniPoly([0, -2, -2, 0, 2, 2, 1])  # x^6 + 2x^5 + 2x^4 - 2x^2 - 2x
        assert p.evaluate(1) == 1

    def test_completed_square_identity(self):
        # 4(x^6 - x^4 + 1) = (2x^3 - x)^2 - (x^2 - 4)
        a_poly = UniPoly([0, -1, 0, 2])
        h_poly = UniPoly([-4, 0, 1])
        assert a_poly * a_poly - h_poly == 4 * UniPoly([1, 0, 0, 0, -1, 0, 1])

    def test_self_subtraction_is_zero(self):
        p = UniPoly([3, 0, -5, 7])
        assert (p - p).is_zero()

    def test_shift_binomial(self):
        assert UniPoly([0, 0, 1]).shift(1) == UniPoly([1, 2, 1])

    def test_shift_matches_pointwise(self):
        rng = random.Random(11)
        for _ in range(100):
            p = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 13))])
            c = rng.randint(-20, 20)
            t = rng.randint(-50, 50)
            assert p.shift(c).evaluate(t) == p.evaluate(t + c)

    def test_product_evaluation_homomorphism(self):
        rng = random.Random(23)
        for _ in range(200):
            p = UniPoly([rng.randint(-50, 50) for _ in range(rng.randint(0, 13))])
            q = UniPoly([rng.randint(-50, 50) for _ in range(rng.randint(0, 13))])
            t = rng.randint(-100, 100)
            assert (p * q).evaluate(t) == p.evaluate(t) * q.evaluate(t)
            assert (p + q).evaluate(t) == p.evaluate(t) + q.evaluate(t)

    def test_pow_matches_repeated_multiplication(self):
        p = UniPoly([1, 1])
        assert p**4 == p * p * p * p
        assert p**0 == UniPoly([1])

    def test_square(self):
        p = UniPoly([-1, 0, 3])
        assert p.square() == p * p

    def test_divmod_reconstructs_dividend(self):
        rng = random.Random(31)
        for _ in range(200):
            p = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 13))])
            lead = rng.choice([-1, 1])  # a unit, so every quotient is integral
            d = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [lead])
            q, r = divmod(p, d)
            assert q * d + r == p
            assert r.degree < d.degree
        # A non-monic divisor: the quotient and remainder a dividend was
        # built from come back.
        for _ in range(200):
            d = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
                        + [rng.choice([-3, 2, 6])])
            q = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
            r = UniPoly([rng.randint(-9, 9) for _ in range(len(d.coeffs) - 1)])
            assert divmod(q * d + r, d) == (q, r)

    def test_divmod_exact_quotient(self):
        p = UniPoly([1, 0, 4, 8, -4])
        assert divmod(p * UniPoly([0, 0, 1]), UniPoly([0, 0, 1])) == (p, UniPoly())
        assert divmod(2 * p, 2) == (p, UniPoly())

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(UniPoly([1, 1]), UniPoly())

    def test_sqrt_part_recovers_completed_square(self):
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randint(1, 7)
            g = UniPoly([rng.randint(-9, 9) for _ in range(n)] + [rng.choice([1, 3])])
            h = UniPoly([rng.randint(-9, 9) for _ in range(n)])  # deg h < deg g
            assert (g * g - h).sqrt_part() == g

    def test_sqrt_part_sextic(self):
        # 4(x^6 - x^4 + 1) = (2x^3 - x)^2 - (x^2 - 4); x^6 - x^4 + 1 itself
        # would need x^3 - x/2.
        f = UniPoly([1, 0, 0, 0, -1, 0, 1])
        assert (4 * f).sqrt_part() == UniPoly([0, -1, 0, 2])
        with pytest.raises(ValueError):
            f.sqrt_part()

    @pytest.mark.parametrize(
        "coeffs",
        [[], [4], [0, 0, 0, 1], [1, 0, -1], [1, 0, 2], [1, 1, 1]],
    )
    def test_sqrt_part_rejects(self, coeffs):
        with pytest.raises(ValueError):
            UniPoly(coeffs).sqrt_part()

    def test_integer_coefficients(self):
        assert UniPoly([1, -2]).coeffs == (1, -2)
        for bad in (Fraction(1, 2), Fraction(4, 2), 0.5, 2.0):
            with pytest.raises(TypeError):
                UniPoly([1, bad])


def coefficient_types(p: UniPoly) -> set[type]:
    return {type(c) for c in p.coeffs}


class TestCoefficientTypes:
    def test_integral_polynomials_keep_int_coefficients(self):
        p = UniPoly([3, -2, 0, 5])
        q = UniPoly([2, 1])
        results = [p + q, p - q, p * q, p**3, -p, 2 * p, p + 1, 1 - p, p.shift(3)]
        for r in results:
            assert coefficient_types(r) == {int}, r
        assert type(p.coefficient(9)) is int

    def test_sqrt_part_of_integral_square_is_integral(self):
        g = UniPoly([-1, 2, 0, 1])  # x^3 + 2x - 1
        f = g * g - UniPoly([5, 1])
        assert coefficient_types(f) == {int}
        assert f.sqrt_part() == g
        assert coefficient_types(f.sqrt_part()) == {int}

    def test_no_division_makes_a_fraction(self):
        # Where the exact result would need a rational coefficient, sqrt_part
        # and divmod raise: x^2 + x + 1 would need x + 1/2, 4x^2 + x would
        # need 2x + 1/4, x^4 + x^3 would need x^2 + x/2 - 1/8, and each
        # quotient below a coefficient 1/2, 4/3 or 1/2.
        for coeffs in ([1, 1, 1], [0, 1, 4], [0, 0, 0, 1, 1]):
            with pytest.raises(ValueError, match="integral"):
                UniPoly(coeffs).sqrt_part()
        for p, d in (([1, 2, 3], [2]), ([1, 2, 3, 4], [1, 3]), ([0, 1], [0, 2])):
            with pytest.raises(ValueError, match="integral"):
                divmod(UniPoly(p), UniPoly(d))

    def test_divmod_by_non_monic_divisor_is_exact(self):
        # 6x^3 + 11x^2 + 9x + 5 = (2x^2 + 3x + 2)(3x + 1) + 3
        p = UniPoly([5, 9, 11, 6])
        d = UniPoly([1, 3])
        q, r = divmod(p, d)
        assert coefficient_types(q) | coefficient_types(r) == {int}
        assert q.coeffs == (2, 3, 2) and r.coeffs == (3,)
        # 4x^3 + 3x^2 + 2x + 1 by 3x + 1 would need 4x^2/3: no integral quotient.
        with pytest.raises(ValueError):
            divmod(UniPoly([1, 2, 3, 4]), d)

    def test_catalog_polynomials_are_integral(self):
        from homgeom.obstructions import catalog

        for obs in catalog().values():
            assert coefficient_types(obs.f) == {int}, obs.label
            assert coefficient_types(obs.A) == coefficient_types(obs.H) == {int}, obs.label


def expand_shift_oracle(coeffs: list[int], c: int) -> list[Fraction]:
    """Independent binomial-theorem expansion of p(x + c)."""
    out = [Fraction(0)] * len(coeffs)
    for n, a in enumerate(coeffs):
        for k in range(n + 1):
            out[k] += a * math.comb(n, k) * c ** (n - k)
    while out and out[-1] == 0:
        out.pop()
    return out


class TestEventuallyPositive:
    def test_cubic_proved_at_three(self):
        p = UniPoly([3, -2, -1, 4])  # 4x^3 - x^2 - 2x + 3
        cert = eventually_positive(p, 3)
        assert cert.proved is True
        # The shifted polynomial the certificate relies on, via an
        # independent expansion.
        assert list(cert.shifted.coeffs) == expand_shift_oracle([3, -2, -1, 4], 3)

    def test_inconclusive_when_negative_in_range(self):
        cert = eventually_positive(UniPoly([-4, 0, 1]), 1)  # x^2 - 4 at t >= 1
        assert cert.proved is False
        assert UniPoly([-4, 0, 1]).evaluate(1) == -3

    def test_constant_one(self):
        assert eventually_positive(UniPoly([1]), 0).proved

    def test_zero_constant_term_inconclusive(self):
        assert not eventually_positive(UniPoly([0, 1]), 0).proved

    def test_proved_implies_positive_spot_check(self):
        p = UniPoly([3, -2, -1, 4])
        cert = eventually_positive(p, 3)
        assert cert.proved
        for t in range(3, 3 + 10_001):
            assert p.evaluate(t) > 0
