"""Tests for the spectral quantities and size thresholds."""

from fractions import Fraction

import pytest

import homgeom.bounds as bounds
import homgeom.verify as verify
from homgeom.bounds import (
    SweepResult,
    ThresholdReport,
    alpha_cap_terms,
    alpha_route_sweep,
    beta_cap_terms,
    beta_route_sweep,
    discriminant_shift,
    first_r_exceeding,
    growth_margin,
    phi_of,
    psi_of,
    spectral_identities,
    theta_of,
)
from homgeom.exact_arith import UniPoly
from homgeom.parameters import s2_from
from homgeom.verify import _check_spectral_identities


def alpha_cap(s1: int, alpha: int) -> Fraction:
    """The alpha-route cap, the Fraction of its terms."""
    return Fraction(*alpha_cap_terms(s1, alpha, phi_of(s1, alpha)))


def beta_cap(s1: int, beta: int) -> Fraction:
    """The beta-route cap, the Fraction of its terms."""
    return Fraction(*beta_cap_terms(s1, beta))


def psi(s1: int, alpha: int) -> int:
    """psi at (s1, alpha), with theta and D computed for it."""
    return psi_of(s1, theta_of(s1, alpha), discriminant_shift(s1, alpha))


def phi_oracle(s1: int, alpha: int) -> int:
    """Direct evaluation of the displayed closed form, term by term."""
    return alpha**2 + s1**2 * (s1 - 1) ** 2 - 2 * alpha * s1 * (s1 + 1)


class TestSpectralQuantities:
    def test_phi_examples(self):
        assert phi_of(3, 6) == phi_oracle(3, 6) == -72
        assert phi_of(4, 2) == phi_oracle(4, 2) == 68
        # 1 + 36 - 24; also (1 - 6)^2 - 12 = 13 through the other form.
        assert phi_of(3, 1) == phi_oracle(3, 1) == 13

    def test_theta_examples(self):
        assert theta_of(3, 6) == 24
        assert theta_of(4, 2) == 2
        assert theta_of(3, 1) == -1

    def test_psi_examples(self):
        assert psi(3, 6) == -24
        assert psi(4, 2) == 118
        assert psi(3, 1) == 31

    def test_psi_acceptance_point(self):
        # The flagged consistency point: both sides of the product identity
        # evaluated independently at (3, 1).
        s1, alpha = 3, 1
        d = alpha - s1 * (s1 - 1)
        lhs = theta_of(s1, alpha) * phi_of(s1, alpha) - 4 * alpha * s1 * psi(s1, alpha)
        rhs = d * (theta_of(s1, alpha) * d + 4 * alpha * s1 * s1 * (s1 - 1))
        assert lhs == rhs == -385

    def test_spectral_triple_invariants(self):
        assert (theta_of(4, 2), phi_of(4, 2), psi(4, 2)) == (2, 68, 118)
        assert discriminant_shift(4, 2) == -10

    def test_phi_squared_below_fourth_power(self):
        for s1 in range(3, 25):
            u = s1 * (s1 - 1)
            for alpha in range(2, 120):
                assert phi_of(s1, alpha) ** 2 < (alpha + u) ** 4


class TestSpectralIdentities:
    def test_all_hold(self):
        assert spectral_identities() == {
            "phi": True, "product": True, "bracket": True, "planeSize": True
        }

    @pytest.mark.parametrize(
        "name, fake, broken",
        [
            ("discriminant_shift", lambda s1, a: a - s1 * s1, "phi"),
            # A wrong theta also enters psi, which keeps the product identity
            # true; the factored bracket catches it.
            ("theta_of", lambda s1, a: s1 - s1 * s1 + 2 * a * s1 + a, "bracket"),
            ("phi_of", lambda s1, a: a * a + s1 * s1 * (s1 - 1) ** 2 - 2 * a * s1 * (s1 - 1), "phi"),
            ("psi_of", lambda s1, theta, d: -theta - s1 * (s1 + 1) * d, "product"),
            ("s2_from", lambda s1, a: s1 + s1 * a + (s1 - 1) ** 2, "planeSize"),
        ],
        ids=["discriminant_shift", "theta_of", "phi_of", "psi_of", "s2_from"],
    )
    def test_wrong_formula_fails_the_check(self, monkeypatch, name, fake, broken):
        monkeypatch.setattr(bounds, name, fake)
        assert spectral_identities()[broken] is False
        status, details = _check_spectral_identities()
        assert status == "fail"
        assert details["polynomialIdentities"][broken] is False

    def test_wrong_cap_terms_fail_cond2_check(self, monkeypatch):
        def sign_slip(s1, alpha, phi):
            # phi^2*core^2 + phi in place of phi^2*core^2 - phi.
            num, den = alpha_cap_terms(s1, alpha, phi)
            return num + 2 * phi, den

        monkeypatch.setattr(verify, "alpha_cap_terms", sign_slip)
        status, details = _check_spectral_identities()
        assert status == "fail"
        assert details["cond2CapIsOne"] is False


class TestAlphaRouteCap:
    def test_cond2_collapse(self):
        assert alpha_cap(3, 6) == 1

    def test_big_value(self):
        assert alpha_cap(4, 2) == Fraction(61266150332, 32)

    def test_cond2_always_one(self):
        for s1 in range(3, 80):
            assert alpha_cap(s1, s1 * (s1 - 1)) == 1

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            alpha_cap(3, 0)


class TestBetaRouteCap:
    def test_example(self):
        assert beta_cap(3, 3) == 429981696
        assert beta_cap(3, 3) == 72**2 * 6**2 * 12**2 * 24**2 // 36

    def test_degenerate_beta_equals_s1_squared(self):
        # The middle factor (s1^2 - beta)^2 vanishes, capping every flat.
        assert beta_cap(3, 9) == 0
        assert beta_cap(5, 25) == 0

    def test_oracle_recompute(self):
        s1, beta = 3, 6
        a = 4 * beta * s1 + (s1**2 - beta) ** 2
        expected = Fraction(
            a**2 * (s1**2 - beta) ** 2 * (s1**2 + beta) ** 2 * (s1**2 - beta + 2 * s1 * beta) ** 2,
            4 * beta * s1,
        )
        assert beta_cap(3, 6) == expected
        assert expected > 0

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            beta_cap(3, 0)


class TestFirstRExceeding:
    def test_examples(self):
        assert first_r_exceeding(4, s2_from(4, 2), 61266150332, 32) == 14
        assert first_r_exceeding(4, s2_from(4, 2), *alpha_cap_terms(4, 2, phi_of(4, 2))) == 14
        assert first_r_exceeding(3, 19, 1) == 3
        assert first_r_exceeding(3, s2_from(3, 4), 429981696) == 12

    def test_geometric_growth_oracle(self):
        # bound(r) = 15 * 5^(r-2) for (s1, s2) = (4, 19); first r past 10^6.
        threshold = 10**6
        r = 3
        while 15 * 5 ** (r - 2) <= threshold:
            r += 1
        assert first_r_exceeding(4, 19, threshold) == r

    def test_returned_r_is_minimal(self):
        def growth_bound(s1, s2, r):
            return Fraction((s2 - s1) ** (r - 1), (s1 - 1) ** (r - 2))

        threshold = Fraction(12345678, 7)
        r = first_r_exceeding(3, 15, 12345678, 7)
        assert growth_bound(3, 15, r) > threshold
        assert all(growth_bound(3, 15, k) <= threshold for k in range(3, r))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            first_r_exceeding(3, 3, 1)
        with pytest.raises(ValueError):
            # gap 1 never grows past a large threshold
            first_r_exceeding(3, 4, 10**6)
        for den in (0, -7):
            with pytest.raises(ValueError):
                first_r_exceeding(3, 15, 12345678, den)


class TestSweeps:
    def test_alpha_route_small_grid(self):
        result = alpha_route_sweep(12, 300)
        assert result.systems_checked > 0
        assert result.max_first_r <= 20
        assert result.internal_steps_ok

    def test_beta_route_small_grid(self):
        result = beta_route_sweep(12, 300)
        assert result.systems_checked > 0
        assert result.max_first_r <= 17
        assert result.internal_steps_ok

    def test_alpha_sweep_admissibility_filter(self):
        # Only alphas with s1 | alpha^2 are admissible; count them directly.
        result = alpha_route_sweep(3, 30)
        expected = sum(1 for a in range(2, 31) if (a * a) % 3 == 0 and a * a >= 3)
        assert result.systems_checked == expected

    def test_alpha_sweep_default_grid_matches_filter(self):
        # The admissible alphas, filtered one by one, and the first largest r.
        checked, max_r, worst = 0, 0, None
        for s1 in range(3, 51):
            for alpha in range(2, 2501):
                if (alpha * alpha) % s1 or alpha * alpha < s1:
                    continue
                checked += 1
                cap = alpha_cap(s1, alpha)
                r = first_r_exceeding(s1, s2_from(s1, alpha), cap.numerator, cap.denominator)
                if r > max_r:
                    max_r, worst = r, (s1, alpha)
        result = alpha_route_sweep(50, 2500)
        assert result.systems_checked == checked == 12306
        assert (result.worst.s1, result.worst.driver) == worst
        assert result.max_first_r == max_r
        cap = alpha_cap(*worst)
        assert (result.worst.cap_num, result.worst.cap_den) == (cap.numerator, cap.denominator)

    def test_beta_sweep_default_grid_matches_public_cap(self):
        # The sweep compares unreduced integer pairs; the same cap in lowest
        # terms must give the same first r for every system.
        checked, max_r, worst = 0, 0, None
        for s1 in range(3, 51):
            for beta in range(s1, 2501, s1):
                checked += 1
                cap = beta_cap(s1, beta)
                r = first_r_exceeding(s1, s2_from(s1, beta + 1), cap.numerator, cap.denominator)
                if r > max_r:
                    max_r, worst = r, (s1, beta)
        result = beta_route_sweep(50, 2500)
        assert result.systems_checked == checked
        assert (result.worst.s1, result.worst.driver) == worst
        assert result.max_first_r == max_r
        cap = beta_cap(*worst)
        assert (result.worst.cap_num, result.worst.cap_den) == (cap.numerator, cap.denominator)

    def test_beta_route_ceiling_fails_on_the_beta_ray(self):
        # A live defect: beta = s1 >= 29131 needs r = 18, past the beta
        # route's bound BETA_ROUTE_MAX_R + 1 = 17.  This pins where it shows.
        result = beta_route_sweep(29131, 29131)
        assert result.systems_checked == 260264
        assert result.max_first_r == 18
        assert (result.worst.s1, result.worst.driver) == (29131, 29131)
        assert result.internal_steps_ok

    def test_beta_sweep_internal_inequality(self):
        # s2 - s1 >= s1^2 + beta holds throughout the admissible grid.
        for s1 in range(3, 15):
            for beta in range(s1, 200, s1):
                assert s2_from(s1, beta + 1) - s1 >= s1 * s1 + beta


def oracle_sweep(route: str, s1_max: int, driver_max: int) -> tuple[SweepResult, int]:
    """The sweep as first written: first_r_exceeding on every system.

    Also returns how many systems must run the full r-loop: those that
    raise the running maximum.
    """
    checked, max_r, worst, steps_ok, full_loops = 0, 0, None, True, 0
    cap = alpha_cap if route == "alpha" else beta_cap
    for s1 in range(3, s1_max + 1):
        u = s1 * (s1 - 1)
        if route == "alpha":
            drivers = [a for a in range(1, driver_max + 1) if a * a % s1 == 0 and a * a >= s1]
        else:
            drivers = range(s1, driver_max + 1, s1)
        for driver in drivers:
            checked += 1
            alpha = driver if route == "alpha" else driver + 1
            s2 = s2_from(s1, alpha)
            if route == "alpha":
                steps_ok &= phi_of(s1, alpha) ** 2 < (alpha + u) ** 4 and s2 - s1 >= alpha + u
            else:
                steps_ok &= s2 - s1 >= s1 * s1 + driver
            c = cap(s1, driver)
            r = first_r_exceeding(s1, s2, c.numerator, c.denominator)
            full_loops += r > max_r
            if r > max_r:
                max_r = r
                worst = ThresholdReport(s1, driver, c.numerator, c.denominator, r, f"{route}-route")
    return SweepResult(f"{route}-route", checked, max_r, worst, steps_ok), full_loops


class TestSweepOracle:
    @pytest.mark.parametrize("s1_max, driver_max", [(50, 2500), (80, 400)])
    @pytest.mark.parametrize("route", ["alpha", "beta"])
    def test_sweep_equals_oracle(self, monkeypatch, route, s1_max, driver_max):
        expected, full_loops = oracle_sweep(route, s1_max, driver_max)
        calls = []

        def counted(*args):
            calls.append(args)
            return first_r_exceeding(*args)

        monkeypatch.setattr(bounds, "first_r_exceeding", counted)
        sweep = alpha_route_sweep if route == "alpha" else beta_route_sweep
        assert sweep(s1_max, driver_max) == expected
        # Only a system that beats the running maximum runs the full r-loop.
        assert len(calls) == full_loops

    def test_margin_sign_matches_first_r(self):
        # The margin at r is positive exactly when the growth bound at r
        # exceeds the threshold; where the bound grows (gap > s1 - 1) that
        # is first_r_exceeding <= r.
        for s1 in range(2, 9):
            for s2 in range(s1 + 1, s1 + 40):
                for thr in (1, 7, 10**3, 10**9 + 7, 10**20, Fraction(12345678, 7)):
                    thr = Fraction(thr)
                    grows = s2 - s1 > s1 - 1
                    first = first_r_exceeding(s1, s2, thr.numerator, thr.denominator) if grows else None
                    for r in range(3, 30):
                        positive = growth_margin(s1, s2, thr.numerator, thr.denominator, r) > 0
                        bound = Fraction((s2 - s1) ** (r - 1), (s1 - 1) ** (r - 2))
                        assert positive == (bound > thr), (s1, s2, thr, r)
                        if grows:
                            assert positive == (first <= r), (s1, s2, thr, r)


class TestKernelsOverPolynomials:
    """growth_margin with either route's cap terms, run over UniPoly.

    The driver (alpha or beta) is x and s1 is x^k, the Kronecker
    substitution that sends s1^i * driver^j to x^(k*i + j); it is injective
    while k exceeds the driver-degree.  Both cap numerators have
    driver-degree 10 (alpha: phi^2 * core^2 with phi of degree 2 and core
    of degree 3; beta: (a*b*c*e)^2 with degrees 2, 1, 1, 1), and the
    denominators and s2 - s1 have degree 1, so the margin at r has
    driver-degree at most max(10, r).
    """

    @staticmethod
    def _margin(route, s1, driver, r):
        if route == "alpha":
            num, den = alpha_cap_terms(s1, driver, phi_of(s1, driver))
            s2 = s2_from(s1, driver)
        else:
            num, den = beta_cap_terms(s1, driver)
            s2 = s2_from(s1, driver + 1)
        return growth_margin(s1, s2, num, den, r)

    @pytest.mark.parametrize(
        "route, r", [("alpha", 19), ("alpha", 20), ("beta", 17), ("beta", 18)]
    )
    def test_margin_matches_int_values(self, route, r):
        k = max(10, r) + 1
        x = UniPoly.x()
        margin = self._margin(route, x**k, x, r)
        terms = {divmod(e, k): c for e, c in enumerate(margin.coeffs) if c}
        for s1 in range(3, 9):
            for driver in range(1, 13):
                value = sum(c * s1**i * driver**j for (i, j), c in terms.items())
                assert value == self._margin(route, s1, driver, r), (s1, driver)
