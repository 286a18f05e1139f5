"""Spectral quantities and the flat-size thresholds they impose.

For each regime (alpha' = 0 driven by alpha, alpha' = 1 driven by
beta = alpha - 1) there is an exact rational cap on how large a flat can be.
Combining a cap with the inter-flat growth lower bound pins the largest
dimension r at which a flat can still satisfy it, which is where the
dimension thresholds 20 and 23 of the final argument come from.

The closed form used for psi is the unique polynomial in (s1, alpha) making
the product identity

    theta*phi - 4*alpha*s1*psi = D * (theta*D + 4*alpha*s1^2*(s1-1)),
    D = alpha - s1*(s1-1)

hold identically; spectral_identities checks it, with the other fixed
identities, once as exact polynomial identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import UniPoly
from .parameters import s2_from, square_divisor


def discriminant_shift(s1: int, alpha: int) -> int:
    """D = alpha - s1*(s1-1), the shift whose square dominates phi."""
    return alpha - s1 * (s1 - 1)


def phi_of(s1: int, alpha: int) -> int:
    """phi = alpha^2 + s1^2*(s1-1)^2 - 2*alpha*s1*(s1+1), equal to D^2 - 4*alpha*s1."""
    return alpha * alpha + s1 * s1 * (s1 - 1) ** 2 - 2 * alpha * s1 * (s1 + 1)


def theta_of(s1: int, alpha: int) -> int:
    """theta = s1 - s1^2 + 2*alpha*s1 - alpha."""
    return s1 - s1 * s1 + 2 * alpha * s1 - alpha


def psi_of(s1: int, alpha: int) -> int:
    """psi = -theta - s1*(s1-1)*D, the value forced by the product identity."""
    return _psi(s1, theta_of(s1, alpha), discriminant_shift(s1, alpha))


def _psi(s1: int, theta: int, d: int) -> int:
    """psi_of's formula, for a caller that already holds theta and D."""
    return -theta - s1 * (s1 - 1) * d


def _alpha_cap_terms(s1: int, alpha: int, phi: int) -> tuple[int, int]:
    """Numerator and positive denominator of alpha_route_cap, unreduced.

    phi is phi_of(s1, alpha), which the sweep has already computed.
    """
    if alpha <= 0:
        raise ValueError("the alpha-route cap needs alpha >= 1")
    theta = theta_of(s1, alpha)
    core = theta * phi - 4 * alpha * s1 * _psi(s1, theta, discriminant_shift(s1, alpha))
    return phi * phi * core * core - phi, 4 * alpha * s1


def alpha_route_cap(s1: int, alpha: int) -> Fraction:
    """Exact flat-size cap (phi^2*(theta*phi - 4*alpha*s1*psi)^2 - phi) / (4*alpha*s1).

    Applies in the alpha' = 0 regime; alpha = 0 has no cap (the division
    degenerates) and is rejected.
    """
    return Fraction(*_alpha_cap_terms(s1, alpha, phi_of(s1, alpha)))


def _beta_cap_terms(s1: int, beta: int) -> tuple[int, int]:
    """Numerator and positive denominator of beta_route_cap, unreduced."""
    if beta <= 0:
        raise ValueError("the beta-route cap needs beta >= 1")
    a = 4 * beta * s1 + (s1 * s1 - beta) ** 2
    b = s1 * s1 - beta
    c = s1 * s1 + beta
    e = s1 * s1 - beta + 2 * s1 * beta
    return (a * a) * (b * b) * (c * c) * (e * e), 4 * beta * s1


def beta_route_cap(s1: int, beta: int) -> Fraction:
    """Exact flat-size cap for the alpha' = 1 regime, in terms of beta = alpha - 1."""
    return Fraction(*_beta_cap_terms(s1, beta))


def first_r_exceeding(s1: int, s2: int, threshold: Fraction | int) -> int:
    """Smallest r >= 3 whose growth lower bound exceeds the threshold.

    The growth bound says an r-flat has at least
    (s2 - s1)^(r-1) / (s1 - 1)^(r-2) points; _first_r_over holds its only
    copy.  Any flat dimension r whose size obeys the threshold then
    satisfies r < the returned value.
    """
    thr = Fraction(threshold)
    return _first_r_over(s1, s2, thr.numerator, thr.denominator)


def _first_r_over(s1: int, s2: int, thr_num: int, thr_den: int) -> int:
    """first_r_exceeding for the threshold thr_num / thr_den, thr_den > 0."""
    if not s2 > s1 >= 2:
        raise ValueError(f"need s2 > s1 >= 2, got s1={s1}, s2={s2}")
    gap = s2 - s1
    base = s1 - 1
    # bound(r) = gap^(r-1) / base^(r-2); it grows iff gap > base.
    if gap <= base and gap * gap * thr_den <= thr_num * base:
        raise ValueError("growth bound never exceeds the threshold for these parameters")
    num, den = gap * gap, base
    r = 3
    while num * thr_den <= thr_num * den:
        num *= gap
        den *= base
        r += 1
    return r


def _may_exceed(s1: int, s2: int, thr_num: int, thr_den: int, r: int) -> bool:
    """False only if _first_r_over(s1, s2, thr_num, thr_den) <= r, by one comparison.

    When gap = s2 - s1 exceeds base = s1 - 1 the growth bound increases
    strictly with r, so the first r past the threshold exceeds r >= 3 iff
    bound(r) <= threshold, that is gap^(r-1) * thr_den <= thr_num * base^(r-2).
    Otherwise (r < 3, or a bound that does not grow) it answers True and
    leaves the decision, and the ValueError guard, to _first_r_over.
    """
    gap, base = s2 - s1, s1 - 1
    return r < 3 or gap <= base or gap ** (r - 1) * thr_den <= thr_num * base ** (r - 2)


@dataclass(frozen=True)
class ThresholdReport:
    """Cap and the first excluded dimension for one parameter system."""

    s1: int
    driver: int  # alpha on the alpha route, beta on the beta route
    threshold: Fraction
    first_r_exceeding: int
    bound_name: str  # "alpha-route" or "beta-route"

    def to_record(self) -> dict:
        return {
            "s1": self.s1,
            "driver": self.driver,
            "threshold": f"{self.threshold.numerator}/{self.threshold.denominator}",
            "firstRExceeding": self.first_r_exceeding,
            "boundName": self.bound_name,
        }


@dataclass(frozen=True)
class SweepResult:
    """Worst case observed over a parameter grid."""

    bound_name: str
    systems_checked: int
    max_first_r: int
    worst: ThresholdReport | None
    internal_steps_ok: bool


def alpha_route_sweep(s1_max: int = 50, alpha_max: int = 2500) -> SweepResult:
    """Sweep the alpha' = 0 grid: every admissible alpha (s1 | alpha^2, alpha^2 >= s1).

    Alongside the headline first_r_exceeding values this re-checks the two
    intermediate inequalities the cap derivation leans on:
    phi^2 < (alpha + s1*(s1-1))^4 and s2 - s1 >= alpha + s1*(s1-1).
    Only a system that may beat the running maximum (_may_exceed) runs the
    full r-loop, so the first system to reach the maximum is the worst.
    """
    checked = 0
    max_r = 0
    worst = None
    steps_ok = True
    for s1 in range(3, s1_max + 1):
        u = s1 * (s1 - 1)
        # m^2 >= s1 since s1 | m^2, so the floor alpha^2 >= s1 holds.
        m = square_divisor(s1)
        for alpha in range(m, alpha_max + 1, m):
            checked += 1
            phi = phi_of(s1, alpha)
            if not phi * phi < (alpha + u) ** 4:
                steps_ok = False
            s2 = s2_from(s1, alpha)
            if not s2 - s1 >= alpha + u:
                steps_ok = False
            num, den = _alpha_cap_terms(s1, alpha, phi)
            if _may_exceed(s1, s2, num, den, max_r):
                r = _first_r_over(s1, s2, num, den)
                if r > max_r:
                    max_r = r
                    worst = ThresholdReport(s1, alpha, Fraction(num, den), r, "alpha-route")
    return SweepResult("alpha-route", checked, max_r, worst, steps_ok)


def beta_route_sweep(s1_max: int = 50, beta_max: int = 2500) -> SweepResult:
    """Sweep the alpha' = 1 grid: beta over multiples of s1 (s1 | beta, beta >= s1)."""
    checked = 0
    max_r = 0
    worst = None
    steps_ok = True
    for s1 in range(3, s1_max + 1):
        for beta in range(s1, beta_max + 1, s1):
            checked += 1
            alpha = beta + 1
            s2 = s2_from(s1, alpha)
            if not s2 - s1 >= s1 * s1 + beta:
                steps_ok = False
            num, den = _beta_cap_terms(s1, beta)
            if _may_exceed(s1, s2, num, den, max_r):
                r = _first_r_over(s1, s2, num, den)
                if r > max_r:
                    max_r = r
                    worst = ThresholdReport(s1, beta, beta_route_cap(s1, beta), r, "beta-route")
    return SweepResult("beta-route", checked, max_r, worst, steps_ok)


def spectral_identities() -> dict[str, bool]:
    """The fixed identities of the threshold argument, each checked exactly.

    The production formulas run unchanged over UniPoly with s1 = x^9 and
    alpha = x.  This Kronecker substitution sends each monomial
    s1^i * alpha^j with j < 9 to its own power x^(9i + j), so a polynomial
    in (s1, alpha) of alpha-degree at most 8 is zero exactly when its image
    is.  Every identity below has alpha-degree at most 3, so coefficient
    equality of the images is equality as polynomial identities.
    """
    alpha = UniPoly.x()
    s1 = alpha**9
    u = s1 * (s1 - 1)
    d = discriminant_shift(s1, alpha)
    theta, phi, psi = theta_of(s1, alpha), phi_of(s1, alpha), psi_of(s1, alpha)
    bracket = theta * d + 4 * alpha * s1 * s1 * (s1 - 1)
    return {
        "phi": phi == d * d - 4 * alpha * s1,
        "product": theta * phi - 4 * alpha * s1 * psi == d * bracket,
        # Factored form of the product identity's right-hand bracket.
        "bracket": bracket == (alpha * (2 * s1 - 1) + u) * (alpha + u),
        # Point localization: s2 - 1 = (alpha + s1)(s1 - 1).
        "planeSize": s2_from(s1, alpha) - 1 == (alpha + s1) * (s1 - 1),
    }
