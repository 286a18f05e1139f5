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

hold identically; this is re-verified on an exact 9 x 9 grid (enough points
to determine the degree-8 bivariate polynomials involved) at import time,
so a wrong closed form is a hard build failure rather than a silent one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .parameters import s2_from


def discriminant_shift(s1: int, alpha: int) -> int:
    """D = alpha - s1*(s1-1), the shift whose square dominates phi."""
    return alpha - s1 * (s1 - 1)


def phi_of(s1: int, alpha: int) -> int:
    """phi = alpha^2 + s1^2*(s1-1)^2 - 2*alpha*s1*(s1+1), equal to D^2 - 4*alpha*s1."""
    value = alpha * alpha + s1 * s1 * (s1 - 1) ** 2 - 2 * alpha * s1 * (s1 + 1)
    d = discriminant_shift(s1, alpha)
    if value != d * d - 4 * alpha * s1:
        raise ArithmeticError(f"phi({s1}, {alpha}) disagrees with D^2 - 4*alpha*s1")
    return value


def theta_of(s1: int, alpha: int) -> int:
    """theta = s1 - s1^2 + 2*alpha*s1 - alpha."""
    return s1 - s1 * s1 + 2 * alpha * s1 - alpha


def psi_of(s1: int, alpha: int) -> int:
    """psi = -theta - s1*(s1-1)*D, the value forced by the product identity."""
    d = discriminant_shift(s1, alpha)
    return -theta_of(s1, alpha) - s1 * (s1 - 1) * d


@dataclass(frozen=True)
class SpectralTriple:
    """The quantities (theta, phi, psi) attached to an alpha' = 0 system."""

    theta: int
    phi: int
    psi: int
    discriminant_d: int

    @classmethod
    def from_params(cls, s1: int, alpha: int) -> "SpectralTriple":
        triple = cls(
            theta=theta_of(s1, alpha),
            phi=phi_of(s1, alpha),
            psi=psi_of(s1, alpha),
            discriminant_d=discriminant_shift(s1, alpha),
        )
        # Both defining identities must hold at the point of construction.
        d = triple.discriminant_d
        if triple.phi != d * d - 4 * alpha * s1:
            raise ArithmeticError(f"({s1}, {alpha}): phi != D^2 - 4*alpha*s1")
        lhs = triple.theta * triple.phi - 4 * alpha * s1 * triple.psi
        rhs = d * (triple.theta * d + 4 * alpha * s1 * s1 * (s1 - 1))
        if lhs != rhs:
            raise ArithmeticError(f"({s1}, {alpha}): spectral product identity fails")
        return triple


def alpha_route_cap(s1: int, alpha: int) -> Fraction:
    """Exact flat-size cap (phi^2*(theta*phi - 4*alpha*s1*psi)^2 - phi) / (4*alpha*s1).

    Applies in the alpha' = 0 regime; alpha = 0 has no cap (the division
    degenerates) and is rejected.
    """
    if alpha <= 0:
        raise ValueError("the alpha-route cap needs alpha >= 1")
    theta, phi, psi = theta_of(s1, alpha), phi_of(s1, alpha), psi_of(s1, alpha)
    core = theta * phi - 4 * alpha * s1 * psi
    return Fraction(phi * phi * core * core - phi, 4 * alpha * s1)


def beta_route_cap(s1: int, beta: int) -> Fraction:
    """Exact flat-size cap for the alpha' = 1 regime, in terms of beta = alpha - 1."""
    if beta <= 0:
        raise ValueError("the beta-route cap needs beta >= 1")
    a = 4 * beta * s1 + (s1 * s1 - beta) ** 2
    b = s1 * s1 - beta
    c = s1 * s1 + beta
    e = s1 * s1 - beta + 2 * s1 * beta
    return Fraction((a * a) * (b * b) * (c * c) * (e * e), 4 * beta * s1)


def first_r_exceeding(s1: int, s2: int, threshold: Fraction | int) -> int:
    """Smallest r >= 3 whose growth lower bound exceeds the threshold.

    Any flat dimension r whose size obeys the threshold then satisfies
    r < the returned value.
    """
    if not s2 > s1 >= 2:
        raise ValueError(f"need s2 > s1 >= 2, got s1={s1}, s2={s2}")
    thr = Fraction(threshold)
    gap = s2 - s1
    base = s1 - 1
    # bound(r) = gap^(r-1) / base^(r-2); it grows iff gap > base.
    if gap <= base and Fraction(gap * gap, base) <= thr:
        raise ValueError("growth bound never exceeds the threshold for these parameters")
    num, den = gap * gap, base
    r = 3
    thr_num, thr_den = thr.numerator, thr.denominator
    while num * thr_den <= thr_num * den:
        num *= gap
        den *= base
        r += 1
    return r


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
    """
    checked = 0
    max_r = 0
    worst = None
    steps_ok = True
    for s1 in range(3, s1_max + 1):
        u = s1 * (s1 - 1)
        for alpha in range(2, alpha_max + 1):
            sq = alpha * alpha
            if sq % s1 != 0 or sq < s1:
                continue
            checked += 1
            phi = phi_of(s1, alpha)
            if not phi * phi < (alpha + u) ** 4:
                steps_ok = False
            s2 = s2_from(s1, alpha)
            if not s2 - s1 >= alpha + u:
                steps_ok = False
            cap = alpha_route_cap(s1, alpha)
            r = first_r_exceeding(s1, s2, cap)
            if r > max_r:
                max_r = r
                worst = ThresholdReport(s1, alpha, cap, r, "alpha-route")
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
            cap = beta_route_cap(s1, beta)
            r = first_r_exceeding(s1, s2, cap)
            if r > max_r:
                max_r = r
                worst = ThresholdReport(s1, beta, cap, r, "beta-route")
    return SweepResult("beta-route", checked, max_r, worst, steps_ok)


def product_identity_holds(s1_range=range(3, 12), alpha_range=range(1, 10)) -> bool:
    """Check both spectral identities pointwise on an exact integer grid.

    The default 9 x 9 grid has enough points to determine the bivariate
    polynomials on each side (their degrees are at most 8 per variable), so
    agreement here is agreement as polynomial identities.
    """
    for s1 in s1_range:
        u = s1 * (s1 - 1)
        for alpha in alpha_range:
            d = alpha - u
            theta = theta_of(s1, alpha)
            phi = phi_of(s1, alpha)
            psi = psi_of(s1, alpha)
            if phi != d * d - 4 * alpha * s1:
                return False
            lhs = theta * phi - 4 * alpha * s1 * psi
            rhs = d * (theta * d + 4 * alpha * s1 * s1 * (s1 - 1))
            if lhs != rhs:
                return False
            # Factored form of the right-hand bracket.
            if theta * d + 4 * alpha * s1 * s1 * (s1 - 1) != (alpha * (2 * s1 - 1) + u) * (alpha + u):
                return False
    return True


if not product_identity_holds():
    raise ArithmeticError(
        "spectral product identity failed its build-time grid check; "
        "the psi closed form cannot be trusted"
    )
