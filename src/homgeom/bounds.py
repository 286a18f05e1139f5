"""Spectral quantities and the flat-size thresholds they impose.

For each regime (alpha' = 0 driven by alpha, alpha' = 1 driven by
beta = alpha - 1) there is an exact cap num/den on how large a flat can be,
held as the integer pair (num, den).
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

import math
from collections.abc import Callable
from typing import NamedTuple

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


def psi_of(s1: int, theta: int, d: int) -> int:
    """psi = -theta - s1*(s1-1)*D, the value forced by the product identity.

    Both callers already hold theta = theta_of(s1, alpha) and
    D = discriminant_shift(s1, alpha), so they pass them in.
    """
    return -theta - s1 * (s1 - 1) * d


def alpha_cap_terms(s1: int, alpha: int, phi: int) -> tuple[int, int]:
    """Numerator and denominator of the alpha' = 0 regime's exact flat-size cap,
    (phi^2*(theta*phi - 4*alpha*s1*psi)^2 - phi) / (4*alpha*s1), unreduced.

    phi is phi_of(s1, alpha), which the sweep has already computed.  The
    same ring operations run on int and on UniPoly; an int alpha = 0 has no
    cap (the division degenerates) and is rejected.
    """
    if isinstance(alpha, int) and alpha <= 0:
        raise ValueError("the alpha-route cap needs alpha >= 1")
    theta = theta_of(s1, alpha)
    core = theta * phi - 4 * alpha * s1 * psi_of(s1, theta, discriminant_shift(s1, alpha))
    return phi * phi * core * core - phi, 4 * alpha * s1


def beta_cap_terms(s1: int, beta: int) -> tuple[int, int]:
    """Numerator and denominator of the alpha' = 1 regime's exact flat-size
    cap, in terms of beta = alpha - 1, unreduced.

    Runs on int and on UniPoly; an int beta = 0 is rejected.
    """
    if isinstance(beta, int) and beta <= 0:
        raise ValueError("the beta-route cap needs beta >= 1")
    a = 4 * beta * s1 + (s1 * s1 - beta) ** 2
    b = s1 * s1 - beta
    c = s1 * s1 + beta
    e = s1 * s1 - beta + 2 * s1 * beta
    return (a * a) * (b * b) * (c * c) * (e * e), 4 * beta * s1


def growth_margin(s1: int, s2: int, num: int, den: int, r: int) -> int:
    """den*(s2 - s1)^(r-1) - num*(s1 - 1)^(r-2), the one copy of the growth bound.

    The growth bound says an r-flat has at least
    (s2 - s1)^(r-1) / (s1 - 1)^(r-2) points.  For den > 0 and s1 >= 2 the
    margin is positive exactly when that bound exceeds num / den.  It runs
    on int and on UniPoly alike.
    """
    return den * (s2 - s1) ** (r - 1) - num * (s1 - 1) ** (r - 2)


def first_r_exceeding(s1: int, s2: int, num: int, den: int = 1) -> int:
    """Smallest r >= 3 whose growth lower bound exceeds the threshold num/den.

    Any flat dimension r whose size obeys the threshold then satisfies
    r < the returned value.  The search asks growth_margin at each r, whose
    sign does not change when num and den are scaled by the same positive
    factor, so the pair need not be reduced.
    """
    if not s2 > s1 >= 2:
        raise ValueError(f"need s2 > s1 >= 2, got s1={s1}, s2={s2}")
    if den <= 0:
        raise ValueError(f"the threshold's denominator must be positive, got {den}")
    # The bound grows with r iff s2 - s1 > s1 - 1; otherwise r = 3 is its peak.
    if s2 - s1 <= s1 - 1 and growth_margin(s1, s2, num, den, 3) <= 0:
        raise ValueError("growth bound never exceeds the threshold for these parameters")
    r = 3
    while growth_margin(s1, s2, num, den, r) <= 0:
        r += 1
    return r


class ThresholdReport(NamedTuple):
    """Cap num/den, in lowest terms, and the first excluded dimension for
    one parameter system."""

    s1: int
    driver: int  # alpha on the alpha route, beta on the beta route
    cap_num: int
    cap_den: int
    first_r_exceeding: int
    bound_name: str  # "alpha-route" or "beta-route"

    def to_record(self) -> dict:
        return {
            "s1": self.s1,
            "driver": self.driver,
            "threshold": f"{self.cap_num}/{self.cap_den}",
            "firstRExceeding": self.first_r_exceeding,
            "boundName": self.bound_name,
        }


class SweepResult(NamedTuple):
    """Worst case observed over a parameter grid."""

    bound_name: str
    systems_checked: int
    max_first_r: int
    worst: ThresholdReport | None
    internal_steps_ok: bool


def _sweep(bound_name: str, s1_max: int, systems: Callable[[int], tuple]) -> SweepResult:
    """The one sweep policy, over s1 = 3 .. s1_max.

    systems(s1) states the route: its drivers, their s2 values and unreduced
    cap terms (num, den), and whether its internal inequalities hold on all
    of them.  A system whose growth margin at the running maximum r is
    positive has first_r_exceeding <= r, so one exact comparison skips it;
    only the others run the full r-loop, and the first system to reach the
    maximum is the worst.
    """
    checked, max_r, worst, steps_ok = 0, 0, None, True
    for s1 in range(3, s1_max + 1):
        drivers, s2s, caps, ok = systems(s1)
        checked += len(drivers)
        steps_ok = steps_ok and ok
        for driver, s2, (num, den) in zip(drivers, s2s, caps):
            if max_r < 3 or growth_margin(s1, s2, num, den, max_r) <= 0:
                r = first_r_exceeding(s1, s2, num, den)
                if r > max_r:
                    max_r = r
                    g = math.gcd(num, den)
                    worst = ThresholdReport(s1, driver, num // g, den // g, r, bound_name)
    return SweepResult(bound_name, checked, max_r, worst, steps_ok)


def alpha_route_sweep(s1_max: int, alpha_max: int) -> SweepResult:
    """Sweep the alpha' = 0 grid: every admissible alpha (s1 | alpha^2, alpha^2 >= s1),
    re-checking the two inequalities the cap derivation leans on:
    phi^2 < (alpha + s1*(s1-1))^4 and s2 - s1 >= alpha + s1*(s1-1)."""

    def systems(s1):
        u = s1 * (s1 - 1)
        # m^2 >= s1 since s1 | m^2, so the floor alpha^2 >= s1 holds.
        m = square_divisor(s1)
        alphas = range(m, alpha_max + 1, m)
        phis = [phi_of(s1, alpha) for alpha in alphas]
        s2s = [s2_from(s1, alpha) for alpha in alphas]
        ok = all([phi * phi < (alpha + u) ** 4 and s2 - s1 >= alpha + u
                  for alpha, phi, s2 in zip(alphas, phis, s2s)])
        caps = [alpha_cap_terms(s1, alpha, phi) for alpha, phi in zip(alphas, phis)]
        return alphas, s2s, caps, ok

    return _sweep("alpha-route", s1_max, systems)


def beta_route_sweep(s1_max: int, beta_max: int) -> SweepResult:
    """Sweep the alpha' = 1 grid: beta over multiples of s1 (s1 | beta, beta >= s1),
    re-checking s2 - s1 >= s1^2 + beta."""

    def systems(s1):
        betas = range(s1, beta_max + 1, s1)
        s2s = [s2_from(s1, beta + 1) for beta in betas]
        ok = all([s2 - s1 >= s1 * s1 + beta for beta, s2 in zip(betas, s2s)])
        return betas, s2s, [beta_cap_terms(s1, beta) for beta in betas], ok

    return _sweep("beta-route", s1_max, systems)


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
    theta, phi = theta_of(s1, alpha), phi_of(s1, alpha)
    psi = psi_of(s1, theta, d)
    bracket = theta * d + 4 * alpha * s1 * s1 * (s1 - 1)
    return {
        "phi": phi == d * d - 4 * alpha * s1,
        "product": theta * phi - 4 * alpha * s1 * psi == d * bracket,
        # Factored form of the product identity's right-hand bracket.
        "bracket": bracket == (alpha * (2 * s1 - 1) + u) * (alpha + u),
        # Point localization: s2 - 1 = (alpha + s1)(s1 - 1).
        "planeSize": s2_from(s1, alpha) - 1 == (alpha + s1) * (s1 - 1),
    }
