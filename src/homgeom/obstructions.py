"""The square-obstruction catalog and its impossibility machinery.

Each computable case carries a polynomial f together with a completed-square
decomposition 4f = A^2 - H over the integers.  Nothing in the catalog is
entered by hand: f is the localization transform run over polynomials, A is
the polynomial part of sqrt(4f) and H = A^2 - 4f.  (With g = A/2 and
h = H/4 this is f = g^2 - h; g and h have half-integer and quarter-integer
coefficients, A and H integer ones.)  If f(t) were the square a^2, the
factorization (A(t) - 2a)(A(t) + 2a) = H(t) would follow, and a gap argument
on the size of H(t) relative to A(t) rules that out for every t >= t_min.
The gap argument is certified once per case by the shifted-coefficient
positivity test; a brute-force sieve over an initial segment of the integers
double-checks the same claim independently.  The sieve discards arguments
with periodic residue masks (f(t) mod m must be a square residue mod m),
held as bit patterns with one bit per argument, combined by the Chinese
remainder theorem into ten patterns and intersected by shift-and-AND one
fixed-size block at a time, and confirms the few survivors exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact_arith import (
    PositivityCertificate,
    UniPoly,
    eventually_positive,
    is_perfect_square,
)
from .localization import CASE_MIN_ARG, CaseLabel, obstruction_value


class SquareObstruction(NamedTuple):
    """One impossibility instance: 4f = A^2 - H plus the range it covers.

    f, A (twice the polynomial part of sqrt(f)) and H (four times the
    remainder) all have integer coefficients.  known_square_args lists every
    t in [0, t_min) where f takes a square value; the certificate covers the
    t >= t_min.
    """

    label: CaseLabel
    f: UniPoly
    A: UniPoly
    H: UniPoly
    t_min: int
    known_square_args: frozenset[int]


def _derive(label: CaseLabel) -> SquareObstruction:
    """The case's obstruction, with its known squares decided by factoring H(t).

    Factoring H(t) in 4f = A^2 - H is the argument the certificates rest on,
    so the sieve's oracle does not share the sieve's square test.
    """
    f = obstruction_value(label, UniPoly.x())
    a_poly = (4 * f).sqrt_part()
    h_poly = a_poly.square() - 4 * f
    t_min = CASE_MIN_ARG[label]
    known = frozenset(
        t for t in range(t_min)
        if _square_by_factoring(a_poly.evaluate(t), h_poly.evaluate(t))
    )
    return SquareObstruction(label, f, a_poly, h_poly, t_min, known)


def catalog() -> dict[CaseLabel, SquareObstruction]:
    """The five obstructions, keyed by case label, derived on each call.

    f is localization.obstruction_value at the indeterminate x (one path for
    every case), A is the polynomial part of sqrt(4f) and H = A^2 - 4f.
    t_min is the localization module's CASE_MIN_ARG.
    """
    return {label: _derive(label) for label in CASE_MIN_ARG}


def verify_identity(obs: SquareObstruction) -> bool:
    """Coefficient-exact check of 4f = A^2 - H."""
    return 4 * obs.f == obs.A * obs.A - obs.H


class NoSquareCertificate(NamedTuple):
    """Result of the gap argument for one obstruction.

    proved means: for every integer t >= t_min, f(t) is not a perfect
    square.  It is granted only when 4f = A^2 - H holds and all three
    positivity checks succeed; anything less is inconclusive, never a
    fabricated proof.
    """

    label: CaseLabel
    proved: bool
    t_min: int
    upper_gap: PositivityCertificate  # (2A - 1) - H > 0
    lower_gap: PositivityCertificate  # H + (2A + 1) > 0
    nonzero_side: str | None  # which of H / -H was certified positive
    nonzero: PositivityCertificate | None


def certify_no_square(obs: SquareObstruction) -> NoSquareCertificate:
    """Certify that f(t) is never a square for integer t >= t_min.

    Soundness of the criterion: suppose m^2 = 4f(t) = A(t)^2 - H(t) with
    H(t) != 0.  If H(t) > 0 then A(t)^2 > m^2, so |A(t)| >= |m| + 1 and
    H(t) = A^2 - m^2 >= 2|A(t)| - 1 >= 2A(t) - 1.  If H(t) < 0 then
    |m| >= |A(t)| + 1 and -H(t) >= 2|A(t)| + 1 >= ... > -(2A(t) + 1) is
    violated.  Certifying H strictly between -(2A + 1) and 2A - 1, and
    nonzero, therefore excludes every integer solution at once.  The
    argument rests on 4f = A^2 - H, so a decomposition that verify_identity
    rejects is never proved.
    """
    upper = eventually_positive(2 * obs.A - 1 - obs.H, obs.t_min)
    lower = eventually_positive(obs.H + 2 * obs.A + 1, obs.t_min)
    side = None
    nonzero = None
    pos = eventually_positive(obs.H, obs.t_min)
    if pos.proved:
        side, nonzero = "positive", pos
    else:
        neg = eventually_positive(-obs.H, obs.t_min)
        if neg.proved:
            side, nonzero = "negative", neg
    proved = verify_identity(obs) and upper.proved and lower.proved and nonzero is not None
    return NoSquareCertificate(
        label=obs.label,
        proved=proved,
        t_min=obs.t_min,
        upper_gap=upper,
        lower_gap=lower,
        nonzero_side=side,
        nonzero=nonzero,
    )


# Moduli of the sieve's residue masks: the classic square-test tables 64, 63,
# 65 and 11 (Cohen, A Course in Computational Algebraic Number Theory, 1.7),
# then every other prime up to 97.  The values of f cluster on square
# residues for any single modulus, but the intersection is tight: of the
# t <= 10^6 only 3 (case c), 2 (e), 1 (f), 2 (b+) and 5 (b-) survive every
# mask, and of the t <= 10^7 only 7, 8, 6, 20 and 14.  The moduli are
# pairwise coprime, so by the Chinese remainder theorem the masks of a group
# of them are one pattern whose period is the group's product.
_MASK_MODULI = (
    64, 63, 65, 11,
    17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

# Largest period of one combined bit pattern, and the number of arguments
# (one bit each) the sieve intersects at a time.  Each pattern is held tiled
# to one block plus one period, at most 2^17 bits or 16 KiB, so together they
# bound the sieve's memory independently of the limit.
_GROUP_PERIOD_CAP = 1 << 16
_BLOCK = 1 << 16


def _group_moduli(moduli: tuple[int, ...], cap: int) -> tuple[tuple[int, ...], ...]:
    """Consecutive runs of moduli, each closed before its product exceeds cap."""
    groups: list[tuple[int, ...]] = []
    run: tuple[int, ...] = ()
    for m in moduli:
        if run and math.prod(run) * m > cap:
            groups.append(run)
            run = ()
        run += (m,)
    groups.append(run)
    return tuple(groups)


# Ten groups for the 23 moduli: (64, 63), (65, 11, 17), (19, 23, 29), ...
_MASK_GROUPS = _group_moduli(_MASK_MODULI, _GROUP_PERIOD_CAP)


def _residue_bits(values: list[int], m: int) -> int:
    """Bit r (for r < m) is set exactly when values[r] = f(r) is a square
    residue mod m."""
    squares = {k * k % m for k in range(m)}
    return sum(1 << r for r in range(m) if values[r] % m in squares)


def _tile(bits: int, period: int, length: int) -> int:
    """The low period bits of bits, repeated by doubling, cut to length bits."""
    span = period
    while span < length:
        bits |= bits << span
        span *= 2
    return bits & ((1 << length) - 1)


def _square_by_factoring(a: int, h: int) -> bool:
    """Whether (a^2 - h)/4 is a perfect square r^2: exactly when
    (a - 2r)(a + 2r) = h, that is when h = 0, or when h = d*e with d + e = 2a,
    e >= d and 4 | e - d (then r = (e - d)/4).  No square root is taken."""
    if h == 0:
        return True
    n, p = abs(h), 1
    while p * p <= n:
        if n % p == 0:
            for d in (p, n // p, -p, -(n // p)):
                e = h // d
                if d + e == 2 * a and e >= d and (e - d) % 4 == 0:
                    return True
        p += 1
    return False


def sieve(f: UniPoly, limit: int) -> list[int]:
    """All t in [0, limit] with f(t) a perfect square.

    If f(t) is a square it is a square residue modulo every m, so the
    intersection of the residue masks for _MASK_MODULI (see there for the
    survivor counts) keeps every t that can still be a square.  The masks are
    bit patterns, bit i for argument i.  f(t) mod m depends only on t mod m,
    so the masks of one group of _MASK_GROUPS are one pattern of period
    prod(group), the AND of each modulus's period-m mask tiled to that
    period.  [0, limit] is intersected one block of _BLOCK bits at a time,
    one shift and AND per group, so memory does not grow with the limit.
    Each survivor is confirmed with exact arbitrary-precision evaluation, so
    the masks only save work and the result is identical to testing every t.
    """
    if limit < 0:
        raise ValueError("sieve limit must be nonnegative")
    # f(r) at every residue r of every modulus.
    values = [f.evaluate(r) for r in range(max(_MASK_MODULI))]
    # Each pattern is tiled to one block plus one period, so the block
    # starting at t0 is the tiled pattern shifted right by t0 % period.
    block = min(_BLOCK, limit + 1)
    tiled = []
    for group in _MASK_GROUPS:
        period = math.prod(group)
        pattern = -1
        for m in group:
            pattern &= _tile(_residue_bits(values, m), m, period)
        tiled.append((_tile(pattern, period, block + period), period))
    found: list[int] = []
    for t0 in range(0, limit + 1, _BLOCK):
        alive = (1 << min(_BLOCK, limit + 1 - t0)) - 1
        for bits, period in tiled:
            alive &= bits >> (t0 % period)
        if not alive:
            continue
        # Character i of the reversed binary string is bit i, argument t0 + i.
        marks = format(alive, "b")[::-1]
        i = marks.find("1")
        while i != -1:
            t = t0 + i
            v = f.evaluate(t)
            if v >= 0 and is_perfect_square(v):
                found.append(t)
            i = marks.find("1", i + 1)
    return found
