"""Point localization, the forbidden condition pairs, and the per-case
square obstructions.

Localizing a geometry at a point turns lines through the point into points
of a smaller geometry whose line size is s1_hat = alpha + s1.  When an
exceptional condition is hypothesized both before and after localization,
the squareness requirement riding along with the outer condition becomes a
concrete integer that must be a perfect square.  `FORBIDDEN_PAIRS` is the
one record of which (outer condition, localized family) pairs are
impossible and of the case that settles each.  The cases in `CASE_MIN_ARG`
are computed here; the other two (A and D) are imported external facts.

A computable case's integer comes from one path for every case: the outer
alpha, the localization step, the inner alpha_hat (both from
parameters.condition_alpha) and the localized plane size
s2_hat = s2_from(s1_hat, alpha_hat).  The same path runs unchanged over
polynomials: at the indeterminate x it gives each case's obstruction
polynomial f, from which the obstructions module derives its whole catalog,
known square arguments included.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .exact_arith import UniPoly
from .parameters import EXCEPTIONAL, Condition, condition_alpha, s2_from


class CaseLabel(Enum):
    """The cases that settle the impossible condition pairs.

    Which pair each settles is recorded in `FORBIDDEN_PAIRS`; case B splits
    by the sign of the outer condition 1.  Members hash by identity, as
    `Condition`'s do.
    """

    A = "a"
    B_PLUS = "b+"
    B_MINUS = "b-"
    C = "c"
    D = "d"
    E = "e"
    F = "f"

    __hash__ = object.__hash__


class ExternalCaseError(ValueError):
    """Raised when a computation is requested for an externally settled case."""


class CaseRangeError(ValueError):
    """Argument below the case's hypothesis range.

    Carries the arguments at which the obstruction value is a perfect
    square; all of them sit below the range.
    """

    def __init__(self, case: "CaseLabel", argument: int):
        self.case = case
        self.argument = argument
        self.known_square_args = known_square_args(
            case, *completed_square(obstruction_value(case, UniPoly.x()))
        )
        super().__init__(
            f"case {case.value} argument {argument} is below the hypothesis range "
            f"(starts at {CASE_MIN_ARG[case]}); known square arguments: "
            f"{self.known_square_args}"
        )


# The six forbidden pairs: (outer condition, family hypothesized on its point
# localization) -> the case that makes the pair impossible.  Condition 1
# enters with both signs, so the table has eight rows.
FORBIDDEN_PAIRS: dict[tuple[Condition, int], CaseLabel] = {
    (Condition.COND1_PLUS, 1): CaseLabel.A,
    (Condition.COND1_MINUS, 1): CaseLabel.A,
    (Condition.COND1_PLUS, 2): CaseLabel.B_PLUS,
    (Condition.COND1_MINUS, 2): CaseLabel.B_MINUS,
    (Condition.COND2, 2): CaseLabel.C,
    (Condition.COND3, 1): CaseLabel.D,
    (Condition.COND3, 2): CaseLabel.E,
    (Condition.COND3, 3): CaseLabel.F,
}

# Smallest argument at which each computable case's elimination is claimed.
# Its keys, in this order, are the computable cases; the rest are imported.
CASE_MIN_ARG = {
    CaseLabel.C: 3,
    CaseLabel.E: 2,
    CaseLabel.F: 2,
    CaseLabel.B_PLUS: 2,
    CaseLabel.B_MINUS: 2,
}


def point_localize(s1: "int | UniPoly", alpha: "int | UniPoly") -> "int | UniPoly":
    """Line size of the localization at a point: s1_hat = alpha + s1.

    It equals the quotient (s2 - 1)/(s1 - 1); bounds.spectral_identities
    checks that identity once, as a polynomial identity.
    """
    return alpha + s1


def obstruction_value(case: CaseLabel, arg: int | UniPoly) -> int | UniPoly:
    """The quantity one instance of a computable case requires to be a square.

    The argument is the outer system's line size s1, or t = sqrt(s1) when
    the outer condition is condition 1 (the B variants), which presupposes
    square s1.  The case's row of FORBIDDEN_PAIRS gives the outer condition
    and the localized family, whose condition is the inner one; the path is:
    alpha forced by outer at s1, the localization s1_hat, alpha_hat forced by
    inner at s1_hat, and s2_hat = s2_from(s1_hat, alpha_hat).  Under outer
    condition 2 the quantity is s2_hat itself; otherwise it is s3/s1 with
    s3 = 1 + (s1 - 1)*s2_hat, and that division must be exact.  Only ring
    operations and that one division are used, so an integer argument (at
    least 2) gives the integer for that instance and UniPoly.x() gives the
    case's obstruction polynomial f itself.
    """
    if case not in CASE_MIN_ARG:
        raise ExternalCaseError(
            f"case {case.value} is settled by an imported external fact; "
            "it has no computable obstruction here"
        )
    if isinstance(arg, int) and arg < 2:
        raise ValueError(f"case {case.value} obstruction needs argument >= 2, got {arg}")
    outer, target = next(pair for pair, c in FORBIDDEN_PAIRS.items() if c is case)
    # Every computable case localizes into family 2 or 3, one condition each.
    inner = next(c for c in EXCEPTIONAL if c.family == target)
    s1 = arg * arg if outer.family == 1 else arg
    s1_hat = point_localize(s1, condition_alpha(outer, s1))
    s2_hat = s2_from(s1_hat, condition_alpha(inner, s1_hat))
    if outer is Condition.COND2:
        return s2_hat
    s3 = 1 + (s1 - 1) * s2_hat
    quotient, remainder = divmod(s3, s1)
    if remainder != 0:
        raise ArithmeticError(f"s3={s3} not divisible by s1={s1}")
    return quotient


def completed_square(f: UniPoly) -> tuple[UniPoly, UniPoly]:
    """(A, H) with 4f = A^2 - H: A is the polynomial part of sqrt(4f) and
    H = A^2 - 4f, both with integer coefficients."""
    a_poly = (4 * f).sqrt_part()
    return a_poly, a_poly.square() - 4 * f


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


def known_square_args(case: CaseLabel, a_poly: UniPoly, h_poly: UniPoly) -> tuple[int, ...]:
    """The t in [0, t_min) at which the case's obstruction polynomial f is a
    perfect square, with t_min = CASE_MIN_ARG[case]; the case's no-square
    certificate covers every t >= t_min.  The caller passes (A, H) =
    completed_square(f), which it has already derived.  Each t is decided by
    factoring H(t) in 4f = A^2 - H, the argument the certificates rest on,
    so the sieve's oracle does not share the sieve's square test.
    """
    return tuple(
        t for t in range(CASE_MIN_ARG[case])
        if _square_by_factoring(a_poly.evaluate(t), h_poly.evaluate(t))
    )


class CaseInstanceVerdict(NamedTuple):
    """Outcome of testing one case instance against its square obstruction:
    root is the witnessing square root, or None when the instance is
    eliminated."""

    case: CaseLabel
    argument: int
    value: int
    root: int | None

    @property
    def verdict(self) -> str:
        return "Eliminated" if self.root is None else "SurvivesSquareTest"

    def to_record(self) -> dict:
        return {
            "case": self.case.value,
            "argument": self.argument,
            "obstructionValue": str(self.value),
            "verdict": self.verdict,
        }


def eliminate_case_instance(case: CaseLabel, arg: int) -> CaseInstanceVerdict:
    """Eliminate one case instance by showing its obstruction is not a square.

    Within the hypothesis range every instance must come back Eliminated; a
    survivor there contradicts the classification and callers treat it as a
    hard failure.  An argument below the range raises CaseRangeError, which
    lists the known near misses there, for example case c at s1 = 2.
    """
    if case in CASE_MIN_ARG and arg < CASE_MIN_ARG[case]:
        raise CaseRangeError(case, arg)
    # obstruction_value raises ExternalCaseError for an imported case.
    value = obstruction_value(case, arg)
    root = math.isqrt(max(value, 0))
    return CaseInstanceVerdict(case, arg, value, root if root * root == value else None)
