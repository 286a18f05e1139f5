"""Point localization and the per-case square obstructions it produces.

Localizing a geometry at a point turns lines through the point into points
of a smaller geometry whose line size is s1_hat = alpha + s1.  When an
exceptional condition is hypothesized both before and after localization,
the squareness requirement riding along with the outer condition becomes a
concrete integer that must be a perfect square.  It is computed
structurally, in one path for every case: the outer alpha, the localization
step, the inner alpha_hat (both from parameters.condition_alpha) and the
localized plane size s2_hat = s2_from(s1_hat, alpha_hat).  Of the six
condition pairs, two (A and D) are impossible by an imported external fact;
the remaining four are killed computationally, instance by instance,
through that integer.

The same path runs unchanged over polynomials: evaluated at the
indeterminate x it gives the obstruction polynomial f of each case, from
which the obstructions module derives its whole catalog.  Each case's
condition pair and hypothesis range are tabulated here; its known square
arguments are derived from f.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .exact_arith import UniPoly, isqrt_floor, is_perfect_square
from .parameters import Condition, condition_alpha, s2_from


class CaseLabel(Enum):
    """The six impossible condition pairs, with the sign split for case B.

    A is the pair (1, 1), B the pair (1, 2) in its two sign variants,
    C = (2, 2), D = (3, 1), E = (3, 2), F = (3, 3).
    """

    A = "a"
    B_PLUS = "b+"
    B_MINUS = "b-"
    C = "c"
    D = "d"
    E = "e"
    F = "f"

    @property
    def provenance(self) -> str:
        """Whether this artifact verifies the case or imports it as a fact."""
        return "external" if self in (CaseLabel.A, CaseLabel.D) else "internal"


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
        self.known_square_args = known_square_args(case)
        super().__init__(
            f"case {case.value} argument {argument} is below the hypothesis range "
            f"(starts at {CASE_MIN_ARG[case]}); known square arguments: "
            f"{self.known_square_args}"
        )


# Smallest argument at which each computable case's elimination is claimed.
# Its keys, in this order, are the computable cases.
CASE_MIN_ARG = {
    CaseLabel.C: 3,
    CaseLabel.E: 2,
    CaseLabel.F: 2,
    CaseLabel.B_PLUS: 2,
    CaseLabel.B_MINUS: 2,
}

# The condition pair behind each computable case: the outer system's
# condition, then the one hypothesized on its point localization.
CASE_CONDITIONS = {
    CaseLabel.C: (Condition.COND2, Condition.COND2),
    CaseLabel.E: (Condition.COND3, Condition.COND2),
    CaseLabel.F: (Condition.COND3, Condition.COND3),
    CaseLabel.B_PLUS: (Condition.COND1_PLUS, Condition.COND2),
    CaseLabel.B_MINUS: (Condition.COND1_MINUS, Condition.COND2),
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
    square s1.  With (outer, inner) = CASE_CONDITIONS[case], the path is:
    alpha forced by outer at s1, the localization s1_hat, alpha_hat forced by
    inner at s1_hat, and s2_hat = s2_from(s1_hat, alpha_hat).  Under outer
    condition 2 the quantity is s2_hat itself; otherwise it is s3/s1 with
    s3 = 1 + (s1 - 1)*s2_hat, and that division must be exact.  Only ring
    operations and that one division are used, so an integer argument (at
    least 2) gives the integer for that instance and UniPoly.x() gives the
    case's obstruction polynomial f itself.
    """
    if case in (CaseLabel.A, CaseLabel.D):
        raise ExternalCaseError(
            f"case {case.value} is settled by an imported external fact; "
            "it has no computable obstruction here"
        )
    if isinstance(arg, int) and arg < 2:
        raise ValueError(f"case {case.value} obstruction needs argument >= 2, got {arg}")
    outer, inner = CASE_CONDITIONS[case]
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


def known_square_args(case: CaseLabel) -> tuple[int, ...]:
    """The t in [0, t_min) at which the case's obstruction value is a perfect
    square, with t_min = CASE_MIN_ARG[case]; the case's no-square
    certificate covers every t >= t_min."""
    f = obstruction_value(case, UniPoly.x())
    return tuple(t for t in range(CASE_MIN_ARG[case]) if is_perfect_square(f.evaluate_int(t)))


@dataclass(frozen=True)
class CaseInstanceVerdict:
    """Outcome of testing one case instance against its square obstruction."""

    case: CaseLabel
    argument: int
    value: int
    eliminated: bool
    root: int | None = None  # the witnessing square root when not eliminated

    @property
    def verdict(self) -> str:
        return "Eliminated" if self.eliminated else "SurvivesSquareTest"

    def to_record(self) -> dict:
        return {
            "case": self.case.value,
            "argument": self.argument,
            "obstructionValue": str(self.value),
            "verdict": self.verdict,
            "provenance": self.case.provenance,
        }


def eliminate_case_instance(
    case: CaseLabel, arg: int, *, enforce_range: bool = True
) -> CaseInstanceVerdict:
    """Eliminate one case instance by showing its obstruction is not a square.

    Within the hypothesis range every instance must come back Eliminated; a
    survivor there contradicts the classification and callers treat it as a
    hard failure.  Below the range (reachable only with enforce_range=False)
    the known near-misses, for example case c at s1 = 2, come back as
    SurvivesSquareTest.
    """
    if case in (CaseLabel.A, CaseLabel.D):
        raise ExternalCaseError(
            f"case {case.value} is settled by an imported external fact"
        )
    if enforce_range and arg < CASE_MIN_ARG[case]:
        raise CaseRangeError(case, arg)
    value = obstruction_value(case, arg)
    if is_perfect_square(value):
        return CaseInstanceVerdict(case, arg, value, False, root=isqrt_floor(value))
    return CaseInstanceVerdict(case, arg, value, True)
