"""Point localization and the per-case square obstructions it produces.

Localizing a geometry at a point turns lines through the point into points
of a smaller geometry whose line size is s1_hat = alpha + s1.  When an
exceptional condition is hypothesized both before and after localization,
the squareness requirement riding along with the outer condition becomes a
concrete integer (computed here structurally, through s1_hat, alpha_hat and
the localized plane size s2_hat = s2_from(s1_hat, alpha_hat)) that must be a
perfect square.  Of the six condition pairs, two (A and D) are impossible by
an imported external fact; the remaining four are killed computationally,
instance by instance, through that integer.

The same formulas run unchanged over polynomials: evaluated at the
indeterminate x they give the obstruction polynomial f of each case, from
which the obstructions module derives its whole catalog.  The hypothesis
ranges and known square arguments below are the only copy of those facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .exact_arith import UniPoly, isqrt_floor, is_perfect_square
from .parameters import Condition, ParamSystem, s2_from


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

    Carries the arguments at which the obstruction value is known to be a
    perfect square; all of them sit below the range.
    """

    def __init__(self, case: "CaseLabel", argument: int, known_square_args: tuple[int, ...]):
        self.case = case
        self.argument = argument
        self.known_square_args = known_square_args
        super().__init__(
            f"case {case.value} argument {argument} is below the hypothesis range "
            f"(starts at {CASE_MIN_ARG[case]}); known square arguments: {known_square_args}"
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

# Arguments (all below the hypothesis range) where the obstruction value IS a
# perfect square.  Kept explicit so regressions in the square test surface as
# sieve diffs.
KNOWN_SQUARE_ARGS = {
    CaseLabel.B_PLUS: (0, 1),
    CaseLabel.B_MINUS: (0, 1),
    CaseLabel.C: (0, 1, 2),
    CaseLabel.E: (0, 1),
    CaseLabel.F: (1,),
}


def point_localize(ps: ParamSystem) -> int:
    """Line size of the localization at a point: s1_hat = alpha + s1.

    It equals the quotient (s2 - 1)/(s1 - 1); bounds.spectral_identities
    checks that identity once, as a polynomial identity.
    """
    return ps.alpha + ps.s1


def localized_alpha(condition: Condition, s1_hat: int) -> int:
    """The alpha value a hypothesized condition forces on the localized system
    (for conditions 2 and 3, s1_hat may also be a UniPoly)."""
    if condition is Condition.COND2:
        return s1_hat * (s1_hat - 1)
    if condition is Condition.COND3:
        return s1_hat * s1_hat + 1
    if condition in (Condition.COND1_PLUS, Condition.COND1_MINUS):
        if not is_perfect_square(s1_hat):
            raise ValueError(
                f"condition {condition.value} needs a square line size, got {s1_hat}"
            )
        root = isqrt_floor(s1_hat)
        sign = 1 if condition is Condition.COND1_PLUS else -1
        return s1_hat * (root + sign) ** 2
    raise ValueError(f"{condition.value} does not force an alpha value")


def _square_quantity_from(s1: int, alpha: int, condition_hat: Condition) -> int:
    """s3/s1 of the outer system under the inner hypothesis (s3 via s2_hat).

    The outer squareness requirement reduces to this quantity being a perfect
    square; for the C pair it is s2_hat itself.  The division must be exact.
    """
    s1h = alpha + s1
    alpha_hat = localized_alpha(condition_hat, s1h)
    s3 = 1 + (s1 - 1) * s2_from(s1h, alpha_hat)
    quotient, remainder = divmod(s3, s1)
    if remainder != 0:
        raise ArithmeticError(f"s3={s3} not divisible by s1={s1}")
    return quotient


def obstruction_value(case: CaseLabel, arg: int | UniPoly) -> int | UniPoly:
    """The quantity one instance of a computable case requires to be a square.

    The argument is the outer system's line size s1 for cases C, E, F, and
    t = sqrt(s1) for the B variants (condition 1 presupposes square s1).
    Everything is computed structurally through the localization transform,
    using ring operations and one exact division only.  An integer argument
    (at least 2) gives the integer for that instance; UniPoly.x() gives the
    case's obstruction polynomial f itself.
    """
    if case in (CaseLabel.A, CaseLabel.D):
        raise ExternalCaseError(
            f"case {case.value} is settled by an imported external fact; "
            "it has no computable obstruction here"
        )
    if isinstance(arg, int) and arg < 2:
        raise ValueError(f"case {case.value} obstruction needs argument >= 2, got {arg}")
    if case is CaseLabel.C:
        # Condition 2 outer and inner: the quantity is s2_hat itself, with
        # s1_hat = s1^2.
        s1h = arg * arg
        return s2_from(s1h, localized_alpha(Condition.COND2, s1h))
    if case in (CaseLabel.E, CaseLabel.F):
        inner = Condition.COND2 if case is CaseLabel.E else Condition.COND3
        return _square_quantity_from(arg, arg * arg + 1, inner)
    # B variants: outer condition 1 with t = sqrt(s1), inner condition 2.
    sign = 1 if case is CaseLabel.B_PLUS else -1
    s1 = arg * arg
    return _square_quantity_from(s1, s1 * (arg + sign) ** 2, Condition.COND2)


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
        raise CaseRangeError(case, arg, KNOWN_SQUARE_ARGS[case])
    value = obstruction_value(case, arg)
    if is_perfect_square(value):
        return CaseInstanceVerdict(case, arg, value, False, root=isqrt_floor(value))
    return CaseInstanceVerdict(case, arg, value, True)
