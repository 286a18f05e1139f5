"""Numerical-invariant model of a locally finite homogeneous geometry.

A geometry enters the analysis only through a handful of integers: the line
size s1, the incidence invariants alpha and alpha', and the dimension.  This
module derives the plane size s2, states the divisibility constraints those
invariants must satisfy, fixes the dimension from which the chain argument
applies, and classifies which (if any) of the three exceptional parameter
families a system belongs to.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .exact_arith import UniPoly, exact_sqrt, is_perfect_square


class ModelScopeError(ValueError):
    """Parameter values outside the modeled range (for example alpha' >= 2)."""


class Condition(Enum):
    """Exceptional parameter families surviving the growth-threshold analysis.

    Cond1Plus / Cond1Minus require s1 to be a perfect square and
    alpha = s1*(sqrt(s1) +/- 1)^2; Cond2 is alpha = s1*(s1-1); Cond3 is
    alpha = s1^2 + 1.  These four equations are written once, in
    `condition_alpha`.  Each member carries its family index (1, 2 or 3)
    and the alpha' at which it lives (1 for Cond3, 0 for the others).  The
    classical shapes are not families; `is_classical_shape` states them.

    Members hash by identity: each is a singleton compared by identity, and
    the hot loops hash them in sets and dicts, where Enum's own hash runs in
    Python.
    """

    COND1_PLUS = ("Cond1Plus", 1, 0)
    COND1_MINUS = ("Cond1Minus", 1, 0)
    COND2 = ("Cond2", 2, 0)
    COND3 = ("Cond3", 3, 1)

    def __new__(cls, value: str, family: int, alpha_prime: int):
        member = object.__new__(cls)
        member._value_ = value
        member.family = family
        member.alpha_prime = alpha_prime
        return member

    __hash__ = object.__hash__


# The four exceptional conditions in definition order, built once: iterating
# the enum itself runs a Python-level generator on every pass.
EXCEPTIONAL: tuple[Condition, ...] = tuple(Condition)


class ParamSystem(
    NamedTuple(
        "ParamSystem", [("s1", int), ("alpha", int), ("alpha_prime", int), ("dim", int)]
    )
):
    """The numerical invariants (s1, alpha, alpha', dim) of a putative geometry.

    alpha is a nonnegative integer (it counts incidences) and alpha' is
    restricted to {0, 1}; anything else is rejected loudly rather than
    silently passed through the arithmetic.
    """

    __slots__ = ()

    def __new__(cls, s1: int, alpha: int, alpha_prime: int = 0, dim: int = 3):
        if s1 < 2:
            raise ValueError(f"s1 must be at least 2, got {s1}")
        if alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        if alpha_prime not in (0, 1):
            raise ModelScopeError(
                f"alpha_prime={alpha_prime} is outside the modeled range {{0, 1}}"
            )
        if dim < 3:
            raise ValueError(f"dim must be at least 3, got {dim}")
        return super().__new__(cls, s1, alpha, alpha_prime, dim)

    @property
    def beta(self) -> int:
        """alpha - 1; defined only in the alpha' = 1 regime with alpha >= 1."""
        if self.alpha_prime != 1 or self.alpha < 1:
            raise ValueError("beta is defined only when alpha_prime = 1 and alpha >= 1")
        return self.alpha - 1

    def to_record(self) -> dict:
        return {
            "s1": self.s1,
            "alpha": self.alpha,
            "alphaPrime": self.alpha_prime,
            "dim": self.dim,
        }


# -- dimension thresholds -----------------------------------------------------

# The chain a counterexample needs: point inside line inside plane.
LOCALIZATION_CHAIN_DEPTH = 3

# Largest flat dimension compatible with each route's size cap.
ALPHA_ROUTE_MAX_R = 19
BETA_ROUTE_MAX_R = 16


def exceptional_min_dim(
    alpha_route_max_r: int = ALPHA_ROUTE_MAX_R, beta_route_max_r: int = BETA_ROUTE_MAX_R
) -> int:
    """Dimension from which the condition trichotomy is in force.

    One above the largest flat dimension either size cap tolerates.
    """
    return max(alpha_route_max_r, beta_route_max_r) + 1


def required_dimension(
    alpha_route_max_r: int = ALPHA_ROUTE_MAX_R, beta_route_max_r: int = BETA_ROUTE_MAX_R
) -> int:
    """Dimension needed for the full chain argument.

    The trichotomy must hold in the geometry and in all
    LOCALIZATION_CHAIN_DEPTH nested localizations, each localization
    dropping the dimension by one.
    """
    return exceptional_min_dim(alpha_route_max_r, beta_route_max_r) + LOCALIZATION_CHAIN_DEPTH


def s2_from(s1: int, alpha: int) -> int:
    """Plane size forced by (s1, alpha): s1 + (s1-1)*alpha + (s1-1)^2."""
    return s1 + (s1 - 1) * alpha + (s1 - 1) ** 2


def integrality_alpha0(s1: int, alpha: int) -> bool:
    """Divisibility forced in the alpha' = 0 regime: s1 | alpha^2."""
    # (s1-1)*alpha^2 / s1 must be an integer; gcd(s1, s1-1) = 1 reduces this
    # to s1 dividing alpha^2.
    return (alpha * alpha) % s1 == 0


def square_divisor(n: int) -> int:
    """The m with n | a^2 exactly when m | a: prod p^ceil(e/2) over n = prod p^e."""
    m, p = 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        m *= p ** ((e + 1) // 2)
        p += 1
    return m * n  # what is left is 1 or a prime to the first power


def integrality_alpha1(s1: int, beta: int) -> bool:
    """Divisibility forced in the alpha' = 1 regime: s1 | beta."""
    return beta % s1 == 0


def require_hypothesis_line_size(s1: int, name: str) -> None:
    """Reject a line size (or line-size bound) below the hypothesis s1 >= 3."""
    if s1 < 3:
        raise ValueError(f"hypothesis requires at least 3 points on a line ({name} >= 3)")


def condition_alpha(condition: Condition, s1: "int | UniPoly") -> "int | UniPoly":
    """The alpha value an exceptional condition forces at line size s1.

    s1 may be an int or a UniPoly; the same ring operations serve both.
    Condition 1 needs s1 to be a perfect square and raises ValueError
    otherwise.
    """
    if condition is Condition.COND2:
        return s1 * (s1 - 1)
    if condition is Condition.COND3:
        return s1 * s1 + 1
    sign = 1 if condition is Condition.COND1_PLUS else -1
    return s1 * (exact_sqrt(s1) + sign) ** 2


def condition_alphas(s1: int) -> dict[Condition, int]:
    """The alpha value each exceptional condition forces at this line size
    (condition 1 only when s1 is a perfect square)."""
    return {
        cond: condition_alpha(cond, s1)
        for cond in EXCEPTIONAL
        if cond.family != 1 or is_perfect_square(s1)
    }


def is_classical_shape(ps: ParamSystem) -> bool:
    """Whether the system has a classical shape: projective-like (alpha = 0)
    or affine-like (alpha = 1, alpha' = 0)."""
    return ps.alpha == 0 or (ps.alpha == 1 and ps.alpha_prime == 0)


def classify_condition(ps: ParamSystem) -> frozenset[Condition]:
    """The exceptional conditions whose equation (s1, alpha, alpha') satisfies.

    Each condition must also match its alpha' (`Condition.alpha_prime`).
    Per-flat squareness requirements (s_i square for i >= 3, and so on) are
    not checked here; they only become decidable after localization, where
    the relevant flat sizes are computable.
    """
    return frozenset(
        cond
        for cond, alpha in condition_alphas(ps.s1).items()
        if alpha == ps.alpha and ps.alpha_prime == cond.alpha_prime
    )
