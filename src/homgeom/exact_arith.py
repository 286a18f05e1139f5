"""Exact integer and integer-polynomial arithmetic.

Everything downstream (growth bounds, square obstructions, sieves) runs on
this substrate.  There is no floating point and no rational number anywhere:
integers are Python's arbitrary-precision ``int``, and polynomials are dense
tuples of ``int`` coefficients.  The two divisions, ``divmod`` and
``sqrt_part``, return integral results or raise.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

NEG_INF = float("-inf")


def is_perfect_square(n: int) -> bool:
    """True iff n is the square of a nonnegative integer."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def exact_sqrt(n: "int | UniPoly") -> "int | UniPoly":
    """The r >= 0 with r*r == n, for an int or a UniPoly (leading coefficient
    positive); raises ValueError when n is not a perfect square (math.isqrt
    raises it for a negative int)."""
    if isinstance(n, UniPoly):
        r = n.sqrt_part()
    else:
        r = math.isqrt(n)
    if r * r != n:
        raise ValueError(f"{n} is not a perfect square")
    return r


class UniPoly:
    """Univariate polynomial with integer coefficients.

    Coefficients are stored densely in ascending order of degree with
    trailing zeros trimmed; the zero polynomial has an empty coefficient
    tuple and degree -inf.  A coefficient that is not an int raises
    TypeError.  Instances are immutable and hashable, and all ring
    operations are exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        if not all(type(c) is int for c in cs):
            raise TypeError(f"UniPoly coefficients must be int, got {cs!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "UniPoly":
        return cls([c])

    @classmethod
    def x(cls) -> "UniPoly":
        return cls([0, 1])

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> "int | float":
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "UniPoly | int") -> "UniPoly":
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly | int") -> "UniPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "UniPoly":
        return self._coerce(other) - self

    def __mul__(self, other: "UniPoly | int") -> "UniPoly":
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = UniPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def square(self) -> "UniPoly":
        return self * self

    def __divmod__(self, other: "UniPoly | int") -> "tuple[UniPoly, UniPoly]":
        """Exact long division: (q, r) with self == q*other + r, deg r < deg other.

        Raises ValueError when the quotient would need a non-integral
        coefficient (a monic divisor never does).
        """
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - d, 0)
        for k in reversed(range(len(quot))):
            c, r = divmod(rem[k + d], lead)
            if r:
                raise ValueError(f"{self} has no integral quotient by {other}")
            quot[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= c * b
        return UniPoly(quot), UniPoly(rem[:d])

    def sqrt_part(self) -> "UniPoly":
        """The polynomial part of sqrt(p): the unique g with deg(p - g^2) < deg g.

        Needs even degree >= 2 and a positive square as leading coefficient,
        and raises ValueError unless g has integer coefficients.  This is the
        completing-the-square step of Runge's method.
        """
        n, odd = divmod(len(self.coeffs) - 1, 2)
        lead = self.coefficient(len(self.coeffs) - 1)
        root = math.isqrt(max(lead, 0))
        if n < 1 or odd or root * root != lead:
            raise ValueError(f"{self} has no polynomial square-root part")
        # Adding c*x^k to g changes the x^(n+k) coefficient of g^2 by 2*root*c
        # and leaves every higher one alone, so each c is fixed in turn.
        g = [0] * n + [root]
        for k in reversed(range(n)):
            g[k], r = divmod((self - UniPoly(g).square()).coefficient(n + k), 2 * root)
            if r:
                raise ValueError(f"{self} has no integral square-root part")
        return UniPoly(g)

    @staticmethod
    def _coerce(value: "UniPoly | int") -> "UniPoly":
        if isinstance(value, UniPoly):
            return value
        return UniPoly.constant(value)

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- evaluation and composition -------------------------------------------

    def evaluate(self, t: int) -> int:
        """Exact Horner evaluation."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def shift(self, c: int) -> "UniPoly":
        """Composition p(x + c), exact in the coefficients.

        Satisfies p.shift(c).evaluate(t) == p.evaluate(t + c) for all t.
        """
        x_plus_c = UniPoly([c, 1])
        result = UniPoly()
        for coeff in reversed(self.coeffs):
            result = result * x_plus_c + coeff
        return result

    def __repr__(self) -> str:
        if self.is_zero():
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "UniPoly(" + " + ".join(terms) + ")"


class PositivityCertificate(NamedTuple):
    """Outcome of the shifted-coefficient positivity test.

    ``proved`` is sound but not complete: True certifies p(t) > 0 for every
    t >= t_min (real or integer), and False carries no information either
    way.
    """

    proved: bool
    t_min: int
    shifted: UniPoly
    failing_power: "int | None" = None


def eventually_positive(p: UniPoly, t_min: int) -> PositivityCertificate:
    """Certify p(t) > 0 for all t >= t_min, or report Inconclusive.

    The test: expand p(x + t_min) and require every coefficient >= 0 with a
    strictly positive constant term.  Then for x >= 0 the value is at least
    the constant term, which proves positivity on [t_min, infinity).  A
    failure of the test proves nothing, so the result is never a false
    positive.
    """
    shifted = p.shift(t_min)
    if shifted.is_zero() or shifted.coefficient(0) <= 0:
        return PositivityCertificate(False, t_min, shifted, 0)
    for i, c in enumerate(shifted.coeffs):
        if c < 0:
            return PositivityCertificate(False, t_min, shifted, i)
    return PositivityCertificate(True, t_min, shifted)
