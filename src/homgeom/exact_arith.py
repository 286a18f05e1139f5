"""Exact integer, rational and univariate polynomial arithmetic.

Everything downstream (growth bounds, square obstructions, sieves) runs on
this substrate.  There is no floating point anywhere: integers are Python's
arbitrary-precision ``int``, rationals are ``fractions.Fraction`` (always in
lowest terms, so equality is structural), and polynomials are dense
coefficient tuples in which an integral coefficient is an ``int`` and only a
non-integral one, which only a division makes, is a ``Fraction``.
``_jsonable`` writes these numbers into JSON output, every int as a decimal
string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]

NEG_INF = float("-inf")


def isqrt_floor(n: int) -> int:
    """Largest r with r*r <= n.

    Raises ValueError for negative input.
    """
    if n < 0:
        raise ValueError(f"isqrt_floor is undefined for negative input {n}")
    return math.isqrt(n)


def is_perfect_square(n: int) -> bool:
    """True iff n is the square of a nonnegative integer."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def exact_sqrt(n: "int | UniPoly") -> "int | UniPoly":
    """The r >= 0 with r*r == n, for an int or a UniPoly (leading coefficient
    positive); raises ValueError when n is not a perfect square."""
    if isinstance(n, UniPoly):
        r = n.sqrt_part()
    else:
        r = isqrt_floor(n)
    if r * r != n:
        raise ValueError(f"{n} is not a perfect square")
    return r


def _exact(c: Scalar) -> Scalar:
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = c if isinstance(c, Fraction) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


class UniPoly:
    """Univariate polynomial with exact rational coefficients.

    Coefficients are stored densely in ascending order of degree with
    trailing zeros trimmed; the zero polynomial has an empty coefficient
    tuple and degree -inf.  An integral coefficient is stored as an int,
    any other as a Fraction, so integral polynomials run on int arithmetic.
    Instances are immutable and hashable, and all ring operations are exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "UniPoly":
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

    def coefficient(self, power: int) -> Scalar:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def has_integer_coefficients(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    def integer_coefficients(self) -> tuple[int, ...]:
        """Ascending coefficients as plain ints; raises if any is fractional."""
        if not self.has_integer_coefficients():
            raise ValueError(f"polynomial has non-integer coefficients: {self}")
        return self.coeffs

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "UniPoly | Scalar") -> "UniPoly":
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

    def __sub__(self, other: "UniPoly | Scalar") -> "UniPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "UniPoly":
        return self._coerce(other) - self

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
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

    def __divmod__(self, other: "UniPoly | Scalar") -> "tuple[UniPoly, UniPoly]":
        """Exact long division: (q, r) with self == q*other + r, deg r < deg other."""
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - d, 0)
        for k in reversed(range(len(quot))):
            # Fraction division: / on two ints would give a float.
            quot[k] = c = _exact(Fraction(rem[k + d], lead))
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= c * b
        return UniPoly(quot), UniPoly(rem[:d])

    def sqrt_part(self) -> "UniPoly":
        """The polynomial part of sqrt(p): the unique g with deg(p - g^2) < deg g.

        Needs even degree >= 2 and a positive rational square as leading
        coefficient.  This is the completing-the-square step of Runge's method.
        """
        n, odd = divmod(len(self.coeffs) - 1, 2)
        lead = self.coefficient(len(self.coeffs) - 1)
        root = Fraction(math.isqrt(max(lead.numerator, 0)), math.isqrt(lead.denominator))
        if n < 1 or odd or root * root != lead:
            raise ValueError(f"{self} has no polynomial square-root part")
        # Adding c*x^k to g changes the x^(n+k) coefficient of g^2 by 2*root*c
        # and leaves every higher one alone, so each c is fixed in turn.
        g = [0] * n + [root]
        for k in reversed(range(n)):
            g[k] = Fraction((self - UniPoly(g).square()).coefficient(n + k), 2 * root)
        return UniPoly(g)

    @staticmethod
    def _coerce(value: "UniPoly | Scalar") -> "UniPoly":
        if isinstance(value, UniPoly):
            return value
        return UniPoly.constant(value)

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- evaluation and composition -------------------------------------------

    def evaluate(self, t: Scalar) -> Scalar:
        """Exact Horner evaluation."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def evaluate_int(self, t: int) -> int:
        """Evaluate at an integer; raises if the value is not an integer."""
        v = self.evaluate(t)
        if v.denominator != 1:
            raise ValueError(f"value {v} at t={t} is not an integer")
        return v.numerator

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


class Positivity(Enum):
    PROVED_POSITIVE = "proved-positive"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class PositivityCertificate:
    """Outcome of the shifted-coefficient positivity test.

    ``PROVED_POSITIVE`` is sound but not complete: it certifies p(t) > 0 for
    every t >= t_min (real or integer), and ``INCONCLUSIVE`` carries no
    information either way.
    """

    status: Positivity
    t_min: int
    shifted: UniPoly
    failing_power: "int | None" = None

    @property
    def proved(self) -> bool:
        return self.status is Positivity.PROVED_POSITIVE


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
        return PositivityCertificate(Positivity.INCONCLUSIVE, t_min, shifted, 0)
    for i, c in enumerate(shifted.coeffs):
        if c < 0:
            return PositivityCertificate(Positivity.INCONCLUSIVE, t_min, shifted, i)
    return PositivityCertificate(Positivity.PROVED_POSITIVE, t_min, shifted)


def _jsonable(obj):
    """JSON-friendly form with every integer as a decimal string.

    Consumers of the report must not lose precision on the big integers, so
    ints are serialized as strings throughout.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(v) for v in items]
    if hasattr(obj, "to_record"):
        return _jsonable(obj.to_record())
    raise TypeError(f"cannot serialize {type(obj)!r}")
