"""Ground truth: projective and affine geometries over prime fields.

These are the classical objects the parameter model is calibrated against.
Points are coordinate tuples, closure is linear (projective) or affine span,
and everything the rest of the package manipulates abstractly (flat-size
profiles, the localization quotient, the derived alpha) is computed here
concretely by enumeration so the abstract relations can be checked against
real geometries.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple

# The lattice walk scans the points at most once per flat, so the desk-scale
# limit bounds flats x points.  PG(3,7) (1.5 * 10^6) walks in about 0.25 s
# and PG(2,31) (2.0 * 10^6) in 0.13 s; AG(3,13) (7.8 * 10^7) would take 7 s.
DESK_SCALE_LIMIT = 4_000_000

Point = tuple[int, ...]


class UnsupportedFieldError(ValueError):
    """Raised for field sizes that are not prime."""


class HomogeneityError(ValueError):
    """Two flats of the same dimension turned out to have different sizes."""


class ModelMismatchError(ValueError):
    """A profile does not fit the parameter model's relations."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class GeometryKind(NamedTuple):
    family: str  # "projective" or "affine"
    n: int
    p: int

    def __str__(self) -> str:
        tag = "PG" if self.family == "projective" else "AG"
        return f"{tag}({self.n},{self.p})"


class FlatProfile(NamedTuple("FlatProfile", [("sizes", tuple[int, ...])])):
    """Flat sizes s_0 ... s_n of a geometry; strictly increasing with s_0 = 1."""

    __slots__ = ()

    def __new__(cls, sizes):
        if not sizes:
            raise ValueError("a flat profile needs at least s_0")
        if sizes[0] != 1:
            raise ValueError(f"s_0 must be 1, got {sizes[0]}")
        for a, b in zip(sizes, sizes[1:]):
            if b <= a:
                raise ValueError(f"flat sizes must strictly increase, got {sizes}")
        return super().__new__(cls, tuple(int(s) for s in sizes))

    @property
    def top_dim(self) -> int:
        return len(self.sizes) - 1

    def s(self, i: int) -> int:
        return self.sizes[i]


class Geometry:
    """A finite point set with an explicit closure operator.

    For the projective kind, points are the normalized representatives of
    the 1-dimensional subspaces of F_p^(n+1) and closure is linear span;
    for the affine kind, points are the vectors of F_p^n and closure is
    affine span.  Instances are immutable after construction.

    Closure takes one path for both kinds.  An affine point x is lifted to
    the projective point (1, x); the reduced row echelon basis of the
    point vectors is then a canonical key for the span.  The one cache,
    `_flats`, maps each basis to its flat, so every distinct flat is built
    once, from the combinations of its basis rows that have leading
    coefficient 1: those led by any row (projective) or by the first row,
    with the lifting coordinate dropped (affine).
    """

    def __init__(self, kind: GeometryKind, points: tuple[Point, ...]):
        self.kind = kind
        self.points = points
        self._point_set = frozenset(points)
        self._flats: dict[tuple, frozenset] = {}

    # -- linear algebra over F_p ----------------------------------------------

    def _echelon(self, vectors) -> dict[int, Point]:
        """Reduced row echelon basis of the span, keyed by pivot in pivot order."""
        p = self.kind.p
        rows: dict[int, Point] = {}
        for vec in vectors:
            for piv, row in rows.items():
                c = vec[piv]
                if c:
                    vec = [(v - c * r) % p for v, r in zip(vec, row)]
            for piv, c in enumerate(vec):
                if c:
                    break
            else:
                continue  # vec lies in the span already
            if c == 1:
                new = tuple(vec)
            else:
                inv = pow(c, -1, p)
                new = tuple([(a * inv) % p for a in vec])
            for q, row in rows.items():
                c = row[piv]
                if c:
                    rows[q] = tuple([(a - c * b) % p for a, b in zip(row, new)])
            rows[piv] = new
        return dict(sorted(rows.items()))

    def _combinations(self, start: Point, rows) -> list[Point]:
        """Every start + sum c_j * rows_j with coefficients c_j in F_p."""
        p = self.kind.p
        vecs = [start]
        for row in rows:
            vecs = [
                tuple([(a + c * b) % p for a, b in zip(vec, row)])
                for vec in vecs
                for c in range(p)
            ]
        return vecs

    # -- the closure operator --------------------------------------------------

    def closure(self, subset) -> frozenset:
        """Smallest flat containing the given points."""
        pts = frozenset(subset)
        if not pts <= self._point_set:
            bad = next(x for x in pts if x not in self._point_set)
            raise ValueError(f"{bad!r} is not a point of {self.kind}")
        affine = self.kind.family == "affine"
        basis = tuple(self._echelon([(1,) + x for x in pts] if affine else pts).values())
        result = self._flats.get(basis)
        if result is None:
            # A point's leading coordinate is 1, which in echelon form is
            # coefficient 1 on the first row used; a lifted affine point has
            # that 1 in front, so its first row is the first basis row.
            heads = basis[:1] if affine else basis
            vecs = [
                vec for i, row in enumerate(heads) for vec in self._combinations(row, basis[i + 1 :])
            ]
            result = self._flats[basis] = frozenset([vec[1:] for vec in vecs] if affine else vecs)
        return result


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def level_counts(kind: GeometryKind) -> list[int]:
    """Number of flats of each dimension 0 ... n, from the Gaussian binomials.

    A projective k-flat is a (k+1)-dimensional subspace of F_p^(n+1); an
    affine k-flat is a coset of a k-dimensional subspace of F_p^n, which has
    p^(n-k) cosets.
    """
    n, p = kind.n, kind.p
    if kind.family == "projective":
        return [gaussian_binomial(n + 1, k + 1, p) for k in range(n + 1)]
    return [p ** (n - k) * gaussian_binomial(n, k, p) for k in range(n + 1)]


def _admit(kind: GeometryKind) -> None:
    """Reject a dimension outside 2..4, a lattice too large to walk at desk
    scale, or a non-prime field, checked in that order.

    The size comes before primality: trial division of a huge p would not
    finish.
    """
    if not 2 <= kind.n <= 4:
        raise ValueError(f"{kind.family} dimension must be in 2..4, got {kind.n}")
    if kind.p >= 2:
        counts = level_counts(kind)
        flats, points = sum(counts), counts[0]
        if flats * points > DESK_SCALE_LIMIT:
            raise ValueError(
                f"{kind} exceeds the desk-scale limit: "
                f"{flats} flats x {points} points > {DESK_SCALE_LIMIT}"
            )
    if not is_prime(kind.p):
        raise UnsupportedFieldError(f"{kind.p} is not prime; only prime fields are supported")


def build_projective(n: int, p: int) -> Geometry:
    """Projective geometry of dimension n over the p-element field."""
    kind = GeometryKind("projective", n, p)
    _admit(kind)
    points = []
    for vec in product(range(p), repeat=n + 1):
        lead = next((i for i, v in enumerate(vec) if v), None)
        if lead is not None and vec[lead] == 1:
            points.append(vec)
    return Geometry(kind, tuple(sorted(points)))


def build_affine(n: int, p: int) -> Geometry:
    """Affine geometry of dimension n over the p-element field."""
    kind = GeometryKind("affine", n, p)
    _admit(kind)
    return Geometry(kind, tuple(sorted(product(range(p), repeat=n))))


def _flats_by_dim(g) -> list[dict[frozenset, tuple]]:
    """All flats of the geometry, grouped by dimension, by closing upward.

    Each flat maps to one spanning tuple: (x,) at level 0, and span + (x,)
    for each cover of a flat spanned by span.  This rests on the exchange
    axiom (x outside F and in the closure of F + y puts y in the closure of
    F + x): the covers of F then partition the points outside it, and every
    flat of the next level that contains F is a cover of F.  So a flat's
    scan starts with the covers already found through it marked, closes F +
    x only for an outside point x in none of them, and stops once every
    point is marked; each flat is closed exactly once.
    `check_closure_axioms` tests that premise, that the covers of each
    walked flat partition the points outside it (the matroid axiom F3);
    the level counts are tested against Gaussian binomials.
    """
    all_points = frozenset(g.points)
    levels = [{g.closure((x,)): (x,) for x in g.points}]
    while not (len(levels[-1]) == 1 and next(iter(levels[-1])) == all_points):
        nxt: dict[frozenset, tuple] = {}
        # The flats of nxt through each point.
        through: dict[Point, list[frozenset]] = {x: [] for x in g.points}
        for flat, span in levels[-1].items():
            covered = set(flat)
            for cover in through[span[0]]:
                if flat <= cover:
                    covered |= cover
            for x in g.points:
                if len(covered) == len(all_points):
                    break
                if x not in covered:
                    cover = g.closure(span + (x,))
                    covered |= cover
                    nxt[cover] = span + (x,)
                    for y in cover:
                        through[y].append(cover)
        if not nxt or len(levels) > len(g.points) + 1:
            raise HomogeneityError("flat lattice did not terminate at the full point set")
        levels.append(nxt)
    return levels


def flat_profile(g) -> FlatProfile:
    """Flat sizes s_0 ... s_n, verifying same-dimension flats agree in size."""
    sizes = []
    for dim, flats in enumerate(_flats_by_dim(g)):
        observed = {len(f) for f in flats}
        if len(observed) != 1:
            raise HomogeneityError(
                f"flats of dimension {dim} have unequal sizes {sorted(observed)}"
            )
        sizes.append(observed.pop())
    return FlatProfile(tuple(sizes))


class _Quotient:
    """The localization at x as a closure space, the simplified contraction
    g/x (Oxley, *Matroid Theory*, 2nd ed., section 3.1): the lines through x,
    which close to those in the closure of x and one point of each, exact
    because cl(A + cl(B)) = cl(A + B).  Each line is closed once, through
    the first point on it."""

    def __init__(self, g, x: Point):
        self._g, self._x = g, x
        self._line_of: dict[Point, frozenset] = {}
        self._point_on: dict[frozenset, Point] = {}
        for y in g.points:
            if y != x and y not in self._line_of:
                line = g.closure((x, y))
                self._line_of.update(dict.fromkeys(line - {x}, line))
                self._point_on[line] = y
        self.points = tuple(self._point_on)

    def closure(self, lines) -> frozenset:
        flat = self._g.closure((self._x,) + tuple(self._point_on[line] for line in lines))
        return frozenset(self._line_of[y] for y in flat if y != self._x)


def localize_at_point(g, x: Point, profile: FlatProfile) -> FlatProfile:
    """Flat profile of the quotient at x, walked by `flat_profile`.

    g's profile `profile` must fit it by the quotient identity
    s_hat_i = (s_(i+1) - 1)/(s_1 - 1) at every level, length included.
    """
    quotient = _Quotient(g, x)
    hat, s1 = flat_profile(quotient), len(quotient.points[0])
    if profile.sizes != (1,) + tuple(1 + h * (s1 - 1) for h in hat.sizes):
        raise ArithmeticError(f"{profile.sizes} does not fit the quotient identity at {hat.sizes}")
    return hat


def alpha_from_profile(profile: FlatProfile) -> int:
    """Invert the plane-size relation: alpha = (s2 - s1 - (s1-1)^2) / (s1-1)."""
    if profile.top_dim < 2:
        raise ModelMismatchError("profile needs s_2 to derive alpha")
    s1, s2 = profile.s(1), profile.s(2)
    num = s2 - s1 - (s1 - 1) ** 2
    if num % (s1 - 1) != 0:
        raise ModelMismatchError(f"profile {profile.sizes} has non-integral alpha")
    return num // (s1 - 1)


def check_closure_axioms(g) -> dict[str, bool]:
    """Test the flat axioms of a matroid on every flat the lattice walk finds.

    The axioms are those of Oxley, *Matroid Theory*, 2nd ed., section 1.4.
    (F1), that the point set is a flat, holds because the walk stops only at
    the full point set.  (F2), that the intersection of two flats is empty
    or a flat, is `intersections`.  (F3), that the flats covering a flat F
    partition the points outside F, is the premise the walk rests on; it is
    `coversPartition`, with the flats of the next level that contain F as
    the covers of F.  `closed` asks that the empty set close to itself and
    that each flat hold its spanning tuple and close to itself; `pairLines`
    asks that every pair of points close to a walked line.
    """
    levels = _flats_by_dim(g)
    all_points = frozenset(g.points)
    closed = g.closure(()) == frozenset() and all(
        flat.issuperset(span) and g.closure(flat) == flat
        for level in levels
        for flat, span in level.items()
    )
    lines = levels[1] if len(levels) > 1 else {}
    pair_lines = all(g.closure(pair) in lines for pair in combinations(g.points, 2))
    flats = {frozenset()}.union(*levels)
    intersections = all((a & b) in flats for a, b in combinations(flats, 2))
    covers_partition = True
    for lower, upper in zip(levels, levels[1:]):
        for flat in lower:
            parts = [cover - flat for cover in upper if flat < cover]
            if sum(map(len, parts)) != len(all_points) - len(flat) or flat.union(*parts) != all_points:
                covers_partition = False
    return {
        "closed": closed,
        "pairLines": pair_lines,
        "intersections": intersections,
        "coversPartition": covers_partition,
    }
