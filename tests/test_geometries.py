"""Tests for the classical geometry ground truth."""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from homgeom.geometries import (
    FlatProfile,
    Geometry,
    GeometryKind,
    HomogeneityError,
    ModelMismatchError,
    UnsupportedFieldError,
    alpha_from_profile,
    _flats_by_dim,
    _Quotient,
    build_affine,
    build_projective,
    check_closure_axioms,
    flat_profile,
    gaussian_binomial,
    level_counts,
    localize_at_point,
)
from homgeom.localization import point_localize
from homgeom.parameters import ParamSystem, classify_condition, is_classical_shape, s2_from

INSTANCES = [
    build_projective(2, 2),
    build_projective(3, 2),
    build_projective(2, 3),
    build_affine(2, 2),
    build_affine(2, 3),
    build_affine(3, 3),
    build_affine(2, 5),
]

# Larger geometries whose flats hold more points than any in INSTANCES.
LARGER = [build_projective(3, 3), build_projective(4, 2), build_affine(2, 7)]

# With LARGER, the six geometries of perfbench's geometry-large workload.
GEOMETRY_LARGE = LARGER + [build_projective(2, 7), build_affine(3, 3), build_affine(4, 2)]


class Counted:
    """A geometry's points and closure, counting the closure calls."""

    def __init__(self, g):
        self.points = g.points
        self.g = g
        self.calls = 0

    def closure(self, subset):
        self.calls += 1
        return self.g.closure(subset)


def _reference_walk(g):
    """The lattice walk with no marking of covers found earlier: a flat's
    scan closes F + x for each outside point x in no cover found from F."""
    all_points = frozenset(g.points)
    levels = [{g.closure((x,)): (x,) for x in g.points}]
    while not (len(levels[-1]) == 1 and next(iter(levels[-1])) == all_points):
        nxt = {}
        for flat, span in levels[-1].items():
            covered = set(flat)
            for x in g.points:
                if x not in covered:
                    cover = g.closure(span + (x,))
                    covered |= cover
                    nxt.setdefault(cover, span + (x,))
        if not nxt or len(levels) > len(g.points) + 1:
            raise HomogeneityError("flat lattice did not terminate at the full point set")
        levels.append(nxt)
    return levels


def _reduce(vec, rows, p):
    for piv, row in rows.items():
        c = vec[piv]
        if c:
            vec = [(v - c * r) % p for v, r in zip(vec, row)]
    return vec


def _param_id(value) -> str:
    return str(value.kind) if isinstance(value, Geometry) else repr(value)


def _generators(g, subset):
    """The base point (None for projective) and the vectors spanning the subset."""
    p = g.kind.p
    if g.kind.family == "projective":
        return None, list(subset)
    base = min(subset)
    return base, [[(a - b) % p for a, b in zip(x, base)] for x in subset]


def _pivots(g, subset):
    """The pivot values met while reducing the subset's generators in order."""
    p = g.kind.p
    rows, pivots = {}, []
    for v in _generators(g, subset)[1]:
        v = _reduce(list(v), rows, p)
        piv = next((i for i, c in enumerate(v) if c), None)
        if piv is not None:
            pivots.append(v[piv])
            inv = pow(v[piv], -1, p)
            rows[piv] = [(c * inv) % p for c in v]
    return pivots


def _scan_closure(g, subset):
    """Closure by definition: a point is in it when its vector (projective)
    or its difference from a base point of the subset (affine) reduces to
    zero against the span of the subset's vectors or differences."""
    p = g.kind.p
    if not subset:
        return frozenset()
    base, gens = _generators(g, subset)
    rows = {}
    for v in gens:
        v = _reduce(list(v), rows, p)
        piv = next((i for i, c in enumerate(v) if c), None)
        if piv is not None:
            inv = pow(v[piv], -1, p)
            rows[piv] = [(c * inv) % p for c in v]

    def in_span(x):
        vec = list(x) if base is None else [(a - b) % p for a, b in zip(x, base)]
        return not any(_reduce(vec, rows, p))

    return frozenset(x for x in g.points if in_span(x))


class TestConstruction:
    def test_point_counts(self):
        assert len(build_projective(3, 2).points) == 15
        assert len(build_projective(2, 3).points) == 13
        assert len(build_projective(2, 2).points) == 7  # Fano
        assert len(build_affine(3, 3).points) == 27
        assert len(build_affine(2, 2).points) == 4
        assert len(build_affine(2, 5).points) == 25

    def test_non_prime_field_rejected(self):
        for q in (4, 9, 1, 0):
            with pytest.raises(UnsupportedFieldError, match=f"^{q} is not prime"):
                build_projective(2, q)
            with pytest.raises(UnsupportedFieldError, match=f"^{q} is not prime"):
                build_affine(2, q)

    def test_dimension_checked_first(self):
        # Before the desk-scale size and before primality.
        with pytest.raises(ValueError, match="^projective dimension must be in 2..4, got 5$"):
            build_projective(5, 10**6)
        with pytest.raises(ValueError, match="^affine dimension must be in 2..4, got 1$"):
            build_affine(1, 4)

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            build_projective(1, 3)
        with pytest.raises(ValueError):
            build_projective(5, 2)
        with pytest.raises(ValueError):
            build_affine(1, 3)
        with pytest.raises(ValueError, match="affine dimension"):
            build_affine(5, 2)  # 32 points: under the desk-scale limit

    def test_desk_scale_limit(self):
        with pytest.raises(ValueError):
            build_affine(17, 2)  # 2^17 points
        with pytest.raises(ValueError, match="desk-scale"):
            build_projective(2, 10**6)  # checked before the primality test

    def test_desk_scale_bounds_the_lattice_walk(self):
        # The bound is on flats x points, the work of the lattice walk, not
        # on the point count alone: PG(4,7) has only 2 801 points.
        rejected = [(build_projective, 4, 7), (build_affine, 3, 13), (build_affine, 4, 17)]
        for builder, n, p in rejected:
            with pytest.raises(ValueError, match="desk-scale"):
                builder(n, p)
        # PG(3,7), PG(2,31) and the geometry-large instances stay admitted.
        admitted = [(build_projective, 3, 7), (build_projective, 2, 31)]
        admitted += [(build_projective, 3, 3), (build_projective, 4, 2), (build_projective, 2, 7)]
        admitted += [(build_affine, 3, 3), (build_affine, 4, 2), (build_affine, 2, 7)]
        for builder, n, p in admitted:
            builder(n, p)


class TestFlatProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlatProfile((2, 3))
        with pytest.raises(ValueError):
            FlatProfile((1, 3, 3))
        with pytest.raises(ValueError):
            FlatProfile(())

    def test_sizes_normalized_to_int(self):
        sizes = FlatProfile([Fraction(1), Fraction(3), Fraction(9)]).sizes
        assert sizes == (1, 3, 9)
        assert [type(s) for s in sizes] == [int, int, int]

    def test_top_dim(self):
        assert FlatProfile((1, 3, 9, 27)).top_dim == 3

    def test_value_semantics(self):
        profile = FlatProfile((1, 3, 9))
        assert profile == FlatProfile([1, 3, 9])
        assert profile != FlatProfile((1, 3, 7))
        assert {profile, FlatProfile((1, 3, 9))} == {profile}
        with pytest.raises(AttributeError):
            profile.sizes = (1, 4, 13)
        with pytest.raises(AttributeError):
            profile.extra = 0

    def test_projective_profiles(self):
        assert flat_profile(build_projective(3, 2)).sizes == (1, 3, 7, 15)
        assert flat_profile(build_projective(2, 3)).sizes == (1, 4, 13)

    def test_affine_profiles(self):
        assert flat_profile(build_affine(3, 3)).sizes == (1, 3, 9, 27)
        assert flat_profile(build_affine(2, 5)).sizes == (1, 5, 25)

    def test_closed_forms_on_all_instances(self):
        for g in INSTANCES:
            n, p = g.kind.n, g.kind.p
            profile = flat_profile(g)
            if g.kind.family == "projective":
                expected = tuple((p ** (i + 1) - 1) // (p - 1) for i in range(n + 1))
            else:
                expected = tuple(p**i for i in range(n + 1))
            assert profile.sizes == expected

    def test_homogeneity_violation_detected(self):
        class LopsidedGeometry:
            """Closure with unequal 'lines': {a,b} is closed, {a,c} spans all."""

            points = (0, 1, 2, 3)

            def closure(self, subset):
                s = frozenset(subset)
                if len(s) <= 1:
                    return s
                if s == frozenset({0, 1}):
                    return s
                return frozenset(self.points)

        with pytest.raises(HomogeneityError):
            flat_profile(LopsidedGeometry())

    def test_lattice_counts_are_gaussian_binomials(self):
        # Entered by hand: PG(3,3) has 40 points, 130 lines and 40 planes;
        # AG(2,3) has 9 points and 12 lines.
        assert [gaussian_binomial(4, k + 1, 3) for k in range(4)] == [40, 130, 40, 1]
        assert level_counts(GeometryKind("affine", 2, 3)) == [9, 12, 1]
        for g in INSTANCES + LARGER + [build_affine(4, 2)]:
            expected = level_counts(g.kind)
            assert [len(level) for level in _flats_by_dim(g)] == expected, str(g.kind)


class TestClosureAxioms:
    def test_axioms_and_exchange_on_all_instances(self):
        for g in INSTANCES + LARGER:
            results = check_closure_axioms(g)
            assert list(results) == ["closed", "pairLines", "intersections", "coversPartition"]
            assert all(results.values()), (str(g.kind), results)

    def test_closure_of_empty_set(self):
        for g in INSTANCES:
            assert g.closure(()) == frozenset()

    def test_closure_of_point_is_point(self):
        g = build_projective(2, 3)
        x = g.points[0]
        assert g.closure((x,)) == {x}

    def test_closure_matches_scan_on_subsets(self):
        # Every subset of size <= 2, plus 200 seeded random ones of size 3-6.
        for g in INSTANCES + LARGER:
            rng = random.Random(str(g.kind))
            pts = list(g.points)
            subsets = [()] + [(x,) for x in pts] + list(combinations(pts, 2))
            subsets += [tuple(rng.sample(pts, rng.randint(3, min(6, len(pts))))) for _ in range(200)]
            for subset in subsets:
                assert g.closure(subset) == _scan_closure(g, subset), (str(g.kind), subset)

    @pytest.mark.parametrize("g", [build_projective(2, 5), build_affine(2, 7)], ids=_param_id)
    def test_closure_matches_scan_where_pivots_need_inverses(self, g):
        # Over F_5 and F_7 a reduced pivot is often not 1, so the echelon
        # has to scale by its inverse; the random subsets must include such.
        rng = random.Random(f"pivots {g.kind}")
        pts = list(g.points)
        subsets = [tuple(rng.sample(pts, rng.randint(3, 5))) for _ in range(300)]
        scaled = [s for s in subsets if any(c != 1 for c in _pivots(g, s))]
        assert len(scaled) > 50
        for subset in subsets:
            assert g.closure(subset) == _scan_closure(g, subset), (str(g.kind), subset)

    def test_closure_matches_scan_on_lattice_walk(self):
        # Every closure the flat-lattice walk asks for, F + {x} for each flat F.
        class Checked:
            def __init__(self, g):
                self.points = g.points
                self.g = g
                self.seen = set()

            def closure(self, subset):
                result = self.g.closure(subset)
                key = frozenset(subset)
                if key not in self.seen:
                    self.seen.add(key)
                    assert result == _scan_closure(self.g, subset), (str(self.g.kind), subset)
                return result

        for g in INSTANCES + LARGER:
            checked = Checked(g)
            _flats_by_dim(checked)
            assert checked.seen

    def test_each_flat_is_built_once(self):
        # The span key is canonical: a flat reached from many subsets is
        # stored under one key, so the flat cache holds one entry per flat.
        for g in (build_projective(3, 3), build_affine(3, 3), build_affine(4, 2)):
            levels = _flats_by_dim(g)
            assert len(g._flats) == sum(len(level) for level in levels), str(g.kind)
            assert set(g._flats.values()) == set().union(*levels)

    def test_walk_closes_each_flat_once(self):
        # The covers already found through a flat are marked before its scan,
        # so each closure the walk asks for is of a flat it has not met.
        counts = []
        for g in (
            build_projective(3, 3),
            build_projective(4, 2),
            build_affine(3, 3),
            build_affine(4, 2),
            build_affine(2, 7),
        ):
            counted = Counted(g)
            levels = _flats_by_dim(counted)
            assert counted.calls == sum(len(level) for level in levels), str(g.kind)
            counts.append(counted.calls)
        assert counts == [211, 373, 184, 307, 106]

    def test_walk_matches_reference_walk(self):
        # Same flats, spanning tuples and insertion order as the walk that
        # closes F + x for every outside point not yet in a cover of F.
        for g in INSTANCES + GEOMETRY_LARGE:
            levels = [list(level.items()) for level in _flats_by_dim(g)]
            reference = [list(level.items()) for level in _reference_walk(g)]
            assert levels == reference, str(g.kind)

    def test_parallel_affine_lines_are_disjoint(self):
        # Same direction, different cosets: lifted to (1, x), the two lines span
        # different planes, so their keys differ.
        g = build_affine(2, 3)
        first = g.closure(((0, 0), (0, 1)))
        second = g.closure(((1, 0), (1, 1)))
        assert first == {(0, 0), (0, 1), (0, 2)}
        assert second == {(1, 0), (1, 1), (1, 2)}
        assert not first & second

    def test_closure_rejects_foreign_points(self):
        g = build_projective(2, 3)
        for bad in ((2, 0, 0), (0, 1), (1, 0, 0, 0)):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                g.closure((g.points[0], bad))
        with pytest.raises(ValueError, match="not a point of AG"):
            build_affine(2, 3).closure(((0, 0), (3, 0)))

    @pytest.mark.parametrize(
        "g, bad",
        [
            (build_projective(2, 3), (0, 2, 1)),  # not normalized
            (build_projective(2, 3), (1, 1)),  # wrong length
            (build_affine(2, 3), (0, 3)),  # coordinate outside F_3
            (build_affine(3, 3), ("x", 0, 0)),
        ],
        ids=_param_id,
    )
    def test_closure_names_the_non_point(self, g, bad):
        # Among valid points, the one non-point is named, for both kinds.
        for subset in ((bad,), (g.points[0], bad), (g.points[1], bad, g.points[-1])):
            with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not a point of {g.kind}")):
                g.closure(subset)

    def test_closure_detects_broken_operator(self):
        class ShrinkingGeometry:
            points = (0, 1, 2)

            def closure(self, subset):
                return frozenset(list(subset)[:1])  # not even extensive

        # The walk never reaches the full point set, so no key is computed.
        with pytest.raises(HomogeneityError, match="did not terminate"):
            check_closure_axioms(ShrinkingGeometry())

    def test_swapped_fano_lines_fail_the_axioms(self):
        class LineGeometry:
            """Points 0..6; a set of at most one point is closed, a set inside
            a line closes to the first such line, and any other set to all."""

            points = tuple(range(7))

            def __init__(self, lines):
                self.lines = [frozenset(line) for line in lines]

            def closure(self, subset):
                s = frozenset(subset)
                if len(s) <= 1:
                    return s
                return next((line for line in self.lines if s <= line), frozenset(self.points))

        fano = [{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5}]
        assert all(check_closure_axioms(LineGeometry(fano)).values())
        # Points 2 and 3 swap lines: {1, 3} lies on two lines, {1, 2} on none.
        swapped = [{0, 1, 3}, {0, 2, 4}] + fano[2:]
        results = check_closure_axioms(LineGeometry(swapped))
        assert not results["coversPartition"]
        assert not results["pairLines"]


class TestLocalization:
    def test_projective_localization(self):
        g = build_projective(3, 2)
        assert localize_at_point(g, g.points[0], flat_profile(g)).sizes == (1, 3, 7)

    def test_affine_localization_is_projective_like(self):
        g = build_affine(3, 3)
        assert localize_at_point(g, g.points[0], flat_profile(g)).sizes == (1, 4, 13)

    def test_plane_localization(self):
        g = build_projective(2, 3)
        assert localize_at_point(g, g.points[0], flat_profile(g)).sizes == (1, 4)

    def test_point_independence(self):
        for g in (build_projective(3, 2), build_affine(3, 3)):
            parent = flat_profile(g)
            profiles = {localize_at_point(g, x, parent).sizes for x in g.points}
            assert len(profiles) == 1

    def test_quotient_identity(self):
        for g in INSTANCES:
            parent = flat_profile(g)
            localized = localize_at_point(g, g.points[0], parent)
            for i in range(localized.top_dim + 1):
                num = parent.s(i + 1) - 1
                den = parent.s(1) - 1
                assert num % den == 0
                assert localized.s(i) == num // den

    @pytest.mark.parametrize("sizes", [(1, 3, 7, 15), (1, 3), (1, 4, 7)])
    def test_profile_of_another_geometry_rejected(self, sizes):
        # PG(2,2)'s profile is (1, 3, 7).  One level more or one fewer
        # predicts a quotient of the wrong length; (1, 4, 7) predicts
        # (1, 2), but the quotient at a point is (1, 3).
        fano = build_projective(2, 2)
        with pytest.raises(ArithmeticError):
            localize_at_point(fano, fano.points[0], FlatProfile(sizes))


class TestQuotient:
    """The closure space of the lines through a point, walked by the one lattice walk."""

    @pytest.mark.parametrize("g", GEOMETRY_LARGE, ids=_param_id)
    def test_profile_is_the_closed_form(self, g):
        n, q = g.kind.n, g.kind.p
        if g.kind.family == "projective":
            s = [(q ** (i + 1) - 1) // (q - 1) for i in range(n + 1)]
        else:
            s = [q**i for i in range(n + 1)]
        expected = tuple((s[i + 1] - 1) // (s[1] - 1) for i in range(n))
        assert flat_profile(_Quotient(g, g.points[0])).sizes == expected

    @pytest.mark.parametrize("g", GEOMETRY_LARGE, ids=_param_id)
    def test_flat_axioms(self, g):
        assert check_closure_axioms(_Quotient(g, g.points[-1])) == {
            "closed": True,
            "pairLines": True,
            "intersections": True,
            "coversPartition": True,
        }

    @pytest.mark.parametrize("g", GEOMETRY_LARGE, ids=_param_id)
    def test_each_line_through_x_is_closed_once(self, g):
        counted = Counted(g)
        quotient = _Quotient(counted, g.points[0])
        assert counted.calls == len(quotient.points)
        assert set(quotient.points) == {g.closure((g.points[0], y)) for y in g.points[1:]}

    @pytest.mark.parametrize("g", [g for g in GEOMETRY_LARGE if g.kind.n >= 3], ids=_param_id)
    def test_quotients_nest_down_to_rank_2(self, g):
        # The localization chain replayed on the geometry itself: each level
        # is the quotient of the one before at its first point, walked by
        # flat_profile, until only points and lines are left.
        levels = [(g, flat_profile(g))]
        while levels[-1][1].top_dim > 1:
            space = levels[-1][0]
            quotient = _Quotient(space, space.points[0])
            levels.append((quotient, flat_profile(quotient)))
        assert len(levels) == g.kind.n
        for (_, profile), (_, hat) in zip(levels, levels[1:]):
            alpha = alpha_from_profile(profile)
            assert point_localize(profile.s(1), alpha) == hat.s(1)
            if hat.top_dim > 1:
                # Every quotient of a classical geometry is projective.
                assert alpha_from_profile(hat) == 0
                assert s2_from(hat.s(1), 0) == hat.s(2)
        assert all(check_closure_axioms(levels[-1][0]).values())

    def test_points_are_the_lines_through_x(self):
        g = build_affine(2, 3)
        x = g.points[4]
        quotient = _Quotient(g, x)
        lines = {g.closure((x, y)) for y in g.points if y != x}
        assert len(quotient.points) == len(lines) == 4
        assert set(quotient.points) == lines
        assert quotient.closure(()) == frozenset()
        assert quotient.closure(quotient.points[:2]) == frozenset(lines)


class TestAlpha:
    def test_projective_alpha_zero(self):
        for g in INSTANCES:
            if g.kind.family == "projective":
                assert alpha_from_profile(flat_profile(g)) == 0

    def test_affine_alpha_one(self):
        for g in INSTANCES:
            if g.kind.family == "affine":
                assert alpha_from_profile(flat_profile(g)) == 1

    def test_synthetic_profile(self):
        assert alpha_from_profile(FlatProfile((1, 3, 19))) == 6

    def test_non_integral_alpha_rejected(self):
        with pytest.raises(ModelMismatchError):
            alpha_from_profile(FlatProfile((1, 4, 15)))

    def test_profile_too_short(self):
        with pytest.raises(ModelMismatchError):
            alpha_from_profile(FlatProfile((1, 3)))

    def test_classical_geometries_classify_classical(self):
        for g in INSTANCES:
            profile = flat_profile(g)
            ps = ParamSystem(profile.s(1), alpha_from_profile(profile), 0, dim=3)
            assert is_classical_shape(ps)
            assert classify_condition(ps) == frozenset()


class TestKind:
    def test_str(self):
        assert str(GeometryKind("projective", 3, 2)) == "PG(3,2)"
        assert str(GeometryKind("affine", 3, 3)) == "AG(3,3)"
        assert str(GeometryKind("affine", 2, 3)) == "AG(2,3)"

    def test_value_semantics(self):
        kind = GeometryKind("affine", 2, 3)
        assert kind == GeometryKind("affine", 2, 3)
        assert kind != GeometryKind("projective", 2, 3)
        assert {kind, GeometryKind("affine", 2, 3)} == {kind}
        with pytest.raises(AttributeError):
            kind.p = 5
        with pytest.raises(AttributeError):
            kind.extra = 0

    def test_geometry_carries_kind(self):
        g = build_projective(3, 2)
        assert isinstance(g, Geometry)
        assert g.kind == GeometryKind("projective", 3, 2)
