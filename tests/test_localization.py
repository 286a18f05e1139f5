"""Tests for the localization transform and the per-case obstructions."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import homgeom
from homgeom.exact_arith import UniPoly, is_perfect_square
from homgeom.localization import (
    CASE_MIN_ARG,
    CaseLabel,
    CaseInstanceVerdict,
    CaseRangeError,
    ExternalCaseError,
    eliminate_case_instance,
    obstruction_value,
    point_localize,
)
from homgeom.obstructions import catalog
from homgeom.parameters import Condition, condition_alpha, s2_from

X = UniPoly.x()

COMPUTABLE = (CaseLabel.C, CaseLabel.E, CaseLabel.F, CaseLabel.B_PLUS, CaseLabel.B_MINUS)

# The arguments below each case's hypothesis range where its obstruction
# value is a perfect square, pinned by hand: the package derives them by
# factoring H(t), so a regression there shows up as a difference here.
KNOWN_SQUARE_ARGS = {
    CaseLabel.B_PLUS: (0, 1),
    CaseLabel.B_MINUS: (0, 1),
    CaseLabel.C: (0, 1, 2),
    CaseLabel.E: (0, 1),
    CaseLabel.F: (1,),
}


class TestPointLocalize:
    def test_cond2_shape(self):
        assert point_localize(3, 6) == 9

    def test_cond3_shape(self):
        assert point_localize(3, 10) == 13

    def test_cond1_shape(self):
        assert point_localize(4, 36) == 40

    def test_quotient_identity_on_grid(self):
        for s1 in range(3, 30):
            for alpha in range(0, 50):
                s1_hat = point_localize(s1, alpha)
                assert s1_hat == alpha + s1
                assert (s2_from(s1, alpha) - 1) % (s1 - 1) == 0
                assert (s2_from(s1, alpha) - 1) // (s1 - 1) == s1_hat


class TestLocalizedAlpha:
    """condition_alpha at the localized line sizes of the shapes above."""

    def test_cond2(self):
        assert condition_alpha(Condition.COND2, 9) == 72

    def test_cond3(self):
        assert condition_alpha(Condition.COND3, 13) == 170

    def test_cond1_both_signs(self):
        assert condition_alpha(Condition.COND1_PLUS, 9) == 9 * 16
        assert condition_alpha(Condition.COND1_MINUS, 9) == 9 * 4

    def test_cond1_rejects_non_square(self):
        with pytest.raises(ValueError):
            condition_alpha(Condition.COND1_PLUS, 40)
        with pytest.raises(ValueError):
            condition_alpha(Condition.COND1_MINUS, X * X + 1)

    def test_polynomial_line_size(self):
        # The same equations over UniPoly, here at s1 = x^2 (sqrt(s1) = x).
        s1 = X * X
        assert condition_alpha(Condition.COND1_PLUS, s1) == s1 * (X + 1) ** 2
        assert condition_alpha(Condition.COND1_MINUS, s1) == s1 * (X - 1) ** 2
        assert condition_alpha(Condition.COND2, s1) == s1 * s1 - s1
        assert condition_alpha(Condition.COND3, s1) == s1 * s1 + 1


class TestLocalizeUnder:
    """A system localized under a hypothesis on the localized condition:
    point_localize, then condition_alpha, then s2_from, as CLI localize does."""

    def test_cond2_to_cond2(self):
        s1_hat = point_localize(3, 6)
        alpha_hat = condition_alpha(Condition.COND2, s1_hat)
        assert (s1_hat, alpha_hat) == (9, 72)
        assert s2_from(s1_hat, alpha_hat) == 649

    def test_cond3_to_cond2(self):
        s1_hat = point_localize(3, 10)
        assert (s1_hat, condition_alpha(Condition.COND2, s1_hat)) == (13, 156)

    def test_unsatisfiable_hypothesis_rejected(self):
        s1_hat = point_localize(3, 2)
        assert s1_hat == 5
        with pytest.raises(ValueError):
            condition_alpha(Condition.COND1_PLUS, s1_hat)


class TestS2Hat:
    """The localized plane size s2_hat, which is s2_from at (s1_hat, alpha_hat)."""

    def test_cond2_pair(self):
        assert s2_from(9, 72) == 649

    def test_cond3_to_cond2(self):
        assert s2_from(13, 156) == 2029

    def test_alpha_hat_zero_closed_form(self):
        for s1_hat in range(2, 50):
            assert s2_from(s1_hat, 0) == 1 + s1_hat * (s1_hat - 1)


class TestObstructionValues:
    def test_frozen_examples(self):
        assert obstruction_value(CaseLabel.C, 3) == 649
        assert obstruction_value(CaseLabel.C, 2) == 49
        assert obstruction_value(CaseLabel.E, 3) == 1353
        assert obstruction_value(CaseLabel.F, 3) == 1465
        assert obstruction_value(CaseLabel.B_PLUS, 2) == 46801

    def test_external_cases_rejected(self):
        for case in (CaseLabel.A, CaseLabel.D):
            with pytest.raises(ExternalCaseError):
                obstruction_value(case, 3)

    def test_argument_floor(self):
        with pytest.raises(ValueError):
            obstruction_value(CaseLabel.E, 1)

    def test_guards_survive_optimized_mode(self):
        # The guards are explicit raises, not asserts, so python -O keeps them.
        # Each one is made to fire by an input that breaks the identity it
        # protects.
        script = textwrap.dedent(
            """
            import homgeom.geometries as geo
            import homgeom.localization as loc
            from homgeom.exact_arith import UniPoly
            from homgeom.geometries import FlatProfile
            from homgeom.localization import CaseLabel
            from homgeom.parameters import Condition
            from homgeom.pipeline import _walk

            fired = 0

            def fires(call, error=ArithmeticError):
                global fired
                try:
                    call()
                except error:
                    fired += 1

            # localization: with B+'s row moved to the pair (Cond1Plus, 3),
            # which no case has, s3 = 1 + (s1 - 1)*s2_hat is 1 mod s1, so the
            # exact division fails at t = 2 and for polynomials at x.
            del loc.FORBIDDEN_PAIRS[Condition.COND1_PLUS, 2]
            loc.FORBIDDEN_PAIRS[Condition.COND1_PLUS, 3] = CaseLabel.B_PLUS
            for t in (2, UniPoly.x()):
                fires(lambda: loc.obstruction_value(CaseLabel.B_PLUS, t))
            del loc.FORBIDDEN_PAIRS[Condition.COND1_PLUS, 3]
            loc.FORBIDDEN_PAIRS[Condition.COND1_PLUS, 2] = CaseLabel.B_PLUS
            # geometries: a parent profile whose s_2 - 1 is not divisible by
            # s_1 - 1, one that predicts the wrong number of lines, and two
            # whose length does not match the geometry.
            fano = geo.build_projective(2, 2)
            for sizes in ((1, 3, 8), (1, 3, 9), (1, 3, 7, 15), (1, 3)):
                fires(lambda: geo.localize_at_point(fano, fano.points[0], FlatProfile(sizes)))
            # geometries: a closure input that is not a point of the geometry.
            fires(lambda: fano.closure(((2, 0, 0),)), error=ValueError)
            # pipeline: the condition-1 case b walk at a non-square line size.
            start = ((Condition.COND1_PLUS, 5),)
            fires(lambda: _walk([], start, 0, frozenset()), error=ValueError)
            print(fired)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(homgeom.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "8"

    def test_structural_route_matches_polynomial_route(self):
        cat = catalog()
        for case in (CaseLabel.C, CaseLabel.E, CaseLabel.F):
            f = cat[case].f
            for s1 in range(3, 1001):
                assert obstruction_value(case, s1) == f.evaluate(s1)
        for case in (CaseLabel.B_PLUS, CaseLabel.B_MINUS):
            f = cat[case].f
            for t in range(2, 1001):
                assert obstruction_value(case, t) == f.evaluate(t)


class TestClosedFormPolynomials:
    """Coefficient-level identities tying the localization data to the catalog."""

    def test_case_c(self):
        s1h = X * X
        lhs = 1 + s1h * s1h * (s1h - 1)  # s2_hat with alpha_hat = s1h^2 - s1h
        assert lhs == catalog()[CaseLabel.C].f

    def test_case_e(self):
        s1h = UniPoly([1, 1, 1])  # x^2 + x + 1
        lhs = 1 + (X * X - 1) * s1h * s1h
        assert lhs == catalog()[CaseLabel.E].f

    def test_case_e_through_s2_hat(self):
        # 1 + (x - 1) * s2_hat equals x * f(x): the quotient by s1 is exact.
        s1h = UniPoly([1, 1, 1])
        s2h = 1 + s1h * s1h * (s1h - 1)
        assert 1 + (X - 1) * s2h == X * catalog()[CaseLabel.E].f

    def test_case_f(self):
        s1h = UniPoly([1, 1, 1])
        alpha_hat = s1h * s1h + 1
        s2h = (s1h + alpha_hat) * (s1h - 1) + 1
        assert s2h == s1h**3
        lhs = 1 + (X * X - 1) * (s1h * s1h + s1h + 1)
        assert lhs == catalog()[CaseLabel.F].f

    def test_case_b_plus(self):
        blowup = UniPoly([2, 2, 1])  # 1 + (t + 1)^2
        s1h = X * X * blowup
        lhs = 1 + (X * X - 1) * (s1h - 1) * X * X * blowup * blowup
        assert lhs == catalog()[CaseLabel.B_PLUS].f


class TestEliminateCaseInstance:
    def test_eliminated_examples(self):
        assert eliminate_case_instance(CaseLabel.C, 3).root is None
        v = eliminate_case_instance(CaseLabel.E, 3)
        assert v.root is None and v.verdict == "Eliminated"
        assert 36**2 < v.value < 37**2

    def test_near_miss_below_range(self, monkeypatch):
        # Moving case c's range down to 2 reaches its near miss f(2) = 49.
        monkeypatch.setitem(CASE_MIN_ARG, CaseLabel.C, 2)
        v = eliminate_case_instance(CaseLabel.C, 2)
        assert v.verdict == "SurvivesSquareTest"
        assert v.value == 49 and v.root == 7

    def test_range_error_below_the_range(self):
        # The error names the range; the squares below it are the catalog's.
        with pytest.raises(CaseRangeError, match=r"^case c argument 2 is below the "
                           r"hypothesis range \(starts at 3\)$"):
            eliminate_case_instance(CaseLabel.C, 2)
        with pytest.raises(CaseRangeError, match=r"^case b\+ argument 1 "):
            eliminate_case_instance(CaseLabel.B_PLUS, 1)
        assert 2 in catalog()[CaseLabel.C].known_square_args

    def test_known_survivor_lists_match_catalog(self):
        cat = catalog()
        for case in COMPUTABLE:
            assert frozenset(KNOWN_SQUARE_ARGS[case]) == cat[case].known_square_args
            assert CASE_MIN_ARG[case] == cat[case].t_min
            assert all(t < CASE_MIN_ARG[case] for t in KNOWN_SQUARE_ARGS[case])

    def test_known_square_args_agree_with_a_square_test(self, monkeypatch):
        # The certificates rule out squares from t_min on, so over a wider
        # range factoring H(t) and testing f(t) still find the pinned lists.
        for case in COMPUTABLE:
            monkeypatch.setitem(CASE_MIN_ARG, case, 40)
        for case, obs in catalog().items():
            squares = frozenset(t for t in range(40) if is_perfect_square(obs.f.evaluate(t)))
            assert obs.known_square_args == squares == frozenset(KNOWN_SQUARE_ARGS[case])

    def test_external_cases_rejected(self):
        with pytest.raises(ExternalCaseError):
            eliminate_case_instance(CaseLabel.A, 3)
        with pytest.raises(ExternalCaseError):
            eliminate_case_instance(CaseLabel.D, 3)

    def test_sweep_all_eliminated(self):
        for case in (CaseLabel.C, CaseLabel.E, CaseLabel.F):
            for s1 in range(3, 1001):
                assert eliminate_case_instance(case, s1).root is None
        for case in (CaseLabel.B_PLUS, CaseLabel.B_MINUS):
            for t in range(2, 1001):
                assert eliminate_case_instance(case, t).root is None

    def test_record_schema(self):
        record = eliminate_case_instance(CaseLabel.C, 3).to_record()
        assert record == {
            "case": "c",
            "argument": 3,
            "obstructionValue": "649",
            "verdict": "Eliminated",
        }
        assert CaseInstanceVerdict._fields == ("case", "argument", "value", "root")
