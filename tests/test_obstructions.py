"""Tests for the square-obstruction catalog and its certificates."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import homgeom
import homgeom.localization as localization
import homgeom.obstructions as obstructions
import homgeom.verify as verify
from homgeom.cli import main
from homgeom.exact_arith import UniPoly, is_perfect_square
from homgeom.localization import CaseLabel
from homgeom.obstructions import (
    _BLOCK,
    _MASK_GROUPS,
    _MASK_MODULI,
    SquareObstruction,
    catalog,
    certify_no_square,
    sieve,
    verify_identity,
)


def sieve_naive(obs: SquareObstruction, limit: int) -> list[int]:
    """Reference sieve: full-precision evaluation and square test at every t."""
    return [t for t in range(limit + 1) if (v := obs.f.evaluate(t)) >= 0 and is_perfect_square(v)]

class TestCatalog:
    def test_exactly_five(self):
        cat = catalog()
        assert set(cat) == {
            CaseLabel.C,
            CaseLabel.E,
            CaseLabel.F,
            CaseLabel.B_PLUS,
            CaseLabel.B_MINUS,
        }

    def test_case_c_contents(self):
        obs = catalog()[CaseLabel.C]
        assert obs.f.evaluate(3) == 649
        assert obs.A == UniPoly([0, -1, 0, 2])  # 2x^3 - x, twice x^3 - x/2
        assert obs.t_min == 3

    def test_t_mins(self):
        cat = catalog()
        assert cat[CaseLabel.C].t_min == 3
        for case in (CaseLabel.E, CaseLabel.F, CaseLabel.B_PLUS, CaseLabel.B_MINUS):
            assert cat[case].t_min == 2

    def test_b_minus_is_sign_flip_of_b_plus(self):
        cat = catalog()
        b_plus, b_minus = cat[CaseLabel.B_PLUS], cat[CaseLabel.B_MINUS]
        for t in range(-100, 101):
            assert b_minus.f.evaluate(t) == b_plus.f.evaluate(-t)
            assert b_minus.A.evaluate(t) == b_plus.A.evaluate(-t)
            assert b_minus.H.evaluate(t) == b_plus.H.evaluate(-t)

    def test_half_integer_structure(self):
        # A = 2g and H = 4h: f's own square-root part g has a half-integer
        # coefficient in every case, so the catalog stores A and H, which
        # have integer coefficients.
        for obs in catalog().values():
            for p in (obs.f, obs.A, obs.H):
                assert {type(c) for c in p.coeffs} == {int}, obs.label
            assert any(c % 2 for c in obs.A.coeffs), obs.label
            with pytest.raises(ValueError):
                obs.f.sqrt_part()

    def test_each_case_derived_once(self, monkeypatch):
        # One obstruction_value call per case: the known square arguments
        # are read off the f that the catalog already derived.
        calls = []
        original = localization.obstruction_value

        def counted(case, arg):
            calls.append(case)
            return original(case, arg)

        monkeypatch.setattr(obstructions, "obstruction_value", counted)
        monkeypatch.setattr(localization, "obstruction_value", counted)
        cat = catalog()
        assert len(calls) == 5
        assert set(calls) == set(cat)


class TestVerifyIdentity:
    def test_all_five_hold(self):
        for obs in catalog().values():
            assert verify_identity(obs), obs.label

    def test_mutated_h_detected(self):
        # H = 4h; one coefficient of H moved by one breaks 4f = A^2 - H.
        obs = catalog()[CaseLabel.C]
        mutated = obs._replace(H=obs.H + 1)
        assert not verify_identity(mutated)

    def test_mutated_g_detected(self):
        # A = 2g; one coefficient of A moved by one breaks 4f = A^2 - H.
        obs = catalog()[CaseLabel.E]
        mutated = obs._replace(A=obs.A + UniPoly([0, 1]))
        assert not verify_identity(mutated)


class TestFactorEquation:
    """The stored pairs (A, H): a^2 = f(t) forces (A(t) - 2a)(A(t) + 2a) = H(t)."""

    def test_case_c_pair(self):
        obs = catalog()[CaseLabel.C]
        assert obs.A == UniPoly([0, -1, 0, 2])  # 2x^3 - x
        assert obs.H == UniPoly([-4, 0, 1])  # x^2 - 4

    def test_case_e_pair(self):
        obs = catalog()[CaseLabel.E]
        assert obs.A == UniPoly([-1, 1, 2, 2])
        assert obs.H == UniPoly([1, 6, 5])

    def test_case_f_pair(self):
        obs = catalog()[CaseLabel.F]
        assert obs.A == UniPoly([-1, 2, 2, 2])
        assert obs.H == UniPoly([9, 8, 4])

    def test_case_b_plus_pair(self):
        obs = catalog()[CaseLabel.B_PLUS]
        assert obs.A == UniPoly([-1, -5, -5, 2, 8, 6, 2])
        assert obs.H == UniPoly([-3, 10, 19, 14, 5])

    def test_case_b_minus_pair(self):
        obs = catalog()[CaseLabel.B_MINUS]
        assert obs.A == UniPoly([-1, 5, -5, -2, 8, -6, 2])
        assert obs.H == UniPoly([-3, -10, 19, -14, 5])

    def test_mutated_catalog_rejected(self, monkeypatch, capsys, tmp_path):
        # Case e with H + 1: verify_identity, the one place that checks
        # 4f = A^2 - H, rejects it; the run reports that instead of raising.
        def mutated_catalog():
            cat = catalog()
            cat[CaseLabel.E] = cat[CaseLabel.E]._replace(H=cat[CaseLabel.E].H + 1)
            return cat

        monkeypatch.setattr(obstructions, "catalog", mutated_catalog)
        monkeypatch.setattr(verify, "catalog", mutated_catalog)
        assert not certify_no_square(mutated_catalog()[CaseLabel.E]).proved
        report = verify.verify_all(sieve_limit=100, s1_max=5, alpha_max=50)
        checks = {check.name: check for check in report.checks}
        decompositions = checks["square-decompositions"]
        assert decompositions.status == "fail"
        assert decompositions.details["failed"] == ["e"]
        assert decompositions.details["factorPairsReproduced"] is False
        certificates = checks["no-square-certificates"]
        assert certificates.status == "gap"
        assert certificates.details["gaps"] == ["e"]
        assert certificates.details["certificates"]["e"]["status"] == "inconclusive"
        path = tmp_path / "report.json"
        argv = ["verify-all", "--only", "square-decompositions,no-square-certificates"]
        assert main([*argv, "--json", str(path)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] square-decompositions" in out
        assert "[GAP ] no-square-certificates" in out
        cli = {c["name"]: c["details"] for c in json.loads(path.read_text())["checks"]}
        # Case e fails and has no certificate; the other four hold and are proved.
        assert cli["square-decompositions"]["failed"] == ["e"]
        assert cli["square-decompositions"]["factorPairsReproduced"] is False
        certificates = cli["no-square-certificates"]["certificates"]
        statuses = {label: c["status"] for label, c in certificates.items()}
        assert statuses.pop("e") == "inconclusive"
        assert set(statuses.values()) == {"proved-impossible"} and len(statuses) == 4

    def test_algebraic_consequence(self):
        # If a^2 = f(t), then (A(t) - 2a)(A(t) + 2a) = H(t); equivalently
        # A^2 - 4f = H, checked pointwise here as well as symbolically.
        for obs in catalog().values():
            for t in range(-20, 21):
                assert obs.A.evaluate(t) ** 2 - 4 * obs.f.evaluate(t) == obs.H.evaluate(t)


class TestCertificates:
    def test_all_five_proved(self):
        for label, obs in catalog().items():
            cert = certify_no_square(obs)
            assert cert.proved, label

    def test_positive_side_active_everywhere(self):
        # H stays positive from t_min on for every case, including the
        # sign-flipped one.
        for obs in catalog().values():
            assert certify_no_square(obs).nonzero_side == "positive"

    def test_gap_soundness_spot_check(self):
        # A certificate excludes any integer m with m^2 = A(t)^2 - H(t);
        # equivalently 4f(t) is never a perfect square past t_min.
        for obs in catalog().values():
            cert = certify_no_square(obs)
            assert cert.proved
            for t in range(obs.t_min, obs.t_min + 1000):
                assert not is_perfect_square(obs.A.evaluate(t) ** 2 - obs.H.evaluate(t))

    def test_broken_obstruction_is_inconclusive_not_proved(self):
        # A fabricated decomposition: A = 2x, H = 16 gives f = x^2 - 4, and
        # H = 16 is NOT below 2A - 1 = 4x - 1 at x = 2, sitting exactly on a
        # square at t = 2.
        obs = catalog()[CaseLabel.C]._replace(
            f=UniPoly([-4, 0, 1]),
            A=UniPoly([0, 2]),
            H=UniPoly([16]),
            t_min=2,
        )
        assert verify_identity(obs)
        cert = certify_no_square(obs)
        assert not cert.proved  # f(2) = 0 = 0^2 would contradict a proof


class TestSieve:
    def test_expected_sets_small_limit(self):
        cat = catalog()
        assert sieve(cat[CaseLabel.C].f, 5000) == [0, 1, 2]
        assert sieve(cat[CaseLabel.E].f, 5000) == [0, 1]
        assert sieve(cat[CaseLabel.F].f, 5000) == [1]
        assert sieve(cat[CaseLabel.B_PLUS].f, 5000) == [0, 1]
        assert sieve(cat[CaseLabel.B_MINUS].f, 5000) == [0, 1]

    def test_fast_sieve_matches_naive_oracle(self):
        for obs in catalog().values():
            assert sieve(obs.f, 3000) == sieve_naive(obs, 3000)

    def test_mask_period_boundaries(self):
        # Each mask repeats with period m; a pattern off by one at a period
        # edge would show at m - 1, m or m + 1.
        for obs in catalog().values():
            for m in _MASK_MODULI:
                for limit in (m - 1, m, m + 1):
                    assert sieve(obs.f, limit) == sieve_naive(obs, limit), (obs.label, limit)
            assert sieve(obs.f, 10**4) == sieve_naive(obs, 10**4), obs.label

    def test_groups_cover_every_modulus_in_order(self):
        # A modulus dropped from or doubled in the groups would change which
        # arguments survive; the CRT combination needs coprime moduli.
        assert tuple(m for group in _MASK_GROUPS for m in group) == _MASK_MODULI
        for i, a in enumerate(_MASK_MODULI):
            for b in _MASK_MODULI[i + 1 :]:
                assert math.gcd(a, b) == 1, (a, b)
        assert len(_MASK_GROUPS) == 10

    def test_block_and_group_period_boundaries(self):
        # Limits on either side of the block edges and of each combined
        # period, where a window slice off by one would show.
        limits = {_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1}
        for group in _MASK_GROUPS:
            period = math.prod(group)
            limits |= {period - 1, period, period + 1}
        cat = catalog()
        naive = {label: sieve_naive(obs, max(limits)) for label, obs in cat.items()}
        for label, obs in cat.items():
            for limit in sorted(limits):
                expected = [t for t in naive[label] if t <= limit]
                assert sieve(obs.f, limit) == expected, (label, limit)
        # The catalog's squares all sit below the first edge; f = x is a
        # square at every t = k^2 and has a nontrivial mask for every modulus,
        # so a window read at the wrong offset would drop some of them.
        for limit in sorted(limits):
            squares = [k * k for k in range(math.isqrt(limit) + 1)]
            assert sieve(UniPoly.x(), limit) == squares, limit

    def test_memory_flat_in_limit(self):
        # Blocks and patterns have fixed sizes, so the peak allocation at
        # 2 * 10^6 stays within two blocks of the peak at 10^5; full-length
        # masks would add at least the 1.9 * 10^6 extra bytes themselves.
        obs = catalog()[CaseLabel.C]
        peaks = []
        for limit in (10**5, 2 * 10**6):
            tracemalloc.start()
            try:
                sieve(obs.f, limit)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2 * _BLOCK, peaks

    def test_masks_keep_every_true_square(self):
        # f = (x + 1)^2 is a square at every t, so any mask that dropped a
        # square residue would lose some t here; past one and two blocks,
        # every bit of a full block survives and is read off.
        f = UniPoly([1, 1]).square()
        for limit in (500, _BLOCK + 1, 2 * _BLOCK + 1):
            assert sieve(f, limit) == list(range(limit + 1)), limit

    def test_negative_values_never_reported(self):
        # f for case f is negative at 0; the sieve must not report it.
        obs = catalog()[CaseLabel.F]
        assert obs.f.evaluate(0) == -2
        assert 0 not in sieve(obs.f, 10)

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            sieve(catalog()[CaseLabel.C].f, -1)

    def test_zero_limit(self):
        assert sieve(catalog()[CaseLabel.C].f, 0) == [0]

    def test_import_leaves_numpy_unloaded(self):
        # The package is standard library only; the child prints the answer
        # so that the check cannot be skipped.
        env = {**os.environ, "PYTHONPATH": str(Path(homgeom.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", "import sys, homgeom; print('numpy' in sys.modules)"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"
