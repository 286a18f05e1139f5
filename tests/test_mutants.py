"""Single-rule mutants: each wrong rule must turn some report check away from pass.

Each row of MUTANTS applies one wrong rule by monkeypatch and names the
check that must leave pass at verify_all's default sizes.  A check that
stays at pass under a mutant does not rest on the rule it changes.  The
growth_margin rows also show that the sweeps and first_r_exceeding read
growth_margin from the bounds module when they run.  Every row also runs
through the CLI, which must exit 1 with the check failed: a wrong rule is
a fail row, never a traceback.  The catalog-path rows make the catalog's
derivation raise, which fails each check that reads the catalog; the
condition 1- row instead breaks the sign flip between the b+ and b-
entries.  A row whose first entry is a tuple of modules patches the
attribute in each; source_mutant recompiles a function with one operator
changed.  The whole table also runs under python -O, which strips asserts:
every guard is an explicit comparison.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import homgeom
import homgeom.bounds as bounds
import homgeom.cli as cli
import homgeom.localization as localization
import homgeom.obstructions as obstructions
import homgeom.pipeline as pipeline
import homgeom.verify as verify
from homgeom.bounds import phi_of
from homgeom.geometries import alpha_from_profile
from homgeom.localization import FORBIDDEN_PAIRS, point_localize
from homgeom.parameters import Condition, condition_alpha, is_classical_shape, s2_from
from homgeom.pipeline import search
from homgeom.obstructions import sieve
from homgeom.verify import verify_all


def margin_gap_power_r_minus_2(s1, s2, num, den, r):
    """growth_margin with (s2 - s1)^(r - 2) in place of (s2 - s1)^(r - 1)."""
    return den * (s2 - s1) ** (r - 2) - num * (s1 - 1) ** (r - 2)


def margin_base_power_r_minus_3(s1, s2, num, den, r):
    """growth_margin with (s1 - 1)^(r - 3) in place of (s1 - 1)^(r - 2)."""
    return den * (s2 - s1) ** (r - 1) - num * (s1 - 1) ** (r - 3)


def alpha_plus_one(profile):
    """alpha_from_profile one too large."""
    return alpha_from_profile(profile) + 1


def phi_plus_one(s1, alpha):
    """phi_of one too large."""
    return phi_of(s1, alpha) + 1


def cond2_alpha_s1_plus_1(condition, s1):
    """condition_alpha with s1*(s1 + 1) in place of s1*(s1 - 1) for condition 2."""
    if condition is Condition.COND2:
        return s1 * (s1 + 1)
    return condition_alpha(condition, s1)


def point_localize_plus_one(s1, alpha):
    """point_localize one too large."""
    return point_localize(s1, alpha) + 1


def s2_from_plus_one(s1, alpha):
    """s2_from one too large."""
    return s2_from(s1, alpha) + 1


def cond3_alpha_s1_squared_plus_2(condition, s1):
    """condition_alpha with s1^2 + 2 in place of s1^2 + 1 for condition 3."""
    if condition is Condition.COND3:
        return s1 * s1 + 2
    return condition_alpha(condition, s1)


def never_square(n):
    """is_perfect_square that finds no square."""
    return False


def never_integral_alpha0(s1, alpha):
    """integrality_alpha0 that no system passes."""
    return False


def never_integral_alpha1(s1, beta):
    """integrality_alpha1 that no system passes."""
    return False


def square_divisor_identity(n):
    """square_divisor(n) = n, wrong wherever n has a square factor."""
    return n


def never_classical(ps):
    """is_classical_shape that finds no classical shape."""
    return False


def classical_also_1_1(ps):
    """is_classical_shape that also admits (alpha, alpha') = (1, 1)."""
    return is_classical_shape(ps) or (ps.alpha, ps.alpha_prime) == (1, 1)


def search_systems_checked_plus_one(*args, **kwargs):
    """search whose row claims one system more than it counted."""
    status, details, witness = search(*args, **kwargs)
    return status, {**details, "systemsChecked": details["systemsChecked"] + 1}, witness


def cond1_minus_alpha_s1_squared(condition, s1):
    """condition_alpha with s1^2 in place of s1*(sqrt(s1) - 1)^2 for condition 1-."""
    if condition is Condition.COND1_MINUS:
        return s1 * s1
    return condition_alpha(condition, s1)


def source_mutant(function, old, new):
    """function recompiled from its source with the one occurrence of old
    replaced by new, in its own module's globals."""
    source = textwrap.dedent(inspect.getsource(function))
    if source.count(old) != 1:
        raise ValueError(f"{old!r} does not occur exactly once in {function.__name__}")
    namespace = {}
    exec(source.replace(old, new), function.__globals__, namespace)
    return namespace[function.__name__]


# Every module of the package that binds is_perfect_square, the defining one
# included: patching them all leaves no square test that still works.
SQUARE_TEST_MODULES = tuple(
    module
    for module in (
        importlib.import_module(f"homgeom.{info.name}")
        for info in pkgutil.iter_modules(homgeom.__path__)
    )
    if hasattr(module, "is_perfect_square")
)

# (module or tuple of modules, attribute, mutant value, the check that must
# leave pass)
MUTANTS = {
    "no-forbidden-pairs": (pipeline, "FORBIDDEN_PAIRS", {}, "parameter-search"),
    "margin-gap-power": (
        bounds, "growth_margin", margin_gap_power_r_minus_2, "growth-threshold-beta-route",
    ),
    "margin-base-power": (
        bounds, "growth_margin", margin_base_power_r_minus_3, "classical-ground-truth",
    ),
    "alpha-from-profile-plus-one": (
        verify, "alpha_from_profile", alpha_plus_one, "classical-ground-truth",
    ),
    "phi-plus-one": (bounds, "phi_of", phi_plus_one, "spectral-identities"),
    "cond2-alpha-s1-plus-1": (
        localization, "condition_alpha", cond2_alpha_s1_plus_1, "square-decompositions",
    ),
    "sieve-never-square": (obstructions, "is_perfect_square", never_square, "square-sieve"),
    "never-square-everywhere": (
        SQUARE_TEST_MODULES, "is_perfect_square", never_square, "square-sieve",
    ),
    "point-localize-plus-one": (
        verify, "point_localize", point_localize_plus_one, "classical-ground-truth",
    ),
    "catalog-point-localize-plus-one": (
        localization, "point_localize", point_localize_plus_one, "square-decompositions",
    ),
    "catalog-s2-from-plus-one": (
        localization, "s2_from", s2_from_plus_one, "square-decompositions",
    ),
    "catalog-cond3-alpha-s1-squared-plus-2": (
        localization, "condition_alpha", cond3_alpha_s1_squared_plus_2, "square-decompositions",
    ),
    "integrality-alpha0-never": (
        pipeline, "integrality_alpha0", never_integral_alpha0, "parameter-search",
    ),
    "integrality-alpha1-never": (
        pipeline, "integrality_alpha1", never_integral_alpha1, "parameter-search",
    ),
    "square-divisor-identity": (
        pipeline, "square_divisor", square_divisor_identity, "parameter-search",
    ),
    "never-classical-shape": (
        pipeline, "is_classical_shape", never_classical, "classical-ground-truth",
    ),
    "classical-shape-also-1-1": (
        pipeline, "is_classical_shape", classical_also_1_1, "parameter-search",
    ),
    "systems-checked-plus-one": (
        verify, "search", search_systems_checked_plus_one, "parameter-search",
    ),
    "no-cond1-plus-family-1-row": (
        pipeline,
        "FORBIDDEN_PAIRS",
        {pair: case for pair, case in FORBIDDEN_PAIRS.items()
         if pair != (Condition.COND1_PLUS, 1)},
        "parameter-search",
    ),
    "catalog-cond1-minus-alpha-s1-squared": (
        localization, "condition_alpha", cond1_minus_alpha_s1_squared, "square-decompositions",
    ),
    "sieve-block-offset-quotient": (
        verify,
        "sieve",
        source_mutant(sieve, ">> (t0 % period)", ">> (t0 // period)"),
        "square-sieve",
    ),
}


def status(check: str) -> str:
    (row,) = verify_all(only=[check]).checks
    return row.status


def apply(monkeypatch, modules, attribute, value):
    for module in modules if isinstance(modules, tuple) else (modules,):
        monkeypatch.setattr(module, attribute, value)


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_leaves_pass(monkeypatch, mutant):
    modules, attribute, value, check = MUTANTS[mutant]
    assert status(check) == "pass"
    apply(monkeypatch, modules, attribute, value)
    assert status(check) != "pass"


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_fails_verify_all_through_the_cli(monkeypatch, capsys, mutant):
    modules, attribute, value, check = MUTANTS[mutant]
    apply(monkeypatch, modules, attribute, value)
    assert cli.main(["verify-all", "--only", check]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"[FAIL] {check}"


def test_search_counts_must_sum_to_systems_checked(monkeypatch):
    # The default search counts (100 - 2) * (10^4 + 1) * 2 systems.
    apply(monkeypatch, *MUTANTS["systems-checked-plus-one"][:3])
    (row,) = verify_all(only=["parameter-search"]).checks
    assert (row.status, row.witness) == ("fail", {"counted": 1960196, "systemsChecked": 1960197})


def test_ground_truth_witness_names_each_failing_instance_and_key(monkeypatch):
    # With no classical shape, eliminate calls no instance classical; AG(2,2)
    # (s1 = 2) is not classified, so it does not fail.
    apply(monkeypatch, *MUTANTS["never-classical-shape"][:3])
    (row,) = verify_all(only=["classical-ground-truth"]).checks
    failing = ("PG(2,2)", "PG(3,2)", "PG(2,3)", "AG(2,3)", "AG(3,3)")
    assert (row.status, row.witness) == ("fail", dict.fromkeys(failing, ["eliminate"]))
    assert [kind for kind, entry in row.details.items() if not entry["ok"]] == list(failing)


def test_every_mutant_leaves_pass_under_python_O():
    script = textwrap.dedent(
        """
        import pytest
        import test_mutants as t

        for name, (modules, attribute, value, check) in t.MUTANTS.items():
            with pytest.MonkeyPatch.context() as monkeypatch:
                t.apply(monkeypatch, modules, attribute, value)
                print(name, t.status(check))
        """
    )
    path = os.pathsep.join((str(Path(homgeom.__file__).parents[1]), str(Path(__file__).parent)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    statuses = dict(line.split() for line in out.stdout.splitlines())
    assert set(statuses) == set(MUTANTS)
    assert "pass" not in statuses.values()
