"""Single-rule mutants: each wrong rule must turn some report check away from pass.

Each row of MUTANTS applies one wrong rule by monkeypatch and names the
check that must leave pass at verify_all's default sizes.  A check that
stays at pass under a mutant does not rest on the rule it changes.  The
growth_margin rows also show that the sweeps and first_r_exceeding read
growth_margin from the bounds module when they run.
"""

import pytest

import homgeom.bounds as bounds
import homgeom.pipeline as pipeline
from homgeom.verify import verify_all


def margin_gap_power_r_minus_2(s1, s2, num, den, r):
    """growth_margin with (s2 - s1)^(r - 2) in place of (s2 - s1)^(r - 1)."""
    return den * (s2 - s1) ** (r - 2) - num * (s1 - 1) ** (r - 2)


def margin_base_power_r_minus_3(s1, s2, num, den, r):
    """growth_margin with (s1 - 1)^(r - 3) in place of (s1 - 1)^(r - 2)."""
    return den * (s2 - s1) ** (r - 1) - num * (s1 - 1) ** (r - 3)


# (module, attribute, mutant value, the check that must leave pass)
MUTANTS = {
    "no-forbidden-pairs": (pipeline, "FORBIDDEN_PAIRS", {}, "parameter-search"),
    "margin-gap-power": (
        bounds, "growth_margin", margin_gap_power_r_minus_2, "growth-threshold-beta-route",
    ),
    "margin-base-power": (
        bounds, "growth_margin", margin_base_power_r_minus_3, "classical-ground-truth",
    ),
}


def status(check: str) -> str:
    (row,) = verify_all(only=[check]).checks
    return row.status


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_leaves_pass(monkeypatch, mutant):
    module, attribute, value, check = MUTANTS[mutant]
    assert status(check) == "pass"
    monkeypatch.setattr(module, attribute, value)
    assert status(check) != "pass"
