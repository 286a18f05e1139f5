"""Orchestration: condition-transition automaton, elimination, search, report.

The final argument has the shape of a path problem.  Each of the three
exceptional condition families is a node; an ordered pair (i, j) means
"family i holds in a geometry while family j holds in its point
localization".  Six of the nine pairs are impossible; the automaton's
forbidden edges and the case the walk consults for each are read off
`localization.FORBIDDEN_PAIRS`.  Two cases are imported external facts and
four are square obstructions computed per instance.  The surviving pairs
admit no directed path of three transitions, which is what a
high-dimensional counterexample would need for its chain of nested
localizations at a point, a line and a plane.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone
from enum import Enum
from typing import NamedTuple

from . import __version__, _jsonable
from .exact_arith import exact_sqrt
from .parameters import (
    EXCEPTIONAL,
    LOCALIZATION_CHAIN_DEPTH,
    Condition,
    ParamSystem,
    classify_condition,
    condition_alphas,
    integrality_alpha0,
    integrality_alpha1,
    is_classical_shape,
    require_hypothesis_line_size,
    required_dimension,
    square_divisor,
)
from .localization import (
    CASE_MIN_ARG,
    FORBIDDEN_PAIRS,
    CaseLabel,
    CaseInstanceVerdict,
    eliminate_case_instance,
    point_localize,
)

# -- the automaton -----------------------------------------------------------

# The exceptional condition families, the automaton's nodes.
FAMILIES: tuple[int, ...] = tuple(sorted({c.family for c in EXCEPTIONAL}))

STANDARD_FORBIDDEN: frozenset[tuple[int, int]] = frozenset(
    (outer.family, target) for outer, target in FORBIDDEN_PAIRS
)


def longest_condition_chain(forbidden: frozenset[tuple[int, int]]) -> "int | float":
    """Length in edges of the longest simple directed path over the family
    pairs not in `forbidden`.

    Returns math.inf when the allowed edges contain a cycle (a cycle allows
    chains of any length); one depth-first search finds both, since an edge
    back onto the current path closes a cycle.  STANDARD_FORBIDDEN has no
    cycle and longest path 2, strictly below the 3 transitions a
    counterexample chain needs.
    """
    adjacency = {a: [b for b in FAMILIES if (a, b) not in forbidden] for a in FAMILIES}

    def longest_from(node: int, path: frozenset[int]) -> "int | float":
        best = 0
        for nxt in adjacency[node]:
            if nxt in path:
                return math.inf
            best = max(best, 1 + longest_from(nxt, path | {nxt}))
        return best

    return max(longest_from(n, frozenset({n})) for n in FAMILIES)


# -- verdicts ----------------------------------------------------------------


class Verdict(Enum):
    CLASSICAL = "Classical"
    ELIMINATED = "Eliminated"
    SURVIVES_SQUARE_TEST = "SurvivesSquareTest"
    OUT_OF_MODELED_SCOPE = "OutOfModeledScope"


class EliminationVerdict(NamedTuple):
    """Outcome for one parameter system, with the branch of `eliminate` that decided it
    (rule: "classical", "integrality", "no-condition" or "condition") and the full rule trace."""

    subject: ParamSystem
    verdict: Verdict
    rule: str
    trace: tuple[str, ...]
    survivor_chains: tuple[str, ...] = ()
    case_instances: tuple[CaseInstanceVerdict, ...] = ()

    def to_record(self) -> dict:
        return {
            "subject": self.subject.to_record(),
            "verdict": self.verdict.value,
            "trace": list(self.trace),
            "survivorChains": list(self.survivor_chains),
            "caseInstances": [ci.to_record() for ci in self.case_instances],
        }


# One step of the walk: (trace line, survivor chain or None, case instance or None).
_Step = tuple[str, str | None, CaseInstanceVerdict | None]


def _chain_text(chain: tuple[tuple[Condition, int], ...]) -> str:
    return " -> ".join(f"{cond.value}(s1={s1})" for cond, s1 in chain)


def _walk(
    steps: list[_Step],
    chain: tuple[tuple[Condition, int], ...],
    alpha: int,
    disabled: frozenset[CaseLabel],
) -> None:
    """Depth-first exploration of every hypothesized condition chain from
    the last link of chain.

    Appends one (trace line, survivor chain or None, case instance or None)
    to steps per step.  chain holds the (condition, s1) links walked so far;
    the last is the node walked now, alpha is that node's alpha, and its
    depth is its number of transitions, len(chain) - 1.  A pair (condition,
    family) is forbidden exactly when FORBIDDEN_PAIRS has a row for it, and
    the row names the case that must settle it.  An allowed pair always
    localizes to a condition of its family: the only allowed pair into
    family 1 is (Cond2, 1), and its localized line size
    s1 + s1(s1 - 1) = s1^2 is a square.
    """
    cond, s1 = chain[-1]
    depth = len(chain) - 1
    pad = "  " * (depth + 1)
    if depth == LOCALIZATION_CHAIN_DEPTH:
        text = _chain_text(chain)
        steps.append((f"{pad}chain {text} completed {depth} transitions: SURVIVOR", text, None))
        return
    s1_hat = point_localize(s1, alpha)
    for target in FAMILIES:
        head = f"{pad}pair {(cond.family, target)}"
        case = FORBIDDEN_PAIRS.get((cond, target))
        if case is None:
            # Allowed pair: keep walking in the localization.
            for child, alpha_hat in condition_alphas(s1_hat).items():
                if child.family == target:
                    steps.append((f"{head} allowed: localized system (s1_hat={s1_hat}, "
                                  f"alpha_hat={alpha_hat}) under {child.value}", None, None))
                    _walk(steps, chain + ((child, s1_hat),), alpha_hat, disabled)
        elif case in disabled:
            steps.append((f"{head} forbidden by case {case.value}, but that case is disabled: "
                          "continuation cannot be eliminated; SURVIVOR",
                          f"{_chain_text(chain)} -> blocked case {case.value} disabled", None))
        elif case not in CASE_MIN_ARG:
            steps.append((f"{head} impossible by imported fact (case {case.value}, "
                          "external provenance); branch eliminated", None, None))
        else:
            # Cases with outer condition 1 take t = sqrt(s1) as argument.
            arg = exact_sqrt(s1) if cond.family == 1 else s1
            inst = eliminate_case_instance(case, arg)
            if inst.root is None:
                steps.append((f"{head} impossible: case {case.value} obstruction {inst.value} "
                              f"at argument {arg} is not a perfect square; branch eliminated",
                              None, inst))
            else:
                steps.append((f"{head}: case {case.value} obstruction {inst.value} = "
                              f"{inst.root}^2 IS a perfect square; SURVIVOR",
                              f"{_chain_text(chain)} -> case {case.value} survivor at {arg}",
                              inst))


def eliminate(
    ps: ParamSystem,
    *,
    disabled_cases: frozenset[CaseLabel] = frozenset(),
) -> EliminationVerdict:
    """Classify-or-eliminate one parameter system.

    Order of rules: classical short-circuit, divisibility constraints,
    condition trichotomy, then the automaton walk in which every forbidden
    continuation must be killed by its case instance.  The alpha floor
    alpha^2 >= s1 (alpha > 0) needs no rule: s1 | alpha^2 implies it.
    """
    require_hypothesis_line_size(ps.s1, "s1")
    if ps.dim < required_dimension():
        raise ValueError(
            f"dim={ps.dim} is below the threshold {required_dimension()} "
            "where the chain argument applies"
        )
    if is_classical_shape(ps):
        shape = "projective-like (alpha=0)" if ps.alpha == 0 else "affine-like (alpha=1)"
        return EliminationVerdict(
            ps, Verdict.CLASSICAL, "classical", (f"classical-compatible shape: {shape}",)
        )
    if ps.alpha_prime == 0:
        if not integrality_alpha0(ps.s1, ps.alpha):
            return EliminationVerdict(ps, Verdict.ELIMINATED, "integrality", (
                f"integrality failure: s1={ps.s1} does not divide alpha^2={ps.alpha**2}",
            ))
    elif not integrality_alpha1(ps.s1, ps.beta):
        return EliminationVerdict(ps, Verdict.ELIMINATED, "integrality", (
            f"integrality failure: s1={ps.s1} does not divide beta={ps.beta}",
        ))
    tags = classify_condition(ps)
    start_conditions = [c for c in EXCEPTIONAL if c in tags]
    if not start_conditions:
        return EliminationVerdict(ps, Verdict.ELIMINATED, "no-condition", (
            "condition trichotomy: alpha matches no exceptional family; "
            "system excluded by the growth-threshold analysis",
        ))
    steps: list[_Step] = []
    for cond in start_conditions:
        steps.append(
            (f"condition {cond.value} holds at (s1={ps.s1}, alpha={ps.alpha})", None, None)
        )
        _walk(steps, ((cond, ps.s1),), ps.alpha, disabled_cases)
    trace, chains, instances = zip(*steps)
    survivors = tuple(chain for chain in chains if chain is not None)
    return EliminationVerdict(
        ps,
        Verdict.SURVIVES_SQUARE_TEST if survivors else Verdict.ELIMINATED, "condition",
        trace,
        survivors,
        tuple(inst for inst in instances if inst is not None),
    )


# -- report plumbing ----------------------------------------------------------


class ReportCheck(NamedTuple):
    """One report row: a check's name, verdict, details and own wall time."""

    name: str
    status: str  # "pass", "fail" or "gap"
    details: dict
    witness: object = None
    elapsed_seconds: float | None = None


class Report:
    """The checks of one run, stamped with the version and a UTC timestamp."""

    def __init__(self):
        self.version = __version__
        self.timestamp = datetime.now(timezone.utc).isoformat()
        self.checks: list[ReportCheck] = []

    @property
    def overall_status(self) -> str:
        statuses = {c.status for c in self.checks}
        if "fail" in statuses:
            return "fail"
        if "gap" in statuses:
            return "gap"
        return "pass"

    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "gap": 2}[self.overall_status]

    def to_json_dict(self) -> dict:
        return _jsonable(
            {
                "version": self.version,
                "timestamp": self.timestamp,
                "overallStatus": self.overall_status,
                "checks": [
                    {
                        "name": c.name,
                        "status": c.status,
                        **({"elapsedSeconds": c.elapsed_seconds}
                           if c.elapsed_seconds is not None else {}),
                        "details": c.details,
                        **({"witness": c.witness} if c.witness is not None else {}),
                    }
                    for c in self.checks
                ],
            }
        )


# -- the exhaustive search -----------------------------------------------------


def search(
    s1_max: int,
    alpha_max: int,
    *,
    disabled_cases: frozenset[CaseLabel] = frozenset(),
) -> tuple[str, dict, list[dict] | None]:
    """Classify-or-eliminate every parameter system of the grid, counting per s1.

    The grid is 3 <= s1 <= s1_max, 0 <= alpha <= alpha_max, alpha' in {0, 1}.
    Each category has a closed-form count per s1:
    - classical: the pairs (alpha <= 1, alpha') `is_classical_shape` admits (classicalShapes);
    - alpha' = 0, alpha >= 2: s1 | alpha^2 exactly when m | alpha, where
      m = prod p^ceil(e/2) over s1 = prod p^e, so floor(alpha_max / m)
      systems pass integrality (m >= 2, so none of them is classical);
    - alpha' = 1, alpha >= 1: s1 | beta = alpha - 1 for
      floor((alpha_max - 1) / s1) + 1 systems;
    - condition: the at most four alphas of `condition_alphas` up to
      alpha_max, all integral, each sent through `eliminate` in
      (alpha, alpha') order;
    - no-condition: the other integral systems, which match no exceptional
      family; every remaining system fails integrality.
    The cost does not depend on alpha_max.  Returns the search's report row
    (status, details, witness).  Fails (with witnesses) if any
    system survives, which with the full case set never happens; fault
    injection via disabled_cases must produce survivors, proving the search
    exercises each case.  A grid that holds no condition system sent nothing
    through `eliminate`, so it is a gap.
    """
    require_hypothesis_line_size(s1_max, "s1_max")
    if alpha_max < 0:
        raise ValueError("alpha_max must be nonnegative")
    dim = required_dimension()
    counts = {
        "classical": 0,
        "integrality": 0,
        "no-condition": 0,
        "condition-eliminated": 0,
    }
    survivors: list[dict] = []
    # is_classical_shape reads alpha and alpha' only: s1 = 3 stands for every s1.
    classical = [(a, a_prime) for a in range(min(alpha_max, 1) + 1) for a_prime in (0, 1)
                 if is_classical_shape(ParamSystem(3, a, a_prime, dim))]
    for s1 in range(3, s1_max + 1):
        integral = alpha_max // square_divisor(s1)
        if alpha_max >= 1:
            integral += (alpha_max - 1) // s1 + 1
        conditions = sorted(
            (alpha, cond.alpha_prime)
            for cond, alpha in condition_alphas(s1).items()
            if alpha <= alpha_max
        )
        counts["classical"] += len(classical)
        counts["integrality"] += 2 * (alpha_max + 1) - len(classical) - integral
        counts["no-condition"] += integral - len(conditions)
        # Reports list survivors in (s1, alpha, alpha') order.
        for alpha, alpha_prime in conditions:
            ps = ParamSystem(s1, alpha, alpha_prime, dim)
            verdict = eliminate(ps, disabled_cases=disabled_cases)
            if verdict.verdict is Verdict.SURVIVES_SQUARE_TEST:
                survivors.append(verdict.to_record())
            else:
                counts["condition-eliminated"] += 1
    details = {
        "s1Max": s1_max,
        "alphaMax": alpha_max,
        "dim": dim,
        "counts": counts,
        "systemsChecked": (s1_max - 2) * (alpha_max + 1) * 2,
        "disabledCases": sorted(c.value for c in disabled_cases),
        "classicalShapes": [{"alpha": a, "alphaPrime": a_prime} for a, a_prime in classical],
    }
    status = "fail" if survivors else "gap" if not counts["condition-eliminated"] else "pass"
    return status, details, survivors or None
