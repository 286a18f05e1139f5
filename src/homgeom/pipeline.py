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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum

from . import __version__
from .exact_arith import _jsonable, exact_sqrt
from .parameters import (
    Condition,
    ParamSystem,
    classify_condition,
    condition_alphas,
    integrality_alpha0,
    integrality_alpha1,
    require_hypothesis_line_size,
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

STANDARD_FORBIDDEN: frozenset[tuple[int, int]] = frozenset(
    (outer.family, target) for outer, target in FORBIDDEN_PAIRS
)

# The chain a counterexample needs: point inside line inside plane.
LOCALIZATION_CHAIN_DEPTH = 3

# Largest flat dimension compatible with each route's size cap.
ALPHA_ROUTE_MAX_R = 19
BETA_ROUTE_MAX_R = 16


@dataclass(frozen=True)
class TransitionGraph:
    """Directed graph on the condition families with a forbidden-edge set."""

    nodes: tuple[int, ...] = (1, 2, 3)
    forbidden: frozenset[tuple[int, int]] = STANDARD_FORBIDDEN

    def allowed_pairs(self) -> list[tuple[int, int]]:
        return [
            (a, b) for a in self.nodes for b in self.nodes if (a, b) not in self.forbidden
        ]

    def is_forbidden(self, pair: tuple[int, int]) -> bool:
        return pair in self.forbidden

    def with_restored(self, pair: tuple[int, int]) -> "TransitionGraph":
        """The mutated graph with one forbidden edge moved to the allowed set."""
        if pair not in self.forbidden:
            raise ValueError(f"{pair} is not a forbidden edge")
        return TransitionGraph(self.nodes, self.forbidden - {pair})

    def require_cases(self) -> None:
        """Raise ValueError unless a case settles every forbidden pair.

        Construction accepts any forbidden set, so that every set's longest
        chain can be computed; the walk and forbidden_cases need each
        forbidden pair to have a row in FORBIDDEN_PAIRS.
        """
        unsettled = sorted(self.forbidden - STANDARD_FORBIDDEN)
        if unsettled:
            raise ValueError(
                f"no case settles the forbidden pair(s) {unsettled}: "
                "FORBIDDEN_PAIRS has no row for them"
            )

    def forbidden_cases(self) -> dict[tuple[int, int], str]:
        """Each forbidden pair's case letter; "b" stands for both sign variants."""
        self.require_cases()
        letters = {
            (outer.family, target): case.value[0]
            for (outer, target), case in FORBIDDEN_PAIRS.items()
        }
        return {pair: letters[pair] for pair in sorted(self.forbidden)}


def standard_graph() -> TransitionGraph:
    return TransitionGraph()


def longest_condition_chain(graph: TransitionGraph) -> "int | float":
    """Length in edges of the longest simple directed path over allowed edges.

    Returns math.inf when the allowed edges contain a cycle (a cycle allows
    chains of any length); one depth-first search finds both, since an edge
    back onto the current path closes a cycle.  The standard graph has no
    cycle and longest path 2, strictly below the 3 transitions a
    counterexample chain needs.
    """
    adjacency: dict[int, list[int]] = {n: [] for n in graph.nodes}
    for a, b in graph.allowed_pairs():
        adjacency[a].append(b)

    def longest_from(node: int, path: frozenset[int]) -> "int | float":
        best = 0
        for nxt in adjacency[node]:
            if nxt in path:
                return math.inf
            best = max(best, 1 + longest_from(nxt, path | {nxt}))
        return best

    return max(longest_from(n, frozenset({n})) for n in graph.nodes)


def exceptional_min_dim(
    alpha_route_max_r: int = ALPHA_ROUTE_MAX_R, beta_route_max_r: int = BETA_ROUTE_MAX_R
) -> int:
    """Dimension from which the condition trichotomy is in force.

    One above the largest flat dimension either size cap tolerates.
    """
    return max(alpha_route_max_r, beta_route_max_r) + 1


def required_dimension(
    alpha_route_max_r: int = ALPHA_ROUTE_MAX_R,
    beta_route_max_r: int = BETA_ROUTE_MAX_R,
    chain_depth: int = LOCALIZATION_CHAIN_DEPTH,
) -> int:
    """Dimension needed for the full chain argument.

    The trichotomy must hold in the geometry and in all chain_depth nested
    localizations, each localization dropping the dimension by one.
    """
    return exceptional_min_dim(alpha_route_max_r, beta_route_max_r) + chain_depth


# -- verdicts ----------------------------------------------------------------


class Verdict(Enum):
    CLASSICAL = "Classical"
    ELIMINATED = "Eliminated"
    SURVIVES_SQUARE_TEST = "SurvivesSquareTest"
    OUT_OF_MODELED_SCOPE = "OutOfModeledScope"


@dataclass(frozen=True)
class EliminationVerdict:
    """Outcome for one parameter system, with the full rule trace."""

    subject: ParamSystem
    verdict: Verdict
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


def normalize_disabled(cases) -> frozenset[CaseLabel]:
    """Accept CaseLabels or letter strings; 'b' expands to both sign variants."""
    out: set[CaseLabel] = set()
    for c in cases:
        if isinstance(c, CaseLabel):
            out.add(c)
        elif c == "b":
            out.update({CaseLabel.B_PLUS, CaseLabel.B_MINUS})
        else:
            out.add(CaseLabel(c))
    return frozenset(out)


class _Walk:
    """Depth-first exploration of every hypothesized condition chain."""

    def __init__(self, graph: TransitionGraph, disabled: frozenset[CaseLabel]):
        self.graph = graph
        self.disabled = disabled
        self.trace: list[str] = []
        self.survivors: list[str] = []
        self.instances: list[CaseInstanceVerdict] = []

    def run(self, cond: Condition, s1: int, alpha: int) -> None:
        self.trace.append(f"condition {cond.value} holds at (s1={s1}, alpha={alpha})")
        self._step(cond, s1, alpha, depth=0, chain=f"{cond.value}(s1={s1})")

    def _step(self, cond: Condition, s1: int, alpha: int, depth: int, chain: str) -> None:
        pad = "  " * (depth + 1)
        if depth == LOCALIZATION_CHAIN_DEPTH:
            self.trace.append(f"{pad}chain {chain} completed {depth} transitions: SURVIVOR")
            self.survivors.append(chain)
            return
        fam = cond.family
        for target in self.graph.nodes:
            pair = (fam, target)
            if self.graph.is_forbidden(pair):
                case = FORBIDDEN_PAIRS[cond, target]
                if case in self.disabled:
                    self.trace.append(
                        f"{pad}pair {pair} forbidden by case {case.value}, but that case "
                        "is disabled: continuation cannot be eliminated; SURVIVOR"
                    )
                    self.survivors.append(f"{chain} -> blocked case {case.value} disabled")
                    continue
                if case not in CASE_MIN_ARG:
                    self.trace.append(
                        f"{pad}pair {pair} impossible by imported fact "
                        f"(case {case.value}, external provenance); branch eliminated"
                    )
                    continue
                # Cases with outer condition 1 take t = sqrt(s1) as argument.
                arg = exact_sqrt(s1) if fam == 1 else s1
                inst = eliminate_case_instance(case, arg)
                self.instances.append(inst)
                if inst.eliminated:
                    self.trace.append(
                        f"{pad}pair {pair} impossible: case {case.value} obstruction "
                        f"{inst.value} at argument {arg} is not a perfect square; "
                        "branch eliminated"
                    )
                else:
                    self.trace.append(
                        f"{pad}pair {pair}: case {case.value} obstruction {inst.value} "
                        f"= {inst.root}^2 IS a perfect square; SURVIVOR"
                    )
                    self.survivors.append(f"{chain} -> case {case.value} survivor at {arg}")
                continue
            # Allowed pair: localize and keep walking.
            s1_hat = point_localize(s1, alpha)
            forced = condition_alphas(s1_hat)
            children = [c for c in forced if c.family == target]
            if not children:
                self.trace.append(
                    f"{pad}pair {pair} allowed, but condition 1 needs a square "
                    f"line size and {s1_hat} is not a square; branch closed"
                )
                continue
            for child in children:
                alpha_hat = forced[child]
                self.trace.append(
                    f"{pad}pair {pair} allowed: localized system "
                    f"(s1_hat={s1_hat}, alpha_hat={alpha_hat}) under {child.value}"
                )
                self._step(
                    child, s1_hat, alpha_hat, depth + 1, f"{chain} -> {child.value}(s1={s1_hat})"
                )


def _check_dimension(dim: int) -> None:
    if dim < required_dimension():
        raise ValueError(
            f"dim={dim} is below the threshold {required_dimension()} "
            "where the chain argument applies"
        )


def eliminate(
    ps: ParamSystem,
    *,
    graph: TransitionGraph | None = None,
    disabled_cases: frozenset[CaseLabel] = frozenset(),
) -> EliminationVerdict:
    """Classify-or-eliminate one parameter system.

    Order of rules: classical short-circuit, divisibility constraints,
    condition trichotomy, then the automaton walk in which every forbidden
    continuation must be killed by its case instance.  The alpha floor
    alpha^2 >= s1 (alpha > 0) needs no rule: s1 | alpha^2 implies it.
    """
    require_hypothesis_line_size(ps.s1, "s1")
    _check_dimension(ps.dim)
    graph = graph or standard_graph()
    graph.require_cases()
    tags = classify_condition(ps)
    if Condition.CLASSICAL_COMPATIBLE in tags:
        shape = "projective-like (alpha=0)" if ps.alpha == 0 else "affine-like (alpha=1)"
        return EliminationVerdict(
            ps, Verdict.CLASSICAL, (f"classical-compatible shape: {shape}",)
        )
    trace: list[str] = []
    if ps.alpha_prime == 0:
        if not integrality_alpha0(ps.s1, ps.alpha):
            trace.append(
                f"integrality failure: s1={ps.s1} does not divide alpha^2={ps.alpha**2}"
            )
            return EliminationVerdict(ps, Verdict.ELIMINATED, tuple(trace))
    else:
        beta = ps.beta
        if not integrality_alpha1(ps.s1, beta):
            trace.append(f"integrality failure: s1={ps.s1} does not divide beta={beta}")
            return EliminationVerdict(ps, Verdict.ELIMINATED, tuple(trace))
    start_conditions = [c for c in Condition if c.family and c in tags]
    if not start_conditions:
        trace.append(
            "condition trichotomy: alpha matches no exceptional family; "
            "system excluded by the growth-threshold analysis"
        )
        return EliminationVerdict(ps, Verdict.ELIMINATED, tuple(trace))
    walk = _Walk(graph, disabled_cases)
    for cond in start_conditions:
        walk.run(cond, ps.s1, ps.alpha)
    trace.extend(walk.trace)
    if walk.survivors:
        return EliminationVerdict(
            ps,
            Verdict.SURVIVES_SQUARE_TEST,
            tuple(trace),
            tuple(walk.survivors),
            tuple(walk.instances),
        )
    return EliminationVerdict(
        ps, Verdict.ELIMINATED, tuple(trace), (), tuple(walk.instances)
    )


# -- report plumbing ----------------------------------------------------------


@dataclass
class ReportCheck:
    name: str
    status: str  # "pass", "fail" or "gap"
    details: dict = field(default_factory=dict)
    witness: object = None
    elapsed_seconds: float | None = None  # set by verify_all, the check's own time


@dataclass
class Report:
    version: str = __version__
    timestamp: str = ""
    checks: list[ReportCheck] = field(default_factory=list)

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat()

    def add(self, name: str, status: str, details: dict | None = None, witness=None) -> None:
        self.checks.append(ReportCheck(name, status, details or {}, witness))

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
    dim: int | None = None,
    disabled_cases: frozenset[CaseLabel] = frozenset(),
) -> Report:
    """Classify-or-eliminate every parameter system of the grid, counting per s1.

    The grid is 3 <= s1 <= s1_max, 0 <= alpha <= alpha_max, alpha' in {0, 1}.
    Each category has a closed-form count per s1:
    - classical: (0, 0), (0, 1) and, when alpha_max >= 1, (1, 0);
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
    The cost does not depend on alpha_max.  Fails (with witnesses) if any
    system survives, which with the full case set never happens; fault
    injection via disabled_cases must produce survivors, proving the search
    exercises each case.
    """
    require_hypothesis_line_size(s1_max, "s1_max")
    if alpha_max < 0:
        raise ValueError("alpha_max must be nonnegative")
    dim = required_dimension() if dim is None else dim
    _check_dimension(dim)
    counts = {
        "classical": 0,
        "integrality": 0,
        "no-condition": 0,
        "condition-eliminated": 0,
    }
    classical_witnesses: list[dict] = []
    survivors: list[dict] = []
    classical = [(0, 0), (0, 1), (1, 0)] if alpha_max >= 1 else [(0, 0), (0, 1)]
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
        classical_witnesses += (
            {"s1": s1, "alpha": alpha, "alphaPrime": alpha_prime}
            for alpha, alpha_prime in classical
        )
        # Reports list survivors in (s1, alpha, alpha') order.
        for alpha, alpha_prime in conditions:
            ps = ParamSystem(s1, alpha, alpha_prime, dim)
            verdict = eliminate(ps, disabled_cases=disabled_cases)
            if verdict.verdict is Verdict.SURVIVES_SQUARE_TEST:
                survivors.append(verdict.to_record())
            else:
                counts["condition-eliminated"] += 1
    report = Report()
    report.add(
        "parameter-search",
        "fail" if survivors else "pass",
        details={
            "s1Max": s1_max,
            "alphaMax": alpha_max,
            "dim": dim,
            "counts": counts,
            "systemsChecked": (s1_max - 2) * (alpha_max + 1) * 2,
            "disabledCases": sorted(c.value for c in disabled_cases),
            "classicalWitnesses": classical_witnesses,
        },
        witness=survivors or None,
    )
    return report
