"""Tests for the transition automaton, elimination walk, search and report."""

import itertools
import json
import math
import re

import pytest

import homgeom.pipeline as pipeline
from homgeom.exact_arith import _jsonable
from homgeom.localization import CASE_MIN_ARG, FORBIDDEN_PAIRS, CaseLabel
from homgeom.obstructions import catalog
from homgeom.parameters import Condition, ParamSystem, condition_alphas, square_divisor
from homgeom.pipeline import (
    STANDARD_FORBIDDEN,
    Report,
    TransitionGraph,
    Verdict,
    eliminate,
    exceptional_min_dim,
    longest_condition_chain,
    normalize_disabled,
    required_dimension,
    search,
    standard_graph,
)

DIM = required_dimension()


def _oracle(s1_max, alpha_max, disabled=frozenset()):
    """Brute-force search: eliminate every system and bucket it by its verdict.

    An eliminated system is bucketed by the first line of its trace: an
    integrality failure, the condition trichotomy, or else an automaton walk.
    Returns the counts, classical witnesses and survivor records in the
    order the search reports them.
    """
    counts = dict.fromkeys(
        ("classical", "integrality", "no-condition", "condition-eliminated"), 0
    )
    classical, survivors = [], []
    for s1 in range(3, s1_max + 1):
        for alpha in range(alpha_max + 1):
            for alpha_prime in (0, 1):
                verdict = eliminate(
                    ParamSystem(s1, alpha, alpha_prime, DIM), disabled_cases=disabled
                )
                if verdict.verdict is Verdict.CLASSICAL:
                    counts["classical"] += 1
                    classical.append({"s1": s1, "alpha": alpha, "alphaPrime": alpha_prime})
                elif verdict.verdict is Verdict.SURVIVES_SQUARE_TEST:
                    survivors.append(verdict.to_record())
                elif verdict.trace[0].startswith("integrality failure"):
                    counts["integrality"] += 1
                elif verdict.trace[0].startswith("condition trichotomy"):
                    counts["no-condition"] += 1
                else:
                    assert verdict.verdict is Verdict.ELIMINATED
                    assert verdict.trace[0].startswith("condition ")
                    counts["condition-eliminated"] += 1
    return counts, classical, survivors or None


def _largest_condition_alpha(s1):
    return max(condition_alphas(s1).values())


class TestTransitionGraph:
    def test_standard_edges(self):
        graph = standard_graph()
        assert graph.forbidden == {(1, 1), (1, 2), (2, 2), (3, 1), (3, 2), (3, 3)}
        assert sorted(graph.allowed_pairs()) == [(1, 3), (2, 1), (2, 3)]

    def test_forbidden_case_map(self):
        assert standard_graph().forbidden_cases() == {
            (1, 1): "a",
            (1, 2): "b",
            (2, 2): "c",
            (3, 1): "d",
            (3, 2): "e",
            (3, 3): "f",
        }

    def test_forbidden_pairs_table(self):
        # Eight rows: the six family pairs, with (1, 1) and (1, 2) split by the
        # sign of the outer condition 1.  Each computable case owns one row.
        assert FORBIDDEN_PAIRS == {
            (Condition.COND1_PLUS, 1): CaseLabel.A,
            (Condition.COND1_MINUS, 1): CaseLabel.A,
            (Condition.COND1_PLUS, 2): CaseLabel.B_PLUS,
            (Condition.COND1_MINUS, 2): CaseLabel.B_MINUS,
            (Condition.COND2, 2): CaseLabel.C,
            (Condition.COND3, 1): CaseLabel.D,
            (Condition.COND3, 2): CaseLabel.E,
            (Condition.COND3, 3): CaseLabel.F,
        }
        assert {(o.family, t) for o, t in FORBIDDEN_PAIRS} == STANDARD_FORBIDDEN
        computable = [c for c in FORBIDDEN_PAIRS.values() if c in CASE_MIN_ARG]
        assert sorted(computable, key=list(CASE_MIN_ARG).index) == list(CASE_MIN_ARG)

    def test_walk_settles_each_pair_with_its_table_case(self):
        # Disabling one case makes the walk name that case, at its own pair,
        # for a start condition of the table row.
        for (outer, target), case in FORBIDDEN_PAIRS.items():
            s1 = 4 if outer.family == 1 else 3
            ps = ParamSystem(s1, condition_alphas(s1)[outer], outer.alpha_prime, DIM)
            verdict = eliminate(ps, disabled_cases=frozenset({case}))
            assert any(
                f"pair {(outer.family, target)} forbidden by case {case.value}," in line
                for line in verdict.trace
            ), (outer, target)

    @pytest.mark.parametrize("pair", [(2, 1), (1, 3), (2, 3)])
    def test_forbidden_pair_without_a_case_rejected(self, pair):
        # Any forbidden set can be built, but only a pair with a table row can
        # be walked or named; the others are a ValueError naming the pair.
        graph = TransitionGraph(forbidden=STANDARD_FORBIDDEN | {pair})
        message = re.escape(f"no case settles the forbidden pair(s) [{pair}]")
        with pytest.raises(ValueError, match=message):
            graph.forbidden_cases()
        with pytest.raises(ValueError, match=message):
            eliminate(ParamSystem(3, 6, 0, DIM), graph=graph)
        # A subset of the standard pairs stays walkable.
        eliminate(ParamSystem(3, 6, 0, DIM), graph=standard_graph().with_restored((3, 3)))

    def test_with_restored(self):
        graph = standard_graph().with_restored((3, 3))
        assert (3, 3) in graph.allowed_pairs()
        with pytest.raises(ValueError):
            standard_graph().with_restored((1, 3))


class TestLongestChain:
    def test_standard_graph_is_two(self):
        assert longest_condition_chain(standard_graph()) == 2

    def test_below_required_transitions(self):
        assert longest_condition_chain(standard_graph()) < 3

    def test_self_loop_restored_gives_cycle(self):
        mutated = standard_graph().with_restored((3, 3))
        assert longest_condition_chain(mutated) == math.inf

    def test_every_single_edge_restoration_breaks_the_argument(self):
        for pair in STANDARD_FORBIDDEN:
            value = longest_condition_chain(standard_graph().with_restored(pair))
            assert value == math.inf or value >= 3, pair

    def test_empty_forbidden_set_is_cyclic(self):
        assert longest_condition_chain(TransitionGraph(forbidden=frozenset())) == math.inf

    @staticmethod
    def brute_force_chain(graph):
        """Longest simple path by enumerating vertex sequences; inf on a cycle."""
        allowed = set(graph.allowed_pairs())
        best = 0
        for k in range(1, len(graph.nodes) + 1):
            for seq in itertools.permutations(graph.nodes, k):
                if all(edge in allowed for edge in zip(seq, seq[1:])):
                    if (seq[-1], seq[0]) in allowed:  # closes a cycle (k = 1: a loop)
                        return math.inf
                    best = max(best, k - 1)
        return best

    def test_every_forbidden_set_matches_brute_force(self):
        pairs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
        for mask in range(1 << len(pairs)):
            forbidden = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            graph = TransitionGraph(forbidden=forbidden)
            assert longest_condition_chain(graph) == self.brute_force_chain(graph), forbidden


class TestRequiredDimension:
    def test_values(self):
        assert exceptional_min_dim() == 20
        assert required_dimension() == 23

    def test_recomputed_not_hardcoded(self):
        assert exceptional_min_dim() == max(19, 16) + 1
        assert required_dimension() == exceptional_min_dim() + 3
        # Shrinking the alpha route bound to 16 moves everything down.
        assert required_dimension(alpha_route_max_r=16) == 20
        assert exceptional_min_dim(alpha_route_max_r=16) == 17


class TestEliminate:
    def test_projective_compatible(self):
        verdict = eliminate(ParamSystem(4, 0, 0, DIM))
        assert verdict.verdict is Verdict.CLASSICAL

    def test_affine_compatible(self):
        assert eliminate(ParamSystem(5, 1, 0, DIM)).verdict is Verdict.CLASSICAL

    def test_cond2_exemplar_walk(self):
        verdict = eliminate(ParamSystem(3, 6, 0, DIM))
        assert verdict.verdict is Verdict.ELIMINATED
        trace = "\n".join(verdict.trace)
        assert "case c obstruction 649" in trace
        assert "case b+" in trace and "case b-" in trace
        assert "case e" in trace and "case f" in trace
        assert "imported fact" in trace  # cases a and d
        cases_used = {ci.case for ci in verdict.case_instances}
        assert cases_used == {
            CaseLabel.C,
            CaseLabel.E,
            CaseLabel.F,
            CaseLabel.B_PLUS,
            CaseLabel.B_MINUS,
        }

    def test_integrality_elimination(self):
        verdict = eliminate(ParamSystem(3, 5, 0, DIM))
        assert verdict.verdict is Verdict.ELIMINATED
        assert any("integrality" in line for line in verdict.trace)

    def test_no_condition_elimination(self):
        verdict = eliminate(ParamSystem(3, 9, 0, DIM))  # 3 | 81, not a condition alpha
        assert verdict.verdict is Verdict.ELIMINATED
        assert any("trichotomy" in line for line in verdict.trace)

    def test_beta_regime_elimination(self):
        verdict = eliminate(ParamSystem(3, 10, 1, DIM))
        assert verdict.verdict is Verdict.ELIMINATED

    def test_small_s1_hypothesis_error(self):
        with pytest.raises(ValueError):
            eliminate(ParamSystem(2, 0, 0, DIM))

    def test_low_dimension_hypothesis_error(self):
        with pytest.raises(ValueError):
            eliminate(ParamSystem(3, 6, 0, 20))

    def test_deterministic_traces(self):
        a = eliminate(ParamSystem(3, 6, 0, DIM))
        b = eliminate(ParamSystem(3, 6, 0, DIM))
        assert a.trace == b.trace

    def test_eliminated_traces_end_in_a_rule(self):
        for ps in (
            ParamSystem(3, 6, 0, DIM),
            ParamSystem(3, 5, 0, DIM),
            ParamSystem(4, 36, 0, DIM),
            ParamSystem(5, 26, 1, DIM),
        ):
            verdict = eliminate(ps)
            assert verdict.verdict is Verdict.ELIMINATED
            assert verdict.trace

    def test_mutated_graph_completes_a_chain(self):
        # With the (3,3) edge allowed, condition 3 feeds itself forever and
        # the chain reaches the full depth: a survivor must be reported.
        mutated = standard_graph().with_restored((3, 3))
        verdict = eliminate(ParamSystem(3, 10, 1, DIM), graph=mutated)
        assert verdict.verdict is Verdict.SURVIVES_SQUARE_TEST
        assert any("SURVIVOR" in line for line in verdict.trace)

    def test_disabled_case_reports_survivor(self):
        disabled = normalize_disabled(["c"])
        verdict = eliminate(ParamSystem(3, 6, 0, DIM), disabled_cases=disabled)
        assert verdict.verdict is Verdict.SURVIVES_SQUARE_TEST
        assert verdict.survivor_chains


class TestNormalizeDisabled:
    def test_letter_b_covers_both_signs(self):
        assert normalize_disabled(["b"]) == {CaseLabel.B_PLUS, CaseLabel.B_MINUS}

    def test_labels_pass_through(self):
        assert normalize_disabled([CaseLabel.C, "e"]) == {CaseLabel.C, CaseLabel.E}


class TestSearch:
    def test_small_run_clean(self):
        report = search(10, 200)
        assert report.overall_status == "pass"
        details = report.checks[0].details
        assert details["counts"]["classical"] > 0
        assert report.checks[0].witness is None

    def test_hypothesis_error(self):
        with pytest.raises(ValueError):
            search(2, 100)
        # Below the required dimension even when no condition alpha is reached.
        with pytest.raises(ValueError, match="below the threshold"):
            search(3, 5, dim=3)

    def test_classical_witnesses_cover_small_primes(self):
        details = search(10, 200).checks[0].details
        witnesses = {
            (w["s1"], w["alpha"], w["alphaPrime"]) for w in details["classicalWitnesses"]
        }
        for q in (2, 3, 5, 7):
            assert (q + 1, 0, 0) in witnesses  # projective shape
        for q in (3, 5, 7):
            assert (q, 1, 0) in witnesses  # affine shape

    @pytest.mark.parametrize("case", ["a", "b+", "b-", "c", "d", "e", "f"])
    def test_fault_injection_produces_witnessed_survivor(self, case):
        report = search(10, 200, disabled_cases=normalize_disabled([case]))
        assert report.overall_status == "fail"
        witnesses = report.checks[0].witness
        assert witnesses
        assert all(w["verdict"] == "SurvivesSquareTest" for w in witnesses)

    @pytest.mark.parametrize(
        "s1_max, alpha_max",
        # Tiny alpha ranges, where (1, 0) and alpha' = 1 start to appear.
        [(3, 0), (3, 1), (3, 2), (12, 0), (12, 1), (12, 2)]
        # Square s1 (condition 1) and s1 with square factors (m < s1), each
        # up to its largest condition alpha, so the boundary is included.
        + [(s1, _largest_condition_alpha(s1)) for s1 in (4, 9, 16, 25, 36)]
        + [(s1, _largest_condition_alpha(s1)) for s1 in (8, 12, 18, 24)]
        # Just below the condition-1 alphas of s1 = 9 (36 and 144).
        + [(9, 35), (9, 143), (40, 500)],
    )
    def test_counts_match_brute_force_oracle(self, s1_max, alpha_max):
        check = search(s1_max, alpha_max).checks[0]
        counts, classical, survivors = _oracle(s1_max, alpha_max)
        assert survivors is None
        assert check.details["counts"] == counts
        assert check.details["classicalWitnesses"] == classical
        assert check.witness is None

    @pytest.mark.parametrize("case", ["a", "b+", "b-", "c", "d", "e", "f"])
    def test_disabled_case_matches_brute_force_oracle(self, case):
        disabled = normalize_disabled([case])
        check = search(10, 200, disabled_cases=disabled).checks[0]
        counts, classical, survivors = _oracle(10, 200, disabled)
        assert survivors
        assert check.details["counts"] == counts
        assert check.details["classicalWitnesses"] == classical
        assert check.witness == survivors

    def test_square_divisor(self):
        # n | a^2 exactly when m(n) | a.
        for n in range(1, 501):
            m = square_divisor(n)
            for a in range(2001):
                assert (a * a % n == 0) == (a % m == 0), (n, a)
        assert [square_divisor(n) for n in (1, 4, 8, 12, 36, 72, 97)] == [1, 2, 4, 6, 6, 12, 97]

    @pytest.mark.parametrize("alpha_max", [10**5, 10**9])
    def test_large_grid(self, alpha_max):
        check = search(1000, alpha_max).checks[0]
        details = check.details
        assert check.status == "pass"
        assert check.witness is None
        assert sum(details["counts"].values()) == details["systemsChecked"]
        # Condition alphas tallied from their defining equations.
        tally = 0
        for s1 in range(3, 1001):
            tally += (s1 * (s1 - 1) <= alpha_max) + (s1 * s1 + 1 <= alpha_max)
            root = math.isqrt(s1)
            if root * root == s1:
                tally += (s1 * (root + 1) ** 2 <= alpha_max)
                tally += (s1 * (root - 1) ** 2 <= alpha_max)
        assert details["counts"]["condition-eliminated"] == tally

    def test_integrality_implies_alpha_floor(self):
        # For alpha > 0, s1 | alpha^2 forces alpha^2 >= s1, so the search needs
        # no separate alpha-floor rule; checked over the default search grid.
        for s1 in range(3, 101):
            for alpha in range(1, 10**4 + 1):
                sq = alpha * alpha
                assert sq % s1 != 0 or sq >= s1

    def test_case_instances_match_catalog_polynomials(self, monkeypatch):
        # Every case instance the default search runs, through the walk's
        # integer path, equals the case's catalog polynomial f evaluated at
        # its argument, and that argument is a line size the walk visited
        # (its square root for the b cases).
        verdicts = []

        def recording_eliminate(ps, **kwargs):
            verdicts.append(eliminate(ps, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(pipeline, "eliminate", recording_eliminate)
        counts = search(100, 10**4).checks[0].details["counts"]
        assert len(verdicts) == counts["condition-eliminated"]
        cat = catalog()
        seen = set()
        for v in verdicts:
            sizes = {v.subject.s1} | {int(n) for n in re.findall(r"s1_hat=(\d+)", str(v.trace))}
            for ci in v.case_instances:
                seen.add(ci.case)
                b_case = ci.case in (CaseLabel.B_PLUS, CaseLabel.B_MINUS)
                assert (ci.argument**2 if b_case else ci.argument) in sizes, ci
                f = cat[ci.case].f
                assert ci.to_record()["obstructionValue"] == str(f.evaluate_int(ci.argument))
        assert seen == set(cat)

    def test_enumeration_count(self):
        details = search(5, 50).checks[0].details
        assert details["systemsChecked"] == 3 * 51 * 2
        assert sum(details["counts"].values()) == details["systemsChecked"]


class TestReport:
    def test_integers_become_decimal_strings(self):
        report = Report()
        report.add("demo", "pass", details={"big": 10**40, "nested": [1, {"k": 2}]})
        payload = report.to_json_dict()
        demo = payload["checks"][0]["details"]
        assert demo["big"] == str(10**40)
        assert demo["nested"] == ["1", {"k": "2"}]
        json.dumps(payload)  # must be serializable

    def test_bools_survive(self):
        assert _jsonable({"ok": True}) == {"ok": True}

    def test_exit_codes(self):
        report = Report()
        report.add("a", "pass")
        assert report.exit_code() == 0
        report.add("b", "gap")
        assert report.exit_code() == 2
        report.add("c", "fail")
        assert report.exit_code() == 1

    def test_verdict_record_schema(self):
        verdict = eliminate(ParamSystem(3, 6, 0, DIM))
        record = verdict.to_record()
        assert record["verdict"] == "Eliminated"
        assert record["subject"] == {"s1": 3, "alpha": 6, "alphaPrime": 0, "dim": DIM}
        assert isinstance(record["trace"], list)
