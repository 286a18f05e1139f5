"""CLI behavior: output shape and exit codes."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import homgeom.cli
import homgeom.verify
from homgeom import _jsonable
from homgeom.cli import build_parser, main
from homgeom.localization import CaseLabel
from homgeom.obstructions import catalog, sieve
from homgeom.parameters import required_dimension
from homgeom.pipeline import Report, search
from homgeom.verify import CHECKS, CROSS_CHECK_GRID

PERFBENCH = Path(__file__).parents[1] / "perfbench"
SUBCOMMANDS = sorted(
    next(a.choices for a in build_parser()._actions if isinstance(a.choices, dict))
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_only(capsys, tmp_path, names, *flags):
    """verify-all --only names with flags; the exit code and the report's checks by name."""
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify-all", "--only", names, *flags, "--json", str(path))
    checks = json.loads(path.read_text())["checks"]
    return code, {c["name"]: {"status": c["status"], **c["details"]} for c in checks}


class TestIdentities:
    NAMES = "square-decompositions,no-square-certificates"

    def test_all_ok(self, capsys, tmp_path):
        code, checks = run_only(capsys, tmp_path, self.NAMES)
        assert code == 0
        decompositions = checks["square-decompositions"]
        assert len(decompositions["casesChecked"]) == 5
        assert decompositions["failed"] == []
        assert decompositions["bMinusIsBPlusAtMinusX"] is True
        certificates = checks["no-square-certificates"]["certificates"]
        assert {c["status"] for c in certificates.values()} == {"proved-impossible"}

    def test_wrong_factor_pair_exits_one(self, capsys, tmp_path, monkeypatch):
        # Every 4f = A^2 - H still holds, but one pinned (A, H) pair no longer
        # matches the derived catalog.
        a_poly, four_h = homgeom.verify.EXPECTED_FACTOR_PAIRS[CaseLabel.C]
        monkeypatch.setitem(
            homgeom.verify.EXPECTED_FACTOR_PAIRS, CaseLabel.C, (a_poly + 1, four_h)
        )
        code, checks = run_only(capsys, tmp_path, self.NAMES)
        assert code == 1
        decompositions = checks["square-decompositions"]
        assert decompositions["status"] == "fail"
        assert decompositions["failed"] == []
        assert decompositions["factorPairsReproduced"] is False
        assert checks["no-square-certificates"]["status"] == "pass"


class TestSieve:
    def test_json_summary(self, capsys, tmp_path):
        code, checks = run_only(capsys, tmp_path, "square-sieve", "--sieve-limit", "50")
        assert code == 0
        cases = checks["square-sieve"]["cases"]
        # One entry per catalog case, found, expected and survivors each.
        assert list(cases) == [label.value for label in catalog()]
        assert cases["f"]["found"] == ["1"]
        assert all(case["survivorsAtOrAboveTMin"] == [] for case in cases.values())

    def test_pell_control_reaches_past_the_first_block(self, capsys, tmp_path):
        # 2x^2 + 1 is a square at the Pell solutions x; 80782 lies in the
        # sieve's second block of 2^16 arguments.
        code, checks = run_only(capsys, tmp_path, "square-sieve", "--sieve-limit", "100000")
        assert code == 0
        pell = ["0", "2", "12", "70", "408", "2378", "13860", "80782"]
        assert checks["square-sieve"]["pellControl"] == {"found": pell, "expected": pell}

    @pytest.mark.parametrize("limit, expected", [("0", ["0"]), ("1", ["0", "1"])])
    def test_expected_stops_at_limit(self, capsys, tmp_path, limit, expected):
        # Case c's known squares are 0, 1 and 2; only those <= limit are expected.
        # Both limits lie below every t_min, so the row is a gap (exit 2).
        code, checks = run_only(capsys, tmp_path, "square-sieve", "--sieve-limit", limit)
        assert code == 2
        case_c = checks["square-sieve"]["cases"]["c"]
        assert case_c["found"] == case_c["expected"] == expected

    @pytest.mark.parametrize("limit, status, code", [("2", "gap", 2), ("3", "pass", 0)])
    def test_limit_below_a_t_min_is_a_gap(self, capsys, tmp_path, limit, status, code):
        # The largest t_min is 3: below it, some case had no argument in
        # [t_min, limit] to sieve.
        assert max(obs.t_min for obs in catalog().values()) == 3
        got, checks = run_only(capsys, tmp_path, "square-sieve", "--sieve-limit", limit)
        assert (checks["square-sieve"]["status"], got) == (status, code)

    def test_imported_case_rejected(self, capsys, tmp_path):
        # Case a is an imported fact with no obstruction to sieve; the check
        # leaves it out.
        code, checks = run_only(capsys, tmp_path, "square-sieve", "--sieve-limit", "10")
        assert code == 0
        assert "a" not in checks["square-sieve"]["cases"]

    def test_negative_limit(self, capsys):
        code, _, err = run(capsys, "verify-all", "--only", "square-sieve", "--sieve-limit", "-1")
        assert code == 2
        assert "invalid" in err


class TestCheckParams:
    def test_classical(self, capsys):
        code, out, _ = run(capsys, "check-params", "--s1", "4", "--alpha", "0")
        assert code == 0
        assert json.loads(out)["verdict"] == "Classical"

    def test_eliminated(self, capsys):
        code, out, _ = run(capsys, "check-params", "--s1", "3", "--alpha", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Eliminated"
        assert payload["trace"]

    def test_alpha_prime_out_of_scope(self, capsys):
        code, out, _ = run(
            capsys, "check-params", "--s1", "3", "--alpha", "6", "--alpha-prime", "2"
        )
        assert code == 2
        assert json.loads(out)["verdict"] == "OutOfModeledScope"

    def test_s1_too_small(self, capsys):
        code, _, err = run(capsys, "check-params", "--s1", "2", "--alpha", "0")
        assert code == 2
        assert "invalid input" in err

    def test_dim_defaults_to_the_required_dimension(self, capsys):
        code, out, _ = run(capsys, "check-params", "--s1", "3", "--alpha", "6")
        assert code == 0
        assert json.loads(out)["subject"]["dim"] == str(required_dimension())

    def test_dim_too_small(self, capsys):
        code, _, err = run(
            capsys, "check-params", "--s1", "3", "--alpha", "6", "--dim", "10"
        )
        assert code == 2


class TestLocalize:
    def test_cond2_instance(self, capsys):
        code, out, _ = run(capsys, "localize", "--s1", "3", "--alpha", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["s1Hat"] == "9"
        assert payload["classification"] == ["Cond2"]
        assert payload["localizedUnder"]["Cond2"]["s2Hat"] == "649"
        # s1_hat = 9 is a square, so both condition-1 hypotheses localize.
        assert payload["localizedUnder"]["Cond1Plus"]["alphaHat"] == "144"

    def test_non_square_s1_hat_blanks_condition_one(self, capsys):
        code, out, _ = run(capsys, "localize", "--s1", "3", "--alpha", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["s1Hat"] == "5"
        assert payload["localizedUnder"]["Cond1Plus"] is None

    def test_s1_below_hypothesis_rejected(self, capsys):
        # The same floor as check-params and search: s1 = 2 is a valid
        # parameter system, but not one the hypothesis covers.
        code, out, err = run(capsys, "localize", "--s1", "2", "--alpha", "2")
        assert code == 2
        assert out == ""
        assert err == (
            "invalid input: hypothesis requires at least 3 points on a line (s1 >= 3)\n"
        )


# The exact bytes of two `geometry --localize` runs: every int a decimal
# string, indent 2.
GEOMETRY_OUTPUT = {
    ("pg", "2", "3"): """\
{
  "kind": "PG(2,3)",
  "points": "13",
  "profile": [
    "1",
    "4",
    "13"
  ],
  "alpha": "0",
  "localizedProfile": [
    "1",
    "4"
  ]
}
""",
    ("ag", "3", "2"): """\
{
  "kind": "AG(3,2)",
  "points": "8",
  "profile": [
    "1",
    "2",
    "4",
    "8"
  ],
  "alpha": "1",
  "localizedProfile": [
    "1",
    "3",
    "7"
  ]
}
""",
}


class TestGeometry:
    def test_projective(self, capsys):
        code, out, _ = run(capsys, "geometry", "--type", "pg", "--n", "3", "--q", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["profile"] == ["1", "3", "7", "15"]
        assert payload["alpha"] == "0"

    def test_affine_with_localization(self, capsys):
        code, out, _ = run(
            capsys, "geometry", "--type", "ag", "--n", "3", "--q", "3", "--localize"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["profile"] == ["1", "3", "9", "27"]
        assert payload["localizedProfile"] == ["1", "4", "13"]

    @pytest.mark.parametrize("instance", sorted(GEOMETRY_OUTPUT), ids="-".join)
    def test_exact_output(self, capsys, instance):
        kind, n, q = instance
        code, out, err = run(capsys, "geometry", "--type", kind, "--n", n, "--q", q, "--localize")
        assert (code, out, err) == (0, GEOMETRY_OUTPUT[instance], "")

    def test_non_prime_rejected(self, capsys):
        code, _, err = run(capsys, "geometry", "--type", "pg", "--n", "2", "--q", "4")
        assert code == 2
        assert "not prime" in err

    def test_desk_scale_checked_before_primality(self, capsys):
        # Trial division of a huge q would not finish; the size check comes first.
        code, _, err = run(capsys, "geometry", "--type", "pg", "--n", "2", "--q", "1000000")
        assert code == 2
        assert "desk-scale" in err

    def test_lattice_walk_over_desk_scale_rejected(self, capsys):
        # Few points but many flats: each walk would run for half a minute
        # or more, so the size check rejects them before any work.
        for kind, n, q in (("pg", "4", "7"), ("ag", "3", "13")):
            code, out, err = run(capsys, "geometry", "--type", kind, "--n", n, "--q", q)
            assert code == 2
            assert out == ""
            assert err.startswith("invalid input: ")
            assert "desk-scale" in err

    def test_largest_admitted_geometry(self, capsys):
        # PG(2,31): 1 987 flats x 993 points, just under the desk-scale limit.
        code, out, _ = run(capsys, "geometry", "--type", "pg", "--n", "2", "--q", "31")
        assert code == 0
        assert json.loads(out)["profile"] == ["1", "32", "993"]

    def test_affine_dimension_bound(self, capsys):
        # The lattice walk of AG(16,2) would not finish; the dimension bound
        # rejects it up front.
        code, _, err = run(capsys, "geometry", "--type", "ag", "--n", "16", "--q", "2")
        assert code == 2
        assert err.startswith("invalid input: ")
        assert "affine dimension" in err


class TestSearch:
    def test_small_search(self, capsys, tmp_path):
        code, checks = run_only(
            capsys, tmp_path, "parameter-search", "--s1-max", "6", "--alpha-max", "80"
        )
        assert code == 0
        assert list(checks) == ["parameter-search"]
        # The row is the search's own row, with the time verify-all adds and
        # the cross-check against eliminate on its fixed grid.
        status, details, witness = search(6, 80)
        assert witness is None
        row = checks["parameter-search"]
        cross = row.pop("crossCheck")
        assert row == {"status": "pass", **_jsonable(details)}
        assert cross["agrees"] is True
        assert cross["grid"] == {"s1Max": "8", "alphaMax": "65"}
        assert cross["counts"] == _jsonable(search(*CROSS_CHECK_GRID)[1]["counts"])

    @pytest.mark.parametrize(
        "alpha_max, status, code", [("0", "gap", 2), ("5", "gap", 2), ("6", "pass", 0)]
    )
    def test_grid_without_condition_systems_is_a_gap(
        self, capsys, tmp_path, alpha_max, status, code
    ):
        # The condition alphas at s1 = 3 are 6 and 10: below 6 no system of
        # the grid reaches eliminate.
        got, checks = run_only(
            capsys, tmp_path, "parameter-search", "--s1-max", "3", "--alpha-max", alpha_max
        )
        search_row = checks["parameter-search"]
        assert (search_row["status"], got) == (status, code)
        assert search_row["counts"]["condition-eliminated"] == str(int(status == "pass"))

    def test_invalid_range(self, capsys):
        code, _, err = run(
            capsys, "verify-all", "--only", "parameter-search",
            "--s1-max", "2", "--alpha-max", "10",
        )
        assert code == 2

    def test_negative_alpha_max(self, capsys):
        code, out, err = run(
            capsys, "verify-all", "--only", "parameter-search",
            "--s1-max", "10", "--alpha-max", "-1",
        )
        assert code == 2
        assert err.startswith("invalid input: ")
        assert out == ""

    def test_large_grid(self, capsys, tmp_path):
        # Counting per s1 keeps this grid of about 2 * 10^12 systems cheap.
        code, checks = run_only(
            capsys, tmp_path, "parameter-search", "--s1-max", "1000", "--alpha-max", "1000000000"
        )
        assert code == 0
        details = checks["parameter-search"]
        assert details["status"] == "pass"
        assert details["systemsChecked"] == str(998 * (10**9 + 1) * 2)


class TestThresholds:
    NAMES = "growth-threshold-alpha-route,growth-threshold-beta-route"

    def test_default_grid(self, capsys, tmp_path):
        code, payload = run_only(capsys, tmp_path, self.NAMES)
        assert code == 0
        alpha = payload["growth-threshold-alpha-route"]
        beta = payload["growth-threshold-beta-route"]
        assert alpha["grid"] == {"s1Max": "50", "alphaMax": "2500"}
        assert beta["grid"] == {"s1Max": "50", "betaMax": "2500"}
        assert (alpha["systemsChecked"], alpha["maxFirstRExceeding"], alpha["bound"]) == (
            "12306", "18", "20"
        )
        assert (beta["systemsChecked"], beta["maxFirstRExceeding"], beta["bound"]) == (
            "7480", "16", "17"
        )
        assert (alpha["worst"]["s1"], alpha["worst"]["driver"]) == ("16", "4")
        assert (beta["worst"]["s1"], beta["worst"]["driver"]) == ("21", "21")
        assert alpha["status"] == beta["status"] == "pass"

    def test_smallest_grid(self, capsys, tmp_path):
        code, payload = run_only(
            capsys, tmp_path, self.NAMES, "--grid-s1-max", "3", "--driver-max", "3"
        )
        assert code == 0
        assert [route["systemsChecked"] for route in payload.values()] == ["1", "1"]

    @pytest.mark.parametrize(
        "sizes, empty",
        [
            ({"grid_s1_max": 2}, {"alpha", "beta"}),
            # s1 = 4, alpha = 2 is an alpha-route system; no beta >= s1 is <= 2.
            ({"driver_max": 2}, {"beta"}),
        ],
    )
    def test_empty_grid_is_a_gap(self, sizes, empty):
        # The CLI's least sizes keep a system on both routes; the Python API
        # takes smaller ones, and a grid that checked nothing proves nothing.
        only = self.NAMES.split(",")
        report = homgeom.verify.verify_all(only=only, **sizes)
        for check in report.checks:
            route = check.name.removeprefix("growth-threshold-").removesuffix("-route")
            assert check.status == ("gap" if route in empty else "pass"), check.name
            assert (check.details["systemsChecked"] == 0) == (route in empty)
        assert report.exit_code() == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--grid-s1-max", "2"), ("--driver-max", "2"), ("--driver-max", "-5")],
    )
    def test_bad_size(self, capsys, flag, value):
        code, out, err = run(capsys, "verify-all", "--only", self.NAMES, flag, value)
        assert code == 2
        assert err.startswith(f"invalid input: {flag} must be at least 3")
        assert out == ""

    def test_exceeded_bound_exits_one(self, capsys, tmp_path, monkeypatch):
        # With the alpha-route cap at 16, the sweep's 18 exceeds the bound 17.
        monkeypatch.setattr(homgeom.verify, "ALPHA_ROUTE_MAX_R", 16)
        code, payload = run_only(capsys, tmp_path, self.NAMES)
        assert code == 1
        assert payload["growth-threshold-alpha-route"]["status"] == "fail"
        assert payload["growth-threshold-alpha-route"]["bound"] == "17"
        assert payload["growth-threshold-beta-route"]["status"] == "pass"
        # The exit code comes from the selected rows only.
        code, payload = run_only(capsys, tmp_path, "growth-threshold-beta-route")
        assert code == 0
        assert list(payload) == ["growth-threshold-beta-route"]

    def test_beta_ray_fails_its_bound(self, capsys, tmp_path):
        # The beta route's ceiling is not established: on beta = s1 = 29131
        # the first excluded r is 18, past the bound 17.
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify-all", "--only", "growth-threshold-beta-route",
            "--grid-s1-max", "29131", "--driver-max", "29131", "--json", str(path),
        )
        assert code == 1
        assert "[FAIL] growth-threshold-beta-route" in out
        (row,) = json.loads(path.read_text())["checks"]
        assert row["details"]["bound"] == "17"
        assert row["details"]["maxFirstRExceeding"] == "18"


class TestVerifyAll:
    def test_small_run_with_json(self, capsys, tmp_path, monkeypatch):
        # The catalog is derived once and shared by the three checks that use it.
        derived = []

        def counting_catalog():
            derived.append(1)
            return catalog()

        monkeypatch.setattr(homgeom.verify, "catalog", counting_catalog)
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify-all",
            "--sieve-limit", "2000",
            "--s1-max", "6",
            "--alpha-max", "100",
            "--json", str(path),
        )
        assert code == 0
        assert "overall: pass" in out
        payload = json.loads(path.read_text())
        assert payload["overallStatus"] == "pass"
        # A full run adds one check per row of the table, in table order.
        names = [c["name"] for c in payload["checks"]]
        assert names == [name for name, _, _ in CHECKS] == [
            "square-decompositions",
            "no-square-certificates",
            "square-sieve",
            "growth-threshold-alpha-route",
            "growth-threshold-beta-route",
            "spectral-identities",
            "condition-chain-automaton",
            "dimension-threshold",
            "parameter-search",
            "classical-ground-truth",
        ]
        # Big integers ride as decimal strings.
        sieve_details = next(
            c for c in payload["checks"] if c["name"] == "square-sieve"
        )["details"]
        assert sieve_details["limit"] == "2000"
        assert len(derived) == 1
        # Each check carries its own time, beside its details.
        for check in payload["checks"]:
            assert isinstance(check["elapsedSeconds"], float), check["name"]
            assert check["elapsedSeconds"] >= 0
            assert "elapsedSeconds" not in check["details"]

    @staticmethod
    def sieve_check(capsys, tmp_path, limit, *flags):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "verify-all",
            *flags,
            "--sieve-limit", limit,
            "--s1-max", "6",
            "--alpha-max", "100",
            "--json", str(path),
        )
        payload = json.loads(path.read_text())
        return code, next(c for c in payload["checks"] if c["name"] == "square-sieve")

    @pytest.mark.parametrize("limit", ["0", "1"])
    def test_sieve_limit_below_known_squares(self, capsys, tmp_path, limit):
        # Case c's known square at t = 2 lies above these limits, so it is not
        # expected; no argument at or above t_min was sieved, so it is a gap.
        code, check = self.sieve_check(capsys, tmp_path, limit)
        assert code == 2
        assert check["status"] == "gap"
        cases = check["details"]["cases"]
        assert cases["c"]["expected"] == [str(t) for t in range(int(limit) + 1)]
        assert all(case["found"] == case["expected"] for case in cases.values())

    @pytest.mark.parametrize("limit, left", [("1", ["1"]), ("2000", ["1", "2"])])
    def test_dropped_known_square_fails(self, capsys, tmp_path, monkeypatch, limit, left):
        # A sieve that loses the known square t = 0 no longer matches, even
        # when nothing at or above t_min survives; alone or in a full run.
        monkeypatch.setattr(
            homgeom.verify, "sieve", lambda f, lim: [t for t in sieve(f, lim) if t != 0]
        )
        for only in ((), ("--only", "square-sieve")):
            code, check = self.sieve_check(capsys, tmp_path, limit, *only)
            assert code == 1
            assert check["status"] == "fail"
            assert check["details"]["cases"]["c"]["found"] == left

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_json_rejected_before_any_check(
        self, capsys, tmp_path, monkeypatch, target
    ):
        # A path under a missing directory, or a directory itself, cannot take
        # the report; that is invalid input, found before the checks run.
        monkeypatch.setattr(homgeom.verify, "verify_all", lambda **_: pytest.fail("checks ran"))
        code, out, err = run(capsys, "verify-all", "--json", str(tmp_path / target))
        assert code == 2
        assert err.startswith("invalid input: --json")
        assert out == ""
        assert not (tmp_path / "missing").exists()

    def test_json_check_leaves_an_existing_report_until_the_run_ends(
        self, capsys, tmp_path, monkeypatch
    ):
        path = tmp_path / "report.json"
        path.write_text("old")
        seen = []

        def fake_verify_all(**_):
            seen.append(path.read_text())
            return Report()

        monkeypatch.setattr(homgeom.verify, "verify_all", fake_verify_all)
        code, _, _ = run(capsys, "verify-all", "--json", str(path))
        assert code == 0
        assert seen == ["old"]
        assert json.loads(path.read_text())["overallStatus"] == "pass"

    @pytest.mark.parametrize(
        "flag, value",
        [("--sieve-limit", "-1"), ("--s1-max", "2"), ("--alpha-max", "-1")],
    )
    def test_bad_size_rejected_before_any_check(self, capsys, flag, value):
        code, out, err = run(capsys, "verify-all", flag, value)
        assert code == 2
        assert err.startswith(f"invalid input: {flag}")
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--only", "no-such-check"), "--only: no check is named 'no-such-check'"),
            (("--only", ""), "--only: no check is named ''"),
            (("--only", "square-sieve,,parameter-search"), "--only: no check is named ''"),
            (("--only", "square-sieve,"), "--only: no check is named ''"),
            (("--grid-s1-max", "2"), "--grid-s1-max must be at least 3"),
            (("--driver-max", "0"), "--driver-max must be at least 3"),
        ],
    )
    def test_bad_selection_or_grid_rejected_before_any_check(
        self, capsys, tmp_path, monkeypatch, argv, message
    ):
        monkeypatch.setattr(homgeom.verify, "verify_all", lambda **_: pytest.fail("checks ran"))
        path = tmp_path / "report.json"
        code, out, err = run(capsys, "verify-all", *argv, "--json", str(path))
        assert code == 2
        assert err.startswith(f"invalid input: {message}")
        assert out == ""
        assert not path.exists()
        if argv[0] == "--only":
            # The message lists every check name.
            assert all(name in err for name, _, _ in CHECKS)

    def test_only_rows_equal_full_run_rows(self):
        sizes = dict(sieve_limit=100, s1_max=5, alpha_max=50, grid_s1_max=6, driver_max=40)

        def rows(report):
            return [
                {k: v for k, v in c.items() if k != "elapsedSeconds"}
                for c in report.to_json_dict()["checks"]
            ]

        full = rows(homgeom.verify.verify_all(**sizes))
        for (name, _, _), expected in zip(CHECKS, full, strict=True):
            assert rows(homgeom.verify.verify_all(only=[name], **sizes)) == [expected]
        # Several names run in table order, whatever order they are given in.
        pair = homgeom.verify.verify_all(only=["parameter-search", "square-sieve"], **sizes)
        assert [c.name for c in pair.checks] == ["square-sieve", "parameter-search"]

    def test_empty_selection_rejected(self):
        # A report with no checks would pass vacuously.
        with pytest.raises(ValueError, match="names no check"):
            homgeom.verify.verify_all(only=[])

    def test_raising_catalog_fails_each_check_that_reads_it(self, monkeypatch):
        def broken_catalog():
            raise ArithmeticError("no catalog")

        monkeypatch.setattr(homgeom.verify, "catalog", broken_catalog)
        sizes = dict(sieve_limit=100, s1_max=5, alpha_max=50, grid_s1_max=6, driver_max=40)
        report = homgeom.verify.verify_all(**sizes)
        for (name, _, reads), row in zip(CHECKS, report.checks, strict=True):
            assert row.name == name
            if "cat" in reads:
                assert (row.status, row.details) == ("fail", {})
                assert row.witness == "ArithmeticError: no catalog"
            else:
                assert row.status == "pass", name

    def test_raising_check_is_a_fail_row_and_the_others_run(self, capsys, tmp_path, monkeypatch):
        def broken_search(s1_max, alpha_max):
            raise ZeroDivisionError("search broke")

        monkeypatch.setattr(homgeom.verify, "search", broken_search)
        path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "verify-all", "--sieve-limit", "100", "--s1-max", "5", "--alpha-max", "50",
            "--grid-s1-max", "6", "--driver-max", "40", "--json", str(path),
        )
        assert (code, err) == (1, "")
        assert out.splitlines()[: len(CHECKS)] == [
            f"[{'FAIL' if name == 'parameter-search' else 'PASS'}] {name}" for name, _, _ in CHECKS
        ]
        (row,) = [c for c in json.loads(path.read_text())["checks"] if c["status"] == "fail"]
        assert row["witness"] == "ZeroDivisionError: search broke"

    @pytest.mark.parametrize("only, calls", [(["dimension-threshold"], 0), (None, 1)])
    def test_catalog_derived_only_when_read(self, monkeypatch, only, calls):
        derived = []

        def counted_catalog():
            derived.append(1)
            return catalog()

        monkeypatch.setattr(homgeom.verify, "catalog", counted_catalog)
        sizes = dict(sieve_limit=100, s1_max=5, alpha_max=50, grid_s1_max=6, driver_max=40)
        report = homgeom.verify.verify_all(only=only, **sizes)
        assert report.overall_status == "pass"
        assert len(derived) == calls

    def test_traced_functions_are_looked_up_when_a_check_runs(self, monkeypatch):
        # perfbench/tracer.py wraps these functions by rebinding verify's
        # module globals, so every check must read them at call time.
        called = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                called.append(name)
                return fn(*args, **kwargs)

            return wrapper

        names = ("catalog", "certify_no_square", "sieve",
                 "alpha_route_sweep", "beta_route_sweep", "search", "eliminate",
                 "flat_profile", "check_closure_axioms", "localize_at_point")
        for name in names:
            monkeypatch.setattr(
                homgeom.verify, name, counting(name, getattr(homgeom.verify, name))
            )
        sizes = dict(sieve_limit=100, s1_max=5, alpha_max=50, grid_s1_max=6, driver_max=40)
        assert homgeom.verify.verify_all(**sizes).overall_status == "pass"
        assert sorted(set(called)) == sorted(names)

    def test_only_given_sizes_are_passed_on(self, capsys, monkeypatch):
        # verify_all's signature holds the default sizes; the CLI has none.
        seen = []

        def fake_verify_all(**kwargs):
            seen.append(kwargs)
            return Report()

        monkeypatch.setattr(homgeom.verify, "verify_all", fake_verify_all)
        code, _, _ = run(capsys, "verify-all", "--s1-max", "7", "--driver-max", "9")
        assert code == 0
        assert seen == [{"only": None, "s1_max": 7, "driver_max": 9}]


class TestReadme:
    """README's CLI block names the commands and verify-all flags the parser has."""

    @staticmethod
    def cli_lines():
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        return [line.split() for line in block.splitlines() if line.startswith("homgeom ")]

    def test_commands_match_the_parser(self):
        assert sorted(words[1] for words in self.cli_lines()) == SUBCOMMANDS

    def test_verify_all_line_names_every_flag(self):
        (line,) = [words for words in self.cli_lines() if words[1] == "verify-all"]
        verify_all = next(
            a.choices for a in build_parser()._actions if isinstance(a.choices, dict)
        )["verify-all"]
        flags = {
            option
            for action in verify_all._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        named = {word.strip("[]") for word in line if word.startswith("[--")}
        assert named == flags

    def test_every_check_is_named(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        assert [name for name, _, _ in CHECKS if f"`{name}`" not in readme] == []


def fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
    """Run python with these arguments in a new process that imports homgeom from src."""
    env = {**os.environ, "PYTHONPATH": str(Path(homgeom.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


class TestModuleLoading:
    """What each command loads, each case in a fresh interpreter."""

    def test_geometry_runs_no_verify_pipeline_obstructions_or_bounds(self):
        # A lazily registered module that was never touched is still a
        # LazyLoader module object, not a plain module.  The heavy standard
        # modules are compared before and after, so an interpreter whose
        # site already loaded one of them still passes.
        script = textwrap.dedent(
            """
            import json, sys, types
            before = set(sys.modules)
            import homgeom.cli
            code = homgeom.cli.main(["geometry", "--type", "ag", "--n", "2", "--q", "3", "--localize"])
            executed = sorted(
                name
                for name, module in sys.modules.items()
                if name.split(".")[0] == "homgeom" and type(module) is types.ModuleType
            )
            heavy = {"dataclasses", "inspect", "fractions", "decimal"}
            added = sorted(heavy & (set(sys.modules) - before))
            print(json.dumps({"code": code, "executed": executed, "added": added}))
            """
        )
        *geometry, last = fresh_interpreter("-c", script).stdout.splitlines()
        assert json.loads(last) == {
            "code": 0,
            "executed": ["homgeom", "homgeom.cli", "homgeom.geometries"],
            "added": [],
        }
        assert json.loads("\n".join(geometry))["profile"] == ["1", "3", "9"]

    def test_verify_all_imports_no_dataclasses_or_inspect(self):
        # dataclasses pulls in inspect, and inspect dis, ast and tokenize;
        # fractions pulls in decimal and numbers.
        script = textwrap.dedent(
            """
            import json, sys
            before = set(sys.modules)
            import homgeom.cli
            code = homgeom.cli.main(
                ["verify-all", "--sieve-limit", "100", "--s1-max", "5", "--alpha-max", "50",
                 "--grid-s1-max", "6", "--driver-max", "40"]
            )
            heavy = {"dataclasses", "inspect", "dis", "ast", "tokenize",
                     "fractions", "decimal", "numbers"}
            added = sorted(heavy & (set(sys.modules) - before))
            print(json.dumps({"code": code, "added": added}))
            """
        )
        last = fresh_interpreter("-c", script).stdout.splitlines()[-1]
        assert json.loads(last) == {"code": 0, "added": []}

    def test_localize_never_runs_geometries(self):
        script = textwrap.dedent(
            """
            import json, sys, types
            import homgeom.cli
            code = homgeom.cli.main(["localize", "--s1", "4", "--alpha", "36"])
            executed = sorted(
                name
                for name in ("homgeom.geometries", "homgeom.pipeline")
                if type(sys.modules[name]) is types.ModuleType
            )
            print(json.dumps({"code": code, "executed": executed}))
            """
        )
        *localized, last = fresh_interpreter("-c", script).stdout.splitlines()
        assert json.loads(last) == {"code": 0, "executed": []}
        assert json.loads("\n".join(localized))["s1Hat"] == "40"

    def test_cli_import_registers_every_traced_module(self):
        # perfbench/tracer.py looks its targets up in sys.modules right after
        # importing homgeom.cli, and wraps them there.
        script = textwrap.dedent(
            f"""
            import json, sys
            sys.path.insert(0, {str(PERFBENCH)!r})
            import tracer
            import homgeom.cli
            absent = sorted({{m for m, _ in tracer.TARGETS.values()}} - set(sys.modules))
            t = tracer.Tracer()
            t.install()
            print(json.dumps({{"absent": absent, "missing": t.missing}}))
            """
        )
        last = fresh_interpreter("-c", script).stdout.splitlines()[-1]
        assert json.loads(last) == {"absent": [], "missing": []}

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_exits_zero(self, command):
        out = fresh_interpreter("-m", "homgeom.cli", command, "--help").stdout
        assert out.startswith(f"usage: homgeom {command}")
