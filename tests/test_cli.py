"""CLI behavior: output shape and exit codes."""

import json
import re

import pytest

import homgeom.cli
import homgeom.verify
from homgeom.cli import main
from homgeom.obstructions import catalog, sieve
from homgeom.pipeline import Report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIdentities:
    def test_all_ok(self, capsys):
        code, out, _ = run(capsys, "identities")
        assert code == 0
        assert out.count("holds") == 5
        assert "proved-impossible" in out


class TestSieve:
    def test_raw_stream(self, capsys):
        code, out, _ = run(capsys, "sieve", "--case", "c", "--limit", "100", "--raw")
        assert code == 0
        assert out.split() == ["0", "1", "2"]

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "sieve", "--case", "f", "--limit", "50")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] == ["1"]
        assert payload["survivorsAtOrAboveTMin"] == []

    @pytest.mark.parametrize("limit, expected", [("0", ["0"]), ("1", ["0", "1"])])
    def test_expected_stops_at_limit(self, capsys, limit, expected):
        # Case c's known squares are 0, 1 and 2; only those <= limit are expected.
        code, out, _ = run(capsys, "sieve", "--case", "c", "--limit", limit)
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] == payload["expected"] == expected

    def test_case_choices_are_the_catalog_cases(self, capsys):
        for label in catalog():
            code, out, _ = run(capsys, "sieve", "--case", label.value, "--limit", "10")
            assert code == 0
            assert json.loads(out)["case"] == label.value
        with pytest.raises(SystemExit):
            run(capsys, "sieve", "--help")
        choices = re.search(r"--case \{(.*?)\}", capsys.readouterr().out).group(1)
        assert choices.split(",") == sorted(label.value for label in catalog())

    def test_imported_case_rejected(self, capsys):
        # Case a is an imported fact with no obstruction to sieve.
        with pytest.raises(SystemExit) as exc:
            run(capsys, "sieve", "--case", "a", "--limit", "10")
        assert exc.value.code == 2
        assert "invalid choice: 'a'" in capsys.readouterr().err

    def test_negative_limit(self, capsys):
        code, _, err = run(capsys, "sieve", "--case", "c", "--limit", "-1")
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
    def test_small_search(self, capsys):
        code, out, _ = run(capsys, "search", "--s1-max", "6", "--alpha-max", "80")
        assert code == 0
        payload = json.loads(out)
        assert payload["overallStatus"] == "pass"
        # Only verify-all times its checks; search output stays deterministic.
        assert "elapsedSeconds" not in payload["checks"][0]

    def test_invalid_range(self, capsys):
        code, _, err = run(capsys, "search", "--s1-max", "2", "--alpha-max", "10")
        assert code == 2

    def test_negative_alpha_max(self, capsys):
        code, out, err = run(capsys, "search", "--s1-max", "10", "--alpha-max", "-1")
        assert code == 2
        assert err.startswith("invalid input: ")
        assert out == ""

    def test_large_grid(self, capsys):
        # Counting per s1 keeps this grid of about 2 * 10^12 systems cheap.
        code, out, _ = run(
            capsys, "search", "--s1-max", "1000", "--alpha-max", "1000000000"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["overallStatus"] == "pass"
        details = payload["checks"][0]["details"]
        assert details["systemsChecked"] == str(998 * (10**9 + 1) * 2)


class TestThresholds:
    def test_default_grid(self, capsys):
        code, out, _ = run(capsys, "thresholds")
        assert code == 0
        payload = json.loads(out)
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

    def test_same_checks_as_verify_all(self, capsys):
        # At the defaults the command prints verify-all's two threshold checks.
        code, out, _ = run(capsys, "thresholds")
        assert code == 0
        report = homgeom.verify.verify_all(sieve_limit=10, s1_max=4, alpha_max=10)
        checks = report.to_json_dict()["checks"]
        assert json.loads(out) == {
            c["name"]: {"status": c["status"], **c["details"]}
            for c in checks
            if c["name"].startswith("growth-threshold-")
        }

    def test_smallest_grid(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--s1-max", "3", "--driver-max", "3")
        assert code == 0
        payload = json.loads(out)
        assert [route["systemsChecked"] for route in payload.values()] == ["1", "1"]

    @pytest.mark.parametrize(
        "flag, value", [("--s1-max", "2"), ("--driver-max", "2"), ("--driver-max", "-5")]
    )
    def test_bad_size(self, capsys, flag, value):
        code, out, err = run(capsys, "thresholds", flag, value)
        assert code == 2
        assert err.startswith(f"invalid input: {flag} must be at least 3")
        assert out == ""

    def test_exceeded_bound_exits_one(self, capsys, monkeypatch):
        # With the alpha-route cap at 16, the sweep's 18 exceeds the bound 17.
        monkeypatch.setattr(homgeom.verify, "ALPHA_ROUTE_MAX_R", 16)
        code, out, _ = run(capsys, "thresholds")
        assert code == 1
        payload = json.loads(out)
        assert payload["growth-threshold-alpha-route"]["status"] == "fail"
        assert payload["growth-threshold-alpha-route"]["bound"] == "17"
        assert payload["growth-threshold-beta-route"]["status"] == "pass"


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
        names = {c["name"] for c in payload["checks"]}
        assert {
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
        } <= names
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
    def sieve_check(capsys, tmp_path, limit):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "verify-all",
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
        # expected; nothing at or above t_min was found, so the check passes.
        code, check = self.sieve_check(capsys, tmp_path, limit)
        assert code == 0
        assert check["status"] == "pass"
        cases = check["details"]["cases"]
        assert cases["c"]["expected"] == [str(t) for t in range(int(limit) + 1)]
        assert all(case["found"] == case["expected"] for case in cases.values())

    @pytest.mark.parametrize("limit, left", [("1", ["1"]), ("2000", ["1", "2"])])
    def test_dropped_known_square_fails(self, capsys, tmp_path, monkeypatch, limit, left):
        # A sieve that loses the known square t = 0 no longer matches.
        monkeypatch.setattr(
            homgeom.verify, "sieve", lambda obs, lim: [t for t in sieve(obs, lim) if t != 0]
        )
        code, check = self.sieve_check(capsys, tmp_path, limit)
        assert code == 1
        assert check["status"] == "fail"
        assert check["details"]["cases"]["c"]["found"] == left

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_json_rejected_before_any_check(
        self, capsys, tmp_path, monkeypatch, target
    ):
        # A path under a missing directory, or a directory itself, cannot take
        # the report; that is invalid input, found before the checks run.
        monkeypatch.setattr(homgeom.cli, "verify_all", lambda **_: pytest.fail("checks ran"))
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

        monkeypatch.setattr(homgeom.cli, "verify_all", fake_verify_all)
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
