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
from homgeom.cli import build_parser, main
from homgeom.localization import CaseLabel
from homgeom.obstructions import catalog, sieve
from homgeom.pipeline import Report, required_dimension, search
from homgeom.verify import CHECKS

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
        certificates = checks["no-square-certificates"]["certificates"]
        assert {c["status"] for c in certificates.values()} == {"proved-impossible"}

    def test_wrong_factor_pair_exits_one(self, capsys, tmp_path, monkeypatch):
        # Every f = g^2 - h still holds, but one pinned (A, 4h) pair no longer
        # matches what factor_equation derives.
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

    @pytest.mark.parametrize("limit, expected", [("0", ["0"]), ("1", ["0", "1"])])
    def test_expected_stops_at_limit(self, capsys, tmp_path, limit, expected):
        # Case c's known squares are 0, 1 and 2; only those <= limit are expected.
        code, checks = run_only(capsys, tmp_path, "square-sieve", "--sieve-limit", limit)
        assert code == 0
        case_c = checks["square-sieve"]["cases"]["c"]
        assert case_c["found"] == case_c["expected"] == expected

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
    def test_small_search(self, capsys, tmp_path):
        code, checks = run_only(
            capsys, tmp_path, "parameter-search", "--s1-max", "6", "--alpha-max", "80"
        )
        assert code == 0
        assert list(checks) == ["parameter-search"]
        # The row is the search's own check, with the time verify-all adds.
        (expected,) = search(6, 80).to_json_dict()["checks"]
        assert checks["parameter-search"] == {"status": "pass", **expected["details"]}

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
        # expected; nothing at or above t_min was found, so the check passes.
        code, check = self.sieve_check(capsys, tmp_path, limit)
        assert code == 0
        assert check["status"] == "pass"
        cases = check["details"]["cases"]
        assert cases["c"]["expected"] == [str(t) for t in range(int(limit) + 1)]
        assert all(case["found"] == case["expected"] for case in cases.values())

    @pytest.mark.parametrize("limit, left", [("1", ["1"]), ("2000", ["1", "2"])])
    def test_dropped_known_square_fails(self, capsys, tmp_path, monkeypatch, limit, left):
        # A sieve that loses the known square t = 0 no longer matches, even
        # when nothing at or above t_min survives; alone or in a full run.
        monkeypatch.setattr(
            homgeom.verify, "sieve", lambda obs, lim: [t for t in sieve(obs, lim) if t != 0]
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
        # LazyLoader module object, not a plain module.
        script = textwrap.dedent(
            """
            import json, sys, types
            import homgeom.cli
            code = homgeom.cli.main(["geometry", "--type", "ag", "--n", "2", "--q", "3", "--localize"])
            executed = [
                name
                for name in ("verify", "pipeline", "obstructions", "bounds")
                if type(sys.modules.get("homgeom." + name)) is types.ModuleType
            ]
            print(json.dumps({"code": code, "executed": executed}))
            """
        )
        *geometry, last = fresh_interpreter("-c", script).stdout.splitlines()
        assert json.loads(last) == {"code": 0, "executed": []}
        assert json.loads("\n".join(geometry))["profile"] == ["1", "3", "9"]

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
