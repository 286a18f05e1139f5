"""Self-test of the benchmark's output checks: corrupted outputs must raise fail_frac.

    python3 perfbench/selftest.py

Runs a small real ``verify-all`` and one real ``geometry`` command, checks
that the untouched outputs count no failures, then corrupts them one way at
a time and checks that each corruption is counted as a failed operation.
Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import copy
import json
import sys

import workloads
from run import OUT, run_child

SIZES = {"sieve_limit": 1000, "s1_max": 100, "alpha_max": 100}


def _find(report: dict, name: str) -> dict:
    return next(c for c in report["checks"] if c["name"] == name)


def _set_status(r):
    _find(r, "spectral-identities")["status"] = "fail"


def _drop_check(r):
    r["checks"] = [c for c in r["checks"] if c["name"] != "dimension-threshold"]


def _extra_found(r):
    _find(r, "square-sieve")["details"]["cases"]["c"]["found"].append("3")


def _wrong_limit(r):
    _find(r, "square-sieve")["details"]["limit"] = "999"


def _add_witness(r):
    _find(r, "parameter-search")["witness"] = [{"verdict": "SurvivesSquareTest"}]


def _lost_count(r):
    counts = _find(r, "parameter-search")["details"]["counts"]
    counts["integrality"] = str(int(counts["integrality"]) - 1)


def _wrong_systems(r):
    _find(r, "parameter-search")["details"]["systemsChecked"] = "1"


REPORT_CORRUPTIONS = [_set_status, _drop_check, _extra_found, _wrong_limit, _add_witness, _lost_count, _wrong_systems]


def fail_frac(results: list[tuple[int, int]]) -> float:
    return sum(f for f, _ in results) / sum(n for _, n in results)


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "selftest-report.json"
    argv = ["-m", "homgeom.cli", "verify-all", "--sieve-limit", str(SIZES["sieve_limit"]),
            "--alpha-max", str(SIZES["alpha_max"]), "--json", str(path)]
    code, _out, err, _wall = run_child(argv)
    report = workloads.read_report(path)
    n = len(workloads.VERIFY_CHECKS)
    clean = workloads.verify_failures(code, report, **SIZES)
    problems = [] if clean == 0 else [f"clean verify-all report counted {clean} failures: {err}"]

    results = [(clean, n)]
    for corrupt in REPORT_CORRUPTIONS:
        bad = copy.deepcopy(report)
        corrupt(bad)
        failed = workloads.verify_failures(code, bad, **SIZES)
        results.append((failed, n))
        if failed == 0:
            problems.append(f"{corrupt.__name__} was not caught")
    for code_, rep in ((1, report), (0, None)):
        failed = workloads.verify_failures(code_, rep, **SIZES)
        results.append((failed, n))
        if failed != n:
            problems.append(f"exit {code_} with report={rep is not None} counted {failed} of {n}")

    kind, dim, q = "ag", 2, 3
    code, out, err, _wall = run_child(["-m", "homgeom.cli", "geometry", "--type", kind, "--n", str(dim),
                                       "--q", str(q), "--localize"])
    if workloads.geometry_failures(code, out, kind, dim, q) != 0:
        problems.append(f"clean geometry output counted as failed: {out} {err}")
    payload = json.loads(out)
    for key, value in (("profile", ["1", "3", "8"]), ("alpha", "0"), ("localizedProfile", ["1", "3"])):
        bad = copy.deepcopy(payload)
        bad[key] = value
        failed = workloads.geometry_failures(0, json.dumps(bad), kind, dim, q)
        results.append((failed, 1))
        if failed != 1:
            problems.append(f"geometry {key}={value} was not caught")

    print(f"fail_frac clean: {clean / n}; with corruptions: {fail_frac(results):.4f} over {len(results)} outputs")
    for problem in problems:
        print("SELFTEST FAILED:", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
