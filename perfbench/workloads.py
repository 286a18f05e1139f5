"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed list of CLI commands.  Each command carries the
number of operations it stands for (a verify-all run is 10 report checks,
a geometry command is one geometry instance) and a check that counts how
many of those operations produced a wrong answer.  The expected values
are closed forms written out here; none is taken from the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

VERIFY_CHECKS = (
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
)

# The only arguments t >= 0 at which each obstruction polynomial is a square.
SIEVE_FOUND = {"c": {0, 1, 2}, "e": {0, 1}, "f": {1}, "b+": {0, 1}, "b-": {0, 1}}

# PG(3,3), PG(4,2), PG(2,7), AG(3,3), AG(4,2), AG(2,7): larger flats than
# the ground-truth check in verify-all, and no random axiom sampling.
GEOMETRY_INSTANCES = (
    ("pg", 3, 3),
    ("pg", 4, 2),
    ("pg", 2, 7),
    ("ag", 3, 3),
    ("ag", 4, 2),
    ("ag", 2, 7),
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and how to judge it.

    ``check(exit_code, stdout, report)`` returns the number of failed
    operations out of ``ops``; ``report`` is the parsed ``--json`` file, or
    None when the command writes none or it could not be read.
    """

    argv: tuple[str, ...]
    ops: int
    check: Callable[[int, str, dict | None], int]
    report_path: Path | None = None


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def verify_failures(
    exit_code: int, report: dict | None, *, sieve_limit: int, s1_max: int, alpha_max: int
) -> int:
    """Failed report checks out of 10 for one verify-all run."""
    if exit_code != 0 or not isinstance(report, dict):
        return len(VERIFY_CHECKS)
    by_name = {c.get("name"): c for c in report.get("checks", []) if isinstance(c, dict)}
    failed = 0
    for name in VERIFY_CHECKS:
        check = by_name.get(name)
        try:
            ok = check is not None and check["status"] == "pass"
            if ok and name == "square-sieve":
                ok = _sieve_ok(check["details"], sieve_limit)
            elif ok and name == "parameter-search":
                ok = _search_ok(check, s1_max, alpha_max)
        except (KeyError, TypeError, ValueError):
            ok = False
        failed += not ok
    return failed


def _sieve_ok(details: dict, limit: int) -> bool:
    cases = details["cases"]
    return int(details["limit"]) == limit and set(cases) == set(SIEVE_FOUND) and all(
        set(_ints(cases[label]["found"])) == found for label, found in SIEVE_FOUND.items()
    )


def _search_ok(check: dict, s1_max: int, alpha_max: int) -> bool:
    details = check["details"]
    systems = (s1_max - 2) * (alpha_max + 1) * 2
    return (
        "witness" not in check
        and int(details["s1Max"]) == s1_max
        and int(details["alphaMax"]) == alpha_max
        and int(details["systemsChecked"]) == systems
        and sum(_ints(details["counts"].values())) == systems
    )


def geometry_expected(kind: str, n: int, q: int) -> dict:
    """Closed-form profile, alpha and point-localized profile of PG(n,q) or AG(n,q)."""
    if kind == "pg":
        sizes = [(q ** (i + 1) - 1) // (q - 1) for i in range(n + 1)]
        alpha = 0
    else:
        sizes = [q**i for i in range(n + 1)]
        alpha = 1
    localized = [(sizes[i + 1] - 1) // (sizes[1] - 1) for i in range(n)]
    return {
        "kind": f"{kind.upper()}({n},{q})",
        "points": sizes[n],
        "profile": sizes,
        "alpha": alpha,
        "localizedProfile": localized,
    }


def geometry_failures(exit_code: int, stdout: str, kind: str, n: int, q: int) -> int:
    """1 if one ``geometry --localize`` command printed a wrong answer, else 0."""
    if exit_code != 0:
        return 1
    try:
        out = json.loads(stdout)
        got = {
            "kind": out["kind"],
            "points": int(out["points"]),
            "profile": _ints(out["profile"]),
            "alpha": int(out["alpha"]),
            "localizedProfile": _ints(out["localizedProfile"]),
        }
    except (KeyError, TypeError, ValueError):
        return 1
    return int(got != geometry_expected(kind, n, q))


def _verify_command(out_dir: Path, tag: str, sieve_limit: int, s1_max: int, alpha_max: int):
    report_path = out_dir / f"{tag}-report.json"
    argv = ["verify-all"]
    if sieve_limit != 10**6:
        argv += ["--sieve-limit", str(sieve_limit)]
    if alpha_max != 10**4:
        argv += ["--alpha-max", str(alpha_max)]
    argv += ["--json", str(report_path)]

    def check(exit_code, _stdout, report):
        return verify_failures(
            exit_code, report, sieve_limit=sieve_limit, s1_max=s1_max, alpha_max=alpha_max
        )

    return Command(tuple(argv), len(VERIFY_CHECKS), check, report_path)


def _geometry_command(kind: str, n: int, q: int) -> Command:
    argv = ("geometry", "--type", kind, "--n", str(n), "--q", str(q), "--localize")
    return Command(argv, 1, lambda code, stdout, _report: geometry_failures(code, stdout, kind, n, q))


def commands(workload: str, seed: int, out_dir: Path) -> list[Command]:
    """The commands of one pass of a workload.

    Sizes are fixed: each check is a claim over every argument up to its
    limit, so the seed only orders geometry-large's commands.
    """
    if workload == "verify-default":
        return [_verify_command(out_dir, workload, 10**6, 100, 10**4)]
    if workload == "verify-large":
        return [_verify_command(out_dir, workload, 2 * 10**6, 100, 10**5)]
    if workload == "geometry-large":
        instances = list(GEOMETRY_INSTANCES)
        random.Random(seed).shuffle(instances)
        return [_geometry_command(*inst) for inst in instances]
    raise ValueError(f"unknown workload {workload!r}")


# verify-large (the ROADMAP's larger named size) is not in BENCHMARK.json: its
# 10-15 s passes leave two or three samples per run, too few to be steady on a
# shared 2-vCPU host.  It stays runnable by hand, traced or not.
WORKLOADS = ("verify-default", "verify-large", "geometry-large")


def read_report(path: Path | None) -> dict | None:
    """The parsed ``--json`` report, or None if it is absent or not JSON."""
    if path is None:
        return None
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None
