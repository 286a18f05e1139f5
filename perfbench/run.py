"""homgeom benchmark: end-to-end CLI timings, or a traced run for per-layer numbers.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; ``homgeom`` is imported from
``src`` as in the tier-1 tests, so nothing needs to be installed.  The
workloads are closed loops with one client: each command starts when the
previous one has exited, one child process at a time.

``--trace 0`` runs the real CLI (``python -m homgeom.cli``) for
``--seconds`` seconds and reports the end-to-end metrics: ``wall_s``, the
median wall time of one pass of the workload's commands; ``setup_s``, the
median wall time of a fresh interpreter running ``import homgeom``; and
``peak_rss_mib``, the largest resident set of any child.

``--trace 1`` reports the per-layer metrics instead: untraced and traced
in-process passes, alternating, for ``--seconds`` seconds (see
``tracer.py``), plus import times from ``python -X importtime``.
Per-layer values are medians over the traced passes; the tracing overhead
is the traced minus the untraced in-process time.

Every output is checked against closed-form values (``workloads.py``).
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``.  Full results, with the Python and numpy versions,
``nproc``, the commit and a hash of the sources, go to ``perfbench/out``.
This script uses only the standard library and never imports numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7
# Children are killed once the whole run has taken this long; it must end within 180 s.
RUN_BUDGET_S = 170
STARTED = time.perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and wall seconds of one child process."""
    start = time.perf_counter()
    timeout = max(1.0, RUN_BUDGET_S - (start - STARTED))
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = -1, "", f"timed out after {timeout:.0f} s: {exc}"
    return code, out, err, time.perf_counter() - start


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": sources.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fresh_imports(*flags: str) -> list[tuple[float, str]]:
    """Wall seconds and stderr of fresh interpreters that only import homgeom.

    The first start compiles bytecode and is not counted: a user pays that once.
    """
    results = []
    for _ in range(SETUP_REPEATS + 1):
        code, _out, err, wall = run_child([*flags, "-c", "import homgeom"])
        if code != 0:
            raise RuntimeError(f"import homgeom failed: {err.strip()}")
        results.append((wall, err))
    return results[1:]


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup = [wall for wall, _err in fresh_imports()]
    start = time.perf_counter()
    passes: list[float] = []
    attempted = failed = 0
    while not passes or time.perf_counter() - start + statistics.median(passes) <= seconds:
        wall = 0.0
        for cmd in workloads.commands(workload, seed, OUT):
            if cmd.report_path is not None:
                cmd.report_path.unlink(missing_ok=True)
            code, out, err, cmd_wall = run_child(["-m", "homgeom.cli", *cmd.argv])
            wall += cmd_wall
            bad = cmd.check(code, out, workloads.read_report(cmd.report_path))
            if bad:
                print(f"FAILED {bad}/{cmd.ops}: homgeom {' '.join(cmd.argv)} (exit {code}) {err.strip()[-500:]}")
            attempted += cmd.ops
            failed += bad
        passes.append(wall)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": statistics.median(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_kib / 1024,
    }
    detail = {"attempted": attempted, "failed": failed, "wall_s_samples": passes, "setup_s_samples": setup}
    return metrics, detail


def import_times() -> dict:
    """Median cumulative import seconds of homgeom and numpy, from -X importtime."""
    found: dict[str, list[float]] = {"homgeom": [], "numpy": []}
    for _wall, err in fresh_imports("-X", "importtime"):
        seen = {}
        for line in err.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                seen.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
        for name, values in found.items():
            values.append(seen.get(name, 0.0))  # 0 once numpy is no longer imported
    return {f"cli.import_{name}_s": statistics.median(values) for name, values in found.items()}


def in_process_pass(workload: str, seed: int, pass_id: int, traced: bool) -> dict:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    argv = [str(Path(tracer.__file__)), "--root", str(ROOT), "--workload", workload,
            "--seed", str(seed), "--pass-id", str(pass_id), "--traced", str(int(traced))]
    code, out, err, wall = run_child(argv)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if code != 0:
        raise RuntimeError(f"tracer pass failed (exit {code}): {err.strip()[-2000:]}")
    summary = json.loads(out.splitlines()[-1])
    summary["wall_s"] = wall
    summary["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return summary


def traced_run(workload: str, seed: int, seconds: float, env: dict) -> tuple[dict, dict]:
    """Untraced and traced in-process passes, alternating so machine drift hits both alike."""
    start = time.perf_counter()
    for old in OUT.glob(f"spans-{workload}-pass*.jsonl"):
        old.unlink()  # spans of the latest run only
    imports = import_times()
    untraced, traced = [], []
    while not traced or time.perf_counter() - start + statistics.median(
        p["wall_s"] for p in untraced + traced
    ) <= seconds:
        side = untraced if len(untraced) <= len(traced) else traced
        side.append(in_process_pass(workload, seed, len(untraced) + len(traced), traced=side is traced))

    layers = {}
    for key in traced[0]["layers"]:
        values = [p["layers"][key] for p in traced]
        layers[key] = None if None in values else statistics.median_low(values)
    counts = [{k: p["layers"][k] for k in tracer.EXACT_COUNTS} for p in traced]
    repeat = all(c == counts[0] for c in counts) and earlier_counts_agree(workload, env, counts[0])
    metrics = {
        **layers,
        **imports,
        "cli.cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "cli.report_bytes": statistics.median_low(p["report_bytes"] for p in traced),
        "trace.overhead_s": statistics.median(p["main_s"] for p in traced)
        - statistics.median(p["main_s"] for p in untraced),
    }
    detail = {
        "attempted": sum(p["attempted"] for p in untraced + traced),
        "failed": sum(p["failed"] for p in untraced + traced),
        "untraced_main_s": [p["main_s"] for p in untraced],
        "traced_main_s": [p["main_s"] for p in traced],
        "spans_per_pass": [p["spans"] for p in traced],
        "missing": sorted({name for p in traced for name in p["missing"]}),
        "counts": counts[0],
        "counts_repeat": repeat,
    }
    return metrics, detail


def earlier_counts_agree(workload: str, env: dict, counts: dict) -> bool:
    """Compare exact counts with the last traced run of the same sources, then record them.

    Within a run the traced passes are compared with each other; this also
    covers runs with room for one traced pass, such as verify-large.
    """
    path = OUT / f"counts-{workload}.json"
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        earlier = {}
    agree = earlier.get("source_sha256") != env["source_sha256"] or earlier.get("counts") == counts
    path.write_text(json.dumps({"source_sha256": env["source_sha256"], "counts": counts}))
    return agree


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "homgeom" / "cli.py").is_file():
        print(f"error: no homgeom sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    env = environment()
    if args.trace:
        values, detail = traced_run(args.workload, args.seed, args.seconds, env)
    else:
        values, detail = timed_run(args.workload, args.seed, args.seconds)

    units = declared_metrics(bool(args.trace))
    if set(units) != set(values):
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    attempted, failed = detail["attempted"], detail["failed"]
    correct = failed == 0 and detail.get("counts_repeat", True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "correct": correct, "metrics": metrics, "detail": detail}
    (OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(json.dumps(record, indent=2))

    print(f"environment: {json.dumps(env)}")
    print(f"fail_frac: {failed / attempted:.6g} (ratio; {failed} of {attempted} operations)")
    if args.trace:
        print(f"passes: {len(detail['untraced_main_s'])} untraced, {len(detail['traced_main_s'])} traced; "
              f"exact counts repeat: {detail['counts_repeat']}; "
              f"missing: {detail['missing'] or 'none'}")
    else:
        print(f"wall_s: median of {len(detail['wall_s_samples'])} passes; {tail_percentile(detail['wall_s_samples'])}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it, if there is one."""
    n = len(samples)
    if n < 11:
        return f"no tail percentile (n={n}; needs >= 11 samples)"
    pct = 100 * (n - 10) // n
    value = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return f"p{pct} = {value} s (n={n})"


if __name__ == "__main__":
    raise SystemExit(main())
