"""One in-process pass of a workload, with or without per-layer spans.

    python3 perfbench/tracer.py --root . --workload verify-default --seed 1 \
        --pass-id 1 --traced 1

imports ``homgeom`` from ``<root>/src``, calls ``homgeom.cli.main`` with each
command's argv, checks every output, and prints a JSON summary as its last
stdout line.  With ``--traced 1`` it first wraps the layers' public
functions (below) wherever a ``homgeom.*`` module holds them, keeps one
span per call in memory, writes the spans to ``perfbench/out`` when the
pass ends, and adds the per-layer metrics to the summary.

Hot helpers such as ``is_perfect_square`` and ``s2_from`` are not wrapped:
they run millions of times and a wrapper would cost more than they do.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads

# Span name -> (module, attribute path).  The span name's prefix is the layer.
TARGETS = {
    "cli.main": ("homgeom.cli", "main"),
    "verify.verify_all": ("homgeom.verify", "verify_all"),
    "obstructions.catalog": ("homgeom.obstructions", "catalog"),
    "obstructions.certify_no_square": ("homgeom.obstructions", "certify_no_square"),
    "obstructions.sieve": ("homgeom.obstructions", "sieve"),
    "pipeline.search": ("homgeom.pipeline", "search"),
    "pipeline.eliminate": ("homgeom.pipeline", "eliminate"),
    "pipeline.Report.to_json_dict": ("homgeom.pipeline", "Report.to_json_dict"),
    "localization.eliminate_case_instance": ("homgeom.localization", "eliminate_case_instance"),
    "bounds.alpha_route_sweep": ("homgeom.bounds", "alpha_route_sweep"),
    "bounds.beta_route_sweep": ("homgeom.bounds", "beta_route_sweep"),
    "geometries.Geometry.closure": ("homgeom.geometries", "Geometry.closure"),
    "geometries.flat_profile": ("homgeom.geometries", "flat_profile"),
    "geometries.check_closure_axioms": ("homgeom.geometries", "check_closure_axioms"),
    "geometries.localize_at_point": ("homgeom.geometries", "localize_at_point"),
}

# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = (
    "obstructions.sieve_found",
    "pipeline.eliminate_calls",
    "localization.case_instance_calls",
    "geometries.closure_calls",
    "geometries.flat_profile_calls",
    "pipeline.search_systems",
)


def _bound_arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


class Tracer:
    """Spans and counters for one pass, kept in memory until it ends.

    A span is ``[name, parent, run, start_ns, end_ns]``; its id is its index
    in ``spans`` and ``parent`` is the id of the enclosing span, or -1.
    ``run`` numbers the command the span belongs to.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = 0
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._closure_keys: set = set()
        self._geometries: dict[int, object] = {}

    def install(self) -> None:
        import homgeom.cli  # noqa: F401  (loads every homgeom module)

        modules = [m for n, m in list(sys.modules.items()) if n == "homgeom" or n.startswith("homgeom.")]
        for name, (module_name, attr) in TARGETS.items():
            owner = sys.modules.get(module_name)
            *owner_path, leaf = attr.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original)
            if owner_path:
                setattr(owner, leaf, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        note = getattr(self, "_note_" + name.rsplit(".", 1)[-1], None)

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.run, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if note is not None:
                note(fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # Counters taken at the boundary, named after the wrapped function.

    def _note_sieve(self, fn, args, kwargs, result):
        self.counters["sieve_args"] += _bound_arg(fn, args, kwargs, "limit") + 1
        self.counters["sieve_found"] += len(result)

    def _note_search(self, fn, args, kwargs, result):
        s1_max = _bound_arg(fn, args, kwargs, "s1_max")
        alpha_max = _bound_arg(fn, args, kwargs, "alpha_max")
        self.counters["search_systems"] += (s1_max - 2) * (alpha_max + 1) * 2

    def _note_alpha_route_sweep(self, fn, args, kwargs, result):
        self.counters["sweep_systems"] += result.systems_checked

    _note_beta_route_sweep = _note_alpha_route_sweep

    def _note_closure(self, fn, args, kwargs, result):
        geometry, subset = args[0], args[1] if len(args) > 1 else kwargs["subset"]
        self._geometries[id(geometry)] = geometry  # keeps ids unique for the pass
        self._closure_keys.add((id(geometry), frozenset(subset)))

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": ["name", "parent", "run", "start_ns", "end_ns"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the pass; None for a metric whose function is missing."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        child: list[int] = [0] * len(self.spans)
        for name, parent, _run, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        for span, covered in zip(self.spans, child):
            self_ns[span[0]] += span[4] - span[3] - covered

        c = self.counters

        def sec(name):
            return total[name] / 1e9

        def rate(work, name):
            return work / sec(name) if total[name] else 0.0

        closures = calls["geometries.Geometry.closure"]
        metrics = {
            "obstructions.sieve_s": ("obstructions.sieve", sec("obstructions.sieve")),
            "obstructions.sieve_args_per_s": ("obstructions.sieve", rate(c["sieve_args"], "obstructions.sieve")),
            "obstructions.sieve_found": ("obstructions.sieve", c["sieve_found"]),
            "obstructions.catalog_s": ("obstructions.catalog", sec("obstructions.catalog")),
            "obstructions.catalog_calls": ("obstructions.catalog", calls["obstructions.catalog"]),
            "obstructions.certify_s": ("obstructions.certify_no_square", sec("obstructions.certify_no_square")),
            "pipeline.search_self_s": ("pipeline.search", self_ns["pipeline.search"] / 1e9),
            "pipeline.search_systems": ("pipeline.search", c["search_systems"]),
            "pipeline.search_systems_per_s": ("pipeline.search", rate(c["search_systems"], "pipeline.search")),
            "pipeline.eliminate_s": ("pipeline.eliminate", sec("pipeline.eliminate")),
            "pipeline.eliminate_calls": ("pipeline.eliminate", calls["pipeline.eliminate"]),
            "localization.case_instance_s": (
                "localization.eliminate_case_instance",
                sec("localization.eliminate_case_instance"),
            ),
            "localization.case_instance_calls": (
                "localization.eliminate_case_instance",
                calls["localization.eliminate_case_instance"],
            ),
            "pipeline.report_json_s": ("pipeline.Report.to_json_dict", sec("pipeline.Report.to_json_dict")),
            "bounds.alpha_sweep_s": ("bounds.alpha_route_sweep", sec("bounds.alpha_route_sweep")),
            "bounds.beta_sweep_s": ("bounds.beta_route_sweep", sec("bounds.beta_route_sweep")),
            "bounds.sweep_systems": (("bounds.alpha_route_sweep", "bounds.beta_route_sweep"), c["sweep_systems"]),
            "geometries.closure_s": ("geometries.Geometry.closure", sec("geometries.Geometry.closure")),
            "geometries.closure_calls": ("geometries.Geometry.closure", closures),
            "geometries.closure_miss_frac": (
                "geometries.Geometry.closure",
                len(self._closure_keys) / closures if closures else 0.0,
            ),
            "geometries.flat_profile_s": ("geometries.flat_profile", sec("geometries.flat_profile")),
            "geometries.flat_profile_calls": ("geometries.flat_profile", calls["geometries.flat_profile"]),
            "geometries.closure_axioms_s": (
                "geometries.check_closure_axioms",
                sec("geometries.check_closure_axioms"),
            ),
            "geometries.localize_s": ("geometries.localize_at_point", sec("geometries.localize_at_point")),
            "verify.total_s": ("verify.verify_all", sec("verify.verify_all")),
            "verify.unattributed_s": ("verify.verify_all", self_ns["verify.verify_all"] / 1e9),
        }
        missing = set(self.missing)
        return {
            key: None if missing.intersection([needs] if isinstance(needs, str) else needs) else value
            for key, (needs, value) in metrics.items()
        }


def run_pass(root: Path, workload: str, seed: int, pass_id: int, traced: bool) -> dict:
    sys.path.insert(0, str(root / "src"))
    out_dir = root / "perfbench" / "out"
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    import homgeom.cli

    attempted = failed = report_bytes = main_ns = 0
    for run, cmd in enumerate(workloads.commands(workload, seed, out_dir)):
        if cmd.report_path is not None:
            cmd.report_path.unlink(missing_ok=True)
        if tracer is not None:
            tracer.run = run
        buf = io.StringIO()
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(buf):
            try:
                code = homgeom.cli.main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not a failed benchmark
                traceback.print_exc()
                code = 1
        main_ns += time.perf_counter_ns() - start
        stdout = buf.getvalue()
        report = workloads.read_report(cmd.report_path)
        if cmd.report_path is not None and cmd.report_path.exists():
            report_bytes += cmd.report_path.stat().st_size
        else:
            report_bytes += len(stdout.encode())
        attempted += cmd.ops
        failed += cmd.check(code, stdout, report)

    summary = {"attempted": attempted, "failed": failed, "main_s": main_ns / 1e9, "report_bytes": report_bytes}
    if tracer is not None:
        tracer.write(
            out_dir / f"spans-{workload}-pass{pass_id}.jsonl",
            {"workload": workload, "seed": seed, "pass": pass_id,
             "runs": [f"{workload}/{seed}/{pass_id}/{i}" for i in range(tracer.run + 1)]},
        )
        summary["layers"] = tracer.layer_metrics()
        summary["missing"] = sorted(tracer.missing)
        summary["spans"] = len(tracer.spans)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    summary = run_pass(args.root.resolve(), args.workload, args.seed, args.pass_id, bool(args.traced))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
