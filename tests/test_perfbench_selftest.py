"""The benchmark's self-test and its geometry checker pass against this checkout.

perfbench/selftest.py runs a small real verify-all and a real geometry
command, then corrupts their outputs one way at a time and requires each
corruption to count as a failed operation.  A report-shape change that the
benchmark would score as an incorrect output fails here first.  So does a
wrong localization on any instance of the geometry-large workload.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from homgeom.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    """perfbench/workloads.py as a module; its dataclass needs it in sys.modules."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


def test_perfbench_selftest_passes():
    out = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr


@pytest.mark.parametrize("instance", WORKLOADS.GEOMETRY_INSTANCES, ids=lambda i: "%s-%d-%d" % i)
def test_geometry_large_command_scores_no_failure(capsys, instance):
    kind, n, q = instance
    code = main(["geometry", "--type", kind, "--n", str(n), "--q", str(q), "--localize"])
    out = capsys.readouterr().out
    assert WORKLOADS.geometry_failures(code, out, kind, n, q) == 0
