"""The benchmark's self-test passes against the package in this checkout.

perfbench/selftest.py runs a small real verify-all and a real geometry
command, then corrupts their outputs one way at a time and requires each
corruption to count as a failed operation.  A report-shape change that the
benchmark would score as an incorrect output fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    out = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
