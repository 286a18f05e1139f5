"""Golden report: verify-all and check-params output pinned to a fixture.

The fixture holds a small verify-all report (timestamp and every
elapsedSeconds removed), and the eliminate record and the localize output
of twelve check-params inputs.  A change that alters any report field shows up as a fixture diff.
After an intended report change, regenerate it with

    PYTHONPATH=src python tests/test_golden_report.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from homgeom.cli import main

from homgeom.parameters import ParamSystem
from homgeom.parameters import required_dimension
from homgeom.pipeline import eliminate
from homgeom.verify import verify_all

FIXTURE = Path(__file__).parent / "fixtures" / "golden_report.json"

# (s1, alpha, alpha') covering every verdict and every starting condition.
CHECK_PARAMS_INPUTS = [
    (3, 6, 0), (4, 36, 0), (4, 4, 0), (9, 144, 0), (9, 36, 0), (3, 10, 1),
    (3, 1, 1), (3, 0, 0), (3, 2, 0), (16, 400, 0), (16, 144, 0), (4, 17, 1),
]


def localize_output(s1: int, alpha: int, alpha_prime: int) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        main(["localize", "--s1", str(s1), "--alpha", str(alpha), "--alpha-prime", str(alpha_prime)])
    return json.loads(out.getvalue())


def golden_payload() -> dict:
    report = verify_all(sieve_limit=10**4, s1_max=20, alpha_max=500).to_json_dict()
    del report["timestamp"]
    for check in report["checks"]:
        del check["elapsedSeconds"]
    dim = required_dimension()
    return {
        "verifyAll": report,
        "checkParams": [
            eliminate(ParamSystem(s1, alpha, alpha_prime, dim)).to_record()
            for s1, alpha, alpha_prime in CHECK_PARAMS_INPUTS
        ],
        "localize": [localize_output(*system) for system in CHECK_PARAMS_INPUTS],
    }


def test_report_matches_the_golden_fixture():
    assert json.loads(json.dumps(golden_payload())) == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(golden_payload(), indent=1) + "\n")
