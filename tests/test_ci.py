"""The CI workflow runs every invariant check ``tools/invariants.py`` defines."""

import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "invariants.py"


def _invariants(*argv):
    return subprocess.run(
        [sys.executable, str(TOOL), *argv], capture_output=True, text=True, cwd=ROOT
    )


def test_ci_matrix_names_every_invariant_check():
    ci = yaml.safe_load((ROOT / ".github" / "workflows" / "ci.yml").read_text())
    job = ci["jobs"]["invariants"]
    listed = _invariants("--list").stdout.split()
    assert listed and job["strategy"]["matrix"]["check"] == listed
    upload = next(step for step in job["steps"] if "upload-artifact" in step.get("uses", ""))
    assert upload["with"]["path"] == "artifacts/${{ matrix.check }}/"


def test_unknown_check_is_a_usage_error():
    result = _invariants("no-such-check")
    assert result.returncode == 2
    assert "invalid choice" in result.stderr
