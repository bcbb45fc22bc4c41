"""The CI workflow runs every invariant check ``tools/invariants.py`` defines,
and every job that runs the code installs the package's runtime dependencies."""

import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "invariants.py"


def _ci_jobs():
    return yaml.safe_load((ROOT / ".github" / "workflows" / "ci.yml").read_text())["jobs"]


def _invariants(*argv):
    return subprocess.run(
        [sys.executable, str(TOOL), *argv], capture_output=True, text=True, cwd=ROOT
    )


def test_ci_matrix_names_every_invariant_check():
    job = _ci_jobs()["invariants"]
    listed = _invariants("--list").stdout.split()
    assert listed and job["strategy"]["matrix"]["check"] == listed
    upload = next(step for step in job["steps"] if "upload-artifact" in step.get("uses", ""))
    assert upload["with"]["path"] == "artifacts/${{ matrix.check }}/"


def test_unknown_check_is_a_usage_error():
    result = _invariants("no-such-check")
    assert result.returncode == 2
    assert "invalid choice" in result.stderr


def _runs_code(job) -> bool:
    """Does a job execute the package (pytest, an example or a tool)?"""
    runs = " ".join(step.get("run", "") for step in job["steps"])
    return any(marker in runs for marker in ("pytest", "examples/", "tools/"))


@pytest.mark.parametrize("name", sorted(n for n, job in _ci_jobs().items() if _runs_code(job)))
def test_job_installs_runtime_dependencies(name):
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    wanted = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    installed = {
        word
        for step in _ci_jobs()[name]["steps"]
        if "pip install" in step.get("run", "")
        for word in step["run"].split()
    }
    assert wanted <= installed, f"{name} does not install {sorted(wanted - installed)}"
