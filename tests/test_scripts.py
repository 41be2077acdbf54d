"""The scripts under scripts/ run end to end at tiny trial counts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("args", [
    ("--trials", "2", "--seed", "3"),
    ("--space", "grassmann-complex", "--p", "6", "--q", "6", "--trials", "2"),
])
def test_run_fuzz(args):
    res = run_script("run_fuzz.py", *args)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "FAIL" not in res.stdout


@pytest.mark.parametrize("args", [
    ("--trials", "5", "--seed", "1"),
    ("--p", "8", "--q", "8", "--field", "complex", "--trials", "3"),
    ("--p", "8", "--q", "8", "--trials", "3"),
])
def test_triangle_survey(args):
    res = run_script("triangle_survey.py", *args)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "violations: 0" in res.stdout
