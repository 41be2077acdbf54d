"""The scripts under scripts/ run end to end at tiny trial counts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grassgeo import harness

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_cli_module_runs_main(tmp_path):
    (tmp_path / "l.txt").write_text("1\n0\n")
    (tmp_path / "r.txt").write_text("1\n1\n")
    res = run_python("-m", "grassgeo.cli", "angles", "--left", str(tmp_path / "l.txt"),
                     "--right", str(tmp_path / "r.txt"), "--degrees")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["command"] == "angles"
    assert doc["result"]["angles"] == pytest.approx([45.0], abs=1e-9)


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


def test_bench_writes_every_row(tmp_path):
    out = tmp_path / "bench.json"
    args = ("--out", str(out), "--sizes", "3", "--repeat", "1", "--min-time", "0", "--trials", "2")
    for column in ("before", "after"):
        res = run_script("bench.py", *args, "--column", column)
        assert res.returncode == 0, res.stdout + res.stderr
    doc = json.loads(out.read_text())
    assert set(doc["columns"]) == {"before", "after"}
    col = doc["columns"]["after"]
    assert set(col) == {"stamp", "settings", "layers_us", "terms", "run_trials_ms_per_trial",
                        "cli_triangle_certificate_ms", "cold_import_s", "cold_import_loads_scipy_optimize",
                        "cold_first_decompose_s", "cold_decompose_loads_scipy_optimize",
                        "cold_import_loads_scipy_linalg", "cold_import_rss_mb"}
    assert {"sha", "numpy", "scipy", "cpu_count", "blas_threads"} <= set(col["stamp"])
    assert set(col["layers_us"]) == set(col["terms"]) == {"3"}
    assert {"kernel.svd", "kernel.eig_hermitian", "kernel.cholesky", "kernel.qr_orthonormalize",
            "subspaces.jordan_angles", "metrics.hcurve_between", "metrics.hcurve_eval",
            "weyl.verdict", "weyl.certificate", "weyl.birkhoff_decompose",
            "weyl.quasistochastic_decompose", "noncompact.posdef_angles",
            "noncompact.BallPoint", "noncompact.ball_angles"} <= set(col["layers_us"]["3"])
    assert set(col["terms"]["3"]) == {"certificate", "birkhoff", "quasistochastic"}
    assert set(col["run_trials_ms_per_trial"]) == set(harness.SPACES)
    assert col["cold_import_s"] > 0
    assert col["cold_import_loads_scipy_optimize"] is False
    assert col["cold_first_decompose_s"] > 0
    assert col["cold_decompose_loads_scipy_optimize"] is False
    assert col["cold_import_loads_scipy_linalg"] is False
    assert col["cold_import_rss_mb"] > 0
