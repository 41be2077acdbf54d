"""The benchmark's own checks: tracer call counts, and a smoke run of every workload.

Run from the root of a checkout:

    python3 -m pytest perfbench -q

The call counts below are read from the source of grassgeo 0.1.0; a change
that alters which public functions an op calls updates this table with it.
Nothing here gates on timings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# one op of each kind at p = 3: {span name: calls}
GRASSMANN_ANGLES = {
    "kernel.qr_orthonormalize": 2, "kernel.svd": 7, "subspaces.Subspace": 2,
    "subspaces.jordan_angles": 5, "metrics.distance": 4,
}
GEODESIC = {
    "subspaces.Subspace": 11, "metrics.hcurve_between": 1, "subspaces.principal_vectors": 1,
    "kernel.svd": 10, "metrics.hcurve_eval": 9, "kernel.qr_orthonormalize": 9,
}
POSDEF = {
    "noncompact.PosDefPoint": 2, "kernel.eig_hermitian": 3, "noncompact.posdef_angles": 1,
    "kernel.cholesky": 1,
}
TRIANGLE = {
    "subspaces.Subspace": 3, "metrics.triangle_check": 1, "subspaces.jordan_angles": 3,
    "kernel.svd": 3, "weyl.orbit_matrix": 2, "weyl.orbit_membership": 1, "weyl.linprog": 1,
}
EXPECTED = {
    "interactive-p16": {
        "angles-real": GRASSMANN_ANGLES,
        "angles-complex": GRASSMANN_ANGLES,
        "geodesic-real": GEODESIC,
        "geodesic-complex": GEODESIC,
        "posdef-real": POSDEF,
        "posdef-complex": POSDEF,
        "ball": {
            "noncompact.BallPoint": 2, "kernel.svd": 4, "noncompact.ball_angles": 2,
            "noncompact.cross_ratio_matrix": 2, "kernel.inv_sqrt_psd": 4,
            "kernel.eig_hermitian": 4, "noncompact.ball_distance": 1,
        },
    },
    "certify-p5": {
        "triangle-haar": TRIANGLE,
        "quasistochastic": {"weyl.quasistochastic_decompose": 1, "weyl.linprog": 1},
        "birkhoff": {"weyl.birkhoff_decompose": 1},
    },
    "fuzz-mixed": {
        # 17 jordan_angles per trial on 3 distinct pairs
        "grassmann-real": {
            "harness.run_trials": 1, "harness.random_subspace": 3, "harness._dump_matrix": 3,
            "kernel.qr_orthonormalize": 3,
            "subspaces.Subspace": 3, "metrics.triangle_check": 1, "subspaces.jordan_angles": 17,
            "kernel.svd": 20, "weyl.orbit_matrix": 1, "metrics.distance": 12,
        },
        "posdef": {
            "harness.run_trials": 1, "harness.random_posdef": 3, "harness._dump_matrix": 3,
            "noncompact.PosDefPoint": 3,
            "kernel.eig_hermitian": 6, "noncompact.posdef_triangle_check": 1,
            "noncompact.posdef_angles": 3, "kernel.cholesky": 3, "weyl.orbit_membership": 1,
        },
        "hermitian-lidskii": {
            "harness.run_trials": 1, "harness.random_hermitian": 2, "harness._dump_matrix": 2,
            "noncompact.lidskii_check": 1,
            "kernel.eig_hermitian": 3, "weyl.orbit_membership": 1,
        },
        "ball": {
            "harness.run_trials": 1, "harness.random_ball_point": 3, "harness._dump_matrix": 3,
            "noncompact.BallPoint": 3,
            "kernel.svd": 21, "noncompact.cross_ratio_matrix": 15, "kernel.inv_sqrt_psd": 30,
            "kernel.eig_hermitian": 30, "noncompact.ball_angles": 14, "noncompact.ball_distance": 12,
        },
    },
    "cli-small": {
        "angles": {
            "cli.dispatch": 1, "cli.parse_matrix": 2, "kernel.qr_orthonormalize": 2, "kernel.svd": 3,
            "subspaces.Subspace": 2, "subspaces.jordan_angles": 1,
        },
        "triangle": {
            "cli.dispatch": 1, "cli.parse_matrix": 3, "kernel.qr_orthonormalize": 3,
            "kernel.svd": 6, "subspaces.Subspace": 3, "metrics.triangle_check": 1,
            "subspaces.jordan_angles": 3, "weyl.orbit_matrix": 2, "weyl.orbit_membership": 1,
            "weyl.linprog": 1,
        },
        # a 3 x 4 input: svd transposes by calling itself once
        "fan-ky": {"cli.dispatch": 1, "cli.parse_matrix": 1, "kernel.svd": 2, "weyl.orbit_membership": 1},
        "lidskii": {
            "cli.dispatch": 1, "cli.parse_matrix": 2, "noncompact.lidskii_check": 1,
            "kernel.eig_hermitian": 3, "weyl.orbit_membership": 1,
        },
        "ball-angles": {
            "cli.dispatch": 1, "cli.parse_matrix": 2, "noncompact.BallPoint": 2, "kernel.svd": 3,
            "noncompact.ball_angles": 1, "noncompact.cross_ratio_matrix": 1,
            "kernel.inv_sqrt_psd": 2, "kernel.eig_hermitian": 2,
        },
    },
}


def small_workload(name, tmp_path):
    if name == "interactive-p16":
        return workloads.interactive(7, p=3, q=4)
    if name == "certify-p5":
        return workloads.certify(7, p=3, birkhoff_p=3)
    if name == "fuzz-mixed":
        return workloads.fuzz(7, chunk=1)
    return workloads.cli(7, str(tmp_path))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_tracer_counts_match_the_source(name, tmp_path):
    w = small_workload(name, tmp_path)
    t = tracer.Tracer()
    t.install()
    try:
        assert t.unwrapped_bindings() == []
        seen = {}
        for i in range(len(w.cycle)):
            kind, x = w.op(i)
            if kind.name in EXPECTED[name] and kind.name not in seen:
                start = len(t.spans)
                t.begin_op(i, kind.name)
                try:
                    kind.call(x)
                except TypeError:
                    assert kind.name == "lidskii"  # the CLI cannot serialise its verdict
                t.end_op()
                counts = tracer.call_counts(t.spans[start:])
                counts.pop("op")
                seen[kind.name] = counts
    finally:
        t.uninstall()
    assert seen == EXPECTED[name]
    if name == "fuzz-mixed":  # one dump per trial (chunk of 1)
        for space, counts in seen.items():
            assert counts["harness._dump_matrix"] == tracer.MATRICES_PER_DUMP[space]
    assert tracer.structure_errors(t.spans, tracer.self_times(t.spans)) == []
    # every binding is back to the original function
    assert t.unwrapped_bindings() and not t._patches


@pytest.mark.parametrize("name", sorted(workloads.BY_NAME))
def test_outputs_pass_their_checks_at_small_sizes(name, tmp_path):
    w = small_workload(name, tmp_path)
    check = reference.Checker()
    for i in range(len(w.cycle)):
        kind, x = w.op(i)
        try:
            out = kind.call(x)
        except Exception as exc:  # noqa: BLE001 - judged like a raise in a timed run
            reason = run.raised_reason(exc)
        else:
            reason = check(kind, x, out)
        assert reason is None or run.known_defect(kind, reason), f"{kind.name}: {reason}"


def test_only_the_recorded_defects_are_known(tmp_path):
    kinds = {k.name: k for w in (workloads.certify(7, p=3, birkhoff_p=3), workloads.cli(7, str(tmp_path)))
             for k in w.cycle}
    equality, haar, lidskii = kinds["triangle-equality"], kinds["triangle-haar"], kinds["lidskii"]
    assert run.known_defect(equality, "verdict OUTSIDE, slack -1.000e-09")
    assert run.known_defect(equality, "inside but no certificate")
    assert run.known_defect(lidskii, run.raised_reason(TypeError("Object of type bool is not JSON serializable")))
    # a crash or a certificate that does not rebuild is never excused
    assert not run.known_defect(equality, "rebuild error 1.000e-03")
    assert not run.known_defect(equality, run.raised_reason(ValueError("boom")))
    assert not run.known_defect(haar, "verdict OUTSIDE, slack -1.000e-09")
    assert not run.known_defect(lidskii, run.raised_reason(ValueError("boom")))
    assert not run.known_defect(kinds["angles"], run.raised_reason(TypeError("Object of type bool is not JSON serializable")))


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in benchmark_spec()["workloads"]])
def test_smoke_every_metric_is_emitted(name, trace):
    spec = benchmark_spec()
    cmd = spec["command"] + ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    # the recorded seed defects are counted apart, so no op fails and runs agree
    assert result["correct"] and result["failed"] == 0
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert "failed_frac" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    spec = benchmark_spec()
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for fname in os.listdir(HERE):
        if fname.endswith(".py"):
            (bench / fname).write_text(open(os.path.join(HERE, fname), encoding="utf-8").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
