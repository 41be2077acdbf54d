#!/usr/bin/env python3
"""Time grassgeo layer by layer and end to end, into one column of a BENCH JSON file.

The layer matrix times each layer's public call at p in --sizes (median
microseconds per call): kernel factorizations, Jordan angles, H-curve build
and evaluation, the majorization verdict, the certificate, both
decompositions, posdef angles, ball point construction and ball angles.
End to end it times `run_trials` (ms per trial, per space, p=3 q=4 n=4:
the median over --repeat runs of --trials trials), one in-process CLI call
(`triangle --certificate` at p=3), and a cold start: `import grassgeo.cli`
and then a first p=16 `birkhoff_decompose` (median seconds of each over
--repeat fresh interpreters, whether either loaded scipy.optimize, whether
the import loaded scipy.linalg, and the peak RSS after the import).
A stamp records the grassgeo SHA, numpy and scipy versions, CPU count and
BLAS threads; BLAS is pinned to one thread unless the environment says
otherwise.

An existing output file keeps its other columns, so the same file can hold a
baseline and a change measured one after the other on one machine:

    PYTHONPATH=<baseline checkout>/src python3 scripts/bench.py --out BENCH.json --column parent
    PYTHONPATH=src python3 scripts/bench.py --out BENCH.json --column change
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import dataclasses
import io
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import scipy

import grassgeo
from grassgeo import cli, harness, kernel, metrics, noncompact, subspaces, weyl

SEED = 0  # every input is drawn from this seed, so columns time the same data


def time_call(fn, repeat: int, min_time: float) -> float:
    """Median over `repeat` timings of microseconds per call of fn().

    Each timing runs fn often enough to last at least `min_time` seconds.
    """
    fn()  # warm up
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_time:
            break
        number *= 2
    samples = [elapsed / number]
    for _ in range(repeat - 1):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples) * 1e6


def layer_inputs(p: int) -> dict:
    """Seeded inputs of size p for every layer call."""
    rng = np.random.default_rng([SEED, p])
    l, m, r = (harness.random_subspace(p, p, "real", rng) for _ in range(3))
    phi, psi, theta = (subspaces.jordan_angles(a, b) for a, b in ((l, m), (m, r), (l, r)))
    mix = np.zeros((p, p))
    for wt in rng.dirichlet(np.ones(3 * p)):
        mix += wt * np.eye(p)[rng.permutation(p)]
    return {
        "tall": rng.standard_normal((2 * p, p)),
        "hermitian": harness.random_hermitian(p, "complex", rng),
        "posdef": (harness.random_posdef(p, "complex", rng), harness.random_posdef(p, "complex", rng)),
        "ball": (harness.random_ball_point(p, rng), harness.random_ball_point(p, rng)),
        "subspaces": (l, m),
        "curve": metrics.hcurve_between(l, m),
        "triangle": (theta - phi, psi),
        "bistochastic": mix,
        "quasistochastic": harness.random_rotation(p, "real", rng) * harness.random_rotation(p, "real", rng),
    }


def layer_calls(x: dict) -> dict:
    """Name -> zero-argument call, one per row of the layer matrix."""
    l, m = x["subspaces"]
    gap, psi = x["triangle"]
    return {
        "kernel.svd": lambda: kernel.svd(x["tall"]),
        "kernel.singular_values": lambda: kernel.singular_values(x["tall"]),
        "kernel.eig_hermitian": lambda: kernel.eig_hermitian(x["hermitian"]),
        "kernel.cholesky": lambda: kernel.cholesky(x["posdef"][0].matrix),
        "kernel.qr_orthonormalize": lambda: kernel.qr_orthonormalize(x["tall"]),
        "subspaces.jordan_angles": lambda: subspaces.jordan_angles(l, m),
        "metrics.hcurve_between": lambda: metrics.hcurve_between(l, m),
        "metrics.hcurve_eval": lambda: metrics.hcurve_eval(x["curve"], 0.37),
        "weyl.verdict": lambda: weyl.orbit_membership(gap, psi, "signed"),
        "weyl.certificate": lambda: weyl.orbit_membership(gap, psi, "signed", want_certificate=True),
        "weyl.birkhoff_decompose": lambda: weyl.birkhoff_decompose(x["bistochastic"]),
        "weyl.quasistochastic_decompose": lambda: weyl.quasistochastic_decompose(x["quasistochastic"]),
        "noncompact.posdef_angles": lambda: noncompact.posdef_angles(*x["posdef"]),
        "noncompact.BallPoint": lambda: noncompact.BallPoint(x["ball"][0].matrix),
        "noncompact.ball_angles": lambda: noncompact.ball_angles(*x["ball"]),
    }


def term_counts(calls: dict) -> dict:
    return {
        "certificate": len(calls["weyl.certificate"]().certificate),
        "birkhoff": len(calls["weyl.birkhoff_decompose"]()),
        "quasistochastic": len(calls["weyl.quasistochastic_decompose"]()),
    }


def run_trials_ms(trials: int, repeat: int) -> dict:
    """Per space, median over `repeat` runs of `trials` trials of milliseconds per trial."""
    out = {}
    for space in harness.SPACES:
        cfg = harness.TrialConfig(space=space, p=3, q=4, n=4, trials=trials, seed=SEED)
        harness.run_trials(dataclasses.replace(cfg, trials=1))  # warm up
        samples = []
        for _ in range(repeat):
            start = time.perf_counter()
            harness.run_trials(cfg)
            samples.append((time.perf_counter() - start) / trials * 1e3)
        out[space] = statistics.median(samples)
    return out


def cli_call_ms(repeat: int, min_time: float) -> float:
    """In-process `grassgeo triangle --certificate` on three p=3 subspaces of R^6."""
    rng = np.random.default_rng([SEED, 0])
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["triangle", "--certificate"]
        for flag in ("--l", "--m", "--n"):
            path = Path(tmp) / f"{flag[2:]}.txt"
            path.write_text(cli.format_matrix(rng.standard_normal((6, 3))) + "\n")
            argv += [flag, str(path)]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.dispatch(argv) != 0:
                    raise RuntimeError("CLI call failed")

        return time_call(call, repeat, min_time) / 1e3


def cold_start(runs: int) -> dict:
    """Over `runs` fresh interpreters: median seconds to `import grassgeo.cli`,
    then to run a first `birkhoff_decompose` of a fixed p=16 mix of 48
    permutations, whether any import or decomposition loaded scipy.optimize,
    whether any import loaded scipy.linalg, and the median peak RSS (MB) of
    the interpreter just after the import."""
    child = textwrap.dedent(f"""
        import resource, sys, time
        start = time.perf_counter()
        import grassgeo.cli
        imported = time.perf_counter()
        loaded = 'scipy.optimize' in sys.modules
        linalg = 'scipy.linalg' in sys.modules
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        import numpy as np
        rng = np.random.default_rng({SEED})
        mix = sum(wt * np.eye(16)[rng.permutation(16)] for wt in rng.dirichlet(np.ones(48)))
        start_decompose = time.perf_counter()
        grassgeo.weyl.birkhoff_decompose(mix)
        print(imported - start, loaded, time.perf_counter() - start_decompose,
              'scipy.optimize' in sys.modules, linalg, rss_mb)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(grassgeo.__file__).resolve().parent.parent))
    rows = [subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                           text=True, check=True).stdout.split() for _ in range(runs)]
    return {
        "cold_import_s": statistics.median(float(r[0]) for r in rows),
        "cold_import_loads_scipy_optimize": any(r[1] == "True" for r in rows),
        "cold_first_decompose_s": statistics.median(float(r[2]) for r in rows),
        "cold_decompose_loads_scipy_optimize": any(r[3] == "True" for r in rows),
        "cold_import_loads_scipy_linalg": any(r[4] == "True" for r in rows),
        "cold_import_rss_mb": statistics.median(float(r[5]) for r in rows),
    }


def stamp() -> dict:
    src = Path(grassgeo.__file__).resolve().parent

    def git(*args):
        res = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
        return res.stdout.strip() if res.returncode == 0 else None

    status = git("status", "--porcelain", "--", ".")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older numpy has no dict form
        blas = None
    return {
        "sha": git("rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write (other columns are kept)")
    ap.add_argument("--column", default="current", help="column name for this run")
    ap.add_argument("--sizes", type=int, nargs="+", default=[3, 8, 16])
    ap.add_argument("--repeat", type=int, default=7, help="timings per median")
    ap.add_argument("--min-time", type=float, default=0.05,
                    help="seconds each timing lasts at least (0: one call)")
    ap.add_argument("--trials", type=int, default=100, help="run_trials trials per space")
    args = ap.parse_args()

    cold = cold_start(args.repeat)
    layers, terms = {}, {}
    for p in args.sizes:
        calls = layer_calls(layer_inputs(p))
        layers[str(p)] = {name: time_call(fn, args.repeat, args.min_time) for name, fn in calls.items()}
        terms[str(p)] = term_counts(calls)
    column = {
        "stamp": stamp(),
        "settings": {"repeat": args.repeat, "min_time_s": args.min_time,
                     "trials": args.trials, "seed": SEED},
        "layers_us": layers,
        "terms": terms,
        "run_trials_ms_per_trial": run_trials_ms(args.trials, args.repeat),
        "cli_triangle_certificate_ms": cli_call_ms(args.repeat, args.min_time),
        **cold,
    }

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"columns": {}}
    doc["columns"][args.column] = column
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote column {args.column!r} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
