#!/usr/bin/env python3
"""grassgeo benchmark: one closed-loop client, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload interactive-p16 --seed 1 --seconds 20 --trace 0

Each op is timed on its own, and its time is scaled to a reference machine
speed (see REF_PROBE_S); its output is checked against an independent
reference outside the timed window.  The run stops after ``--seconds`` of
timed work, at the end of a whole cycle of op kinds and, untraced, after at
least 100 ops so that p90 has ten samples beyond it.  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics (half the time untraced, half traced, for ``trace.overhead_frac``).
Earlier lines give a readable summary, ``failed_frac`` and the environment
stamp.  The program is imported from ``src/`` of the checkout; without it
the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

# one client and no extra threads: BLAS runs single-threaded (nproc is 2)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("interactive-p16", "fuzz-mixed", "certify-p5", "cli-small")
MIN_OPS = 100
SETUP_REPEATS = 5
# keeps a run under the 180 s limit even if MIN_OPS would take longer
WALL_CAP_S = 120.0
# The speed of a shared host drifts by 20% and more within seconds, in CPU
# time as in wall time, which swamps differences between runs.  After every
# op the benchmark times a fixed stretch of interpreter work (the probe), and
# reports each op time scaled to the speed at which the probe takes
# REF_PROBE_S: raw time * REF_PROBE_S / (median of the probes around it).
# Probing takes about PROBE_SHARE of the op time, outside the timed window.
# Raw wall times are printed beside the scaled ones.  Set-up time is scaled
# by probes run in its own interpreter, just before and just after it.
REF_PROBE_S = 250e-6
PROBE_SHARE = 0.03
PROBE_WINDOW = 9  # ops whose probes are pooled for one op's speed

# argv: workload, seed, workdir, then the grassgeo modules the workload uses.
# Only those imports and the warm-up calls are timed; building the workload,
# writing its files and drawing the warm-up inputs are the benchmark's own work.
SETUP_CHILD = """
import importlib, statistics, sys, time
from run import probe
name, seed, workdir, modules = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
before = statistics.median(probe() for _ in range(40))
t0 = time.perf_counter()
for module in modules:
    importlib.import_module(module)
elapsed = time.perf_counter() - t0
loaded = set(sys.modules)
import workloads
workload = workloads.BY_NAME[name](seed, workdir)
inputs = workload.warm_up_inputs()
late = sorted(m for m in set(sys.modules) - loaded if m.startswith("grassgeo"))
if late:
    sys.exit(f"building {name} imported {late}, which workloads.IMPORTS does not list")
t0 = time.perf_counter()
workload.warm_up(inputs)
elapsed += time.perf_counter() - t0
after = statistics.median(probe() for _ in range(40))
print(elapsed, (before + after) / 2)
"""


def probe() -> float:
    """Seconds for a fixed stretch of interpreter work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def setup_seconds(workload: str, seed: int, modules) -> list:
    """Fresh-interpreter import of what the workload uses plus one op per kind.

    Returns (raw seconds, seconds at reference speed) per repeat.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, workload, str(seed), workdir, *modules],
                env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        elapsed, probe_s = map(float, proc.stdout.split())
        times.append((elapsed, elapsed * REF_PROBE_S / probe_s))
    return times


# The failures recorded at the seed commit, on which later runs are judged.
# They are counted apart from ``failed`` (the result line counts only ops that
# fail in any other way) and reported by the summary's ``failed_frac`` and the
# per-layer metrics ``metrics.triangle_check.boundary_miss_frac`` and
# ``cli.errors``.  Any other failure, a raise or a wrong output, counts in
# ``failed`` and makes ``correct`` false.
BOUNDARY_MISSES = ("verdict OUTSIDE", "inside but no certificate")
LIDSKII_CLI_ERROR = "raised TypeError: Object of type bool is not JSON serializable"


def raised_reason(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def known_defect(kind, reason: str) -> bool:
    if kind.boundary:
        # an equality-case triangle: the verdict hinges on the boundary tolerance
        return reason.startswith(BOUNDARY_MISSES)
    # `grassgeo lidskii` hands json.dump the numpy bool that lidskii_check returns
    return kind.check == "cli" and kind.name == "lidskii" and reason == LIDSKII_CLI_ERROR


@dataclass(frozen=True)
class Failure:
    op: int
    kind: str
    reason: str
    known: bool  # one of the recorded defects above


class Run:
    """Latencies and check outcomes of one measured stretch of ops."""

    def __init__(self):
        self.latencies: list = []  # raw wall seconds per op
        self.probes: list = []  # probe seconds taken after each op
        self.failures: list = []
        self.boundary_ops = 0  # equality-case triangles among the ops
        self.busy = 0.0
        self.cli_bytes = 0

    @property
    def n(self) -> int:
        return len(self.latencies)

    def scaled(self):
        """Op times at reference speed: each scaled by the probes around it."""
        import numpy as np

        half = PROBE_WINDOW // 2
        local = [
            statistics.median(t for ts in self.probes[max(0, j - half): j + half + 1] for t in ts)
            for j in range(self.n)
        ]
        return np.asarray(self.latencies) * REF_PROBE_S / np.asarray(local)

    def throughput(self, cycle: int, raw: bool = False) -> float:
        """Ops per second over the median cycle of op kinds (runs hold whole cycles).

        The median keeps one stalled op from moving the figure; a cycle holds
        the workload's full mix, so the figure still weighs every kind.
        """
        import numpy as np

        times = np.asarray(self.latencies) if raw else self.scaled()
        return cycle / float(np.median(times.reshape(-1, cycle).sum(axis=1)))


def measure(workload, check, seconds: float, min_ops: int, tracer=None) -> Run:
    run = Run()
    cycle = len(workload.cycle)
    wall0 = time.perf_counter()
    i = 0
    while True:
        # whole cycles only, so every run has the same mix of op kinds
        if i % cycle == 0 and (
            (run.busy >= seconds and run.n >= min_ops) or time.perf_counter() - wall0 > WALL_CAP_S
        ):
            break
        kind, x = workload.op(i)
        if tracer is not None:
            tracer.begin_op(i, kind.name)
        t0 = time.perf_counter()
        try:
            out, raised = kind.call(x), None
        except Exception as exc:  # an op that raises is a failed op
            out, raised = None, raised_reason(exc)
        run.latencies.append(time.perf_counter() - t0)
        run.busy += run.latencies[-1]
        if tracer is not None:
            tracer.end_op()
        reps = min(50, 1 + int(PROBE_SHARE * run.latencies[-1] / REF_PROBE_S))
        run.probes.append([probe() for _ in range(reps)])
        reason = raised
        if raised is None:
            if kind.check == "cli":
                run.cli_bytes += len(out[1].encode())
            reason = check(kind, x, out)
        run.boundary_ops += kind.boundary
        if reason is not None:
            run.failures.append(Failure(i, kind.name, reason, known_defect(kind, reason)))
        i += 1
    return run


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[len("ref: "):]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads(np) -> str:
    """Thread count reported by the BLAS numpy loaded, else the pinned setting."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return str(getter())
    return f"{BLAS_THREADS} (pinned by OPENBLAS_NUM_THREADS)"


def stamp() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(np),
        "machine": platform.machine(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(run: Run, setup: list, cycle: int) -> dict:
    import numpy as np

    lat_ms = 1e3 * run.scaled()
    return {
        "setup_s": metric(statistics.median(scaled for _, scaled in setup), "s"),
        "throughput_ops_s": metric(run.throughput(cycle), "1/s"),
        "latency_p50_ms": metric(np.percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": metric(np.percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def print_summary(run: Run, metrics: dict, setup: list, cycle: int):
    """Readable table: scaled metrics beside raw wall times, and failed_frac."""
    import numpy as np

    lat_ms = 1e3 * np.asarray(run.latencies)
    raw = {
        "setup_s": f"  raw wall {statistics.median(raw for raw, _ in setup):.6g}",
        "throughput_ops_s": f"  raw wall {run.throughput(cycle, raw=True):.6g}",
        "latency_p50_ms": f"  (n={run.n})  raw wall {np.percentile(lat_ms, 50):.6g}",
        "latency_p90_ms": f"  (n={run.n})  raw wall {np.percentile(lat_ms, 90):.6g}",
    }
    for name, m in metrics.items():
        print(f"  {name:18s} {m['value']:.6g} {m['unit']}{raw.get(name, '')}")
    probes = [t for ts in run.probes for t in ts]
    print(f"  {'probe time':18s} {statistics.median(probes) / REF_PROBE_S:.4g}x reference")
    failed = len(run.failures)
    known = sum(f.known for f in run.failures)
    print(f"  {'failed_frac':18s} {failed / run.n:.6g} ratio  ({failed} of {run.n}, "
          f"{known} of them recorded seed defects, outside the result's failed count)")


def report_failures(runs) -> bool:
    """Print a line per failing op kind; False when some failure is not a known defect."""
    by_kind = {}
    for f in (f for run in runs for f in run.failures):
        by_kind.setdefault((f.kind, f.known), []).append(f)
    for (kind, known), fs in sorted(by_kind.items()):
        print(f"  {'known defect' if known else 'WRONG'}: {kind} x{len(fs)}, e.g. op {fs[0].op}: {fs[0].reason}")
    return all(known for _, known in by_kind)


def traced(workload, check, seconds: float, env: dict):
    """Untraced then traced halves; per-layer metrics from the traced half."""
    import tracer as tr

    plain = measure(workload, check, seconds / 2, 0)
    t = tr.Tracer()
    t.install()
    try:
        missed = t.unwrapped_bindings()
        spanned = measure(workload, check, seconds / 2, 0, tracer=t)
    finally:
        t.uninstall()
    selfs = tr.self_times(t.spans)
    problems = tr.structure_errors(t.spans, selfs)[:5] + [f"unwrapped binding {m}" for m in missed]
    cycle = len(workload.cycle)
    overhead = 1.0 - spanned.throughput(cycle) / plain.throughput(cycle)
    layer = tr.layer_metrics(t.spans, spanned.cli_bytes / spanned.n, overhead)
    misses = sum(f.known for f in spanned.failures if f.kind == "triangle-equality")
    layer["metrics.triangle_check.boundary_miss_frac"] = (
        misses / spanned.boundary_ops if spanned.boundary_ops else 0.0, "ratio")
    for name, (value, unit) in layer.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    for p in problems:
        print(f"  TRACER: {p}")
    path = os.path.join(OUT, f"trace-{workload.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"stamp": env, "workload": workload.name, "seed": workload.seed,
                   "metrics": {k: v[0] for k, v in layer.items()},
                   "span_fields": ["name", "start", "end", "parent", "op", "raised", "info"],
                   "spans": t.spans}, fh)
    print(f"  spans: {len(t.spans)} written to {os.path.relpath(path, ROOT)}")
    metrics = {name: metric(value, unit) for name, (value, unit) in layer.items()}
    return [plain, spanned], metrics, not problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "grassgeo", "__init__.py")):
        print(f"perfbench: no grassgeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import grassgeo

    if not os.path.abspath(grassgeo.__file__).startswith(SRC + os.sep):
        print(f"perfbench: grassgeo imported from {grassgeo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import reference
    import workloads

    os.makedirs(OUT, exist_ok=True)
    env = stamp()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("stamp " + json.dumps(env, sort_keys=True))

    setup = [] if args.trace else setup_seconds(args.workload, args.seed, workloads.IMPORTS[args.workload])
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        workload = workloads.BY_NAME[args.workload](args.seed, workdir)
        check = reference.Checker()
        workload.warm_up(workload.warm_up_inputs())
        if args.trace:
            runs, metrics, correct = traced(workload, check, args.seconds, env)
        else:
            run = measure(workload, check, args.seconds, MIN_OPS)
            runs, metrics, correct = [run], end_to_end(run, setup, len(workload.cycle)), True
            print_summary(run, metrics, setup, len(workload.cycle))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = report_failures(runs) and correct
    result = {
        "correct": correct,
        "attempted": sum(r.n for r in runs),
        # the recorded seed defects are reported apart (see BOUNDARY_MISSES)
        "failed": sum(not f.known for r in runs for f in r.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
