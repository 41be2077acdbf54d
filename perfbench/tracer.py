"""Spans around calls into grassgeo's public functions, recorded from outside.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds every name
a grassgeo module holds for it, including the ones made with
``from ... import`` (``metrics.jordan_angles``, ``weyl.linprog``, ...); a
class is traced by wrapping its ``__init__``, which catches every binding
at once.  Spans are recorded only while an op is open, kept in memory as
``[name, start, end, parent, op, raised, extra]`` and turned into per-layer
metrics when the run ends.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer (module) -> public names timed in that layer
TRACED = {
    "kernel": ("svd", "eig_hermitian", "cholesky", "inv_sqrt_psd", "qr_orthonormalize"),
    "subspaces": ("Subspace", "jordan_angles", "principal_vectors"),
    "weyl": ("orbit_membership", "orbit_matrix", "linprog", "birkhoff_decompose", "quasistochastic_decompose"),
    "metrics": ("triangle_check", "hcurve_between", "hcurve_eval", "distance"),
    "noncompact": (
        "PosDefPoint", "BallPoint", "posdef_angles", "posdef_triangle_check",
        "lidskii_check", "cross_ratio_matrix", "ball_angles", "ball_distance",
    ),
    # _dump_matrix is private: it is traced to count the failure dumps serialised
    "harness": (
        "run_trials", "random_subspace", "random_rotation", "random_tangent",
        "random_posdef", "random_hermitian", "random_ball_point", "_dump_matrix",
    ),
    "cli": ("dispatch", "parse_matrix"),
}
LAYERS = tuple(TRACED)


# _dump_matrix calls per failure dump, per fuzz space (grassgeo 0.1.0 source)
MATRICES_PER_DUMP = {"grassmann-real": 3, "grassmann-complex": 3, "posdef": 3, "hermitian-lidskii": 2, "ball": 3}


def _run_trials_extra(args, kwargs, report):
    # the dumps kept are those in the report
    kept = {id(d) for stats in report.checks.values() for d in stats.failures}
    return report.config.space, report.config.trials, len(kept)


EXTRA = {
    "weyl.orbit_matrix": lambda args, kwargs, res: res.shape[0],
    "weyl.orbit_membership": lambda args, kwargs, res: (
        None if res.certificate is None else len(res.certificate)
    ),
    "harness.run_trials": _run_trials_extra,
}

NAME, START, END, PARENT, OP, RAISED, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._op = None
        self._patches: list = []  # (owner, attribute, original value)
        self._originals: dict = {}  # id(original) -> span name

    # -- installation -----------------------------------------------------

    def install(self):
        for layer, names in TRACED.items():
            module = importlib.import_module(f"grassgeo.{layer}")
            for attr in names:
                name = f"{layer}.{attr}"
                original = getattr(module, attr)
                if isinstance(original, type):
                    self._patch(original, "__init__", self._wrap(name, original.__init__))
                    continue
                self._originals[id(original)] = name
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "grassgeo" or mod_name.startswith("grassgeo."):
                        for binding, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, binding, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def unwrapped_bindings(self) -> list:
        """grassgeo module names still bound to an unwrapped traced function."""
        missed = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "grassgeo" or mod_name.startswith("grassgeo."):
                for binding, value in vars(mod).items():
                    if id(value) in self._originals:
                        missed.append(f"{mod_name}.{binding}")
        return missed

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, EXTRA.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], self._op, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[INFO] = extra(args, kwargs, result)
            return result

        return traced

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int, kind: str):
        self._stack[:] = [len(self.spans)]
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op_id, False, kind])
        self._op = op_id

    def end_op(self):
        self.spans[self._stack[0]][END] = time.perf_counter()
        self._op = None
        self._stack.clear()


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def structure_errors(spans, selfs) -> list:
    """Spans that do not nest inside their parent, or have negative self time."""
    errors = []
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            if s[START] < parent[START] or s[END] > parent[END] or s[OP] != parent[OP]:
                errors.append(f"span {i} ({s[NAME]}) is not inside its parent {parent[NAME]}")
        if selfs[i] < -1e-9:
            errors.append(f"span {i} ({s[NAME]}) has self time {selfs[i]:.3e} s")
    return errors


def call_counts(spans) -> dict:
    counts = defaultdict(int)
    for s in spans:
        counts[s[NAME]] += 1
    return dict(counts)


def layer_metrics(spans, cli_bytes_per_op: float, overhead_frac: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}; calls and times are per op."""
    from grassgeo.harness import SPACES

    selfs = self_times(spans)
    ops = [s for s in spans if s[PARENT] < 0]
    n_ops = max(len(ops), 1)
    op_seconds = sum(s[END] - s[START] for s in ops) or 1.0
    calls, self_s, layer_self, errors = (defaultdict(float) for _ in range(4))
    rows, verdicts, terms, certs = 0, 0, 0, 0
    trial_s, trials, kept = defaultdict(float), defaultdict(int), 0
    dumped = defaultdict(int)  # space -> _dump_matrix calls
    for s, own in zip(spans, selfs):
        name = s[NAME]
        if s[PARENT] < 0:
            continue
        layer = name.split(".", 1)[0]
        if name.startswith("harness.random_"):
            name = "harness.generators"
        calls[name] += 1
        self_s[name] += own
        layer_self[layer] += own
        errors[layer] += s[RAISED]
        if name == "metrics.triangle_check":
            verdicts += 1
        elif name == "weyl.orbit_matrix" and spans[s[PARENT]][NAME] == "metrics.triangle_check":
            rows += s[INFO]
        elif name == "weyl.orbit_membership" and s[INFO] is not None:
            terms += s[INFO]
            certs += 1
        elif name == "harness.run_trials" and s[INFO] is not None:
            space, n, k = s[INFO]
            trial_s[space] += s[END] - s[START]
            trials[space] += n
            kept += k
        elif name == "harness._dump_matrix" and spans[s[PARENT]][INFO] is not None:
            dumped[spans[s[PARENT]][INFO][0]] += 1

    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def timed(name, with_calls=True):
        if with_calls:
            put(f"{name}.calls", calls[name] / n_ops, "count")
        put(f"{name}.self_ms", 1e3 * self_s[name] / n_ops, "ms")

    for fn in TRACED["kernel"]:
        timed(f"kernel.{fn}")
    put("kernel.errors", errors["kernel"] / n_ops, "count")
    for fn in TRACED["subspaces"]:
        timed(f"subspaces.{fn}")
    timed("weyl.orbit_membership")
    put("weyl.orbit_matrix.rows", rows / verdicts if verdicts else 0.0, "count")
    timed("weyl.linprog")
    put("weyl.certificate.terms", terms / certs if certs else 0.0, "count")
    timed("weyl.birkhoff_decompose", with_calls=False)
    timed("weyl.quasistochastic_decompose", with_calls=False)
    put("weyl.errors", errors["weyl"] / n_ops, "count")
    timed("metrics.triangle_check")
    timed("metrics.hcurve_between", with_calls=False)
    timed("metrics.hcurve_eval")
    timed("metrics.distance", with_calls=False)
    for fn in ("PosDefPoint", "BallPoint", "posdef_angles", "posdef_triangle_check",
               "lidskii_check", "cross_ratio_matrix", "ball_angles"):
        timed(f"noncompact.{fn}", with_calls=False)
    timed("harness.run_trials", with_calls=False)
    timed("harness.generators", with_calls=False)
    for space in SPACES:
        put(f"harness.trial_ms.{space}", 1e3 * trial_s[space] / trials[space] if trials[space] else 0.0, "ms")
    total_trials = sum(trials.values())
    serialised = sum(dumped[space] / MATRICES_PER_DUMP[space] for space in dumped)
    # with no dump serialised, none was wasted: the ratio reads 1
    useful = kept / serialised if serialised else float(total_trials > 0)
    put("harness.dump.useful_ratio", useful, "ratio")
    put("harness.dump.serialised_per_trial", serialised / total_trials if total_trials else 0.0, "count")
    timed("cli.dispatch", with_calls=False)
    timed("cli.parse_matrix", with_calls=False)
    put("cli.output_bytes", cli_bytes_per_op, "bytes")
    put("cli.errors", errors["cli"] / n_ops, "count")
    for layer in LAYERS:
        put(f"{layer}.self_share", layer_self[layer] / op_seconds, "ratio")
    put("trace.overhead_frac", overhead_frac, "ratio")
    return out
