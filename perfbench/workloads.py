"""The benchmark's workloads: seeded inputs and the timed calls into grassgeo.

Every workload is a fixed cycle of op kinds; op ``i`` runs
``cycle[i % len(cycle)]`` on an input drawn from ``default_rng([seed, i])``,
so the same seed gives the same inputs whatever the run length.  Inputs are
made with numpy only (never with ``grassgeo.harness`` generators), so a
change to the program cannot change another workload's inputs; the one
exception is ``fuzz-mixed``, whose draws are part of the code under test.

Cycle lengths are chosen so that the median and the p90 of a run land in
the middle of one slot of the cycle, not on the edge between two slots of
different cost: 5 and 15 slots put both there, 7 slots put p90 30% into
the top slot.

Only numpy is imported at module load; each workload function imports the grassgeo
modules its workload uses, listed in ``IMPORTS`` so that ``setup_s`` can time
exactly those imports apart from building the workload.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class OpKind:
    """One kind of op: ``call(x)`` is the timed user-level call on input x.

    ``call`` looks grassgeo functions up on their module at call time, so the
    traced run's rebinding reaches them.
    """

    name: str
    make: Callable[[np.random.Generator], object]
    call: Callable[[object], object]
    check: str  # which check in reference.py judges the output
    # an equality-case input sits exactly on the boundary of the triangle
    # relation; a wrong verdict there is the known boundary-tolerance defect
    boundary: bool = False


@dataclass
class Workload:
    name: str
    seed: int
    cycle: list

    def op(self, i: int):
        """(kind, input) of op number i."""
        kind = self.cycle[i % len(self.cycle)]
        return kind, kind.make(np.random.default_rng([self.seed, i]))

    def warm_up_inputs(self) -> list:
        """(kind, input) of the first op of each kind."""
        seen, out = set(), []
        for i in range(len(self.cycle)):
            kind = self.cycle[i]
            if kind.name not in seen:
                seen.add(kind.name)
                out.append(self.op(i))
        return out

    def warm_up(self, inputs):
        """Run ``warm_up_inputs()``, so lazy imports and caches fill before timing."""
        for kind, x in inputs:
            try:
                kind.call(x)
            except Exception:  # noqa: BLE001 - the timed run counts it as failed
                pass


# ---------------------------------------------------------------------------
# numpy-only input generators


def gaussian(rng, shape, cplx: bool) -> np.ndarray:
    a = rng.standard_normal(shape)
    if cplx:
        a = a + 1j * rng.standard_normal(shape)
    return a


def haar_frame(rng, n: int, p: int, cplx: bool) -> np.ndarray:
    q, r = np.linalg.qr(gaussian(rng, (n, p), cplx))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def posdef_matrix(rng, n: int, cplx: bool) -> np.ndarray:
    g = gaussian(rng, (n, n), cplx)
    return g @ g.conj().T + 0.1 * np.eye(n)


def hermitian_matrix(rng, n: int, cplx: bool) -> np.ndarray:
    g = gaussian(rng, (n, n), cplx)
    return (g + g.conj().T) / 2.0


def ball_matrix(rng, n: int) -> np.ndarray:
    """Complex symmetric matrix with operator norm uniform in [0.1, 0.9]."""
    g = gaussian(rng, (n, n), True)
    t = (g + g.T) / 2.0
    return t * (rng.uniform(0.1, 0.9) / np.linalg.norm(t, 2))


def equality_frames(rng, p: int, top_angle: float) -> list:
    """Three frames on one H-curve, so the triangle relation holds with equality.

    The curve s -> span(e cos(a s) + f sin(a s)) is a common geodesic of all
    invariant metrics; the points at s = 0 < t < 1 have angle vectors
    t a, (1 - t) a and a, which add exactly.  Each frame is mixed by a
    random rotation so the principal directions are not the frame columns.
    """
    q = haar_frame(rng, 2 * p, 2 * p, False)
    e, f = q[:, :p], q[:, p:]
    a = np.sort(rng.uniform(0.0, 1.0, p))
    a = a * (top_angle / a[-1])
    t = rng.uniform(0.2, 0.8)
    return [
        (e * np.cos(a * s) + f * np.sin(a * s)) @ haar_frame(rng, p, p, False)
        for s in (0.0, t, 1.0)
    ]


def signed_perm_matrix(perm, signs) -> np.ndarray:
    p = len(perm)
    m = np.zeros((p, p))
    m[np.arange(p), perm] = signs
    return m


def convex_perm_mix(rng, p: int, terms: int, signed: bool) -> np.ndarray:
    """Random convex combination of (signed) permutation matrices."""
    out = np.zeros((p, p))
    for wt in rng.dirichlet(np.ones(terms)):
        signs = rng.choice([-1.0, 1.0], p) if signed else np.ones(p)
        out += wt * signed_perm_matrix(rng.permutation(p), signs)
    return out


# ---------------------------------------------------------------------------
# interactive-p16


NORM_LABELS = ("l1", "l2", "linf", "kyfan2")
GEODESIC_PARAMS = np.linspace(0.0, 1.0, 9)


def interactive(seed: int, p: int = 16, q: int = 16) -> Workload:
    """One user-level call per op at n = p + q = 32, p = 16 (16 x 16 matrices)."""
    from grassgeo import metrics, noncompact, subspaces

    n = p + q
    norms = [metrics.NormSpec.builtin(label) for label in NORM_LABELS]

    def angles(x):
        left = subspaces.Subspace.from_spanning(x[0])
        right = subspaces.Subspace.from_spanning(x[1])
        ang = subspaces.jordan_angles(left, right)
        return ang, [metrics.distance(left, right, nm) for nm in norms]

    def geodesic(x):
        curve = metrics.hcurve_between(subspaces.Subspace(x[0]), subspaces.Subspace(x[1]))
        return curve, [metrics.hcurve_eval(curve, s) for s in GEODESIC_PARAMS]

    def posdef(x):
        return noncompact.posdef_angles(noncompact.PosDefPoint(x[0]), noncompact.PosDefPoint(x[1]))

    def ball(x):
        t, s = noncompact.BallPoint(x[0]), noncompact.BallPoint(x[1])
        return noncompact.ball_angles(t, s), noncompact.ball_distance(t, s, norms[1])

    def kinds(cplx):
        tag = "complex" if cplx else "real"
        return [
            OpKind(f"angles-{tag}", lambda r: [gaussian(r, (n, p), cplx) for _ in range(2)], angles, "angles"),
            OpKind(f"geodesic-{tag}", lambda r: [haar_frame(r, n, p, cplx) for _ in range(2)], geodesic, "geodesic"),
            OpKind(f"posdef-{tag}", lambda r: [posdef_matrix(r, p, cplx) for _ in range(2)], posdef, "posdef"),
        ]

    # the ball is a complex domain, so its op has no real twin: 7 slots
    ball_kind = OpKind("ball", lambda r: [ball_matrix(r, p) for _ in range(2)], ball, "ball")
    real, cplx = kinds(False), kinds(True)
    return Workload("interactive-p16", seed, real + [ball_kind] + cplx)


# ---------------------------------------------------------------------------
# fuzz-mixed


FUZZ_CHUNK = 4


def fuzz(seed: int, chunk: int = FUZZ_CHUNK) -> Workload:
    """One ``run_trials`` call per op, rotating through every space."""
    from grassgeo import harness

    def kind(space):
        def make(rng):
            return harness.TrialConfig(
                space=space, trials=chunk, seed=int(rng.integers(2**31))
            )

        return OpKind(space, make, lambda config: harness.run_trials(config), "fuzz")

    return Workload("fuzz-mixed", seed, [kind(space) for space in harness.SPACES])


# ---------------------------------------------------------------------------
# certify-p5


EQUALITY_DECADES = 7  # top angles from 1e-1 down to 1e-8


def certify(seed: int, p: int = 5, birkhoff_p: int = 16) -> Workload:
    """Triangle certificates at p = q = 5 and the two orbit decompositions."""
    from grassgeo import metrics, subspaces, weyl

    def triangle(frames):
        l, m, n = (subspaces.Subspace(f) for f in frames)
        return metrics.triangle_check(l, m, n, want_certificate=True)

    def equality(rng):
        decade = int(rng.integers(EQUALITY_DECADES))
        return equality_frames(rng, p, 10.0 ** -(1 + decade + rng.uniform(0.0, 1.0)))

    haar = OpKind("triangle-haar", lambda r: [haar_frame(r, 2 * p, p, False) for _ in range(3)], triangle, "triangle")
    eq = OpKind("triangle-equality", equality, triangle, "triangle", boundary=True)
    quasi = OpKind(
        "quasistochastic", lambda r: convex_perm_mix(r, p, 8, True),
        lambda a: weyl.quasistochastic_decompose(a), "decompose",
    )
    birk = OpKind(
        "birkhoff", lambda r: convex_perm_mix(r, birkhoff_p, 3 * birkhoff_p, False),
        lambda a: weyl.birkhoff_decompose(a), "decompose",
    )
    return Workload("certify-p5", seed, [haar, eq, quasi, birk, eq])


# ---------------------------------------------------------------------------
# cli-small


CLI_POOL = 8  # distinct input sets per subcommand, written at set-up
CLI_P, CLI_Q, CLI_N = 3, 4, 4  # subspace dimension, codimension, matrix size


def format_matrix(a: np.ndarray) -> str:
    """The CLI's matrix grammar, written independently of grassgeo.cli."""

    def fmt(x):
        if np.iscomplexobj(a):
            im = float(np.imag(x))
            return f"{float(np.real(x))!r}{'+' if im >= 0 else '-'}{abs(im)!r}i"
        return repr(float(x))

    return "\n".join(" ".join(fmt(x) for x in row) for row in a) + "\n"


@dataclass(frozen=True)
class CliInput:
    argv: list
    arrays: dict  # flag -> the numpy array written to that flag's file
    key: tuple  # (subcommand, pool index): one library reference per key


def cli(seed: int, workdir: str) -> Workload:
    """In-process ``grassgeo.cli.dispatch`` over a rotation of subcommands."""
    from grassgeo import cli as gcli

    p, q, n = CLI_P, CLI_Q, CLI_N
    rng = np.random.default_rng([seed, 2**31])
    span = lambda cplx: gaussian(rng, (p + q, p), cplx)  # noqa: E731
    makers = {
        "angles": ([], lambda c: {"--left": span(c), "--right": span(c)}),
        "distance": ([], lambda c: {"--left": span(c), "--right": span(c)}),
        "geodesic": (["--samples", "9"], lambda c: {"--left": span(c), "--right": span(c)}),
        "triangle": (["--certificate"], lambda c: {"--l": span(c), "--m": span(c), "--n": span(c)}),
        "decompose": ([], lambda c: {"--matrix": convex_perm_mix(rng, n, 2 * n, False)}),
        "fan-ky": ([], lambda c: {"--matrix": gaussian(rng, (p, q), False)}),
        "posdef-angles": ([], lambda c: {"--left": posdef_matrix(rng, n, c), "--right": posdef_matrix(rng, n, c)}),
        "lidskii": ([], lambda c: {"--x": hermitian_matrix(rng, n, c), "--z": hermitian_matrix(rng, n, c)}),
        "ball-angles": (["--norm", "l2"], lambda c: {"--t": ball_matrix(rng, n), "--s": ball_matrix(rng, n)}),
    }
    pools = {}
    for cmd, (extra, make) in makers.items():
        pool = []
        for k in range(CLI_POOL):
            arrays = make(k % 2 == 1)
            argv = [cmd] + extra
            for flag, arr in arrays.items():
                path = os.path.join(workdir, f"{cmd}-{k}-{flag.strip('-')}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(format_matrix(arr))
                argv += [flag, path]
            pool.append(CliInput(argv, arrays, (cmd, k)))
        pools[cmd] = pool

    def kind(cmd):
        # each op picks one of the subcommand's input sets written above
        return OpKind(cmd, lambda r: pools[cmd][int(r.integers(CLI_POOL))], lambda x: run_cli(gcli, x.argv), "cli")

    # 15 slots: the six single-call commands twice, the three checks once
    order = ["angles", "distance", "geodesic", "triangle", "posdef-angles", "ball-angles"]
    cycle = [kind(c) for c in order] + [kind(c) for c in ("decompose", "fan-ky", "lidskii")]
    cycle += [kind(c) for c in order]
    return Workload("cli-small", seed, cycle)


def run_cli(gcli, argv):
    """(exit code, captured stdout) of one in-process dispatch."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gcli.dispatch(list(argv))
    return code, out.getvalue()


# the grassgeo modules each workload imports; set-up times exactly these
IMPORTS = {
    "interactive-p16": ("grassgeo.metrics", "grassgeo.noncompact", "grassgeo.subspaces"),
    "fuzz-mixed": ("grassgeo.harness",),
    "certify-p5": ("grassgeo.metrics", "grassgeo.subspaces", "grassgeo.weyl"),
    "cli-small": ("grassgeo.cli",),
}

BY_NAME = {
    "interactive-p16": lambda seed, workdir: interactive(seed),
    "fuzz-mixed": lambda seed, workdir: fuzz(seed),
    "certify-p5": lambda seed, workdir: certify(seed),
    "cli-small": cli,
}
