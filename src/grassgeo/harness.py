"""Seeded random generators and the fuzz/certification trial runner.

Each trial draws its own RNG substream from (seed, trial index), so runs
are deterministic regardless of evaluation order, and every failing
instance can be replayed bit-for-bit from the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import kernel, metrics, noncompact, subspaces
from .errors import DimensionMismatchError
from .metrics import NormSpec
from .noncompact import BallPoint, PosDefPoint
from .subspaces import Subspace

SPACES = ("grassmann-real", "grassmann-complex", "posdef", "hermitian-lidskii", "ball")


# ---------------------------------------------------------------------------
# random generators


def _gaussian(rng, shape, field: str) -> np.ndarray:
    g = rng.standard_normal(shape)
    if field == "complex":
        g = g + 1j * rng.standard_normal(shape)
    elif field != "real":
        raise ValueError(f"unknown scalar field {field!r}")
    return g


def random_subspace(p: int, q: int, field: str = "real", rng=None) -> Subspace:
    """Haar-distributed p-dimensional subspace of R^(p+q) or C^(p+q)."""
    if not 1 <= p <= q:
        raise DimensionMismatchError(f"need 1 <= p <= q, got p={p}, q={q}")
    rng = np.random.default_rng(rng)
    return Subspace(kernel.qr_orthonormalize(_gaussian(rng, (p + q, p), field)))


def random_rotation(n: int, field: str = "real", rng=None) -> np.ndarray:
    """Haar-distributed orthogonal/unitary matrix (QR with phase fix)."""
    rng = np.random.default_rng(rng)
    q, r = np.linalg.qr(_gaussian(rng, (n, n), field))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_tangent(base: Subspace, rng=None, scale: float = 1.0) -> subspaces.TangentVector:
    rng = np.random.default_rng(rng)
    n, p = base.frame.shape
    field = "complex" if base.is_complex else "real"
    comp = subspaces.complement_frame(base)
    return subspaces.TangentVector(base, comp, scale * _gaussian(rng, (n - p, p), field))


def random_posdef(n: int, field: str = "complex", rng=None) -> PosDefPoint:
    """Well-conditioned positive definite matrix: G G* + 0.1 I."""
    rng = np.random.default_rng(rng)
    g = _gaussian(rng, (n, n), field)
    return PosDefPoint(g @ g.conj().T + 0.1 * np.eye(n))


def random_hermitian(n: int, field: str = "complex", rng=None) -> np.ndarray:
    rng = np.random.default_rng(rng)
    g = _gaussian(rng, (n, n), field)
    return (g + g.conj().T) / 2.0


def random_ball_point(n: int, rng=None) -> BallPoint:
    """Symmetrized complex Gaussian rescaled to operator norm in [0, 0.95]."""
    rng = np.random.default_rng(rng)
    g = _gaussian(rng, (n, n), "complex")
    t = (g + g.T) / 2.0
    top = kernel.singular_values(t)[0]
    target = rng.uniform(0.0, 0.95)
    if top > 0:
        t = t * (target / top)
    return BallPoint(t)


# ---------------------------------------------------------------------------
# trial runner


@dataclass(frozen=True)
class TrialConfig:
    """What to fuzz: which space, sizes, trial count, seed, tolerance, norms.

    `tolerance` judges only symmetry, metric triangles and the posdef sum identity."""

    space: str
    p: int = 3
    q: int = 4
    n: int = 4
    trials: int = 100
    seed: int = 0
    tolerance: float = 1e-8
    norms: tuple = metrics.BUILTIN_NORMS

    def __post_init__(self):
        if self.space not in SPACES:
            raise ValueError(f"unknown space {self.space!r}; choose from {SPACES}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.space.startswith("grassmann"):
            if not 1 <= self.p <= self.q:
                raise DimensionMismatchError(f"need 1 <= p <= q, got p={self.p}, q={self.q}")
        elif self.n < 1:
            raise DimensionMismatchError(f"need n >= 1, got n={self.n}")

    def norm_specs(self):
        return [NormSpec.builtin(label) for label in self.norms]

    def to_dict(self) -> dict:
        return {
            "space": self.space,
            "p": self.p,
            "q": self.q,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "norms": list(self.norms),
        }


@dataclass
class CheckStats:
    """Aggregate outcome of one named check across all trials, as judged by the caller."""

    passed: int = 0
    failed: int = 0
    worst_slack: float = float("inf")
    failures: list = field(default_factory=list)

    def record(self, slack: float, passed: bool, dump: dict | None = None):
        self.worst_slack = min(self.worst_slack, slack)
        if passed:
            self.passed += 1
        else:
            self.failed += 1
            if dump is not None and len(self.failures) < 10:
                self.failures.append(dump)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failed": self.failed,
            "worst_slack": self.worst_slack,
            "failures": self.failures,
        }


@dataclass
class FuzzReport:
    """Machine-readable outcome of a fuzz run.

    `wall_time` is kept out of `to_dict` so that reports with the same
    config and seed are byte-identical when serialized.
    """

    config: TrialConfig
    checks: dict
    wall_time: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c.failed == 0 for c in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "all_passed": self.all_passed,
            "checks": {name: c.to_dict() for name, c in sorted(self.checks.items())},
        }


def _dump_matrix(m: np.ndarray):
    if np.iscomplexobj(m):
        return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}
    return np.asarray(m).tolist()


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent substream for one trial; order-insensitive determinism."""
    return np.random.default_rng([seed, trial])


def run_trials(config: TrialConfig) -> FuzzReport:
    """Run the configured property checks; deterministic given the seed."""
    t0 = time.perf_counter()
    checks: dict[str, CheckStats] = {}

    def stat(name: str) -> CheckStats:
        return checks.setdefault(name, CheckStats())

    tol = config.tolerance
    norms = config.norm_specs()

    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial)
        if config.space in ("grassmann-real", "grassmann-complex"):
            field_name = "real" if config.space.endswith("real") else "complex"
            l = random_subspace(config.p, config.q, field_name, rng)
            m = random_subspace(config.p, config.q, field_name, rng)
            n = random_subspace(config.p, config.q, field_name, rng)
            dump = {
                "trial": trial,
                "frames": [_dump_matrix(s.frame) for s in (l, m, n)],
            }
            rep = metrics.triangle_check(l, m, n)
            stat("triangle-membership").record(rep.best_slack, rep.inside, dump)
            sym = -float(np.max(np.abs(rep.phi - subspaces.jordan_angles(m, l))))
            stat("angle-symmetry").record(sym, sym >= -tol, dump)
            for norm in norms:
                margin = norm(rep.phi) + norm(rep.psi) - norm(rep.theta)
                stat(f"metric-triangle-{norm.label()}").record(margin, margin >= -tol, dump)
        elif config.space == "posdef":
            l = random_posdef(config.n, "complex", rng)
            m = random_posdef(config.n, "complex", rng)
            n = random_posdef(config.n, "complex", rng)
            dump = {
                "trial": trial,
                "matrices": [_dump_matrix(x.matrix) for x in (l, m, n)],
            }
            rep = noncompact.posdef_triangle_check(l, m, n)
            stat("posdef-triangle").record(rep.best_slack, rep.inside, dump)
            sum_gap = abs(float(np.sum(rep.theta) - np.sum(rep.phi) - np.sum(rep.psi)))
            stat("posdef-sum-identity").record(-sum_gap, sum_gap <= tol, dump)
        elif config.space == "hermitian-lidskii":
            x = random_hermitian(config.n, "complex", rng)
            z = random_hermitian(config.n, "complex", rng)
            dump = {"trial": trial, "matrices": [_dump_matrix(x), _dump_matrix(z)]}
            res = noncompact.lidskii_check(x, z)
            stat("lidskii-membership").record(res.slack, res.inside, dump)
        elif config.space == "ball":
            t = random_ball_point(config.n, rng)
            s = random_ball_point(config.n, rng)
            u = random_ball_point(config.n, rng)
            dump = {
                "trial": trial,
                "matrices": [_dump_matrix(x.matrix) for x in (t, s, u)],
            }
            sigma = kernel.singular_values(noncompact.cross_ratio_matrix(t, s))
            stat("ball-sigma-above-one").record(float(sigma[-1] - 1.0), sigma[-1] - 1.0 >= -1e-9, dump)
            ts, su, tu = (noncompact.ball_angles(a, b) for a, b in ((t, s), (s, u), (t, u)))
            sym = -float(np.max(np.abs(ts - noncompact.ball_angles(s, t))))
            stat("ball-angle-symmetry").record(sym, sym >= -tol, dump)
            for norm in norms:
                margin = norm(ts) + norm(su) - norm(tu)
                stat(f"ball-metric-triangle-{norm.label()}").record(margin, margin >= -tol, dump)

    return FuzzReport(config=config, checks=checks, wall_time=time.perf_counter() - t0)
