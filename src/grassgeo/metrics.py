"""Invariant metrics and geodesics on the Grassmannian.

Any norm on R^p invariant under signed permutations of coordinates turns
the Jordan-angle vector into a distance between subspaces.  The geodesics
of every such metric are the curves that rotate a fixed orthonormal
2p-frame plane-by-plane at constant rates ("H-curves"); along them angles
add exactly between sufficiently near points.  The triangle certification
checks that the angle vector of (L, N) lies in the orbit polytope of the
(M, N) angles shifted by the (L, M) angles: one weak-majorization test at
any p, with no search over the group (see `TriangleReport`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel, subspaces, weyl
from .errors import DimensionMismatchError, NoUniqueGeodesicError
from .subspaces import Subspace, jordan_angles

TOP_ANGLE_MARGIN = 1e-9


@dataclass(frozen=True)
class NormSpec:
    """A signed-permutation-invariant norm on R^p.

    kind is one of "l1", "l2", "linf", "kyfan" (with parameter k: sum of
    the k largest absolute entries), or "custom" with a user-supplied
    callable, whose invariance is spot-checked at construction.
    """

    kind: str
    k: int | None = None
    func: object = None
    name: str | None = None

    _KINDS = ("l1", "l2", "linf", "kyfan", "custom")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "kyfan":
            if not isinstance(self.k, int) or self.k < 1:
                raise ValueError("kyfan norm needs an integer parameter k >= 1")
        if self.kind == "custom":
            if not callable(self.func):
                raise ValueError("custom norm needs a callable")
            self._spot_check()

    def _spot_check(self):
        rng = np.random.default_rng(12345)
        for _ in range(25):
            p = int(rng.integers(1, 6))
            x = rng.standard_normal(p)
            v = self.func(x)
            if not np.isfinite(v) or v < 0:
                raise ValueError("custom norm returned a non-finite or negative value")
            perm = rng.permutation(p)
            signs = rng.choice([-1.0, 1.0], p)
            if abs(self.func(signs * x[perm]) - v) > 1e-9 * max(1.0, abs(v)):
                raise ValueError("custom norm is not invariant under signed permutations")
            c = float(rng.uniform(0.1, 3.0))
            if abs(self.func(c * x) - c * v) > 1e-8 * max(1.0, abs(v)):
                raise ValueError("custom norm is not absolutely homogeneous")

    def __call__(self, x) -> float:
        x = np.abs(np.asarray(x, dtype=float))
        if self.kind == "l1":
            return float(np.sum(x))
        if self.kind == "l2":
            return float(np.sqrt(np.sum(x * x)))
        if self.kind == "linf":
            return float(np.max(x)) if x.size else 0.0
        if self.kind == "kyfan":
            k = min(self.k, x.size)
            return float(np.sum(np.sort(x)[::-1][:k]))
        return float(self.func(np.asarray(x, dtype=float)))

    def label(self) -> str:
        if self.name:
            return self.name
        if self.kind == "kyfan":
            return f"kyfan{self.k}"
        return self.kind

    @classmethod
    def l1(cls):
        return cls("l1")

    @classmethod
    def l2(cls):
        return cls("l2")

    @classmethod
    def linf(cls):
        return cls("linf")

    @classmethod
    def kyfan(cls, k: int):
        return cls("kyfan", k=k)

    @classmethod
    def custom(cls, func, name: str = "custom"):
        return cls("custom", func=func, name=name)

    @classmethod
    def builtin(cls, label: str) -> "NormSpec":
        """Parse labels like "l1", "l2", "linf", "kyfan2"."""
        if label in ("l1", "l2", "linf"):
            return cls(label)
        if label.startswith("kyfan"):
            return cls.kyfan(int(label[len("kyfan"):]))
        raise ValueError(f"unknown norm label {label!r}")


BUILTIN_NORMS = ("l1", "l2", "linf", "kyfan2")


def distance(left: Subspace, right: Subspace, norm: NormSpec) -> float:
    """Invariant distance: the norm evaluated on the Jordan angles."""
    if not isinstance(norm, NormSpec):
        raise ValueError("norm must be a NormSpec")
    return norm(jordan_angles(left, right))


def riemannian_distance(left: Subspace, right: Subspace) -> float:
    """Geodesic distance of the invariant Riemannian metric (l2 of angles)."""
    return distance(left, right, NormSpec.l2())


@dataclass(frozen=True)
class HCurve:
    """Curve s -> span of cos(a_j s) e_j + sin(a_j s) f_j.

    The 2p columns of (e_frame, f_frame) are jointly orthonormal and the
    rates `a` are sorted increasing and nonnegative.
    """

    e_frame: np.ndarray
    f_frame: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.e_frame)
        f = np.asarray(self.f_frame)
        a = np.asarray(self.a, dtype=float)
        if e.shape != f.shape or e.ndim != 2:
            raise DimensionMismatchError("e and f frames must share a shape")
        p = e.shape[1]
        if a.shape != (p,):
            raise DimensionMismatchError("one rate per frame column required")
        combined = np.hstack([e, f])
        if np.linalg.norm(combined.conj().T @ combined - np.eye(2 * p)) > 1e-8:
            raise ValueError("combined 2p columns are not orthonormal")
        if np.any(a < -1e-12) or np.any(np.diff(a) < -1e-12):
            raise ValueError("rates must be nonnegative and sorted increasing")
        object.__setattr__(self, "a", a)


def hcurve_eval(curve: HCurve, s: float) -> Subspace:
    """Subspace at parameter s on the curve."""
    cols = curve.e_frame * np.cos(curve.a * s) + curve.f_frame * np.sin(curve.a * s)
    return Subspace(kernel.qr_orthonormalize(cols))


def hcurve_between(left: Subspace, right: Subspace) -> HCurve:
    """The unique joining H-curve with left, right sufficiently near.

    Requires the top Jordan angle to be strictly below pi/2.  The rates of
    the returned curve are the Jordan angles, so evaluation at 0 gives
    `left` and at 1 gives `right`.
    """
    pair = subspaces.principal_vectors(left, right)
    if pair.angles[-1] >= np.pi / 2 - TOP_ANGLE_MARGIN:
        raise NoUniqueGeodesicError(
            f"top angle {pair.angles[-1]:.6f} too close to pi/2 for a unique joining curve"
        )
    return HCurve(e_frame=pair.e_basis, f_frame=pair.g_basis, a=pair.angles)


def finsler_length(path, norm: NormSpec) -> float:
    """Chordal length of a polygonal path of subspaces under a norm.

    Sum of the norm of the Jordan-angle vector over consecutive pairs;
    refining the partition of a smooth path converges to its length, and
    is exact on H-curves at any partition.
    """
    path = list(path)
    if not path:
        raise ValueError("empty path")
    total = 0.0
    for a, b in zip(path[:-1], path[1:]):
        total += norm(jordan_angles(a, b))
    return total


@dataclass(frozen=True)
class TriangleReport:
    """Verdict of the orbit-polytope triangle certification.

    phi, psi, theta are the angle vectors of (L, M), (M, N), (L, N).
    `inside` holds when theta - phi lies in the orbit polytope of psi, up
    to the boundary tolerance; `best_slack` is its membership margin.
    `witness` is always the identity: theta and phi are sorted and
    nonnegative, so sign flips only enlarge |w(theta) - phi| and
    x_sorted - y_sorted is majorized by x - y (Marshall, Olkin & Arnold,
    Inequalities, ch. 6), making the identity best over the whole group.
    """

    phi: np.ndarray
    psi: np.ndarray
    theta: np.ndarray
    inside: bool
    best_slack: float
    witness: weyl.SignedPermutation | None = None
    certificate: list | None = None


def _triangle_report(phi, psi, theta, group, want_certificate=False,
                     boundary_tol=weyl.BOUNDARY_TOL) -> TriangleReport:
    """Report on theta - phi in the `group` orbit hull of psi."""
    member = weyl.orbit_membership(theta - phi, psi, group, want_certificate, boundary_tol)
    witness = weyl.SignedPermutation.identity(len(theta))
    return TriangleReport(phi, psi, theta, member.inside, member.slack, witness, member.certificate)


def triangle_check(
    l: Subspace,
    m: Subspace,
    n: Subspace,
    want_certificate: bool = False,
    boundary_tol: float = weyl.BOUNDARY_TOL,
) -> TriangleReport:
    """Certify the triangle relation for the angles of three subspaces.

    Verdicts work at any p; certificates enumerate the group (p <= 5).
    """
    phi = jordan_angles(l, m)
    psi = jordan_angles(m, n)
    theta = jordan_angles(l, n)
    return _triangle_report(phi, psi, theta, "signed", want_certificate, boundary_tol)
