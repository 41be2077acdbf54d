"""Noncompact companions of the Grassmannian angle machinery.

Three families at finite dimension: hyperbolic angles between positive
definite matrices (log generalized eigenvalues, read from the Cholesky
factors) with their permutation-orbit triangle inclusion, the classical
eigenvalue-shift membership for Hermitian matrices, and the symmetric
operator ball, whose angles are the arsinh of a difference form in T - S.

Type-A spaces use the plain symmetric group (angles are signed, so no
absolute values enter the majorization).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel, metrics, weyl
from .errors import DimensionMismatchError

BALL_NORM_MARGIN = 1e-9


@dataclass(frozen=True)
class PosDefPoint:
    """A Hermitian positive definite matrix, with the Cholesky factor that checks it."""

    matrix: np.ndarray
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.matrix)
        object.__setattr__(self, "factor", kernel.cholesky(a))
        object.__setattr__(self, "matrix", a)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BallPoint:
    """A complex symmetric matrix T = T^t (exactly) of norm < 1, with defect (1 - T T*)^(-1/2)."""

    matrix: np.ndarray
    defect: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t = np.asarray(self.matrix, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {t.shape}")
        if np.linalg.norm(t - t.T) > kernel.HERMITIAN_TOL * np.linalg.norm(t):
            raise ValueError("matrix is not symmetric (T = T^t) within tolerance")
        t = (t + t.T) / 2.0
        # T = U S V*, so T T* = U S^2 U*; 1 - s^2 is read from s, not from rounded T T*
        u, s, _ = kernel.svd(t)
        if s[0] > 1.0 - BALL_NORM_MARGIN:
            raise ValueError(f"operator norm {s[0]:.12f} is not strictly below 1")
        object.__setattr__(self, "matrix", t)
        object.__setattr__(self, "defect", (u / np.sqrt((1.0 - s) * (1.0 + s))) @ u.conj().T)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _check_same_size(a, b):
    if a.size != b.size:
        raise DimensionMismatchError(f"sizes differ: {a.size} vs {b.size}")


def posdef_angles(left: PosDefPoint, right: PosDefPoint) -> np.ndarray:
    """Hyperbolic angles between two positive definite matrices.

    The signed values psi with det(left - exp(psi) * right) = 0, i.e. the
    logs of the generalized eigenvalues, sorted decreasing.  Their sum is
    log det(left) - log det(right).  They are 2 log of the singular values
    of Rr^-* Rl* (left = Rl* Rl, right = Rr* Rr): read from the factors, not
    from a whitened square, they stay accurate at large condition numbers.
    """
    _check_same_size(left, right)
    x = kernel.solve_upper_adjoint(right.factor, left.factor.conj().T)
    return 2.0 * np.log(kernel.singular_values(x))


def posdef_triangle_check(
    left: PosDefPoint, mid: PosDefPoint, right: PosDefPoint
) -> metrics.TriangleReport:
    """Permutation-orbit triangle inclusion on the positive definite cone.

    The angle vector of (left, right) minus that of (left, mid) must lie
    in the convex hull of the permutations of the (mid, right) angles; the
    total sums match exactly by additivity of log-determinants.
    """
    phi = posdef_angles(left, mid)
    psi = posdef_angles(mid, right)
    theta = posdef_angles(left, right)
    return metrics._triangle_report(phi, psi, theta, "permutation")


def lidskii_check(
    x: np.ndarray, z: np.ndarray, boundary_tol: float = weyl.BOUNDARY_TOL
) -> weyl.MembershipResult:
    """Eigenvalue-shift membership for Hermitian matrices.

    The sorted spectrum of x + z minus the sorted spectrum of x lies in
    the permutation-orbit hull of the spectrum of z, up to `boundary_tol`.
    """
    x = np.asarray(x)
    z = np.asarray(z)
    if x.shape != z.shape:
        raise DimensionMismatchError(f"shapes differ: {x.shape} vs {z.shape}")
    lam_x, _ = kernel.eig_hermitian(x)
    lam_xz, _ = kernel.eig_hermitian(x + z)
    lam_z, _ = kernel.eig_hermitian(z)
    return weyl.orbit_membership(lam_xz - lam_x, lam_z, "permutation", boundary_tol=boundary_tol)


def cross_ratio_matrix(t: BallPoint, s: BallPoint) -> np.ndarray:
    """(1 - T T*)^(-1/2) (1 - T S*) (1 - S S*)^(-1/2)."""
    _check_same_size(t, s)
    return t.defect @ (np.eye(t.size) - t.matrix @ np.conj(s.matrix)) @ s.defect


def ball_angles(t: BallPoint, s: BallPoint) -> np.ndarray:
    """Hyperbolic angles on the symmetric operator ball, sorted increasing.

    They are the arcosh of the singular values of the cross-ratio matrix C.
    By Hua's identity C C* = 1 + D D* with
    D = (1 - T T*)^(-1/2) (T - S) (1 - S* S)^(-1/2), so they are the arsinh
    of the singular values of D, accurate for nearby points and 0 at T = S.
    As S = S^t, the right factor is the conjugate of S's (1 - S S*)^(-1/2).
    """
    _check_same_size(t, s)
    sigma = kernel.singular_values(t.defect @ (t.matrix - s.matrix) @ np.conj(s.defect))
    return np.arcsinh(sigma)[::-1].copy()


def ball_distance(t: BallPoint, s: BallPoint, norm: metrics.NormSpec) -> float:
    """Invariant distance on the ball: the norm of the hyperbolic angles."""
    return norm(ball_angles(t, s))
