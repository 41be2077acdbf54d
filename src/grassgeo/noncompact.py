"""Noncompact companions of the Grassmannian angle machinery.

Three families at finite dimension: hyperbolic angles between positive
definite matrices (log generalized eigenvalues) with their permutation-
orbit triangle inclusion, the classical eigenvalue-shift membership for
Hermitian matrices, and the symmetric operator ball with hyperbolic angles
arcosh of the singular values of the cross-ratio matrix.

Type-A spaces use the plain symmetric group (angles are signed, so no
absolute values enter the majorization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel, metrics, weyl
from .errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    NumericalConsistencyError,
)

BALL_NORM_MARGIN = 1e-9
ARCOSH_ERROR = 1e-6
# arcosh(1 + eps) ~ sqrt(2 eps): roundoff of order 1e-14 in a singular value
# near 1 would read as a spurious angle of order 1e-7, so values this close
# to 1 are treated as exactly 1
ARCOSH_DEAD_BAND = 1e-13


@dataclass(frozen=True)
class PosDefPoint:
    """A Hermitian positive definite matrix, a point of the log-metric cone."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {a.shape}")
        if np.linalg.norm(a - a.conj().T) > kernel.HERMITIAN_TOL * max(np.linalg.norm(a), 1.0):
            raise ValueError("matrix is not Hermitian within tolerance")
        lam, _ = kernel.eig_hermitian(a)
        if lam[-1] <= 0:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite (smallest eigenvalue {lam[-1]:.3e})"
            )
        object.__setattr__(self, "matrix", a)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BallPoint:
    """A complex symmetric matrix of operator norm < 1."""

    matrix: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.matrix, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {t.shape}")
        if np.linalg.norm(t - t.T) > kernel.HERMITIAN_TOL * max(np.linalg.norm(t), 1.0):
            raise ValueError("matrix is not symmetric (T = T^t) within tolerance")
        top = kernel.svd(t).singular_values[0]
        if top > 1.0 - BALL_NORM_MARGIN:
            raise ValueError(f"operator norm {top:.12f} is not strictly below 1")
        object.__setattr__(self, "matrix", t)

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
    log det(left) - log det(right).
    """
    _check_same_size(left, right)
    r = kernel.cholesky(right.matrix)
    x = np.linalg.solve(r.conj().T, left.matrix)
    x = np.linalg.solve(r.conj().T, x.conj().T).conj().T
    x = (x + x.conj().T) / 2.0
    lam, _ = kernel.eig_hermitian(x)
    if lam[-1] <= 0:
        raise NotPositiveDefiniteError("whitened matrix lost positivity")
    return np.log(lam)


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


def lidskii_check(x: np.ndarray, z: np.ndarray) -> weyl.MembershipResult:
    """Eigenvalue-shift membership for Hermitian matrices.

    The sorted spectrum of x + z minus the sorted spectrum of x lies in
    the permutation-orbit hull of the spectrum of z.
    """
    x = np.asarray(x)
    z = np.asarray(z)
    if x.shape != z.shape:
        raise DimensionMismatchError(f"shapes differ: {x.shape} vs {z.shape}")
    lam_x, _ = kernel.eig_hermitian(x)
    lam_xz, _ = kernel.eig_hermitian(x + z)
    lam_z, _ = kernel.eig_hermitian(z)
    return weyl.orbit_membership(lam_xz - lam_x, lam_z, group="permutation")


def cross_ratio_matrix(t: BallPoint, s: BallPoint) -> np.ndarray:
    """(1 - T T*)^(-1/2) (1 - T S) (1 - S S*)^(-1/2)."""
    _check_same_size(t, s)
    n = t.size
    eye = np.eye(n)
    tm, sm = t.matrix, s.matrix
    left = kernel.inv_sqrt_psd(eye - tm @ tm.conj().T)
    right = kernel.inv_sqrt_psd(eye - sm @ sm.conj().T)
    return left @ (eye - tm @ np.conj(sm)) @ right


def ball_angles(t: BallPoint, s: BallPoint) -> np.ndarray:
    """Hyperbolic angles on the symmetric operator ball, sorted increasing.

    arcosh of the singular values of the cross-ratio matrix; the theory
    guarantees those are >= 1, so values within a tiny band below 1 are
    clamped and larger deficits raise NumericalConsistencyError.
    """
    sigma = kernel.svd(cross_ratio_matrix(t, s)).singular_values
    if sigma[-1] < 1.0 - ARCOSH_ERROR:
        raise NumericalConsistencyError(
            f"singular value {sigma[-1]:.12f} below 1 beyond roundoff; "
            "an upstream invariant is broken"
        )
    sigma = np.where(sigma < 1.0 + ARCOSH_DEAD_BAND, 1.0, sigma)
    return np.arccosh(sigma)[::-1].copy()


def ball_distance(t: BallPoint, s: BallPoint, norm: metrics.NormSpec) -> float:
    """Invariant distance on the ball: the norm of the hyperbolic angles."""
    return norm(ball_angles(t, s))
