"""Dense linear-algebra substrate.

Thin wrappers over LAPACK (through numpy.linalg) for the small-matrix
factorizations every other module uses: thin SVD, Hermitian
eigendecomposition, inverse square root of a positive definite matrix and
QR-based orthonormalization, plus a Cholesky factorization that reports the
failing pivot.  The wrappers validate their input, return spectra sorted
decreasing, and raise the package's typed errors; a LAPACK convergence
failure surfaces as ConvergenceError.  Accuracy for small Jordan angles
comes from the sine route in `subspaces`, not from the solver.

All functions accept real or complex ndarrays and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    RankDeficiencyError,
)

RANK_THRESHOLD = 1e-10
HERMITIAN_TOL = 1e-10
PIVOT_TOL = 1e-14


def _check_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _check_hermitian(a: np.ndarray) -> np.ndarray:
    a = _check_finite(a)
    n, nc = a.shape
    if n != nc:
        raise DimensionMismatchError(f"expected square matrix, got {n}x{nc}")
    if np.linalg.norm(a - a.conj().T) > HERMITIAN_TOL * max(np.linalg.norm(a), 1.0):
        raise DimensionMismatchError("matrix is not Hermitian within tolerance")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: A = left @ diag(singular_values) @ right.conj().T."""

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.conj().T


def svd(a: np.ndarray) -> SvdResult:
    """Thin singular value decomposition.

    Singular values are returned sorted decreasing; both frames have
    orthonormal columns.  Raises ConvergenceError if LAPACK does not
    converge.
    """
    a = _check_finite(a)
    m, n = a.shape
    if m < n:
        res = svd(a.conj().T)
        return SvdResult(res.right, res.singular_values, res.left)
    try:
        u, sigma, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge for a {m}x{n} matrix") from exc
    return SvdResult(u, sigma, vh.conj().T)


def eig_hermitian(a: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues sorted decreasing, unitary eigenframe) with
    a @ frame = frame @ diag(eigenvalues).  Raises DimensionMismatchError
    for non-square or materially non-Hermitian input.
    """
    a = _check_hermitian(a)
    n = a.shape[0]
    try:
        lam, frame = np.linalg.eigh((a + a.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver did not converge for a {n}x{n} matrix") from exc
    return lam[::-1], frame[:, ::-1]


def cholesky(a: np.ndarray):
    """Upper-triangular R with A = R* R for Hermitian positive definite A.

    Raises NotPositiveDefiniteError (with the pivot index) when a pivot
    drops to PIVOT_TOL times the largest diagonal entry (at least 1) or
    below.
    """
    a = _check_hermitian(a)
    n = a.shape[0]
    scale = max(np.max(np.abs(np.diag(a)).astype(float)), 1.0)
    r = np.zeros_like(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    for j in range(n):
        pivot = np.real(a[j, j]) - np.real(np.vdot(r[:j, j], r[:j, j]))
        if pivot <= PIVOT_TOL * scale:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite (pivot {j} = {pivot:.3e})", pivot=j
            )
        r[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            r[j, j + 1:] = (a[j, j + 1:] - r[:j, j].conj() @ r[:j, j + 1:]) / r[j, j]
    return r


def inv_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Hermitian inverse square root: result @ a @ result = identity."""
    lam, frame = eig_hermitian(a)
    if lam[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (smallest eigenvalue {lam[-1]:.3e})"
        )
    b = (frame / np.sqrt(lam)) @ frame.conj().T
    return (b + b.conj().T) / 2.0


def qr_orthonormalize(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of a full-column-rank matrix.

    Raises RankDeficiencyError when the smallest singular value falls below
    RANK_THRESHOLD times the largest.
    """
    a = _check_finite(a)
    m, n = a.shape
    if m < n:
        raise DimensionMismatchError(f"need at least as many rows as columns, got {m}x{n}")
    q, r = np.linalg.qr(a)
    sigma = svd(r).singular_values
    if sigma[0] == 0.0 or sigma[-1] <= RANK_THRESHOLD * sigma[0]:
        rank = int(np.sum(sigma > RANK_THRESHOLD * max(sigma[0], 1.0)))
        raise RankDeficiencyError(
            f"matrix is numerically rank deficient (rank {rank} < {n})", detected_rank=rank
        )
    return q
