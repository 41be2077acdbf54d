"""Dense linear-algebra substrate for small real or complex matrices; all pure.

numpy gives the thin SVD or singular values alone, Hermitian eigensystem,
inverse square root of a positive definite matrix and QR orthonormalization.
scipy gives a Cholesky (potrf) that reports the failing pivot, the triangular
solve (trtrs) of posdef angles and the CS decomposition (orcsd/uncsd) of a
unitary matrix, accurate to about 1e-14 absolute, not relative.  These come
through get_lapack_funcs, which imports scipy.linalg on first use: a cold
`import grassgeo.cli` takes 0.09 s and 31 MB (BENCH_28.json).  Each forms
only what its callers read, validates its input, returns spectra sorted
decreasing (CS angles increasing) and raises the package's typed errors.
"""

from __future__ import annotations

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


def get_lapack_funcs(names, arrays):
    """scipy.linalg.get_lapack_funcs, imported on first use to keep scipy off the import path."""
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs(names, arrays)


def _check_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _check_hermitian(a: np.ndarray) -> np.ndarray:
    a = _check_finite(a)
    n, nc = a.shape
    if n != nc:
        raise DimensionMismatchError(f"expected square matrix, got {n}x{nc}")
    if np.linalg.norm(a - a.conj().T) > HERMITIAN_TOL * np.linalg.norm(a):
        raise DimensionMismatchError("matrix is not Hermitian within tolerance")
    return a


def svd(a: np.ndarray):
    """Thin SVD (u, sigma, v): a = u diag(sigma) v*, sigma sorted decreasing.

    u and v have orthonormal columns.  Raises ConvergenceError if LAPACK
    does not converge.
    """
    a = _check_finite(a)
    try:
        u, sigma, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge for shape {a.shape}") from exc
    return u, sigma, vh.conj().T


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of `a`, sorted decreasing, without the frames."""
    a = _check_finite(a)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge for shape {a.shape}") from exc


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

    Reads the upper triangle.  Raises NotPositiveDefiniteError (with the
    pivot index) when a pivot r_jj^2 drops to PIVOT_TOL times the largest
    diagonal entry of A or below, a test invariant under scaling.
    """
    a = _check_hermitian(a)
    a = a.astype(np.result_type(a, np.float64), copy=False)
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    r, info = potrf(a, lower=False, clean=True)
    # LAPACK stops at pivot info - 1, the first that is not positive
    pivots = np.diagonal(r)[:info - 1 if info else None].real ** 2
    small = np.flatnonzero(pivots <= PIVOT_TOL * np.max(np.abs(np.diagonal(a))))
    j = int(small[0]) if small.size else info - 1
    if j >= 0:
        raise NotPositiveDefiniteError(f"matrix is not positive definite (pivot {j})", pivot=j)
    return r


def cs_decomposition(a: np.ndarray, p: int):
    """CS decomposition (orcsd/uncsd) of a unitary n x n matrix split at p.

    Returns (theta, u1, u2), theta increasing in [0, pi/2], with
    a[:p, :p] = u1 diag(cos theta) v1* and a[p:, :p] = u2[:, -p:]
    diag(sin theta) v1* for one unitary v1, not formed.  Needs 1 <= p <= n/2.
    """
    a = _check_finite(a)
    n, nc = a.shape
    if n != nc:
        raise DimensionMismatchError(f"expected square matrix, got {n}x{nc}")
    if not 1 <= p <= n - p:
        raise DimensionMismatchError(f"need 1 <= p <= n/2, got p = {p} for n = {n}")
    a = a.astype(np.result_type(a, np.float64), copy=False)
    name = "uncsd" if np.iscomplexobj(a) else "orcsd"
    csd, query = get_lapack_funcs((name, name + "_lwork"), (a,))
    # scipy's default lwork is too small: ask LAPACK (lwork, lrwork if complex)
    sizes = dict(zip(("lwork", "lrwork"), (int(w.real) for w in query(n, p, p)[:-1])))
    *_, theta, u1, u2, _, _, info = csd(
        a[:p, :p], a[:p, p:], a[p:, :p], a[p:, p:], compute_v1t=0, compute_v2t=0, **sizes
    )
    if info < 0:
        raise ValueError(f"{csd.typecode}{name} rejected its argument {-info}")
    if info > 0:
        raise ConvergenceError(f"CS decomposition did not converge for a {n}x{n} matrix")
    # LAPACK documents no order for theta: sort u1 and u2's sine block with it
    order = np.argsort(theta, kind="stable")
    u2[:, -p:] = u2[:, -p:][:, order]
    return theta[order], u1[:, order], u2


def solve_upper_adjoint(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve R* X = B for upper-triangular R: LAPACK trtrs, as solve_triangular(trans="C")."""
    x, info = get_lapack_funcs(("trtrs",), (r, b))[0](r, b, trans=2)
    if info:
        raise ValueError(f"trtrs failed with info {info}")
    return x


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
    sigma = singular_values(r)
    if sigma[0] == 0.0 or sigma[-1] <= RANK_THRESHOLD * sigma[0]:
        rank = int(np.sum(sigma > RANK_THRESHOLD * sigma[0]))
        raise RankDeficiencyError(
            f"matrix is numerically rank deficient (rank {rank} < {n})", detected_rank=rank
        )
    return q
