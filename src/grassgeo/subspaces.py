"""Subspaces of R^n or C^n and their Jordan angles.

A p-dimensional subspace is stored as an orthonormal frame (an n x p matrix
with orthonormal columns).  Angles between two p-dimensional subspaces are
the arccosines of the singular values of the cross-Gram matrix of any two
orthonormal frames; this module computes them by three routes (cross-Gram
SVD, generalized Gram eigenproblem for nonorthogonal bases, projector
compression), exposes principal vector pairs, tangent vectors with their
singular-value invariants, and the first-order variation of angles along a
curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import (
    DegenerateConfigurationError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
)

FRAME_TOL = 1e-10
GENERICITY_MARGIN = 1e-6


@dataclass(frozen=True)
class Subspace:
    """A p-dimensional subspace given by an orthonormal n x p frame.

    The convention p <= n - p (subspace dimension at most the codimension)
    is enforced so that angle vectors always have p entries in [0, pi/2].
    """

    frame: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frame)
        if f.ndim != 2:
            raise DimensionMismatchError("frame must be a 2-d array")
        n, p = f.shape
        if not (1 <= p <= n - p):
            raise DimensionMismatchError(
                f"need 1 <= dim <= codim, got dim {p} in ambient dimension {n}"
            )
        if not np.all(np.isfinite(f)):
            raise ValueError("frame contains non-finite entries")
        gram = f.conj().T @ f
        if np.linalg.norm(gram - np.eye(p)) > FRAME_TOL:
            raise ValueError("frame columns are not orthonormal")
        object.__setattr__(self, "frame", f)

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.frame)

    @classmethod
    def from_spanning(cls, columns: np.ndarray) -> "Subspace":
        """Subspace spanned by the (full-column-rank) given columns."""
        return cls(kernel.qr_orthonormalize(np.asarray(columns)))

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T


@dataclass(frozen=True)
class PrincipalPair:
    """Orthonormal bases of two subspaces diagonalizing their cross-Gram.

    Column j of `e_basis` pairs with column j of `f_basis`;
    <e_i, f_j> = cosines[j] * delta_ij with cosines sorted decreasing.
    """

    e_basis: np.ndarray
    f_basis: np.ndarray
    cosines: np.ndarray


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector at `base`, as an operator from base to its complement.

    `matrix` is q x p: column j holds the complement-frame coordinates of
    the image of base-frame column j.  `complement` is an orthonormal frame
    of the orthogonal complement of `base`.
    """

    base: Subspace
    complement: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.complement)
        b = np.asarray(self.matrix)
        n, p = self.base.frame.shape
        q = n - p
        if c.shape != (n, q) or b.shape != (q, p):
            raise DimensionMismatchError(
                f"expected complement {n}x{q} and matrix {q}x{p}, got {c.shape} and {b.shape}"
            )
        if np.linalg.norm(c.conj().T @ c - np.eye(q)) > FRAME_TOL:
            raise ValueError("complement frame is not orthonormal")
        if np.linalg.norm(c.conj().T @ self.base.frame) > FRAME_TOL:
            raise ValueError("complement frame is not orthogonal to the base frame")
        object.__setattr__(self, "complement", c)
        object.__setattr__(self, "matrix", b)

    def ambient_image(self) -> np.ndarray:
        """Images of the base frame columns as ambient vectors (n x p)."""
        return self.complement @ self.matrix


def orthonormal_completion(frame: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the orthogonal complement of `frame`.

    `frame` is n x k with orthonormal columns; the result is n x (n - k),
    taken from a complete QR factorization, so it is deterministic.
    """
    q, _ = np.linalg.qr(frame, mode="complete")
    return q[:, frame.shape[1]:]


def complement_frame(subspace: Subspace) -> np.ndarray:
    """Orthonormal frame of the orthogonal complement of a subspace."""
    return orthonormal_completion(subspace.frame)


def _check_pair(left: Subspace, right: Subspace):
    if left.ambient_dim != right.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {left.ambient_dim} vs {right.ambient_dim}"
        )
    if left.dim != right.dim:
        raise DimensionMismatchError(f"subspace dimensions differ: {left.dim} vs {right.dim}")


def _angles_from_cosines(cosines: np.ndarray) -> np.ndarray:
    # rounding can push a cosine to 1 + 1e-16; clamp before arccos
    return np.arccos(np.clip(cosines, 0.0, 1.0))


def _sine_cosine_angles(left: Subspace, right: Subspace, cross, cosines) -> np.ndarray:
    """Angles from the cross-Gram left* right and its singular values (decreasing)."""
    angles = _angles_from_cosines(cosines)
    small = cosines * cosines > 0.5
    if np.any(small):
        residual = right.frame - left.frame @ cross
        # sines sorted increasing pair with cosines sorted decreasing
        sines = np.linalg.svd(residual, compute_uv=False)[::-1]
        angles[small] = np.arcsin(np.clip(sines[small], 0.0, 1.0))
    return angles


def jordan_angles(left: Subspace, right: Subspace) -> np.ndarray:
    """Jordan (principal) angles, sorted increasing, each in [0, pi/2].

    Angles whose squared cosine exceeds 1/2 are taken as the arcsine of the
    singular values of right - left (left* right), which keeps relative
    accuracy for small angles where arccos loses it (Bjorck & Golub 1973;
    Knyazev & Argentati 2002).
    """
    _check_pair(left, right)
    cross = left.frame.conj().T @ right.frame
    return _sine_cosine_angles(left, right, cross, kernel.svd(cross).singular_values)


def angles_from_gram(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Jordan angles from Gram data of two (possibly nonorthogonal) bases.

    `u` and `v` are the Gram matrices of bases of the two subspaces and `w`
    the cross-Gram; the squared cosines are the eigenvalues of
    inv(u) @ w @ inv(v) @ w*.  Computed stably via Cholesky whitening.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    w = np.asarray(w)
    if u.shape[0] != w.shape[0] or v.shape[0] != w.shape[1]:
        raise DimensionMismatchError(
            f"incompatible Gram shapes {u.shape}, {v.shape}, {w.shape}"
        )
    try:
        ru = kernel.cholesky(u)
        rv = kernel.cholesky(v)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"degenerate basis: {exc}", pivot=exc.pivot) from exc
    # whitened cross-Gram: inv(ru*) @ w @ inv(rv); its singular values are
    # the cosines
    x = np.linalg.solve(ru.conj().T, w)
    b = np.linalg.solve(rv.conj().T, x.conj().T).conj().T
    sigma = kernel.svd(b).singular_values
    return _angles_from_cosines(sigma)


def projector_angles(left: Subspace, right: Subspace) -> np.ndarray:
    """Jordan angles via the compression of the projector onto `right`.

    The orthogonal projector restricted to `left`, written in the frame of
    `right`, has the cosines of the angles as its singular values.
    """
    _check_pair(left, right)
    compression = right.frame.conj().T @ (right.projector() @ left.frame)
    sigma = kernel.svd(compression).singular_values
    return _angles_from_cosines(sigma)


def principal_vectors(left: Subspace, right: Subspace) -> PrincipalPair:
    """Paired orthonormal bases diagonalizing the cross-Gram matrix."""
    _check_pair(left, right)
    cross = left.frame.conj().T @ right.frame
    res = kernel.svd(cross)
    e = left.frame @ res.left
    f = right.frame @ res.right
    return PrincipalPair(e_basis=e, f_basis=f, cosines=res.singular_values)


def minimax_probe(
    left: Subspace,
    right: Subspace,
    k: int,
    trials: int = 100,
    rng=None,
):
    """Check the min-max characterization of the k-th cosine.

    Returns (certified_value, max_violation).  The certified value is the
    inner min-max evaluated on the span of the top-k principal vectors of
    `left`; it equals the k-th largest cosine.  For `trials` random k-dim
    subspaces of `left` the inner min-max never exceeds that value (up to
    roundoff); max_violation reports the worst observed excess.
    """
    _check_pair(left, right)
    p = left.dim
    if not 1 <= k <= p:
        raise ValueError(f"k must be in 1..{p}, got {k}")
    rng = np.random.default_rng(rng)
    pair = principal_vectors(left, right)

    def inner_value(p_frame: np.ndarray) -> float:
        # for unit v in P, max over unit w in M of <v, w> is |proj_M v|;
        # minimizing over the unit sphere of P gives the smallest singular
        # value of the compression
        sig = kernel.svd(right.frame.conj().T @ p_frame).singular_values
        return float(sig[-1])

    certified = inner_value(pair.e_basis[:, :k])
    lam_k = float(pair.cosines[k - 1])
    worst = -np.inf
    for _ in range(trials):
        coeff = rng.standard_normal((p, k))
        if left.is_complex:
            coeff = coeff + 1j * rng.standard_normal((p, k))
        p_frame = left.frame @ kernel.qr_orthonormalize(coeff)
        worst = max(worst, inner_value(p_frame) - lam_k)
    return certified, worst


def tangent_invariants(h: TangentVector) -> np.ndarray:
    """Singular values of the tangent operator, sorted increasing, >= 0."""
    sigma = kernel.svd(h.matrix).singular_values
    return sigma[::-1].copy()


def geodesic_transport(base: Subspace, h: TangentVector, eps: float) -> Subspace:
    """Point reached after time `eps` along the curve with velocity `h`.

    The curve rotates each singular direction of the tangent operator at
    its own rate, so the angles between `base` and the result are exactly
    eps times the tangent invariants (while they stay below pi/2).
    """
    if h.base is not base and not np.array_equal(h.base.frame, base.frame):
        raise DimensionMismatchError("tangent vector is not attached to the given base")
    res = kernel.svd(h.matrix)
    # thin factors: matrix = U diag(sigma) V*, with V p x p
    u, sigma, v = res.left, res.singular_values, res.right
    fv = base.frame @ v
    cu = h.complement @ u
    new_frame = fv * np.cos(sigma * eps) + cu * np.sin(sigma * eps)
    # re-orthonormalize to scrub roundoff before the Subspace frame check
    return Subspace(kernel.qr_orthonormalize(new_frame))


def angle_rate(left: Subspace, right: Subspace, h: TangentVector) -> np.ndarray:
    """First-order variation of each Jordan angle of (left, right(t)).

    `h` is a tangent vector at `right`.  Requires a generic configuration:
    the angles pairwise distinct and bounded away from 0 and pi/2.  The
    rates are returned in the order of the angles (sorted increasing).
    """
    _check_pair(left, right)
    pair = principal_vectors(left, right)
    psi = _angles_from_cosines(pair.cosines)
    p = left.dim
    margin = GENERICITY_MARGIN
    if psi[0] < margin or psi[-1] > np.pi / 2 - margin:
        raise DegenerateConfigurationError(
            "angles too close to 0 or pi/2 for the derivative formula"
        )
    if p > 1 and np.min(np.diff(psi)) < margin:
        raise DegenerateConfigurationError("repeated angles: derivative formula degenerate")
    rates = np.empty(p)
    h_ambient = h.ambient_image()  # images of right.frame columns
    coords = right.frame.conj().T  # ambient -> right-frame coordinates
    for j in range(p):
        f_j = pair.f_basis[:, j]
        e_j = pair.e_basis[:, j]
        r_j = (f_j * np.cos(psi[j]) - e_j) / np.sin(psi[j])
        hf_j = h_ambient @ (coords @ f_j)
        rates[j] = np.real(np.vdot(r_j, hf_j))
    return rates
