"""Subspaces of R^n or C^n and their Jordan angles.

A p-dimensional subspace is stored as an orthonormal frame (an n x p matrix
with orthonormal columns).  The angles between two such subspaces L and M
are read from the sines (singular values of M - L L* M) where cos^2 > 1/2
and from the cosines (singular values of L* M) elsewhere, so small angles
keep relative accuracy.  Principal vectors, with the angles again, come
from one LAPACK CS decomposition, a route independent of that split.  The
module also has tangent vectors with their invariants and the first-order
angle rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import DegenerateConfigurationError, DimensionMismatchError

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
        if not np.isfinite(f).all():
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


@dataclass(frozen=True)
class PrincipalPair:
    """Orthonormal bases of two subspaces diagonalizing their cross-Gram.

    Column j of `e_basis` pairs with column j of `f_basis`;
    <e_i, f_j> = cos(angles[j]) * delta_ij with `angles` increasing.  The
    columns of (e_basis, g_basis) are jointly orthonormal, g_basis lies in
    the complement of the left subspace, and
    f_j = cos(angles[j]) e_j + sin(angles[j]) g_j.
    """

    e_basis: np.ndarray
    f_basis: np.ndarray
    angles: np.ndarray
    g_basis: np.ndarray


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


def complement_frame(subspace: Subspace) -> np.ndarray:
    """Orthonormal frame of the orthogonal complement of a subspace: the last
    n - p columns of a complete QR factorization of its frame, so deterministic."""
    q, _ = np.linalg.qr(subspace.frame, mode="complete")
    return q[:, subspace.dim:]


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


def jordan_angles(left: Subspace, right: Subspace) -> np.ndarray:
    """Jordan (principal) angles, sorted increasing, each in [0, pi/2].

    Angles whose squared cosine exceeds 1/2 are taken as the arcsine of the
    singular values of right - left (left* right), which keeps relative
    accuracy for small angles where arccos loses it (Bjorck & Golub 1973;
    Knyazev & Argentati 2002).
    """
    _check_pair(left, right)
    cross = left.frame.conj().T @ right.frame
    cosines = kernel.singular_values(cross)
    # cosines sorted decreasing: the angles with cos^2 > 1/2 come first
    k = int(np.count_nonzero(cosines * cosines > 0.5))
    if k == 0:
        return _angles_from_cosines(cosines)
    # sines sorted increasing pair with cosines sorted decreasing
    sines = kernel.singular_values(right.frame - left.frame @ cross)[::-1]
    from_sines = np.arcsin(np.clip(sines[:k], 0.0, 1.0))
    return np.concatenate([from_sines, _angles_from_cosines(cosines[k:])])


def principal_vectors(left: Subspace, right: Subspace) -> PrincipalPair:
    """Paired orthonormal bases diagonalizing the cross-Gram matrix.

    Works in the span of both subspaces, at most 2p dimensions, so the cost
    is O(n p^2): a QR of (left, right) gives a basis q of it whose first p
    columns span `left`, and one CS decomposition (Sutton 2009) of a unitary
    completion qm of q* right gives the angles, e = q[:, :p] u1 and
    g = q[:, p:] u2, with q qm[:, :p] v1 = e cos(angles) + g sin(angles).
    So (e, g) is jointly orthonormal by construction, repeated angles need
    no pairing, and the angles are accurate to about 1e-14 absolute.
    """
    _check_pair(left, right)
    p = left.dim
    # the span of q contains `right` even when the stacked frames are rank-deficient
    q, _ = np.linalg.qr(np.hstack([left.frame, right.frame]))
    qm, _ = np.linalg.qr(q.conj().T @ right.frame, mode="complete")
    angles, u1, u2 = kernel.cs_decomposition(qm, p)
    e = q[:, :p] @ u1
    g = q[:, p:] @ u2
    f = e * np.cos(angles) + g * np.sin(angles)
    return PrincipalPair(e, f, angles, g)


def tangent_invariants(h: TangentVector) -> np.ndarray:
    """Singular values of the tangent operator, sorted increasing, >= 0."""
    return kernel.singular_values(h.matrix)[::-1].copy()


def geodesic_transport(base: Subspace, h: TangentVector, eps: float) -> Subspace:
    """Point reached after time `eps` along the curve with velocity `h`.

    The curve rotates each singular direction of the tangent operator at
    its own rate, so the angles between `base` and the result are exactly
    eps times the tangent invariants (while they stay below pi/2).
    """
    if h.base is not base and not np.array_equal(h.base.frame, base.frame):
        raise DimensionMismatchError("tangent vector is not attached to the given base")
    # thin factors: matrix = U diag(sigma) V*, with V p x p
    u, sigma, v = kernel.svd(h.matrix)
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
    psi = pair.angles
    p = left.dim
    margin = GENERICITY_MARGIN
    if psi[0] < margin or psi[-1] > np.pi / 2 - margin:
        raise DegenerateConfigurationError(
            "angles too close to 0 or pi/2 for the derivative formula"
        )
    if p > 1 and np.min(np.diff(psi)) < margin:
        raise DegenerateConfigurationError("repeated angles: derivative formula degenerate")
    # unit direction in which f_j moves away from e_j as its angle grows
    r = pair.g_basis * np.cos(psi) - pair.e_basis * np.sin(psi)
    # images of the f_j under h, through their right-frame coordinates
    hf = h.ambient_image() @ (right.frame.conj().T @ pair.f_basis)
    return np.real(np.sum(r.conj() * hf, axis=0))
