"""Subspaces of R^n or C^n and their Jordan angles.

A p-dimensional subspace is stored as an orthonormal frame (an n x p matrix
with orthonormal columns).  The angles between two such subspaces L and M
are read from the sines (singular values of M - L L* M) where cos^2 > 1/2
and from the cosines (singular values of L* M) elsewhere, so small angles
keep relative accuracy; principal vectors come from the same split.  The
Gram and projector routes are independent checks.  The module also has
tangent vectors with their invariants and the first-order angle rates.
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
    <e_i, f_j> = cosines[j] * delta_ij with cosines sorted decreasing and
    `angles` increasing.  The columns of (e_basis, g_basis) are jointly
    orthonormal and f_j = cos(angles[j]) e_j + sin(angles[j]) g_j.
    """

    e_basis: np.ndarray
    f_basis: np.ndarray
    cosines: np.ndarray
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


def _sine_count(cosines: np.ndarray) -> int:
    """How many leading angles to read from sines: those with cos^2 > 1/2.

    There arccos loses accuracy and arcsin does not; elsewhere the reverse.
    Cosines are sorted decreasing, so these angles come first.
    """
    return int(np.count_nonzero(cosines * cosines > 0.5))


def _sine_cosine_angles(cosines: np.ndarray, sines: np.ndarray, k: int) -> np.ndarray:
    """Arcsine of the first k sines, arccosine of the remaining cosines."""
    from_sines = np.arcsin(np.clip(sines[:k], 0.0, 1.0))
    return np.concatenate([from_sines, _angles_from_cosines(cosines[k:])])


def jordan_angles(left: Subspace, right: Subspace) -> np.ndarray:
    """Jordan (principal) angles, sorted increasing, each in [0, pi/2].

    Angles whose squared cosine exceeds 1/2 are taken as the arcsine of the
    singular values of right - left (left* right), which keeps relative
    accuracy for small angles where arccos loses it (Bjorck & Golub 1973;
    Knyazev & Argentati 2002).
    """
    _check_pair(left, right)
    cross = left.frame.conj().T @ right.frame
    cosines = kernel.svd(cross).singular_values
    k = _sine_count(cosines)
    if k == 0:
        return _angles_from_cosines(cosines)
    # sines sorted increasing pair with cosines sorted decreasing
    sines = np.linalg.svd(right.frame - left.frame @ cross, compute_uv=False)[::-1]
    return _sine_cosine_angles(cosines, sines, k)


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
    """Paired orthonormal bases diagonalizing the cross-Gram matrix.

    Split as in `jordan_angles`.  All right vectors come from the SVD of
    the residual R = right - left C, C = left* right, so they form one
    orthonormal basis even where equal angles straddle the split.  Where
    cos^2 > 1/2 a residual singular pair gives g, and e is the direction of
    left C z; elsewhere the SVD of C restricted to the remaining right
    vectors gives e, and g is the direction of R v.  Each norm divided by
    is >= 1/sqrt(2).  One QR of (e, g) makes them jointly orthonormal and
    fills zero angles.
    """
    _check_pair(left, right)
    cross = left.frame.conj().T @ right.frame
    cosines = kernel.svd(cross).singular_values
    k = _sine_count(cosines)
    residual = right.frame - left.frame @ cross
    y, sines, zh = np.linalg.svd(residual, full_matrices=False)
    # sines sorted increasing pair with cosines sorted decreasing
    y, sines, z = y[:, ::-1], sines[::-1], zh[::-1].conj().T
    angles = _sine_cosine_angles(cosines, sines, k)
    large = kernel.svd(cross @ z[:, k:])
    v = z[:, k:] @ large.right
    e_small = left.frame @ (cross @ z[:, :k])
    g_large = residual @ v
    e = np.hstack([e_small / np.linalg.norm(e_small, axis=0), left.frame @ large.left])
    g = np.hstack([y[:, :k], g_large / np.linalg.norm(g_large, axis=0)])
    # g by decreasing angle: the arbitrary g of zero angles come last, so
    # they only fill what the determined columns leave
    q, r = np.linalg.qr(np.hstack([e, g[:, ::-1]]))
    # LAPACK's R has a real diagonal; its signs keep each column's direction
    q = q * np.copysign(1.0, np.diagonal(r).real)
    e, g = q[:, :left.dim], q[:, left.dim:][:, ::-1]
    f = e * np.cos(angles) + g * np.sin(angles)
    return PrincipalPair(e, f, cosines, angles, g)


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
