"""Reference oracles that only the tests call.

Each is written against the package's public names, so that a test can
check a library result against an independent characterization of it.
"""

import numpy as np

from grassgeo import kernel
from grassgeo.subspaces import Subspace, jordan_angles, principal_vectors


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
    p = left.dim
    if not 1 <= k <= p:
        raise ValueError(f"k must be in 1..{p}, got {k}")
    rng = np.random.default_rng(rng)
    pair = principal_vectors(left, right)

    def inner_value(p_frame: np.ndarray) -> float:
        # for unit v in P, max over unit w in M of <v, w> is |proj_M v|;
        # minimizing over the unit sphere of P gives the smallest singular
        # value of the compression
        return float(kernel.singular_values(right.frame.conj().T @ p_frame)[-1])

    certified = inner_value(pair.e_basis[:, :k])
    lam_k = float(np.cos(pair.angles[k - 1]))
    worst = -np.inf
    for _ in range(trials):
        coeff = rng.standard_normal((p, k))
        if left.is_complex:
            coeff = coeff + 1j * rng.standard_normal((p, k))
        p_frame = left.frame @ kernel.qr_orthonormalize(coeff)
        worst = max(worst, inner_value(p_frame) - lam_k)
    return certified, worst


def reconstruct_certificate(certificate, psi: np.ndarray) -> np.ndarray:
    """Point represented by a certificate: sum of weight * w(psi)."""
    psi = np.asarray(psi, dtype=float)
    out = np.zeros_like(psi)
    for weight, w in certificate:
        out = out + weight * w.apply(psi)
    return out


def finsler_length(path, norm) -> float:
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
