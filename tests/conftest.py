import numpy as np
import pytest

from grassgeo import subspaces as sub
from grassgeo.harness import random_rotation


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_matrix(rng, shape, cplx=False):
    a = rng.standard_normal(shape)
    if cplx:
        a = a + 1j * rng.standard_normal(shape)
    return a


def projector(subspace):
    """Orthogonal projector onto a subspace: f f* for its orthonormal frame f."""
    f = subspace.frame
    return f @ f.conj().T


def block_pair(angles, q_extra=0):
    """Canonical pair: L the first p coordinate axes, M rotated plane-by-plane."""
    p = len(angles)
    n = 2 * p + q_extra
    e = np.eye(n)
    l_frame = e[:, :p]
    m_cols = [np.cos(a) * e[:, j] + np.sin(a) * e[:, p + j] for j, a in enumerate(angles)]
    return sub.Subspace(l_frame), sub.Subspace(np.column_stack(m_cols))


def richardson_rate(l, m, h, step):
    """Angle rates by Richardson-extrapolated central differences, O(step^4)."""

    def central(eps):
        up = sub.jordan_angles(l, sub.geodesic_transport(m, h, eps))
        dn = sub.jordan_angles(l, sub.geodesic_transport(m, h, -eps))
        return (up - dn) / (2 * eps)

    return (4 * central(step / 2) - central(step)) / 3


def hcurve_triple(rng, p, q, top_angle, field="real"):
    """Three subspaces on one H-curve: the triangle relation holds with equality.

    The curve s -> span(e cos(a s) + f sin(a s)) is a common geodesic of all
    invariant metrics; its points at s = 0 < t < 1 have angle vectors t a,
    (1 - t) a and a.  Each frame is mixed by a random rotation, so the
    principal directions are not the frame columns.
    """
    frame = random_rotation(p + q, field, rng)
    e, f = frame[:, :p], frame[:, p:2 * p]
    a = np.sort(rng.uniform(0.0, 1.0, p))
    a = a * (top_angle / a[-1])
    t = rng.uniform(0.2, 0.8)
    return [
        sub.Subspace((e * np.cos(a * s) + f * np.sin(a * s)) @ random_rotation(p, field, rng))
        for s in (0.0, t, 1.0)
    ]
