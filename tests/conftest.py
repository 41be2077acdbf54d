import numpy as np
import pytest

from grassgeo import subspaces as sub


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_matrix(rng, shape, cplx=False):
    a = rng.standard_normal(shape)
    if cplx:
        a = a + 1j * rng.standard_normal(shape)
    return a


def richardson_rate(l, m, h, step):
    """Angle rates by Richardson-extrapolated central differences, O(step^4)."""

    def central(eps):
        up = sub.jordan_angles(l, sub.geodesic_transport(m, h, eps))
        dn = sub.jordan_angles(l, sub.geodesic_transport(m, h, -eps))
        return (up - dn) / (2 * eps)

    return (4 * central(step / 2) - central(step)) / 3
