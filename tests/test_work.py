"""Work counts: the factorizations each public op asks for.

The package reaches LAPACK in two ways: numpy's `np.linalg.svd`, `qr`,
`eigh` and `solve`, and the scipy routines that `kernel.get_lapack_funcs`
fetches (the only way the package reaches scipy).  Counting spies on
both, installed by monkeypatch, record per op how often each is called
or fetched, at p = 3 and p = 16, so a change that adds an SVD, a QR, an
eigensolve, a Cholesky, a triangular solve or a CS decomposition to an op
fails here.  A change that alters a count updates its row in the same
diff.

Not counted: Python-level overhead, and LAPACK calls that numpy makes
inside its own routines (`np.linalg.norm`, say).
"""

from collections import Counter

import numpy as np
import pytest

from grassgeo import harness, kernel, metrics, noncompact, subspaces, weyl

NUMPY_LINALG = ("svd", "qr", "eigh", "solve")

# op -> calls per op: numpy.linalg functions by name, scipy LAPACK fetches
# by the first routine name asked for
EXPECTED = {
    "PosDefPoint": {"potrf": 1},
    "posdef_angles": {"trtrs": 1, "svd": 1},
    "posdef_triangle_check": {"trtrs": 3, "svd": 3},
    "principal_vectors": {"qr": 2, "orcsd": 1},  # one fetch of the CSD with its lwork query
    "hcurve_between": {"qr": 2, "orcsd": 1},
    # qr_orthonormalize takes one values-only SVD of R for its rank check
    "hcurve_eval": {"qr": 1, "svd": 1},
    "geodesic_transport": {"svd": 2, "qr": 1},
    "jordan_angles": {"svd": 2},
    "triangle_check": {"svd": 6},
    "triangle_check_certificate": {"svd": 6},
    "BallPoint": {"svd": 1},
    "ball_angles": {"svd": 1},
    "lidskii_check": {"eigh": 3},
    "fan_ky_diagonal_check": {"svd": 1},
    "birkhoff_decompose": {},
    "quasistochastic_decompose": {},
}


def op_calls(p: int) -> dict:
    """Op name -> zero-argument call on seeded inputs of size p, built up front."""
    rng = np.random.default_rng([28, p])
    l, m, n = (harness.random_subspace(p, p, "real", rng) for _ in range(3))
    a, b, c = (harness.random_posdef(p, "complex", rng) for _ in range(3))
    t, s = (harness.random_ball_point(p, rng) for _ in range(2))
    x, z = (harness.random_hermitian(p, "complex", rng) for _ in range(2))
    mix = sum(wt * np.eye(p)[rng.permutation(p)] for wt in rng.dirichlet(np.ones(3 * p)))
    quasi = harness.random_rotation(p, "real", rng) * harness.random_rotation(p, "real", rng)
    h = harness.random_tangent(m, rng)
    curve = metrics.hcurve_between(l, m)
    return {
        "PosDefPoint": lambda: noncompact.PosDefPoint(a.matrix),
        "posdef_angles": lambda: noncompact.posdef_angles(a, b),
        "posdef_triangle_check": lambda: noncompact.posdef_triangle_check(a, b, c),
        "principal_vectors": lambda: subspaces.principal_vectors(l, m),
        "hcurve_between": lambda: metrics.hcurve_between(l, m),
        "hcurve_eval": lambda: metrics.hcurve_eval(curve, 0.3),
        "geodesic_transport": lambda: subspaces.geodesic_transport(m, h, 0.1),
        "jordan_angles": lambda: subspaces.jordan_angles(l, m),
        "triangle_check": lambda: metrics.triangle_check(l, m, n),
        "triangle_check_certificate": lambda: metrics.triangle_check(l, m, n, want_certificate=True),
        "BallPoint": lambda: noncompact.BallPoint(t.matrix),
        "ball_angles": lambda: noncompact.ball_angles(t, s),
        "lidskii_check": lambda: noncompact.lidskii_check(x, z),
        "fan_ky_diagonal_check": lambda: weyl.fan_ky_diagonal_check(np.real(x)),
        "birkhoff_decompose": lambda: weyl.birkhoff_decompose(mix),
        "quasistochastic_decompose": lambda: weyl.quasistochastic_decompose(quasi),
    }


@pytest.mark.parametrize("p", [3, 16])
def test_lapack_fetches_per_op(monkeypatch, p):
    calls = op_calls(p)
    counted = Counter()

    def counting(name, func):
        def spy(*args, **kwargs):
            counted[name] += 1
            return func(*args, **kwargs)
        return spy

    for name in NUMPY_LINALG:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    lookup = kernel.get_lapack_funcs

    def fetch_spy(names, arrays):
        counted[names[0]] += 1
        return lookup(names, arrays)

    monkeypatch.setattr(kernel, "get_lapack_funcs", fetch_spy)
    counts = {}
    for name, call in calls.items():
        counted.clear()
        call()
        counts[name] = dict(counted)
    assert counts == EXPECTED
    # the triangular solves go through LAPACK trtrs; nothing asks numpy to solve
    assert not any("solve" in row for row in counts.values())
