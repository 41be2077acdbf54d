"""Work counts: the LAPACK routines each public op fetches from scipy.

Every scipy LAPACK routine the package calls is fetched through
`kernel.get_lapack_funcs`.  A spy on that seam counts, per op, which
routines are asked for, at p = 3 and p = 16, so a change that adds a
Cholesky, a triangular solve or a CS decomposition to an op fails here.
A change that alters a count updates its row in the same diff.

Not counted yet: numpy-level calls (`np.linalg.svd`, `qr`, `eigh`) and
Python overhead; only the fetches through the seam are.
"""

from collections import Counter

import numpy as np
import pytest

from grassgeo import harness, kernel, metrics, noncompact, subspaces, weyl

# op -> routines fetched per call, keyed by the first name asked for
EXPECTED = {
    "PosDefPoint": {"potrf": 1},
    "posdef_angles": {"trtrs": 1},
    "posdef_triangle_check": {"trtrs": 3},
    "hcurve_between": {"orcsd": 1},  # one fetch of the CSD with its lwork query
    "jordan_angles": {},
    "triangle_check": {},
    "triangle_check_certificate": {},
    "BallPoint": {},
    "ball_angles": {},
    "lidskii_check": {},
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
    return {
        "PosDefPoint": lambda: noncompact.PosDefPoint(a.matrix),
        "posdef_angles": lambda: noncompact.posdef_angles(a, b),
        "posdef_triangle_check": lambda: noncompact.posdef_triangle_check(a, b, c),
        "hcurve_between": lambda: metrics.hcurve_between(l, m),
        "jordan_angles": lambda: subspaces.jordan_angles(l, m),
        "triangle_check": lambda: metrics.triangle_check(l, m, n),
        "triangle_check_certificate": lambda: metrics.triangle_check(l, m, n, want_certificate=True),
        "BallPoint": lambda: noncompact.BallPoint(t.matrix),
        "ball_angles": lambda: noncompact.ball_angles(t, s),
        "lidskii_check": lambda: noncompact.lidskii_check(x, z),
        "birkhoff_decompose": lambda: weyl.birkhoff_decompose(mix),
        "quasistochastic_decompose": lambda: weyl.quasistochastic_decompose(quasi),
    }


@pytest.mark.parametrize("p", [3, 16])
def test_lapack_fetches_per_op(monkeypatch, p):
    calls = op_calls(p)
    fetched = Counter()
    lookup = kernel.get_lapack_funcs

    def spy(names, arrays):
        fetched[names[0]] += 1
        return lookup(names, arrays)

    monkeypatch.setattr(kernel, "get_lapack_funcs", spy)
    counts = {}
    for name, call in calls.items():
        fetched.clear()
        call()
        counts[name] = dict(fetched)
    assert counts == EXPECTED
