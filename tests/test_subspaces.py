import itertools

import numpy as np
import pytest

from grassgeo import subspaces as sub
from grassgeo.errors import DegenerateConfigurationError, DimensionMismatchError
from grassgeo.harness import random_rotation, random_subspace, random_tangent

from conftest import random_matrix, richardson_rate


def block_pair(angles, q_extra=0):
    """Canonical pair: L the first p coordinate axes, M rotated plane-by-plane."""
    p = len(angles)
    n = 2 * p + q_extra
    e = np.eye(n)
    l_frame = e[:, :p]
    m_cols = [np.cos(a) * e[:, j] + np.sin(a) * e[:, p + j] for j, a in enumerate(angles)]
    return sub.Subspace(l_frame), sub.Subspace(np.column_stack(m_cols))


class TestJordanAngles:
    def test_equal_subspaces(self, rng):
        l = random_subspace(3, 4, "real", rng)
        # a different frame of the same subspace
        m = sub.Subspace(l.frame @ random_rotation(3, "real", rng))
        assert np.allclose(sub.jordan_angles(l, m), 0, atol=1e-14)

    def test_line_pair(self):
        t = np.pi / 3
        l = sub.Subspace(np.array([[1.0], [0.0]]))
        m = sub.Subspace(np.array([[np.cos(t)], [np.sin(t)]]))
        assert np.allclose(sub.jordan_angles(l, m), [t], atol=1e-12)

    def test_block_construction(self):
        l, m = block_pair([0.3, 0.7])
        assert np.allclose(sub.jordan_angles(l, m), [0.3, 0.7], atol=1e-12)
        # small angles keep their relative accuracy
        l, m = block_pair([1e-9, 1e-6, 0.7])
        np.testing.assert_allclose(sub.jordan_angles(l, m), [1e-9, 1e-6, 0.7], rtol=1e-6)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            sub.jordan_angles(random_subspace(2, 4, "real", rng), random_subspace(3, 4, "real", rng))

    def test_symmetry(self, rng):
        for _ in range(10):
            l = random_subspace(3, 5, "real", rng)
            m = random_subspace(3, 5, "real", rng)
            assert np.allclose(sub.jordan_angles(l, m), sub.jordan_angles(m, l), atol=1e-10)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_rotation_invariance(self, rng, cplx):
        field = "complex" if cplx else "real"
        for _ in range(10):
            l = random_subspace(3, 4, field, rng)
            m = random_subspace(3, 4, field, rng)
            g = random_rotation(7, field, rng)
            gl = sub.Subspace(g @ l.frame)
            gm = sub.Subspace(g @ m.frame)
            assert np.allclose(
                sub.jordan_angles(l, m), sub.jordan_angles(gl, gm), atol=1e-9
            )

    def test_frame_independence(self, rng):
        l = random_subspace(3, 4, "complex", rng)
        m = random_subspace(3, 4, "complex", rng)
        base = sub.jordan_angles(l, m)
        for _ in range(5):
            l2 = sub.Subspace(l.frame @ random_rotation(3, "complex", rng))
            m2 = sub.Subspace(m.frame @ random_rotation(3, "complex", rng))
            assert np.allclose(base, sub.jordan_angles(l2, m2), atol=1e-10)


class TestAngleRoutes:
    def test_gram_identity_inputs(self):
        ang = sub.angles_from_gram(np.eye(3), np.eye(3), np.eye(3))
        assert np.allclose(ang, 0, atol=1e-7)

    def test_gram_scale_invariance(self, rng):
        a = random_matrix(rng, (7, 3))
        b = random_matrix(rng, (7, 3))
        u, v, w = a.T @ a, b.T @ b, a.T @ b
        ang = sub.angles_from_gram(u, v, w)
        c = np.diag([2.0, 0.5, 7.0])
        ang2 = sub.angles_from_gram(c @ u @ c, v, c @ w)
        assert np.allclose(ang, ang2, atol=1e-9)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_three_routes_agree(self, rng, cplx):
        for _ in range(15):
            a = random_matrix(rng, (8, 3), cplx)
            b = random_matrix(rng, (8, 3), cplx)
            l = sub.Subspace.from_spanning(a)
            m = sub.Subspace.from_spanning(b)
            ang = sub.jordan_angles(l, m)
            assert np.allclose(ang, sub.projector_angles(l, m), atol=1e-9)
            gram = sub.angles_from_gram(a.conj().T @ a, b.conj().T @ b, a.conj().T @ b)
            assert np.allclose(ang, gram, atol=1e-8)

    def test_perpendicular(self):
        e = np.eye(4)
        l = sub.Subspace(e[:, :1])
        m = sub.Subspace(e[:, 1:2])
        assert np.allclose(sub.projector_angles(l, m), np.pi / 2, atol=1e-12)


class TestPrincipalVectors:
    def test_equal_subspaces(self, rng):
        l = random_subspace(2, 3, "real", rng)
        pair = sub.principal_vectors(l, l)
        assert np.allclose(pair.cosines, 1, atol=1e-12)

    def test_block_construction(self):
        l, m = block_pair([0.3, 0.7])
        pair = sub.principal_vectors(l, m)
        assert np.allclose(pair.cosines, [np.cos(0.3), np.cos(0.7)], atol=1e-12)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_diagonality_invariant(self, rng, cplx):
        field = "complex" if cplx else "real"
        for _ in range(10):
            l = random_subspace(3, 5, field, rng)
            m = random_subspace(3, 5, field, rng)
            pair = sub.principal_vectors(l, m)
            gram = pair.e_basis.conj().T @ pair.f_basis
            assert np.linalg.norm(gram - np.diag(pair.cosines)) < 1e-9
            g = pair.g_basis
            assert np.linalg.norm(g.conj().T @ g - np.eye(3)) < 1e-12
            assert np.linalg.norm(l.frame.conj().T @ g) < 1e-12
            rebuilt = pair.e_basis * np.cos(pair.angles) + g * np.sin(pair.angles)
            assert np.linalg.norm(pair.f_basis - rebuilt) < 1e-12


    @pytest.mark.parametrize("cplx", [False, True])
    def test_zero_and_right_angles_mixed(self, rng, cplx):
        # the g of zero angles are arbitrary; they must not take a direction
        # that a determined column needs.  Coordinate subspaces are the
        # sharpest case: there the arbitrary g can lie inside the left one.
        # Equal or nearly equal angles at pi/4 straddle the sine/cosine
        # split, so their e and g must still come from one right basis.
        field = "complex" if cplx else "real"
        eye = np.eye(6, dtype=complex if cplx else float)
        pairs = [(eye[:, :3], eye[:, list(cols)], None) for cols in itertools.combinations(range(6), 3)]
        quarter = np.pi / 4
        choices = [0.0, 1e-9, 0.3, quarter - 1e-12, quarter, quarter + 1e-12, np.pi / 2]
        draws = [np.sort(rng.choice(choices, 4)) for _ in range(50)]
        draws += [np.array([0.3, quarter, quarter, quarter]),
                  np.array([quarter - 1e-12, quarter, quarter + 1e-12, 1.2])] * 25
        for a in draws:
            frame = random_rotation(8, field, rng)
            e, f = frame[:, :4], frame[:, 4:]
            pairs.append((e @ random_rotation(4, field, rng),
                          (e * np.cos(a) + f * np.sin(a)) @ random_rotation(4, field, rng), a))
        for lf, mf, a in pairs:
            l, m = sub.Subspace(lf), sub.Subspace(mf)
            pair = sub.principal_vectors(l, m)
            combined = np.hstack([pair.e_basis, pair.g_basis])
            assert np.linalg.norm(combined.conj().T @ combined - np.eye(combined.shape[1])) < 1e-12
            assert np.linalg.norm(pair.e_basis @ pair.e_basis.conj().T - l.projector()) < 1e-12
            assert np.linalg.norm(pair.f_basis @ pair.f_basis.conj().T - m.projector()) < 1e-12
            if a is not None:
                assert np.max(np.abs(pair.angles - a)) < 1e-12


class TestMinimaxProbe:
    def test_top_value_equal_subspaces(self, rng):
        l = random_subspace(2, 3, "real", rng)
        cert, viol = sub.minimax_probe(l, l, 1, trials=20, rng=rng)
        assert abs(cert - 1.0) < 1e-9

    def test_block_value(self):
        l, m = block_pair([0.3, 0.7])
        cert, viol = sub.minimax_probe(l, m, 2, trials=50, rng=0)
        assert abs(cert - np.cos(0.7)) < 1e-8
        assert viol <= 1e-8

    def test_random_pairs_never_exceed(self, rng):
        l = random_subspace(3, 5, "real", rng)
        m = random_subspace(3, 5, "real", rng)
        for k in (1, 2, 3):
            cert, viol = sub.minimax_probe(l, m, k, trials=200, rng=rng)
            lam = np.cos(sub.jordan_angles(l, m))
            assert abs(cert - lam[k - 1]) < 1e-8
            assert viol <= 1e-8

    def test_k_out_of_range(self, rng):
        l = random_subspace(2, 3, "real", rng)
        with pytest.raises(ValueError):
            sub.minimax_probe(l, l, 3)


class TestTangent:
    def test_zero_map(self, rng):
        h = random_tangent(random_subspace(2, 4, "real", rng), rng, scale=0.0)
        assert np.allclose(sub.tangent_invariants(h), 0)

    def test_diagonal_map(self, rng):
        base = random_subspace(2, 3, "real", rng)
        comp = sub.complement_frame(base)
        b = np.zeros((3, 2))
        b[0, 0], b[1, 1] = 2.0, 5.0
        h = sub.TangentVector(base, comp, b)
        assert np.allclose(sub.tangent_invariants(h), [2, 5])

    def test_rotation_invariance(self, rng):
        base = random_subspace(3, 4, "real", rng)
        h = random_tangent(base, rng)
        rho = sub.tangent_invariants(h)
        g = random_rotation(7, "real", rng)
        base2 = sub.Subspace(g @ base.frame)
        h2 = sub.TangentVector(base2, g @ h.complement, h.matrix)
        assert np.allclose(rho, sub.tangent_invariants(h2), atol=1e-10)


class TestGeodesicTransport:
    def test_eps_zero(self, rng):
        base = random_subspace(2, 4, "real", rng)
        h = random_tangent(base, rng)
        out = sub.geodesic_transport(base, h, 0.0)
        assert np.linalg.norm(out.projector() - base.projector()) < 1e-12

    def test_single_plane_rotation(self, rng):
        base = random_subspace(2, 3, "real", rng)
        comp = sub.complement_frame(base)
        b = np.zeros((3, 2))
        b[0, 0] = 1.0
        h = sub.TangentVector(base, comp, b)
        out = sub.geodesic_transport(base, h, 0.2)
        assert np.allclose(sub.jordan_angles(base, out), [0.0, 0.2], atol=1e-9)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_rate_limit(self, rng, cplx):
        field = "complex" if cplx else "real"
        base = random_subspace(3, 4, field, rng)
        h = random_tangent(base, rng)
        rho = sub.tangent_invariants(h)
        eps = 1e-3
        out = sub.geodesic_transport(base, h, eps)
        assert np.max(np.abs(sub.jordan_angles(base, out) / eps - rho)) <= 1e-5


class TestAngleRate:
    def test_zero_tangent(self, rng):
        l = random_subspace(3, 4, "real", rng)
        m = random_subspace(3, 4, "real", rng)
        h = random_tangent(m, rng, scale=0.0)
        assert np.allclose(sub.angle_rate(l, m, h), 0)

    def test_block_rotation_rates(self):
        l, m = block_pair([0.4, 0.9])
        comp = sub.complement_frame(m)
        # tangent rotating each principal plane at its own speed
        rates = np.array([0.25, -0.6])
        pair = sub.principal_vectors(l, m)
        psi = np.arccos(np.clip(pair.cosines, 0, 1))
        r_cols = np.column_stack(
            [
                (pair.f_basis[:, j] * np.cos(psi[j]) - pair.e_basis[:, j]) / np.sin(psi[j])
                for j in range(2)
            ]
        )
        ambient = r_cols * rates  # H f_j = rates_j r_j
        b = comp.T @ ambient @ (pair.f_basis.T @ m.frame)
        h = sub.TangentVector(m, comp, b)
        assert np.allclose(sub.angle_rate(l, m, h), rates, atol=1e-9)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_finite_difference(self, rng, cplx):
        field = "complex" if cplx else "real"
        found = 0
        while found < 5:
            l = random_subspace(3, 4, field, rng)
            m = random_subspace(3, 4, field, rng)
            h = random_tangent(m, rng)
            try:
                rates = sub.angle_rate(l, m, h)
            except DegenerateConfigurationError:
                continue
            found += 1
            assert np.max(np.abs(richardson_rate(l, m, h, 1e-4) - rates)) <= 1e-8

    def test_degenerate_rejected(self):
        l, m = block_pair([0.5, 0.5])
        h = random_tangent(m, np.random.default_rng(0))
        with pytest.raises(DegenerateConfigurationError):
            sub.angle_rate(l, m, h)
