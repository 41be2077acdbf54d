import numpy as np
import pytest
from scipy.linalg import solve_triangular

from grassgeo import kernel
from grassgeo import noncompact as nc
from grassgeo.errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
)
from grassgeo.harness import (
    random_ball_point,
    random_hermitian,
    random_posdef,
    random_rotation,
)
from grassgeo.metrics import NormSpec
from grassgeo.noncompact import BallPoint, PosDefPoint

from conftest import random_matrix


class TestPosDefPoint:
    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            PosDefPoint(np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError):
            PosDefPoint(random_matrix(rng, (3, 3)) + 5 * np.eye(3))

    def test_factor(self, rng):
        a = random_posdef(4, "complex", rng)
        r = a.factor
        assert np.allclose(np.tril(r, -1), 0)
        assert np.linalg.norm(r.conj().T @ r - a.matrix) <= 1e-13 * np.linalg.norm(a.matrix)

    def test_positive_definiteness_is_scale_invariant(self):
        for c in (1e-20, 1.0, 1e20):
            PosDefPoint(c * np.eye(2))
            with pytest.raises(NotPositiveDefiniteError):
                PosDefPoint(c * np.diag([1.0, 1e-15]))

    def test_hermitian_check_is_relative_below_norm_one(self, rng):
        skew = 1e-12 * np.array([[1.0, 0.5], [-0.5, 1.0]])
        with pytest.raises(DimensionMismatchError):
            nc.posdef_angles(PosDefPoint(skew), PosDefPoint(1e-12 * np.array([[1.0, 0.5], [0.5, 1.0]])))
        a = random_posdef(3, "complex", rng).matrix
        assert PosDefPoint(1e-20 * a).factor is not None


class TestPosDefAngles:
    def test_identity_pair(self):
        ang = nc.posdef_angles(PosDefPoint(np.eye(3)), PosDefPoint(np.eye(3)))
        assert np.allclose(ang, 0, atol=1e-12)

    def test_scalar_pair(self):
        a = PosDefPoint(np.diag([4.0, 4.0]))
        b = PosDefPoint(np.eye(2))
        assert np.allclose(nc.posdef_angles(a, b), np.log(4.0), atol=1e-12)

    def test_diagonal_pair_sorted_decreasing(self):
        a = PosDefPoint(np.diag([1.0, 8.0]))
        b = PosDefPoint(np.diag([2.0, 1.0]))
        ang = nc.posdef_angles(a, b)
        assert np.allclose(ang, [np.log(8.0), np.log(0.5)], atol=1e-12)

    def test_antisymmetry(self, rng):
        for _ in range(10):
            a = random_posdef(4, "complex", rng)
            b = random_posdef(4, "complex", rng)
            assert np.allclose(
                nc.posdef_angles(a, b), -nc.posdef_angles(b, a)[::-1], atol=1e-9
            )

    def test_congruence_invariance(self, rng):
        a = random_posdef(4, "complex", rng)
        b = random_posdef(4, "complex", rng)
        g = random_matrix(rng, (4, 4), True)
        ga = PosDefPoint(g @ a.matrix @ g.conj().T)
        gb = PosDefPoint(g @ b.matrix @ g.conj().T)
        assert np.allclose(nc.posdef_angles(a, b), nc.posdef_angles(ga, gb), atol=1e-8)

    def test_sum_is_logdet_ratio(self, rng):
        for _ in range(10):
            a = random_posdef(3, "complex", rng)
            b = random_posdef(3, "complex", rng)
            total = np.sum(nc.posdef_angles(a, b))
            expected = np.linalg.slogdet(a.matrix)[1] - np.linalg.slogdet(b.matrix)[1]
            assert total == pytest.approx(expected, abs=1e-9)

    def test_size_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            nc.posdef_angles(random_posdef(2, "real", rng), random_posdef(3, "real", rng))

    def test_scale_invariance(self, rng):
        for _ in range(10):
            a = random_posdef(4, "complex", rng)
            b = random_posdef(4, "complex", rng)
            ang = nc.posdef_angles(a, b)
            for c in (1e-20, 1e20):
                scaled = nc.posdef_angles(PosDefPoint(c * a.matrix), PosDefPoint(c * b.matrix))
                assert np.allclose(scaled, ang, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_accuracy_at_the_edge(self, rng, field):
        # a = Q diag(10^alpha) Q*, b = Q diag(10^beta) Q*: the generalized
        # eigenvalues are 10^(alpha - beta) exactly, with condition numbers
        # of a and b up to 1e8
        worst = 0.0
        for _ in range(150):
            n = int(rng.integers(2, 9))
            q = random_rotation(n, field, rng)
            alpha, beta = rng.uniform(-8.0, 0.0, (2, n))
            a = PosDefPoint((q * 10.0**alpha) @ q.conj().T)
            b = PosDefPoint((q * 10.0**beta) @ q.conj().T)
            exact = np.sort((alpha - beta) * np.log(10.0))[::-1]
            worst = max(worst, np.max(np.abs(nc.posdef_angles(a, b) - exact)))
        assert worst <= 1e-7

    @pytest.mark.parametrize("p", [3, 8, 16])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_solve_matches_scipy_bit_for_bit(self, rng, p, field):
        # kernel's trtrs call is the one scipy's solve_triangular(trans="C")
        # makes, so the angles keep every bit; half the draws are conditioned
        # up to 1e8
        for k in range(20):
            if k % 2:
                q = random_rotation(p, field, rng)
                a, b = (PosDefPoint((q * 10.0**e) @ q.conj().T) for e in rng.uniform(-8.0, 0.0, (2, p)))
            else:
                a, b = random_posdef(p, field, rng), random_posdef(p, field, rng)
            x = solve_triangular(b.factor, a.factor.conj().T, trans="C", check_finite=False)
            assert np.array_equal(kernel.solve_upper_adjoint(b.factor, a.factor.conj().T), x)
            expected = [float(v).hex() for v in 2.0 * np.log(kernel.singular_values(x))]
            assert [float(v).hex() for v in nc.posdef_angles(a, b)] == expected


class TestPosDefTriangle:
    def test_trivial_midpoint(self, rng):
        a = random_posdef(3, "complex", rng)
        b = random_posdef(3, "complex", rng)
        rep = nc.posdef_triangle_check(a, a, b)
        assert rep.inside

    def test_random_triples(self, rng):
        for _ in range(50):
            a = random_posdef(4, "complex", rng)
            b = random_posdef(4, "complex", rng)
            c = random_posdef(4, "complex", rng)
            rep = nc.posdef_triangle_check(a, b, c)
            assert rep.inside and rep.best_slack >= -1e-8
            # total sums agree exactly up to roundoff
            gap = np.sum(rep.theta) - np.sum(rep.phi) - np.sum(rep.psi)
            assert abs(gap) < 1e-9


class TestLidskii:
    def test_commuting_diagonal(self):
        x = np.diag([3.0, 1.0])
        z = np.diag([0.5, -0.5])
        res = nc.lidskii_check(x, z)
        assert res.inside
        assert abs(res.slack) < 1e-9

    def test_random_pairs(self, rng):
        for _ in range(50):
            x = random_hermitian(4, "complex", rng)
            z = random_hermitian(4, "complex", rng)
            res = nc.lidskii_check(x, z)
            assert res.inside and res.slack >= -1e-8

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            nc.lidskii_check(np.eye(2), np.eye(3))


class TestBallPoint:
    def test_rejects_norm_one(self):
        with pytest.raises(ValueError, match="operator norm"):
            BallPoint(np.eye(2))

    def test_rejects_asymmetric(self):
        t = np.array([[0.0, 0.5], [-0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            BallPoint(t)

    def test_symmetry_check_is_relative_below_norm_one(self, rng):
        with pytest.raises(ValueError, match="symmetric"):
            BallPoint(1e-12 * np.array([[0.1, 0.5], [-0.5, 0.1]]))
        t = random_ball_point(3, rng).matrix
        assert np.array_equal(BallPoint(1e-20 * t).matrix, 1e-20 * t)

    def test_stored_matrix_is_exactly_symmetric(self, rng):
        # asymmetry inside the tolerance is dropped, so the conjugate of the
        # defect factor is (1 - T* T)^(-1/2) exactly and both argument orders
        # of ball_angles see the same matrices
        t = random_ball_point(4, rng)
        g = random_matrix(rng, (4, 4), True)
        skew = (g - g.T) / np.linalg.norm(g - g.T)
        eps = 4e-11 * np.linalg.norm(t.matrix)
        t2 = BallPoint(t.matrix + eps * skew)
        assert np.array_equal(t2.matrix, t2.matrix.T)
        assert np.linalg.norm(t2.matrix - t.matrix) <= 1e-15 * np.linalg.norm(t.matrix)
        s = random_ball_point(4, rng)
        ang = nc.ball_angles(t2, s)
        assert np.all(np.abs(nc.ball_angles(s, t2) - ang) <= 1e-13 * ang[-1])

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_defect_conjugate_is_the_right_factor(self, rng, n):
        # (1 - S* S)^(-1/2) from an independent eigendecomposition
        for _ in range(200):
            s = random_ball_point(n, rng)
            lam, v = np.linalg.eigh(np.eye(n) - s.matrix.conj().T @ s.matrix)
            right = (v / np.sqrt(lam)) @ v.conj().T
            assert np.linalg.norm(np.conj(s.defect) - right) <= 1e-13 * np.linalg.norm(right)

    def test_angle_calls_reuse_the_defect(self, rng, monkeypatch):
        t, s = random_ball_point(5, rng), random_ball_point(5, rng)
        expected = nc.ball_angles(t, s), nc.cross_ratio_matrix(t, s)

        def no_factor(name):
            def raiser(*args, **kwargs):
                raise AssertionError(f"{name} after construction")
            return raiser

        monkeypatch.setattr(kernel, "svd", no_factor("svd"))
        monkeypatch.setattr(kernel, "eig_hermitian", no_factor("eig_hermitian"))
        assert np.array_equal(nc.ball_angles(t, s), expected[0])
        assert np.array_equal(nc.cross_ratio_matrix(t, s), expected[1])
        # construction takes its factor from one SVD and nothing else
        with pytest.raises(AssertionError, match="^svd after construction$"):
            BallPoint(t.matrix)


class TestBallAngles:
    def test_same_point_zero(self, rng):
        for _ in range(10):
            t = random_ball_point(3, rng)
            assert np.all(nc.ball_angles(t, t) == 0)

    def test_scalar_value(self, rng):
        from grassgeo.harness import random_rotation

        # centre of the disc against the real point 1/2: the cross-ratio
        # matrix is the scalar (1 - 1/4)^(-1/2) = 2/sqrt(3)
        t = BallPoint(np.zeros((1, 1)))
        s = BallPoint(np.array([[0.5]]))
        ang = nc.ball_angles(t, s)
        assert ang[0] == pytest.approx(np.arccosh(2.0 / np.sqrt(3.0)), abs=1e-12)
        assert ang[0] == pytest.approx(0.5493061443340549, abs=1e-12)
        # T = 0 against S = U diag(tanh a) U^t has the angles a, small ones
        # included.  With U = 1, S carries only the rounding of tanh a, and
        # the bound is plain rtol 1e-8.  Rounding a rotated S moves its
        # singular values by up to a few eps * |S|, an error no route can
        # undo, so there rtol 1e-8 gets that floor.
        a = np.array([1e-9, 1e-6, 0.3])
        t = BallPoint(np.zeros((3, 3)))
        assert np.all(np.abs(nc.ball_angles(t, BallPoint(np.diag(np.tanh(a)))) - a) <= 1e-8 * a)
        floor = 4 * np.finfo(float).eps * a[-1]
        for _ in range(20):
            u = random_rotation(3, "complex", rng)
            s = BallPoint(u @ np.diag(np.tanh(a)) @ u.T)
            assert np.all(np.abs(nc.ball_angles(t, s) - a) <= 1e-8 * a + floor)
            assert np.all(nc.ball_angles(s, s) == 0)

    def test_symmetry(self, rng):
        for _ in range(20):
            t = random_ball_point(3, rng)
            s = random_ball_point(3, rng)
            assert np.allclose(nc.ball_angles(t, s), nc.ball_angles(s, t), atol=1e-9)

    def test_sorted_increasing_nonnegative(self, rng):
        t = random_ball_point(4, rng)
        s = random_ball_point(4, rng)
        ang = nc.ball_angles(t, s)
        assert np.all(ang >= 0)
        assert np.all(np.diff(ang) >= 0)

    def test_unitary_congruence_invariance(self, rng):
        from grassgeo.harness import random_rotation

        t = random_ball_point(3, rng)
        s = random_ball_point(3, rng)
        u = random_rotation(3, "complex", rng)
        tu = BallPoint(u @ t.matrix @ u.T)
        su = BallPoint(u @ s.matrix @ u.T)
        assert np.allclose(nc.ball_angles(t, s), nc.ball_angles(tu, su), atol=1e-8)

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_near_the_boundary(self, rng, n):
        # T = r Q Q^t, a dense complex symmetric matrix with every singular
        # value r = 1 - 1e-8: 1 - T T* is about 2e-8, so the rounding of
        # T T* (about n eps) can leave it non-Hermitian beyond the kernel's
        # relative tolerance.  Rounding Q Q^t moves the singular values by
        # about n eps, the defect 1 - r^2 by n eps / 2e-8 relative and each
        # angle (about 9.5) by half that, absolute: the worst seen over 200
        # draws per size was 8e-9 relative against artanh r, 4e-10 for
        # symmetry and the cross-ratio route.
        r = 1.0 - 1e-8
        zero = BallPoint(np.zeros((n, n)))
        for _ in range(5):
            q, q2 = (random_rotation(n, "complex", rng) for _ in range(2))
            t, s = BallPoint(r * q @ q.T), BallPoint(r * q2 @ q2.T)
            assert np.allclose(nc.ball_angles(t, zero), np.arctanh(r), rtol=1e-7, atol=0)
            ang = nc.ball_angles(t, s)
            assert np.allclose(nc.ball_angles(s, t), ang, rtol=1e-8, atol=0)
            sigma = np.linalg.svd(nc.cross_ratio_matrix(t, s), compute_uv=False)
            assert np.allclose(np.sort(np.arccosh(sigma)), ang, rtol=1e-8, atol=0)
            assert np.all(nc.ball_angles(t, t) == 0)


class TestBallDistance:
    def test_metric_axioms(self, rng):
        norm = NormSpec.l2()
        for _ in range(30):
            t = random_ball_point(3, rng)
            s = random_ball_point(3, rng)
            u = random_ball_point(3, rng)
            dts = nc.ball_distance(t, s, norm)
            assert dts >= 0
            assert nc.ball_distance(s, t, norm) == pytest.approx(dts, abs=1e-9)
            assert dts + nc.ball_distance(s, u, norm) >= nc.ball_distance(t, u, norm) - 1e-8
