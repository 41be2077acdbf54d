import numpy as np
import pytest

from grassgeo import noncompact as nc
from grassgeo.errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
)
from grassgeo.harness import (
    random_ball_point,
    random_hermitian,
    random_posdef,
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
