import numpy as np
import pytest

from grassgeo import metrics, subspaces as sub, weyl
from grassgeo.errors import NoUniqueGeodesicError
from grassgeo.harness import random_rotation, random_subspace
from grassgeo.metrics import NormSpec

import oracles
from conftest import block_pair, hcurve_triple, projector


class TestNormSpec:
    def test_values(self):
        x = [3.0, -4.0, 0.0]
        assert NormSpec("l1")(x) == pytest.approx(7.0)
        assert NormSpec.l2()(x) == pytest.approx(5.0)
        assert NormSpec("linf")(x) == pytest.approx(4.0)
        assert NormSpec.kyfan(2)(x) == pytest.approx(7.0)
        assert NormSpec.kyfan(1)(x) == pytest.approx(4.0)

    def test_kyfan_clamps_to_length(self):
        assert NormSpec.kyfan(5)([1.0, 2.0]) == pytest.approx(3.0)

    def test_builtin_labels(self):
        assert NormSpec.builtin("kyfan3").k == 3
        assert NormSpec.builtin("l1").label() == "l1"
        with pytest.raises(ValueError):
            NormSpec.builtin("l3")

    def test_custom_accepted(self):
        spec = NormSpec.custom(lambda x: np.sum(np.abs(x)) + np.max(np.abs(x)), name="mix")
        assert spec([1.0, -2.0]) == pytest.approx(5.0)
        assert spec.label() == "mix"

    def test_custom_rejects_non_invariant(self):
        with pytest.raises(ValueError, match="invariant"):
            NormSpec.custom(lambda x: abs(float(x[0])) if len(x) > 1 else abs(float(x[0])) * 2)

    def test_custom_rejects_non_homogeneous(self):
        with pytest.raises(ValueError):
            NormSpec.custom(lambda x: float(np.sum(np.abs(x)) ** 2))


class TestDistance:
    def test_zero_on_equal(self, rng):
        l = random_subspace(3, 4, "real", rng)
        m = sub.Subspace(l.frame @ random_rotation(3, "real", rng))
        assert metrics.distance(l, m, NormSpec("l1")) < 1e-6

    def test_block_values(self):
        l, m = block_pair([0.3, 0.7])
        assert metrics.distance(l, m, NormSpec("l1")) == pytest.approx(1.0, abs=1e-12)
        assert metrics.distance(l, m, NormSpec("l2")) == pytest.approx(np.hypot(0.3, 0.7), abs=1e-12)

    def test_symmetry_and_invariance(self, rng):
        for _ in range(10):
            l = random_subspace(2, 5, "complex", rng)
            m = random_subspace(2, 5, "complex", rng)
            g = random_rotation(7, "complex", rng)
            for norm in (NormSpec("l1"), NormSpec("linf")):
                d = metrics.distance(l, m, norm)
                assert metrics.distance(m, l, norm) == pytest.approx(d, abs=1e-10)
                gl = sub.Subspace(g @ l.frame)
                gm = sub.Subspace(g @ m.frame)
                assert metrics.distance(gl, gm, norm) == pytest.approx(d, abs=1e-9)


class TestHCurve:
    def test_validation(self, rng):
        e = np.eye(4)[:, :2]
        f = np.eye(4)[:, 2:]
        metrics.HCurve(e, f, np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="orthonormal"):
            metrics.HCurve(e, e, np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="sorted"):
            metrics.HCurve(e, f, np.array([0.2, 0.1]))

    def test_eval_at_zero_is_e_span(self):
        e = np.eye(4)[:, :2]
        f = np.eye(4)[:, 2:]
        curve = metrics.HCurve(e, f, np.array([0.3, 0.9]))
        at0 = metrics.hcurve_eval(curve, 0.0)
        assert np.linalg.norm(projector(at0) - e @ e.T) < 1e-12

    def test_eval_angles_scale_linearly(self):
        e = np.eye(4)[:, :2]
        f = np.eye(4)[:, 2:]
        a = np.array([0.3, 0.9])
        curve = metrics.HCurve(e, f, a)
        start = metrics.hcurve_eval(curve, 0.0)
        for s in (0.2, 0.7, 1.0):
            ang = sub.jordan_angles(start, metrics.hcurve_eval(curve, s))
            assert np.allclose(ang, a * s, atol=1e-10)


class TestHCurveBetween:
    @pytest.mark.parametrize("cplx", [False, True])
    def test_endpoints(self, rng, cplx):
        field = "complex" if cplx else "real"
        for _ in range(10):
            l = random_subspace(3, 4, field, rng)
            m = random_subspace(3, 4, field, rng)
            try:
                curve = metrics.hcurve_between(l, m)
            except NoUniqueGeodesicError:
                continue
            at0 = metrics.hcurve_eval(curve, 0.0)
            at1 = metrics.hcurve_eval(curve, 1.0)
            # projector comparison avoids the square-root amplification of
            # arccos near zero angles
            assert np.linalg.norm(projector(at0) - projector(l)) < 1e-10
            assert np.linalg.norm(projector(at1) - projector(m)) < 1e-10

    @pytest.mark.parametrize("cplx", [False, True])
    def test_equal_endpoints_complete_the_frame(self, rng, cplx):
        # every angle is zero, so the QR of (e, g) supplies each f column
        l = random_subspace(3, 4, "complex" if cplx else "real", rng)
        curve = metrics.hcurve_between(l, l)
        combined = np.hstack([curve.e_frame, curve.f_frame])
        assert np.linalg.norm(combined.conj().T @ combined - np.eye(6)) < 1e-12
        mid = metrics.hcurve_eval(curve, 0.5)
        assert np.linalg.norm(projector(mid) - projector(l)) < 1e-12

    @pytest.mark.parametrize("cplx", [False, True])
    def test_equal_endpoints_give_zero_rates(self, rng, cplx):
        # the rates are CS-decomposition angles, accurate near 0, not arccos
        # of cosines near 1
        field = "complex" if cplx else "real"
        for _ in range(50):
            l = random_subspace(3, 4, field, rng)
            m = sub.Subspace(l.frame @ random_rotation(3, field, rng))
            assert np.max(metrics.hcurve_between(l, m).a) <= 1e-14

    def test_rates_are_jordan_angles(self, rng):
        l = random_subspace(2, 4, "real", rng)
        m = random_subspace(2, 4, "real", rng)
        curve = metrics.hcurve_between(l, m)
        assert np.allclose(curve.a, sub.jordan_angles(l, m), atol=1e-10)

    def test_additivity_along_curve(self, rng):
        # angles between two points of one curve are exactly a |s - t|
        # as long as the top angle stays within a quarter turn
        for _ in range(5):
            l = random_subspace(3, 5, "real", rng)
            m = random_subspace(3, 5, "real", rng)
            curve = metrics.hcurve_between(l, m)
            smax = (np.pi / 2) / max(curve.a[-1], 1e-12)
            for s, t in ((0.0, 0.5), (0.25, 1.0), (0.1, 0.9)):
                if abs(s - t) > smax:
                    continue
                ang = sub.jordan_angles(
                    metrics.hcurve_eval(curve, s), metrics.hcurve_eval(curve, t)
                )
                assert np.allclose(ang, curve.a * abs(s - t), atol=1e-9)

    def test_perpendicular_rejected(self):
        e = np.eye(4)
        l = sub.Subspace(e[:, :2])
        m = sub.Subspace(e[:, 2:])
        with pytest.raises(NoUniqueGeodesicError):
            metrics.hcurve_between(l, m)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_angles_at_the_sine_cosine_split(self, rng, cplx):
        # equal angles at pi/4, where cos = sin, and angles just beside it:
        # the curve must still end in the right subspace
        field = "complex" if cplx else "real"
        quarter = np.pi / 4
        near = [quarter - 1e-12, quarter, quarter + 1e-12, 1.2]
        for a in ([0.3, quarter, quarter, quarter], near):
            for _ in range(25):
                frame = random_rotation(8, field, rng)
                e, f = frame[:, :4], frame[:, 4:]
                l = sub.Subspace(e @ random_rotation(4, field, rng))
                m = sub.Subspace((e * np.cos(a) + f * np.sin(a)) @ random_rotation(4, field, rng))
                curve = metrics.hcurve_between(l, m)
                at1 = metrics.hcurve_eval(curve, 1.0)
                assert np.linalg.norm(projector(at1) - projector(m), 2) < 1e-12
                assert np.max(np.abs(curve.a - a)) < 1e-12

    def test_tiny_angles_handled(self, rng):
        # the cosines agree to rounding here, so e and f must be paired
        # through the sines too, as the CS decomposition pairs them, not
        # through the cross-Gram's singular vectors alone
        for p, q in ((2, 4), (16, 16)):
            for sep in (1e-9, 1e-5):
                for _ in range(20):
                    l = random_subspace(p, q, "real", rng)
                    noise = sep * rng.standard_normal(l.frame.shape)
                    m = sub.Subspace.from_spanning(l.frame + noise)
                    curve = metrics.hcurve_between(l, m)
                    at1 = metrics.hcurve_eval(curve, 1.0)
                    assert np.linalg.norm(projector(at1) - projector(m)) < 1e-12
                    assert np.max(np.abs(curve.a - sub.jordan_angles(l, m))) < 1e-12


class TestFinslerLength:
    def test_exact_on_curve_partitions(self, rng):
        l = random_subspace(2, 3, "real", rng)
        m = random_subspace(2, 3, "real", rng)
        curve = metrics.hcurve_between(l, m)
        norm = NormSpec.l2()
        direct = oracles.finsler_length([l, m], norm)
        for k in (2, 5, 17):
            pts = [metrics.hcurve_eval(curve, s) for s in np.linspace(0, 1, k + 1)]
            assert oracles.finsler_length(pts, norm) == pytest.approx(direct, abs=1e-8)

    def test_detour_is_longer(self, rng):
        norm = NormSpec("l1")
        for _ in range(10):
            l = random_subspace(2, 4, "real", rng)
            m = random_subspace(2, 4, "real", rng)
            via = random_subspace(2, 4, "real", rng)
            assert oracles.finsler_length([l, via, m], norm) >= (
                metrics.distance(l, m, norm) - 1e-9
            )

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            oracles.finsler_length([], NormSpec.l2())


class TestTriangleCheck:
    def test_degenerate_triple_equal_points(self, rng):
        l = random_subspace(2, 3, "real", rng)
        rep = metrics.triangle_check(l, l, l)
        assert rep.inside

    def test_collinear_on_curve(self, rng):
        # three points of one H-curve: the relation holds with near-zero slack
        a = random_subspace(2, 4, "real", rng)
        b = random_subspace(2, 4, "real", rng)
        curve = metrics.hcurve_between(a, b)
        pts = [metrics.hcurve_eval(curve, s) for s in (0.0, 0.4, 1.0)]
        rep = metrics.triangle_check(*pts)
        assert rep.inside
        assert rep.best_slack > -1e-9

    @pytest.mark.parametrize("cplx", [False, True])
    def test_random_triples(self, rng, cplx):
        field = "complex" if cplx else "real"
        for _ in range(30):
            l = random_subspace(3, 4, field, rng)
            m = random_subspace(3, 4, field, rng)
            n = random_subspace(3, 4, field, rng)
            rep = metrics.triangle_check(l, m, n)
            assert rep.inside
            assert rep.best_slack >= -1e-8

    def test_certificate_reconstructs(self, rng):
        from grassgeo import weyl

        for _ in range(5):
            l = random_subspace(3, 4, "real", rng)
            m = random_subspace(3, 4, "real", rng)
            n = random_subspace(3, 4, "real", rng)
            rep = metrics.triangle_check(l, m, n, want_certificate=True)
            assert rep.certificate is not None
            target = rep.witness.apply(rep.theta) - rep.phi
            rec = oracles.reconstruct_certificate(rep.certificate, rep.psi)
            assert np.max(np.abs(rec - target)) <= 1e-12 * np.max(rep.psi)

    def test_large_p_certificates(self, rng):
        for p in (6, 8, 16):
            for _ in range(3):
                l, m, n = (random_subspace(p, p, "real", rng) for _ in range(3))
                rep = metrics.triangle_check(l, m, n, want_certificate=True)
                assert rep.inside
                weights = np.array([wt for wt, _ in rep.certificate])
                assert np.all(weights >= 0) and abs(weights.sum() - 1) <= 1e-12
                assert len(weights) <= p + 1
                rec = oracles.reconstruct_certificate(rep.certificate, rep.psi)
                assert np.max(np.abs(rec - (rep.theta - rep.phi))) <= 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_identity_pairing_is_optimal(self, rng, field):
        # the best slack over the whole signed orbit of theta, by brute force
        def orbit_best(rep):
            return max(
                weyl.majorization_slack(row - rep.phi, rep.psi, True)
                for row in weyl.orbit_matrix(rep.theta)
            )

        for p in range(1, 6):
            for _ in range(3):
                l = random_subspace(p, p + 1, field, rng)
                n = random_subspace(p, p + 1, field, rng)
                triples = (
                    [l, random_subspace(p, p + 1, field, rng), n],
                    hcurve_triple(rng, p, p + 1, 10.0 ** -rng.uniform(1, 8), field),
                    [l, sub.Subspace(l.frame @ random_rotation(p, field, rng)), n],
                )
                for triple in triples:
                    rep = metrics.triangle_check(*triple)
                    best = orbit_best(rep)
                    assert abs(rep.best_slack - best) <= 1e-14
                    assert rep.inside == (best >= -weyl.BOUNDARY_TOL)
                    assert rep.witness == weyl.SignedPermutation.identity(p)

    @pytest.mark.parametrize("p", [8, 16])
    def test_large_p_verdicts(self, rng, p):
        for _ in range(5):
            rep = metrics.triangle_check(*(random_subspace(p, p, "real", rng) for _ in range(3)))
            assert rep.inside
            rep = metrics.triangle_check(*hcurve_triple(rng, p, p, 10.0 ** -rng.uniform(1, 8)))
            assert rep.inside
            assert abs(rep.best_slack) <= 1e-12

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_boundary_certificates(self, rng, p):
        # equality triples sit on the hull boundary and may leave it by
        # rounding; every one must still be certified, up to that violation
        for decade in range(1, 8):
            for field in ("real", "complex"):
                top = 10.0 ** -(decade + rng.uniform(0, 1))
                rep = metrics.triangle_check(*hcurve_triple(rng, p, p, top, field),
                                             want_certificate=True)
                assert rep.inside
                assert rep.certificate is not None
                rec = oracles.reconstruct_certificate(rep.certificate, rep.psi)
                bound = max(0.0, -rep.best_slack) + 1e-12 * np.max(rep.psi)
                assert np.max(np.abs(rec - (rep.theta - rep.phi))) <= bound
