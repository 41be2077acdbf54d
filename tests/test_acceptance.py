"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line so a plain `pytest -s
tests/test_acceptance.py` reads as a checklist.  Trial counts and
tolerances are pinned; the whole module is sized to run in well under
three minutes.
"""

import json

import numpy as np

from grassgeo import harness, metrics, noncompact, subspaces as sub, weyl
from grassgeo.errors import DegenerateConfigurationError, NoUniqueGeodesicError
from grassgeo.harness import (
    TrialConfig,
    random_ball_point,
    random_hermitian,
    random_posdef,
    random_rotation,
    random_subspace,
    random_tangent,
)
from grassgeo.metrics import NormSpec

import oracles
from conftest import projector, richardson_rate


def _report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_invariance_and_symmetry():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        field = "real" if trial % 2 == 0 else "complex"
        p = int(rng.integers(1, 5))
        q = int(rng.integers(p, 7))
        l = random_subspace(p, q, field, rng)
        m = random_subspace(p, q, field, rng)
        g = random_rotation(p + q, field, rng)
        base = sub.jordan_angles(l, m)
        moved = sub.jordan_angles(
            sub.Subspace(g @ l.frame), sub.Subspace(g @ m.frame)
        )
        swapped = sub.jordan_angles(m, l)
        worst = max(
            worst,
            float(np.max(np.abs(base - moved))),
            float(np.max(np.abs(base - swapped))),
        )
    _report(1, "angle invariance and symmetry", worst <= 1e-9, f"worst deviation {worst:.2e}")


def test_02_route_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(200):
        cplx = trial % 2 == 1
        p = int(rng.integers(1, 5))
        n = int(rng.integers(2 * p, 2 * p + 5))
        a = rng.standard_normal((n, p))
        b = rng.standard_normal((n, p))
        if cplx:
            a = a + 1j * rng.standard_normal((n, p))
            b = b + 1j * rng.standard_normal((n, p))
        # skew one basis so from_spanning orthonormalizes genuinely nonorthogonal input
        a = a @ (np.eye(p) + 0.5 * rng.standard_normal((p, p)))
        l = sub.Subspace.from_spanning(a)
        m = sub.Subspace.from_spanning(b)
        svd_route = sub.jordan_angles(l, m)
        cs_route = sub.principal_vectors(l, m).angles
        worst = max(worst, float(np.max(np.abs(svd_route - cs_route))))
    _report(2, "two angle routes agree", worst <= 1e-12, f"worst deviation {worst:.2e}")


def test_03_triangle_certification():
    rng = np.random.default_rng(103)
    worst_slack = np.inf
    worst_cert = 0.0
    for p, q, trials in ((3, 4, 1000), (4, 6, 300)):
        for trial in range(trials):
            field = "real" if trial % 2 == 0 else "complex"
            l = random_subspace(p, q, field, rng)
            m = random_subspace(p, q, field, rng)
            n = random_subspace(p, q, field, rng)
            rep = metrics.triangle_check(l, m, n, want_certificate=True)
            worst_slack = min(worst_slack, rep.best_slack)
            if rep.certificate is not None:
                target = rep.witness.apply(rep.theta) - rep.phi
                rec = oracles.reconstruct_certificate(rep.certificate, rep.psi)
                err = float(np.max(np.abs(rec - target)))
                worst_cert = max(worst_cert, err / np.max(rep.psi))
    ok = worst_slack >= -1e-8 and worst_cert <= 1e-12
    _report(3, "triangle certification", ok,
            f"worst slack {worst_slack:.2e}, worst certificate error {worst_cert:.2e} of max psi")


def test_04_metric_axioms():
    rng = np.random.default_rng(104)
    norms = [NormSpec("l1"), NormSpec.l2(), NormSpec("linf"), NormSpec.kyfan(2)]
    worst_tri = np.inf
    worst_sym = 0.0
    for trial in range(1000):
        l = random_subspace(3, 4, "real", rng)
        m = random_subspace(3, 4, "real", rng)
        n = random_subspace(3, 4, "real", rng)
        for norm in norms:
            dlm = metrics.distance(l, m, norm)
            dmn = metrics.distance(m, n, norm)
            dln = metrics.distance(l, n, norm)
            worst_tri = min(worst_tri, dlm + dmn - dln)
            worst_sym = max(worst_sym, abs(metrics.distance(m, l, norm) - dlm))
    ok = worst_tri >= -1e-9 and worst_sym <= 1e-10
    _report(4, "metric axioms for built-in norms", ok,
            f"worst triangle margin {worst_tri:.2e}, worst asymmetry {worst_sym:.2e}")


def test_05_curve_additivity():
    rng = np.random.default_rng(105)
    worst = 0.0
    done = 0
    while done < 100:
        l = random_subspace(3, 4, "real", rng)
        m = random_subspace(3, 4, "real", rng)
        try:
            curve = metrics.hcurve_between(l, m)
        except NoUniqueGeodesicError:
            continue
        done += 1
        top = max(float(curve.a[-1]), 1e-12)
        span = (np.pi / 2) / top
        s = float(rng.uniform(0, 0.2)) * span
        u = s + float(rng.uniform(0.5, 1.0)) * (span - s)
        t = float(rng.uniform(s, u))
        ang_su = sub.jordan_angles(metrics.hcurve_eval(curve, s), metrics.hcurve_eval(curve, u))
        ang_st = sub.jordan_angles(metrics.hcurve_eval(curve, s), metrics.hcurve_eval(curve, t))
        ang_tu = sub.jordan_angles(metrics.hcurve_eval(curve, t), metrics.hcurve_eval(curve, u))
        worst = max(worst, float(np.max(np.abs(ang_st + ang_tu - ang_su))))
        worst = max(worst, float(np.max(np.abs(ang_su - curve.a * (u - s)))))
    _report(5, "angle additivity along curves", worst <= 1e-9, f"worst deviation {worst:.2e}")


def test_06_joining_curve_endpoints():
    rng = np.random.default_rng(106)
    worst = 0.0
    done = 0
    while done < 200:
        field = "real" if done % 2 == 0 else "complex"
        l = random_subspace(2, 4, field, rng)
        m = random_subspace(2, 4, field, rng)
        if sub.jordan_angles(l, m)[-1] >= np.pi / 2 - 1e-3:
            continue
        curve = metrics.hcurve_between(l, m)
        done += 1
        err0 = np.linalg.norm(projector(metrics.hcurve_eval(curve, 0.0)) - projector(l))
        err1 = np.linalg.norm(projector(metrics.hcurve_eval(curve, 1.0)) - projector(m))
        worst = max(worst, float(err0), float(err1))
    _report(6, "joining curve endpoints", worst <= 1e-8, f"worst span error {worst:.2e}")


def test_07_angle_rate_finite_difference():
    rng = np.random.default_rng(107)
    worst = 0.0
    done = 0
    while done < 100:
        field = "real" if done % 2 == 0 else "complex"
        l = random_subspace(3, 4, field, rng)
        m = random_subspace(3, 4, field, rng)
        h = random_tangent(m, rng)
        try:
            rates = sub.angle_rate(l, m, h)
        except DegenerateConfigurationError:
            continue
        done += 1
        worst = max(worst, float(np.max(np.abs(richardson_rate(l, m, h, 1e-4) - rates))))
    _report(7, "angle rate vs finite difference", worst <= 1e-8, f"worst deviation {worst:.2e}")


def test_08_curve_length_minimality():
    rng = np.random.default_rng(108)
    norms = [NormSpec.builtin(lbl) for lbl in metrics.BUILTIN_NORMS]
    l = random_subspace(2, 4, "real", rng)
    m = random_subspace(2, 4, "real", rng)
    curve = metrics.hcurve_between(l, m)
    pts = [metrics.hcurve_eval(curve, s) for s in np.linspace(0, 1, 1000)]
    gap = abs(oracles.finsler_length(pts, NormSpec.l2()) - metrics.distance(l, m, NormSpec("l2")))
    worst_short = np.inf
    for _ in range(100):
        a = random_subspace(2, 4, "real", rng)
        b = random_subspace(2, 4, "real", rng)
        k = int(rng.integers(1, 4))
        path = [a] + [random_subspace(2, 4, "real", rng) for _ in range(k)] + [b]
        for norm in norms:
            worst_short = min(
                worst_short,
                oracles.finsler_length(path, norm) - metrics.distance(a, b, norm),
            )
    ok = gap <= 1e-6 and worst_short >= -1e-6
    _report(8, "curve length and path minimality", ok,
            f"partition gap {gap:.2e}, worst path shortfall {worst_short:.2e}")


def test_09_decomposition_suite():
    rng = np.random.default_rng(109)
    worst_birkhoff = 0.0
    terms_ok = True
    for p in (2, 3, 4, 5, 6):
        for _ in range(10):
            a = np.zeros((p, p))
            wts = rng.dirichlet(np.ones(int(rng.integers(1, 8))))
            for w in wts:
                a += w * weyl.SignedPermutation(tuple(rng.permutation(p)), (1,) * p).matrix()
            terms = weyl.birkhoff_decompose(a)
            terms_ok = terms_ok and len(terms) <= (p - 1) ** 2 + 1
            rec = sum(wt * w.matrix() for wt, w in terms)
            worst_birkhoff = max(worst_birkhoff, float(np.max(np.abs(rec - a))))
    worst_quasi = 0.0
    for p in (2, 3, 4, 5, 6):
        for _ in range(5):
            u = random_rotation(p, "real", rng)
            v = random_rotation(p, "real", rng)
            a = u * v
            terms = weyl.quasistochastic_decompose(a)
            rec = sum(wt * w.matrix() for wt, w in terms)
            worst_quasi = max(worst_quasi, float(np.max(np.abs(rec - a))))
    worst_diag = np.inf
    for _ in range(500):
        res = weyl.fan_ky_diagonal_check(rng.standard_normal((4, 6)))
        worst_diag = min(worst_diag, res.slack)
    ok = (worst_birkhoff <= 1e-9 and terms_ok and worst_quasi <= 1e-9
          and worst_diag >= -1e-9)
    _report(9, "decomposition suite", ok,
            f"birkhoff {worst_birkhoff:.2e}, quasistochastic {worst_quasi:.2e}, "
            f"diagonal slack {worst_diag:.2e}")


def test_10_membership_oracle_agreement():
    rng = np.random.default_rng(110)
    checked = 0
    mismatches = 0
    for trial in range(1000):
        p = int(rng.integers(2, 5))
        group = "signed" if trial % 2 == 0 else "permutation"
        psi = np.abs(rng.standard_normal(p)) if group == "signed" else rng.standard_normal(p)
        x = rng.standard_normal(p) * float(rng.uniform(0.3, 1.2))
        res = weyl.orbit_membership(x, psi, group)
        if abs(res.slack) <= 1e-9:
            continue
        checked += 1
        if res.inside != weyl.vertex_lp_membership(x, psi, group):
            mismatches += 1
    ok = mismatches == 0 and checked > 500
    _report(10, "majorization vs vertex LP oracle", ok,
            f"{checked} decisive queries, {mismatches} mismatches")


def test_11_noncompact_suite():
    rng = np.random.default_rng(111)
    worst_slack = np.inf
    worst_sum = 0.0
    for trial in range(500):
        n = int(rng.integers(2, 7))
        a = random_posdef(n, "complex", rng)
        b = random_posdef(n, "complex", rng)
        c = random_posdef(n, "complex", rng)
        rep = noncompact.posdef_triangle_check(a, b, c)
        worst_slack = min(worst_slack, rep.best_slack)
        worst_sum = max(
            worst_sum, abs(float(np.sum(rep.theta) - np.sum(rep.phi) - np.sum(rep.psi)))
        )
    worst_lidskii = np.inf
    for _ in range(500):
        n = int(rng.integers(2, 7))
        x = random_hermitian(n, "complex", rng)
        z = random_hermitian(n, "complex", rng)
        worst_lidskii = min(worst_lidskii, noncompact.lidskii_check(x, z).slack)
    norms = [NormSpec("l1"), NormSpec.l2(), NormSpec("linf")]
    worst_sigma = np.inf
    worst_tri = np.inf
    worst_sym = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        t = random_ball_point(n, rng)
        s = random_ball_point(n, rng)
        u = random_ball_point(n, rng)
        sigma = np.cosh(noncompact.ball_angles(t, s))
        worst_sigma = min(worst_sigma, float(sigma.min() - 1.0))
        for norm in norms:
            dts = noncompact.ball_distance(t, s, norm)
            worst_sym = max(worst_sym, abs(noncompact.ball_distance(s, t, norm) - dts))
            worst_tri = min(
                worst_tri,
                dts + noncompact.ball_distance(s, u, norm) - noncompact.ball_distance(t, u, norm),
            )
    ok = (worst_slack >= -1e-8 and worst_sum <= 1e-9 and worst_lidskii >= -1e-8
          and worst_sigma >= -1e-9 and worst_tri >= -1e-8 and worst_sym <= 1e-8)
    _report(11, "noncompact space suite", ok,
            f"posdef slack {worst_slack:.2e}, sum gap {worst_sum:.2e}, "
            f"lidskii slack {worst_lidskii:.2e}, ball triangle {worst_tri:.2e}")


def test_12_fuzz_determinism():
    configs = [
        TrialConfig(space="grassmann-real", p=2, q=3, trials=20, seed=77),
        TrialConfig(space="ball", n=3, trials=20, seed=77),
    ]
    ok = True
    for cfg in configs:
        blob1 = json.dumps(harness.run_trials(cfg).to_dict(), sort_keys=True)
        blob2 = json.dumps(harness.run_trials(cfg).to_dict(), sort_keys=True)
        ok = ok and blob1 == blob2
    _report(12, "fuzz report determinism", ok)
