import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grassgeo import cli, weyl
from grassgeo.errors import DimensionMismatchError
from grassgeo.harness import random_rotation

import oracles
from conftest import random_matrix

finite = st.floats(min_value=-5, max_value=5, allow_nan=False)


def reconstruct(terms):
    return sum(wt * w.matrix() for wt, w in terms)


def max_terms(p):
    return ((p - 1) ** 2 + 1) * (p + 1)


def array_face_walk(x, psi, signed):
    """The face walk in numpy array form, step for step as `weyl._face_walk`
    with the same floating-point expressions: its certificates must match
    bit for bit.  Returns [(weight, perm tuple, signs tuple)]."""
    p = len(x)
    sx = np.where(x < 0, -1, 1) if signed else np.ones(p, dtype=int)
    ix = np.argsort(-sx * x, kind="stable")
    ip = np.argsort(-psi, kind="stable")
    inv = np.argsort(ix)
    y, ps = (sx * x)[ix], psi[ip]
    idx = np.arange(p)
    start, end = np.zeros(p, dtype=int), np.full(p, p - 1)
    free = 0 if signed else p
    terms, rest = [], 1.0
    while True:
        closed = idx < free
        perm = np.where(closed, start + end - idx, idx)
        sign = np.where(closed, 1, -1)
        vertex = (tuple(ip[perm][inv].tolist()), tuple((sx * sign[inv]).tolist()))
        d = y - sign * ps[perm]
        a = np.stack([d, ps - y])
        c = np.cumsum(a, axis=1)
        growth, gap = c - (c - a)[:, start]
        grows = (growth > 0) & ((end > idx) | ~closed)
        if not grows.any():
            break
        ratio = np.full(p, np.inf)
        ratio[grows] = np.maximum(gap[grows], 0) / growth[grows]
        k = int(np.argmin(ratio))
        mu = float(ratio[k])
        t = mu / (1 + mu)
        if t > 0:
            terms.append((rest * t, *vertex))
        rest *= 1 - t
        y = y + mu * d
        start[k + 1:end[k] + 1] = k + 1
        end[start[k]:k + 1] = k
        free = max(free, k + 1)
    terms.append((rest, *vertex))
    return terms


def check_elements(terms):
    """Every term's element is one the public constructor accepts and equals,
    stored as tuples of Python ints."""
    for _, w in terms:
        assert weyl.SignedPermutation(w.perm, w.signs) == w
        assert type(w.perm) is tuple and type(w.signs) is tuple
        assert all(type(v) is int for v in w.perm + w.signs)


def check_certificates(cases, group, p):
    """Each certificate: valid elements, weights >= 0 summing to 1, at most
    p + 1 terms (p for permutations), rebuilding x up to twice its violation
    of the hull, and identical to the array form of the walk."""
    for x, psi in cases:
        res = weyl.orbit_membership(x, psi, group, want_certificate=True)
        assert res.inside
        check_elements(res.certificate)
        assert [(wt, w.perm, w.signs) for wt, w in res.certificate] == array_face_walk(
            np.asarray(x, dtype=float), np.asarray(psi, dtype=float), group == "signed")
        weights = np.array([wt for wt, _ in res.certificate])
        assert np.all(weights >= 0) and abs(weights.sum() - 1) <= 1e-12
        assert len(res.certificate) <= p + (group == "signed")
        if group == "permutation":
            assert all(w.signs == (1,) * p for _, w in res.certificate)
        rec = oracles.reconstruct_certificate(res.certificate, psi)
        bound = 2 * max(0.0, -res.slack) + 1e-12 * np.max(np.abs(psi))
        assert np.max(np.abs(rec - x)) <= bound


def check_decomposition(terms, a, bound):
    """Valid elements, positive weights summing to 1, at most `bound` terms, rebuilding `a`."""
    check_elements(terms)
    weights = np.array([wt for wt, _ in terms])
    assert np.all(weights > 0) and abs(weights.sum() - 1) <= 1e-12
    assert len(terms) <= bound
    assert np.max(np.abs(reconstruct(terms) - a)) <= 1e-12


def check_birkhoff(terms, a):
    """check_decomposition at Birkhoff's bound, every weight above the 1e-14 support threshold."""
    check_decomposition(terms, a, (len(a) - 1) ** 2 + 1)
    assert min(wt for wt, _ in terms) > 1e-14


def random_bistochastic_mix(rng, p, k):
    """Random convex combination of k permutation matrices."""
    a = np.zeros((p, p))
    for wt in rng.dirichlet(np.ones(k)):
        a += wt * np.eye(p)[rng.permutation(p)]
    return a


def random_bistochastic(rng, p):
    return random_bistochastic_mix(rng, p, int(rng.integers(1, 2 * p + 1)))


def output_digest(terms):
    """SHA-256 over every term in order: weight as float.hex, then perm and signs."""
    text = "".join(f"{wt.hex()} {w.perm} {w.signs}\n" for wt, w in terms)
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_outputs():
    """Name -> terms of three fixed inputs: a p = 16 Birkhoff mix, a p = 5
    quasistochastic mix of signed permutations and a p = 8 signed certificate."""
    rng = np.random.default_rng(16)
    mix = random_bistochastic_mix(rng, 16, 48)
    rng = np.random.default_rng(5)
    signed_mix = sum(wt * rng.choice([-1.0, 1.0], (5, 1)) * np.eye(5)[rng.permutation(5)]
                     for wt in rng.dirichlet(np.ones(12)))
    rng = np.random.default_rng(8)
    psi = np.abs(rng.standard_normal(8))
    x = sum(wt * rng.choice([-1.0, 1.0], 8) * psi[rng.permutation(8)]
            for wt in rng.dirichlet(np.ones(6)))
    return {
        "birkhoff": weyl.birkhoff_decompose(mix),
        "quasistochastic": weyl.quasistochastic_decompose(signed_mix),
        "certificate": weyl.orbit_membership(x, psi, "signed", want_certificate=True).certificate,
    }


class TestSignedPermutation:
    def test_apply_matches_matrix(self, rng):
        w = weyl.SignedPermutation((2, 0, 1), (1, -1, 1))
        x = rng.standard_normal(3)
        assert np.allclose(w.apply(x), w.matrix() @ x)

    def test_invalid(self):
        with pytest.raises(ValueError, match="permutation"):
            weyl.SignedPermutation((0, 0, 1), (1, 1, 1))
        with pytest.raises(ValueError, match="signs"):
            weyl.SignedPermutation((0, 1), (1, 2))
        with pytest.raises(ValueError, match="signs"):
            weyl.SignedPermutation((0, 1), (1, 1.5))
        with pytest.raises(ValueError, match="signs"):
            weyl.SignedPermutation((0, 1), (1,))

    def test_numpy_inputs_are_stored_as_ints(self):
        for perm, signs in [
            (np.array([1, 0]), np.array([1, -1])),
            (np.array([1.0, 0.0]), np.array([1.0, -1.0])),
            ([np.int32(1), np.int64(0)], [np.float64(1.0), np.int8(-1)]),
        ]:
            w = weyl.SignedPermutation(perm, signs)
            assert w == weyl.SignedPermutation((1, 0), (1, -1))
            assert hash(w) == hash(weyl.SignedPermutation((1, 0), (1, -1)))
            assert json.loads(json.dumps(cli._perm_out(w))) == {"perm": [1, 0], "signs": [1, -1]}
            assert type(w.perm) is tuple and type(w.signs) is tuple
            assert all(type(v) is int for v in w.perm + w.signs)

    @pytest.mark.parametrize("p", [1, 3, 16])
    def test_identity(self, p):
        w = weyl.SignedPermutation.identity(p)
        check_elements([(1.0, w)])
        assert w.perm == tuple(range(p)) and w.signs == (1,) * p
        assert np.array_equal(w.matrix(), np.eye(p))

    def test_group_sizes(self):
        assert len(weyl.enumerate_group(3, signed=True)) == 48
        assert len(weyl.enumerate_group(4, signed=False)) == 24


class TestOrbitMembership:
    def test_vertex(self):
        res = weyl.orbit_membership([1.0, 0.5], [1.0, 0.5], "signed", want_certificate=True)
        assert res.inside and abs(res.slack) < 1e-12
        assert len(res.certificate) == 1

    def test_origin_inside_signed(self):
        assert weyl.orbit_membership([0.0, 0.0], [1.0, 1.0], "signed").inside

    def test_violation_magnitude(self):
        psi = np.array([1.0, 0.5, 0.25])
        x = np.array([psi[0] + 0.1, 0.0, 0.0])
        res = weyl.orbit_membership(x, psi, "signed")
        assert not res.inside
        assert abs(res.slack + 0.1) < 1e-12

    def test_permutation_requires_sum_equality(self):
        res = weyl.orbit_membership([0.5, 0.0], [1.0, 0.0], "permutation")
        assert not res.inside
        assert res.slack == pytest.approx(-0.5)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_random_combinations_inside_with_certificate(self, rng, p):
        elems = weyl.enumerate_group(p, signed=True)
        for _ in range(10):
            psi = np.sort(rng.uniform(0, 2, p))[::-1]
            idx = rng.choice(len(elems), size=min(6, len(elems)), replace=False)
            wts = rng.dirichlet(np.ones(len(idx)))
            x = sum(w * elems[i].apply(psi) for w, i in zip(wts, idx))
            res = weyl.orbit_membership(x, psi, "signed", want_certificate=True)
            assert res.inside
            rec = oracles.reconstruct_certificate(res.certificate, psi)
            assert np.max(np.abs(rec - x)) <= 1e-12 * np.max(psi)
            total = sum(wt for wt, _ in res.certificate)
            assert abs(total - 1) <= 1e-12
            assert len(res.certificate) <= p + 1

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 16])
    def test_permutation_certificates(self, rng, p):
        cases = []
        for _ in range(10):
            psi = rng.standard_normal(p)
            cases.append((random_bistochastic(rng, p) @ psi, psi))
            tied = psi.copy()
            tied[rng.choice(p, size=(p + 1) // 2, replace=False)] = psi[0]
            cases.append((random_bistochastic(rng, p) @ tied, tied))
            cases.append((psi[rng.permutation(p)], psi))
            cases.append((np.full(p, psi.mean()), psi))
            # outside the hull by at most half the tolerance: inside only by it
            nudge = rng.uniform(-0.5, 0.5, p) * weyl.BOUNDARY_TOL / p
            cases.append((random_bistochastic(rng, p) @ psi + nudge, psi))
        check_certificates(cases, "permutation", p)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 16])
    def test_signed_certificates(self, rng, p):
        def signs():
            return rng.choice([-1.0, 1.0], p)

        cases = []
        for _ in range(10):
            psi = np.abs(rng.standard_normal(p))
            tied, zeros = psi.copy(), psi.copy()
            tied[rng.choice(p, size=(p + 1) // 2, replace=False)] = psi[0]
            zeros[rng.choice(p, size=(p + 1) // 2, replace=False)] = 0.0
            for base in (psi, tied, zeros):
                cases.append((signs() * (random_bistochastic(rng, p) @ base), base))
            cases.append((np.zeros(p), psi))
            vertex = signs() * psi[rng.permutation(p)]
            cases.append((vertex, psi))
            mixture = sum(wt * signs() * (random_bistochastic(rng, p) @ psi)
                          for wt in rng.dirichlet(np.ones(3)))
            cases.append((mixture, psi))
            # outside the hull by half the tolerance: inside only by it
            cases.append((vertex * (1 + 0.5 * weyl.BOUNDARY_TOL / psi.sum()), psi))
            nudge = rng.uniform(-0.5, 0.5, p) * weyl.BOUNDARY_TOL / p
            cases.append((signs() * (random_bistochastic(rng, p) @ psi) + nudge, psi))
        check_certificates(cases, "signed", p)

    @pytest.mark.parametrize("group", ["signed", "permutation"])
    def test_reversed_vertex_trap(self, group):
        # starting from psi in x's own order, growth is -0.4 and no facet
        # bounds the step; the reversed vertex needs two terms
        res = weyl.orbit_membership([0.6, 0.4], [1.0, 0.0], group, want_certificate=True)
        assert [wt for wt, _ in res.certificate] == pytest.approx([0.4, 0.6])
        assert [w.perm for _, w in res.certificate] == [(1, 0), (0, 1)]
        assert all(w.signs == (1, 1) for _, w in res.certificate)

    def test_negative_psi_rejected_for_signed(self):
        with pytest.raises(ValueError):
            weyl.orbit_membership([0.0, 0.0], [1.0, -1.0], "signed")

    @pytest.mark.parametrize("group", ["signed", "permutation"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, group, bad):
        # a NaN slack would read as an ordinary violation, and NaN passes psi < 0
        with pytest.raises(ValueError, match="finite"):
            weyl.orbit_membership([bad, 0.1], [1.0, 0.5], group)
        with pytest.raises(ValueError, match="finite"):
            weyl.orbit_membership([0.2, 0.1], [bad, 0.5], group)

    @pytest.mark.parametrize("group", ["signed", "permutation"])
    def test_empty_query_rejected(self, group):
        with pytest.raises(DimensionMismatchError, match="nonempty"):
            weyl.orbit_membership([], [], group)

    def test_lp_oracle_agreement(self, rng):
        for _ in range(150):
            p = int(rng.integers(2, 5))
            psi = np.abs(rng.standard_normal(p))
            x = rng.standard_normal(p) * 0.8
            res = weyl.orbit_membership(x, psi, "signed")
            if abs(res.slack) <= 1e-9:
                continue
            assert res.inside == weyl.vertex_lp_membership(x, psi, "signed")

    def test_lp_oracle_agreement_permutation(self, rng):
        for _ in range(80):
            p = int(rng.integers(2, 5))
            psi = rng.standard_normal(p)
            x = rng.standard_normal(p)
            res = weyl.orbit_membership(x, psi, "permutation")
            if abs(res.slack) <= 1e-9:
                continue
            assert res.inside == weyl.vertex_lp_membership(x, psi, "permutation")

    @settings(max_examples=40, deadline=None)
    @given(x=arrays(np.float64, 3, elements=finite), psi=arrays(np.float64, 3, elements=finite))
    def test_group_invariance_of_query(self, x, psi):
        psi = np.abs(psi)
        base = weyl.orbit_membership(x, psi, "signed")
        for w in weyl.enumerate_group(3, signed=True)[::7]:
            moved = weyl.orbit_membership(w.apply(x), psi, "signed")
            assert moved.inside == base.inside
            assert moved.slack == pytest.approx(base.slack, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        x=arrays(np.float64, 4, elements=finite),
        psi=arrays(np.float64, 4, elements=finite),
        bump=arrays(np.float64, 4, elements=st.floats(min_value=0, max_value=2)),
    )
    def test_monotonicity(self, x, psi, bump):
        psi = np.abs(psi)
        if weyl.orbit_membership(x, psi, "signed").inside:
            assert weyl.orbit_membership(x, psi + bump, "signed").inside


class TestBirkhoff:
    def test_permutation_matrix_is_its_own_decomposition(self):
        w = weyl.SignedPermutation((1, 2, 0), (1, 1, 1))
        terms = weyl.birkhoff_decompose(w.matrix())
        assert len(terms) == 1
        assert terms[0][0] == pytest.approx(1.0)
        assert terms[0][1].perm == (1, 2, 0)

    def test_decompositions_leave_scipy_optimize_unloaded(self, tmp_path):
        # a fresh interpreter: the package, its CLI, angles, certificates,
        # both decompositions, the ball and Lidskii run without loading any
        # of scipy; the first Cholesky, posdef solve and CS decomposition
        # load scipy.linalg and give correct results
        child = textwrap.dedent("""
            import contextlib, io, sys
            from pathlib import Path
            import numpy as np
            import grassgeo, grassgeo.cli
            from grassgeo import cli, harness, metrics, noncompact, subspaces, weyl
            rng = np.random.default_rng(13)
            l, m, n = (harness.random_subspace(3, 4, "real", rng) for _ in range(3))
            assert np.all(np.diff(subspaces.jordan_angles(l, m)) >= 0)
            report = metrics.triangle_check(l, m, n, want_certificate=True)
            assert report.inside and report.certificate
            a = np.zeros((16, 16))
            for wt in rng.dirichlet(np.ones(48)):
                a += wt * np.eye(16)[rng.permutation(16)]
            q = harness.random_rotation(5, "real", rng) * harness.random_rotation(5, "real", rng)
            for mat, terms in ((a, weyl.birkhoff_decompose(a)), (q, weyl.quasistochastic_decompose(q))):
                rebuilt = sum(wt * w.matrix() for wt, w in terms)
                assert np.max(np.abs(rebuilt - mat)) <= 1e-12, np.max(np.abs(rebuilt - mat))
            t, s = (harness.random_ball_point(3, rng) for _ in range(2))
            assert np.all(noncompact.ball_angles(t, s) > 0)
            x, z = (harness.random_hermitian(3, "complex", rng) for _ in range(2))
            assert noncompact.lidskii_check(x, z).inside
            files = {}
            for name, mat in (("l", l.frame), ("m", m.frame), ("n", n.frame), ("q", q),
                              ("t", t.matrix), ("s", s.matrix)):
                files[name] = Path(sys.argv[1], name)
                files[name].write_text(cli.format_matrix(mat) + "\\n")
            for argv in (["angles", "--left", "l", "--right", "m"],
                         ["triangle", "--l", "l", "--m", "m", "--n", "n", "--certificate"],
                         ["decompose", "--matrix", "q", "--signed"],
                         ["ball-angles", "--t", "t", "--s", "s"]):
                argv = [str(files.get(arg, arg)) for arg in argv]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.dispatch(argv) == 0, argv
            loaded = sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
            assert not loaded, loaded
            g, h = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
            left, right = (noncompact.PosDefPoint(b @ b.conj().T + np.eye(3)) for b in (g, h))
            logs = np.log(np.linalg.eigvals(np.linalg.solve(right.matrix, left.matrix)).real)
            assert np.allclose(noncompact.posdef_angles(left, right), np.sort(logs)[::-1], atol=1e-12)
            curve = metrics.hcurve_between(l, m)
            assert np.allclose(curve.a, subspaces.jordan_angles(l, m), atol=1e-12)
            assert np.max(subspaces.jordan_angles(metrics.hcurve_eval(curve, 1.0), m)) < 1e-12
            assert "scipy.linalg" in sys.modules
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(weyl.__file__).resolve().parents[1]))
        res = subprocess.run([sys.executable, "-c", child, str(tmp_path)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr

    def test_half_half(self):
        terms = weyl.birkhoff_decompose(np.full((2, 2), 0.5))
        assert len(terms) == 2
        assert sorted(t[0] for t in terms) == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_random_bistochastic(self, rng, p):
        for _ in range(8):
            k = int(rng.integers(1, 7))
            a = np.zeros((p, p))
            wts = rng.dirichlet(np.ones(k))
            for w in wts:
                a += w * weyl.SignedPermutation(tuple(rng.permutation(p)), (1,) * p).matrix()
            check_decomposition(weyl.birkhoff_decompose(a), a, (p - 1) ** 2 + 1)

    def test_mix_at_p16(self, rng):
        a = random_bistochastic_mix(rng, 16, 48)
        check_decomposition(weyl.birkhoff_decompose(a), a, 15 ** 2 + 1)

    def test_matching_is_rerouted(self, monkeypatch):
        # on the support of I, the cyclic shift C and P, with entries distinct
        # in every row, one repair moves an already matched row: an augmenting
        # path of length >= 3
        eye = np.eye(4)
        a = 0.45 * eye + 0.35 * np.roll(eye, 1, axis=1) + 0.2 * eye[[2, 0, 1, 3]]
        moved, augment = [], weyl._augment

        def spy(support, match, owner, row):
            before = list(match)
            found = augment(support, match, owner, row)
            moved.append(sum(b is not None and b != m for b, m in zip(before, match)))
            return found

        monkeypatch.setattr(weyl, "_augment", spy)
        check_birkhoff(weyl.birkhoff_decompose(a), a)
        assert max(moved) >= 1

    def test_augmenting_path_flips_every_edge(self):
        # row 1 reaches free column 1 only through row 0's column 0
        match, owner = [0, None], [0, None]
        assert weyl._augment([[0, 1], [0]], match, owner, 1)
        assert (match, owner) == ([1, 0], [1, 0])
        assert not weyl._augment([[0], [0]], [0, None], [0, None], 1)

    def test_mix_at_p64(self, rng):
        a = random_bistochastic_mix(rng, 64, 3 * 64)
        check_birkhoff(weyl.birkhoff_decompose(a), a)

    def test_rounding_dust_off_the_support(self, rng):
        a = random_bistochastic_mix(rng, 6, 4)
        dust = np.where(a == 0, rng.uniform(0.0, 1e-14, a.shape), 0.0)
        terms = weyl.birkhoff_decompose(a + dust)
        check_birkhoff(terms, a)
        assert all(np.all(w.matrix()[a == 0] == 0) for _, w in terms)

    def test_rejects_bad_sums(self):
        with pytest.raises(ValueError, match="row-sum"):
            weyl.birkhoff_decompose(np.array([[0.6, 0.5], [0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            weyl.birkhoff_decompose(np.array([[bad, 0.5], [0.5, 0.5]]))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError, match="nonempty"):
            weyl.birkhoff_decompose(np.zeros((0, 0)))


class TestQuasistochastic:
    def test_signed_permutation_matrix(self):
        w = weyl.SignedPermutation((1, 0), (-1, 1))
        terms = weyl.quasistochastic_decompose(w.matrix())
        assert np.max(np.abs(reconstruct(terms) - w.matrix())) < 1e-7

    def test_zero_matrix(self):
        terms = weyl.quasistochastic_decompose(np.zeros((3, 3)))
        assert np.max(np.abs(reconstruct(terms))) < 1e-7
        # every extreme point used has unit absolute row/column sums
        for _, w in terms:
            m = np.abs(w.matrix())
            assert np.allclose(m.sum(axis=0), 1) and np.allclose(m.sum(axis=1), 1)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 8, 16])
    def test_schur_product_of_orthogonals(self, rng, p):
        for _ in range(8):
            u = random_rotation(p, "real", rng)
            v = random_rotation(p, "real", rng)
            a = u * v
            check_decomposition(weyl.quasistochastic_decompose(a), a, max_terms(p))

    def test_cuts_at_zero_half_and_one(self):
        # row 2 is empty, so b fills it: the ratios along the matching are
        # +1, -1 and 0, and the thresholds cut at u = 1, 0 and 1/2
        a = np.diag([1.0, -1.0, 0.0])
        terms = weyl.quasistochastic_decompose(a)
        check_decomposition(terms, a, max_terms(3))
        assert [(wt, w.perm, w.signs) for wt, w in terms] == [
            (0.5, (0, 1, 2), (1, -1, 1)), (0.5, (0, 1, 2), (1, -1, -1))]

    def test_rejects_excess_row_sum(self):
        with pytest.raises(ValueError, match="quasistochastic"):
            weyl.quasistochastic_decompose(np.array([[0.9, 0.3], [0.0, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            weyl.quasistochastic_decompose(np.array([[bad, 0.5], [0.5, 0.5]]))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError, match="nonempty"):
            weyl.quasistochastic_decompose(np.zeros((0, 0)))


class TestPinnedOutputs:
    # SHA-256 of pinned_outputs(): any change to a term, to the order of the
    # terms or to the last bit of a weight fails
    DIGESTS = {
        "birkhoff": "3b94fcb9cbf6e27e4cb994475bccc9e9ba28a4052141a52929bd41f008016777",
        "quasistochastic": "1e71be0d2ca0518f8f18138f222e7d2575146211c9b51985356ef62414dcba8f",
        "certificate": "43070509ffff882f548e85044ab33323d7a1b2ae66baaee4edcd119270ad462e",
    }

    def test_bit_for_bit(self):
        outputs = pinned_outputs()
        assert {name: len(terms) for name, terms in outputs.items()} == {
            "birkhoff": 220, "quasistochastic": 48, "certificate": 9}
        assert {name: output_digest(terms) for name, terms in outputs.items()} == self.DIGESTS


class TestFanKyDiagonal:
    def test_diagonal_matrix_tight(self):
        res = weyl.fan_ky_diagonal_check(np.diag([2.0, -1.0]))
        assert res.inside
        assert abs(res.slack) < 1e-12

    def test_zero(self):
        assert weyl.fan_ky_diagonal_check(np.zeros((2, 4))).inside

    def test_random_rectangular(self, rng):
        for _ in range(200):
            res = weyl.fan_ky_diagonal_check(random_matrix(rng, (4, 6)))
            assert res.inside and res.slack >= -1e-9

    @pytest.mark.parametrize("a", [np.array([1.0, 2.0]), np.ones((2, 2, 2))], ids=["1d", "3d"])
    def test_rejects_input_that_is_not_2d(self, a):
        with pytest.raises(DimensionMismatchError):
            weyl.fan_ky_diagonal_check(a)
