import numpy as np
import pytest

from grassgeo import kernel
from grassgeo.errors import (
    ConvergenceError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    RankDeficiencyError,
)
from grassgeo.harness import random_rotation

from conftest import random_matrix


class TestSvd:
    def test_identity(self):
        _, s, _ = kernel.svd(np.eye(3))
        assert np.allclose(s, [1, 1, 1])

    def test_diagonal_with_sign(self):
        _, s, _ = kernel.svd(np.diag([3.0, -2.0]))
        assert np.allclose(s, [3, 2])

    def test_sorted_decreasing_nonnegative(self, rng):
        _, s, _ = kernel.svd(random_matrix(rng, (6, 4)))
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_reconstruction_residual(self, rng, cplx):
        a = random_matrix(rng, (5, 3), cplx)
        u, s, v = kernel.svd(a)
        assert np.linalg.norm((u * s) @ v.conj().T - a) <= 1e-12 * np.linalg.norm(a)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_random_sizes_residuals_and_frames(self, rng, cplx):
        for _ in range(10):
            size = rng.integers(1, 13, size=2)
            # each draw both tall (or square) and wide
            for m, n in (sorted(size, reverse=True), sorted(size)):
                a = random_matrix(rng, (m, n), cplx)
                u, s, v = kernel.svd(a)
                k = s.size
                scale = max(np.linalg.norm(a), 1)
                assert np.linalg.norm((u * s) @ v.conj().T - a) <= 1e-12 * scale
                assert np.linalg.norm(u.conj().T @ u - np.eye(k)) <= 1e-12 * m
                assert np.linalg.norm(v.conj().T @ v - np.eye(k)) <= 1e-12 * n
                sigma = kernel.singular_values(a)
                assert sigma.shape == (k,)
                assert np.max(np.abs(sigma - s)) <= 1e-12 * scale

    def test_wide_matrix(self, rng):
        a = random_matrix(rng, (3, 7), True)
        u, s, v = kernel.svd(a)
        assert np.linalg.norm((u * s) @ v.conj().T - a) <= 1e-12 * np.linalg.norm(a)

    def test_rank_deficient_columns_completed(self):
        a = np.zeros((5, 3))
        a[:, 0] = [1, 2, 3, 4, 5]
        u, _, _ = kernel.svd(a)
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-12

    def test_singular_values_match_gram_eigenvalues(self, rng):
        # the squared singular values are the eigenvalues of A* A
        a = random_matrix(rng, (7, 4), True)
        _, sigma, _ = kernel.svd(a)
        lam, _ = kernel.eig_hermitian(a.conj().T @ a)
        assert np.allclose(sigma, np.sqrt(np.clip(lam, 0, None)), atol=1e-10)

    @pytest.mark.parametrize("fn", [kernel.svd, kernel.singular_values], ids=lambda fn: fn.__name__)
    def test_rejects_nan(self, fn):
        with pytest.raises(ValueError):
            fn(np.array([[1.0, np.nan]]))


class TestEigHermitian:
    def test_diagonal(self):
        lam, frame = kernel.eig_hermitian(np.diag([1.0, 4.0, 2.0]))
        assert np.allclose(lam, [4, 2, 1])

    def test_zero(self):
        lam, _ = kernel.eig_hermitian(np.zeros((3, 3)))
        assert np.allclose(lam, 0)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_residual(self, rng, cplx):
        a = random_matrix(rng, (6, 6), cplx)
        a = (a + a.conj().T) / 2
        lam, frame = kernel.eig_hermitian(a)
        assert np.linalg.norm(a @ frame - frame * lam) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.norm(frame.conj().T @ frame - np.eye(6)) <= 1e-12

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(DimensionMismatchError):
            kernel.eig_hermitian(random_matrix(rng, (4, 4)))

    def test_hermitian_check_is_relative(self, rng):
        a = random_matrix(rng, (4, 4), True)
        with pytest.raises(DimensionMismatchError):
            kernel.eig_hermitian(1e-12 * a)
        h = a + a.conj().T
        lam, _ = kernel.eig_hermitian(1e-20 * h)
        assert np.max(np.abs(1e20 * lam - kernel.eig_hermitian(h)[0])) <= 1e-12 * np.linalg.norm(h)


class TestCholesky:
    def test_identity(self):
        assert np.allclose(kernel.cholesky(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(kernel.cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
        # integer input is factored in double precision
        assert np.array_equal(kernel.cholesky(np.array([[4, 2], [2, 5]])), [[2.0, 1.0], [0.0, 2.0]])

    @pytest.mark.parametrize("cplx", [False, True])
    def test_reconstruction(self, rng, cplx):
        b = random_matrix(rng, (5, 5), cplx)
        a = b.conj().T @ b + np.eye(5)
        r = kernel.cholesky(a)
        assert np.allclose(np.tril(r, -1), 0)
        assert np.linalg.norm(r.conj().T @ r - a) <= 1e-12 * np.linalg.norm(a) * 10

    def test_not_posdef_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            kernel.cholesky(np.diag([1.0, -1.0, 2.0]))
        assert exc.value.pivot == 1
        # a positive pivot at PIVOT_TOL of the largest diagonal entry or
        # below fails too, ahead of a later nonpositive one
        for diag, pivot in (([1.0, 1e-15], 1), ([1e-15, 1.0, -1.0], 0)):
            with pytest.raises(NotPositiveDefiniteError) as exc:
                kernel.cholesky(np.diag(diag))
            assert exc.value.pivot == pivot

    @pytest.mark.parametrize("cplx", [False, True])
    def test_scale_invariance(self, rng, cplx):
        b = random_matrix(rng, (5, 5), cplx)
        a = b.conj().T @ b + np.eye(5)
        r = kernel.cholesky(a)
        for c in (1e-20, 1e20):
            err = np.linalg.norm(kernel.cholesky(c * a) - np.sqrt(c) * r)
            assert err <= 1e-13 * np.sqrt(c) * np.linalg.norm(r)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            kernel.cholesky(1e-20 * np.diag([1.0, 1e-15]))
        assert exc.value.pivot == 1


class TestCsDecomposition:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_haar_unitaries(self, rng, field):
        worst = 0.0
        for n in range(2, 33):
            for p in range(1, n // 2 + 1):
                a = random_rotation(n, field, rng)
                theta, u1, u2 = kernel.cs_decomposition(a, p)
                assert theta.shape == (p,)
                assert np.all(np.diff(theta) >= 0)
                assert theta[0] >= 0 and theta[-1] <= np.pi / 2
                a11, a21, sines = a[:p, :p], a[p:, :p], u2[:, -p:]
                worst = max(
                    worst,
                    np.linalg.norm(u1.conj().T @ u1 - np.eye(p)),
                    np.linalg.norm(u2.conj().T @ u2 - np.eye(n - p)),
                    np.linalg.norm(u1.conj().T @ a11 @ a11.conj().T @ u1 - np.diag(np.cos(theta) ** 2)),
                    np.linalg.norm(sines.conj().T @ a21 @ a21.conj().T @ sines - np.diag(np.sin(theta) ** 2)),
                    np.linalg.norm(u2[:, :n - 2 * p].conj().T @ a21),
                )
        assert worst <= 1e-13

    def test_rejects_bad_input(self, rng):
        a = random_rotation(6, "real", rng)
        with pytest.raises(ValueError, match="non-finite"):
            kernel.cs_decomposition(np.where(np.eye(6) == 1, np.nan, a), 2)
        with pytest.raises(DimensionMismatchError):
            kernel.cs_decomposition(a[:, :5], 2)
        for p in (0, 4):
            with pytest.raises(DimensionMismatchError):
                kernel.cs_decomposition(a, p)

    def test_lapack_errors_raise(self, rng, monkeypatch):
        # a stand-in for dorcsd that reports info; the real one gets its
        # workspace from the lwork query, so it never rejects an argument here
        a = random_rotation(4, "real", rng)
        funcs = kernel.get_lapack_funcs

        def with_info(info):
            def lookup(names, arrays):
                csd, query = funcs(names, arrays)

                def stub(*args, **kwargs):
                    *out, _ = csd(*args, **kwargs)
                    return (*out, info)

                stub.typecode = csd.typecode
                return stub, query
            monkeypatch.setattr(kernel, "get_lapack_funcs", lookup)

        with_info(-22)
        with pytest.raises(ValueError, match="dorcsd rejected its argument 22"):
            kernel.cs_decomposition(a, 2)
        with_info(1)
        with pytest.raises(ConvergenceError):
            kernel.cs_decomposition(a, 2)


class TestInvSqrt:
    def test_identity(self):
        assert np.allclose(kernel.inv_sqrt_psd(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(kernel.inv_sqrt_psd(np.diag([4.0, 16.0])), np.diag([0.5, 0.25]))

    def test_random_posdef(self, rng):
        b = random_matrix(rng, (5, 5), True)
        a = b.conj().T @ b + np.eye(5)
        s = kernel.inv_sqrt_psd(a)
        assert np.linalg.norm(s - s.conj().T) < 1e-12 * np.linalg.norm(s)
        assert np.linalg.norm(s @ a @ s - np.eye(5)) < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            kernel.inv_sqrt_psd(np.diag([1.0, -2.0]))


class TestQrOrthonormalize:
    def test_preserves_orthonormal_input_span(self, rng):
        q0 = np.linalg.qr(random_matrix(rng, (6, 3)))[0]
        q = kernel.qr_orthonormalize(q0)
        assert np.linalg.norm(q @ q.conj().T - q0 @ q0.conj().T) < 1e-10

    def test_single_column(self):
        q = kernel.qr_orthonormalize(np.array([[3.0], [4.0]]))
        assert np.allclose(np.abs(q[:, 0]), [0.6, 0.8])

    @pytest.mark.parametrize("cplx", [False, True])
    def test_span_and_orthonormality(self, rng, cplx):
        a = random_matrix(rng, (6, 3), cplx)
        q = kernel.qr_orthonormalize(a)
        assert np.linalg.norm(q.conj().T @ q - np.eye(3)) <= 1e-12 * 6
        # same column span: projectors agree
        pa = a @ np.linalg.solve(a.conj().T @ a, a.conj().T)
        assert np.linalg.norm(q @ q.conj().T - pa) < 1e-10

    def test_rank_deficiency(self, rng):
        a = random_matrix(rng, (5, 2))
        # the rank count is relative, like the check: scaling changes neither
        for c in (1.0, 1e-12, 1e12):
            with pytest.raises(RankDeficiencyError) as exc:
                kernel.qr_orthonormalize(c * np.hstack([a, a[:, :1]]))
            assert exc.value.detected_rank == 2
