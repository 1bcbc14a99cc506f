"""Numeric kernel contracts: EVD residuals, root residuals, and the
real-coefficient rooting path."""

import numpy as np
import pytest

from sladoa.numerics import (_centro_hermitian_evd, _unitary_basis,
                             hermitian_evd, polynomial_roots)

RNG = np.random.default_rng(42)


class TestHermitianEvd:
    def test_identity(self):
        evd = hermitian_evd(np.eye(3))
        np.testing.assert_allclose(evd.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        evd = hermitian_evd(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(evd.eigenvalues, [3.0, 2.0, 1.0])
        perm = np.abs(evd.eigenvectors)
        np.testing.assert_allclose(perm, np.eye(3)[:, [0, 2, 1]], atol=1e-12)

    def test_random_hermitian_reconstruction(self):
        for n in (4, 9, 20):
            z = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
            a = z + z.conj().T
            evd = hermitian_evd(a)
            recon = (evd.eigenvectors * evd.eigenvalues) @ evd.eigenvectors.conj().T
            assert np.linalg.norm(recon - a) <= 1e-9 * np.linalg.norm(a)
            ortho = evd.eigenvectors.conj().T @ evd.eigenvectors
            assert np.linalg.norm(ortho - np.eye(n)) < 1e-10
            # per-pair residuals
            for lam, v in zip(evd.eigenvalues, evd.eigenvectors.T):
                assert np.linalg.norm(a @ v - lam * v) <= 1e-9 * np.linalg.norm(a)

    def test_psd_eigenvalue_floor(self):
        z = RNG.standard_normal((8, 8)) + 1j * RNG.standard_normal((8, 8))
        a = z @ z.conj().T
        evd = hermitian_evd(a)
        assert evd.eigenvalues.min() >= -1e-10 * np.trace(a).real

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            hermitian_evd(np.array([[np.nan, 0], [0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            hermitian_evd(np.zeros((2, 3)))


def centro_hermitian(m, k, rng):
    """A (k, m, m) stack of random Hermitian matrices S with
    J conj(S) J = S."""
    z = rng.standard_normal((k, m, m)) + 1j * rng.standard_normal((k, m, m))
    h = z + z.conj().swapaxes(-1, -2)
    return h + h[:, ::-1, ::-1].conj()


class TestCentroHermitianEvd:
    @pytest.mark.parametrize("m", range(2, 74))
    def test_basis_is_unitary(self, m):
        q = _unitary_basis(m)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(m), atol=1e-15)
        np.testing.assert_array_equal(q[::-1].conj(), q)     # J conj(Q) = Q
        assert not q.flags.writeable

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 17, 20, 21, 37, 38])
    def test_matches_hermitian_evd(self, m):
        s = centro_hermitian(m, 4, np.random.default_rng(m))
        evd, ref = _centro_hermitian_evd(s), hermitian_evd(s)
        scale = np.abs(ref.eigenvalues).max()
        np.testing.assert_allclose(evd.eigenvalues, ref.eigenvalues,
                                   rtol=0, atol=1e-13 * scale)
        v = evd.eigenvectors
        assert np.all(np.diff(evd.eigenvalues, axis=-1) <= 0)  # descending
        np.testing.assert_allclose(v.conj().swapaxes(-1, -2) @ v,
                                   np.broadcast_to(np.eye(m), s.shape),
                                   atol=1e-13)
        recon = (v * evd.eigenvalues[:, None]) @ v.conj().swapaxes(-1, -2)
        assert np.abs(recon - s).max() <= 1e-13 * scale

    def test_rejects_nonfinite(self):
        s = centro_hermitian(4, 1, RNG)
        s[0, 1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite entries"):
            _centro_hermitian_evd(s)


class TestPolynomialRoots:
    def test_z2_minus_1(self):
        roots = np.sort_complex(polynomial_roots([-1, 0, 1]))
        np.testing.assert_allclose(roots, [-1.0, 1.0], atol=1e-12)

    def test_z2_plus_1(self):
        roots = sorted(polynomial_roots([1, 0, 1]), key=lambda z: z.imag)
        np.testing.assert_allclose(roots, [-1j, 1j], atol=1e-12)

    def test_expand_then_root_roundtrip(self):
        targets = np.array([0.5, 2.0, 1j])
        coeffs = np.poly(targets)[::-1]          # ascending
        roots = polynomial_roots(coeffs)
        for t in targets:
            assert np.min(np.abs(roots - t)) < 1e-8

    def test_residual_bound(self):
        c = RNG.standard_normal(9) + 1j * RNG.standard_normal(9)
        roots = polynomial_roots(c)
        scale = np.max(np.abs(c))
        for z in roots:
            assert abs(np.polyval(c[::-1], z)) <= 1e-7 * scale * max(1.0, abs(z)) ** 8

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ValueError):
            polynomial_roots([0.0, 0.0])

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            polynomial_roots([3.0])

    def test_trims_trailing_zeros(self):
        roots = polynomial_roots([-1, 0, 1, 0, 0])
        assert roots.size == 2

    @pytest.mark.parametrize("degree", [2, 8, 38, 72])
    def test_real_coefficients_match_complex_cast(self, degree):
        # 72 is root-MUSIC's degree at M = 37
        c = np.random.default_rng(degree).standard_normal(degree + 1)
        roots = polynomial_roots(c)
        cast = polynomial_roots(c.astype(complex))
        assert roots.size == cast.size == degree
        for z in roots:
            assert np.min(np.abs(cast - z)) <= 1e-12 * max(1.0, abs(z))

    @pytest.mark.parametrize("coeffs", [[-1, 0, 1], [-1.0, 0.0, 1.0],
                                        np.array([-1, 0, 1], np.float32)])
    def test_real_coefficients_reach_lapack_as_float64(self, coeffs):
        # a complex companion matrix always yields complex eigenvalues;
        # only the real float64 one returns float64 for a real spectrum
        roots = polynomial_roots(coeffs)
        assert roots.dtype == np.float64
        np.testing.assert_allclose(np.sort(roots), [-1.0, 1.0], atol=1e-12)

    def test_complex_coefficients_stay_complex(self):
        assert polynomial_roots([-1, 0, 1 + 0j]).dtype == np.complex128
