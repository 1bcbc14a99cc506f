"""Numeric kernels: Hermitian EVD and polynomial rooting.

Both delegate to LAPACK via numpy, one call for a whole stack of
matrices or polynomials; the contracts (residual and orthonormality
tolerances) are what the rest of the package relies on.  Real
coefficients stay real, so root-MUSIC's Cayley-mapped polynomial is
rooted by the real companion EVD, several times cheaper than the
complex one; so is the real EVD of a centro-Hermitian matrix.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["EigenDecomposition", "hermitian_evd", "polynomial_roots"]


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_evd(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    (..., M, M) stack, eigenvalues descending: the generic complex path,
    and the reference the estimators' real one is tested against.

    The input is symmetrized as (A + A^H)/2 first; sample covariances
    carry last-ulp asymmetry.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("input must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("input contains non-finite entries")
    h = 0.5 * (m + m.conj().swapaxes(-1, -2))
    vals, vecs = np.linalg.eigh(h)
    return EigenDecomposition(vals[..., ::-1].copy(), vecs[..., ::-1].copy())


@lru_cache(maxsize=64)
def _unitary_basis(m: int) -> np.ndarray:
    """Q = e^(-j*pi/4) (I + jJ)/sqrt(2), J the m x m exchange matrix: a
    sparse unitary with J conj(Q) = Q and entries (1 -+ j)/2, exact in
    binary; (I, jI; J, -jJ)/sqrt(2) times a real orthogonal matrix."""
    e = np.eye(m)
    q = ((1 - 1j) * e + (1 + 1j) * e[::-1]) / 2
    q.flags.writeable = False               # one array serves every caller
    return q


def _centro_hermitian_evd(s: np.ndarray) -> EigenDecomposition:
    """``hermitian_evd`` of a centro-Hermitian S, J conj(S) J = S, or of
    each of a stack, by one real symmetric EVD: Q^H S Q is real, and Q
    maps its eigenvectors to those of S (Pesavento, Gershman & Haardt
    2000).  Its real part drops S's last-ulp asymmetry."""
    if not np.all(np.isfinite(s)):
        raise ValueError("input contains non-finite entries")
    q = _unitary_basis(s.shape[-1])
    vals, vecs = np.linalg.eigh((q.conj().T @ s @ q).real)
    return EigenDecomposition(vals[..., ::-1].copy(), q @ vecs[..., ::-1])


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """The roots of each row of a (..., n + 1) stack of ascending
    coefficients whose last (leading) entry is nonzero: the eigenvalues
    of the companion matrix ``np.roots`` builds, found by one
    ``eigvals`` call for the stack.  Real rows give real roots if every
    root of the stack is real."""
    c = np.asarray(coeffs)
    n = c.shape[-1] - 1
    a = np.zeros(c.shape[:-1] + (n, n), dtype=c.dtype)
    a[..., np.arange(1, n), np.arange(n - 1)] = 1
    a[..., 0, :] = -c[..., -2::-1] / c[..., -1:]
    return np.linalg.eigvals(a)


def polynomial_roots(coeffs) -> np.ndarray:
    """All roots (with multiplicity) of a polynomial given by ascending
    coefficients, via the balanced companion matrix.  Real coefficients
    reach LAPACK as float64 (all-real roots then come back as float64);
    others are cast to complex128."""
    c = np.asarray(coeffs)
    c = np.trim_zeros(c.astype(complex if np.iscomplexobj(c) else float),
                      trim="b")
    if c.size == 0:
        raise ValueError("zero polynomial has no well-defined roots")
    if c.size == 1:
        raise ValueError("polynomial degree must be >= 1")
    nonzero = np.trim_zeros(c, trim="f")        # z = 0 for each zero dropped
    roots = (_companion_roots(nonzero) if nonzero.size > 1
             else np.zeros(0, c.dtype))
    return np.concatenate((roots, np.zeros(c.size - nonzero.size, roots.dtype)))
