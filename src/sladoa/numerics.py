"""Numeric kernels: Hermitian EVD and polynomial rooting.

Both delegate to LAPACK via numpy; the contracts (residual and
orthonormality tolerances) are what the rest of the package relies on.
Real coefficients stay real, so root-MUSIC's Cayley-mapped polynomial
is rooted by the real companion EVD, several times cheaper than the
complex one.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["EigenDecomposition", "hermitian_evd", "polynomial_roots"]


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_evd(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized as (A + A^H)/2 first; sample covariances
    carry last-ulp asymmetry.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("input must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("input contains non-finite entries")
    h = 0.5 * (m + m.conj().T)
    vals, vecs = np.linalg.eigh(h)
    return EigenDecomposition(vals[::-1].copy(), vecs[:, ::-1].copy())


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
    return np.roots(c[::-1])
