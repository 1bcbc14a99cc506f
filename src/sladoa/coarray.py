"""Coarray signal extraction and variable-window spatial smoothing.

``coarray_signal`` returns the complex length-UDOF vector over the
contiguous lags -(G-1)..(G-1): each entry is the covariance averaged
over the sensor pairs at that lag.  ``lag_sums`` is the one kernel
that sums matrix entries by lag; root-MUSIC's polynomial reads it too.
Both read the pair-lag table that ``difference_coarray`` is built from,
and both take a stack of matrices as well as one, as ``_smooth`` takes
a stack of coarray vectors: a Monte Carlo block runs each in one call.
Smoothing slides a length-M window over the coarray vector: window p
(1-based, p = 1..P with P = G + a and M = G - a) covers lags
a-p+1 .. a-p+M, so the reference window p = a+1 spans lags 0..M-1.
Windows that exclude lag 0 carry no noise spike; shrinking the window
(a > 0) trades aperture for 2a such unperturbed windows.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, _pair_lags, difference_coarray

__all__ = [
    "SmoothedMatrix",
    "lag_sums",
    "coarray_signal",
    "vws_smooth",
    "max_shrinkage",
]


@dataclass(frozen=True)
class SmoothedMatrix:
    """M x M Hermitian PSD average of window outer products.

    ``.values`` is read by the benchmark's traced replay
    (``perfbench/tracing.py``), by acceptance criteria 1 and 2 and by
    ``tests/reference.py``'s chained estimate, so the wrapper stays.
    """

    values: np.ndarray


def max_shrinkage(udof: int, d: int) -> int:
    """Largest shrinkage a compatible with identifiability,
    a < (UDOF + 1 - 2D)/2."""
    if udof < 1 or udof % 2 == 0:
        raise ValueError("udof must be a positive odd integer")
    if d < 1:
        raise ValueError("d must be >= 1")
    a = (udof - 2 * d - 1) // 2
    if a < 0:
        raise ValueError(
            f"{d} sources are not identifiable with UDOF={udof}"
        )
    return a


def lag_sums(mat: np.ndarray, positions) -> np.ndarray:
    """Sums of the entries (i, j) of a square matrix, or of each matrix
    of a (..., n, n) stack, by lag positions[j] - positions[i],
    ascending over the lags -aperture..aperture; each sum runs in
    row-major order, so a matrix sums alike alone or in a stack."""
    bins, counts, _ = _pair_lags(tuple(positions))
    mat = np.asarray(mat)
    k = mat.size // bins.size
    if k > 1:                   # matrix i of a stack sums into row i
        bins = (bins + counts.size * np.arange(k)[:, None]).ravel()
    flat = mat.ravel()
    sums = (np.bincount(bins, flat.real, k * counts.size)
            + 1j * np.bincount(bins, flat.imag, k * counts.size))
    return sums.reshape(mat.shape[:-2] + counts.shape)


def coarray_signal(r: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """Average covariance entries over sensor pairs at each contiguous
    lag, for one covariance or each of a (..., N, N) stack; lags outside
    the hole-free segment are discarded."""
    r = np.asarray(r, dtype=complex)
    if r.shape[-2:] != (geom.n, geom.n):
        raise ValueError("covariance dimension does not match geometry")
    g = difference_coarray(geom).g
    segment = slice(geom.aperture + 1 - g, geom.aperture + g)
    counts = _pair_lags(geom.positions)[1]      # ``Coarray.counts`` as array
    return lag_sums(r, geom.positions)[..., segment] / counts[segment]


def vws_smooth(x: np.ndarray, a: int) -> SmoothedMatrix:
    """Average the P = G + a outer products of length-M window slices
    of the coarray vector x, whose length 2G - 1 gives G."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1 or x.size % 2 == 0:
        raise ValueError("coarray vector must be 1-D with odd length")
    return SmoothedMatrix(_smooth(x[None], a)[0])


def _smooth(x: np.ndarray, a) -> np.ndarray:
    """``vws_smooth`` of each row of a (K, 2G - 1) stack: the (K, M, M)
    smoothed matrices, from one gather of the windows and one stacked
    matrix product."""
    if not (float(a).is_integer() and a >= 0):
        raise ValueError(f"a: must be an integer >= 0, got {a}")
    g, a = (x.shape[-1] + 1) // 2, int(a)
    m = g - a
    if m < 2:
        raise ValueError(f"a: shrinkage {a} leaves window size {m} < 2")
    # row p of w[k]: window p of x[k], lags ascending
    w = x[:, np.arange(g + a)[:, None] + np.arange(m)]
    return w.swapaxes(-1, -2) @ w.conj() / (g + a)
