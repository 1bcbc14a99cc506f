"""Coarray signal extraction and variable-window spatial smoothing.

``coarray_signal`` returns the complex length-UDOF vector over the
contiguous lags -(G-1)..(G-1): each entry is the covariance averaged
over the sensor pairs at that lag.  ``lag_sums`` is the one kernel
that sums matrix entries by lag; root-MUSIC's polynomial reads it too.
Smoothing slides a length-M window over the coarray vector: window p
(1-based, p = 1..P with P = G + a and M = G - a) covers lags
a-p+1 .. a-p+M, so the reference window p = a+1 spans lags 0..M-1.
Windows that exclude lag 0 carry no noise spike; shrinking the window
(a > 0) trades aperture for 2a such unperturbed windows.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import ArrayGeometry, difference_coarray

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

    Only the benchmark's traced replay (``perfbench/tracing.py``) still
    reads ``.values``; once it stops, ``vws_smooth`` can return the
    array itself.
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


@lru_cache(maxsize=64)
def _lag_bins(positions: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Bin of each flattened entry (i, j), its lag plus the aperture L,
    and the bin count 2L + 1."""
    pos = np.asarray(positions)
    aperture = int(pos.max() - pos.min())
    return (pos[None, :] - pos[:, None]).ravel() + aperture, 2 * aperture + 1


def lag_sums(mat: np.ndarray, positions) -> np.ndarray:
    """Sums of the entries (i, j) of a square matrix by lag
    positions[j] - positions[i], ascending over the lags
    -aperture..aperture; each sum runs in row-major order."""
    bins, size = _lag_bins(tuple(positions))
    flat = np.asarray(mat).ravel()
    return (np.bincount(bins, flat.real, size)
            + 1j * np.bincount(bins, flat.imag, size))


@lru_cache(maxsize=64)
def _segment(geom: ArrayGeometry) -> tuple[slice, np.ndarray]:
    """Where the contiguous lags sit in ``lag_sums``' output, and how
    many sensor pairs each of them has."""
    ca = difference_coarray(geom)
    lags = range(1 - ca.g, ca.g)
    start = geom.aperture + lags[0]
    counts = np.array([ca.weights[l] for l in lags], dtype=float)
    return slice(start, start + ca.udof), counts


def coarray_signal(r: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """Average covariance entries over sensor pairs at each contiguous
    lag; lags outside the hole-free segment are discarded."""
    r = np.asarray(r, dtype=complex)
    if r.shape != (geom.n, geom.n):
        raise ValueError("covariance dimension does not match geometry")
    segment, counts = _segment(geom)
    return lag_sums(r, geom.positions)[segment] / counts


def vws_smooth(x: np.ndarray, a: int) -> SmoothedMatrix:
    """Average the P = G + a outer products of length-M window slices
    of the coarray vector x, whose length 2G - 1 gives G."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1 or x.size % 2 == 0:
        raise ValueError("coarray vector must be 1-D with odd length")
    if not (float(a).is_integer() and a >= 0):
        raise ValueError(f"a: must be an integer >= 0, got {a}")
    g, a = (x.size + 1) // 2, int(a)
    m = g - a
    if m < 2:
        raise ValueError(f"a: shrinkage {a} leaves window size {m} < 2")
    w = sliding_window_view(x, m)                 # rows: windows, ascending lag
    return SmoothedMatrix(w.T @ w.conj() / (g + a))
