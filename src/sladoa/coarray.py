"""Coarray signal extraction and variable-window spatial smoothing.

The covariance matrix is mapped to a length-UDOF vector over the
contiguous lags -(G-1)..(G-1) by averaging all sensor pairs at each
lag.  Smoothing slides a length-M window over this vector: window p
(1-based, p = 1..P with P = G + a and M = G - a) covers lags
a-p+1 .. a-p+M, so the reference window p = a+1 spans lags 0..M-1.
Windows that exclude lag 0 carry no noise spike; shrinking the window
(a > 0) trades aperture for 2a such unperturbed windows.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import ArrayGeometry, Coarray, difference_coarray
from .signal_model import SourceScene, steering_matrix

__all__ = [
    "CoarraySignal",
    "SmoothingPlan",
    "SmoothedMatrix",
    "coarray_signal",
    "population_coarray_signal",
    "vws_smooth",
    "max_shrinkage",
]


@dataclass(frozen=True)
class CoarraySignal:
    """Complex vector over the contiguous lags -(G-1)..(G-1)."""

    values: np.ndarray
    coarray: Coarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.coarray.udof,):
            raise ValueError("values length must equal the UDOF")
        object.__setattr__(self, "values", v)

    def at_lag(self, lag: int) -> complex:
        g = self.coarray.g
        if abs(lag) >= g:
            raise ValueError(f"lag {lag} outside contiguous segment")
        return self.values[lag + g - 1]


@dataclass(frozen=True)
class SmoothingPlan:
    """Window bookkeeping: M = G - a windows sizes, P = G + a windows."""

    a: int
    g: int

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("shrinkage a must be >= 0")
        if self.m < 2:
            raise ValueError(
                f"shrinkage a={self.a} leaves window size {self.m} < 2"
            )

    @property
    def m(self) -> int:
        return self.g - self.a

    @property
    def p(self) -> int:
        return self.g + self.a

    @property
    def udof(self) -> int:
        return 2 * self.g - 1


@dataclass(frozen=True)
class SmoothedMatrix:
    """M x M Hermitian PSD average of window outer products."""

    values: np.ndarray
    plan: SmoothingPlan


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
def _lag_averaging_index(positions: tuple[int, ...]):
    """Flat covariance indices and lag bins for redundancy averaging."""
    pos = np.asarray(positions)
    lagmat = pos[None, :] - pos[:, None]          # lag of entry (i, j)
    geom = ArrayGeometry("tmp", positions)
    ca = difference_coarray(geom)
    g = ca.g
    mask = np.abs(lagmat) <= g - 1
    flat = np.flatnonzero(mask)
    bins = lagmat.ravel()[flat] + g - 1
    counts = np.bincount(bins, minlength=ca.udof).astype(float)
    return flat, bins, counts, ca


def coarray_signal(r: np.ndarray, geom: ArrayGeometry) -> CoarraySignal:
    """Average covariance entries over sensor pairs at each contiguous
    lag; lags outside the hole-free segment are discarded."""
    r = np.asarray(r, dtype=complex)
    if r.shape != (geom.n, geom.n):
        raise ValueError("covariance dimension does not match geometry")
    flat, bins, counts, ca = _lag_averaging_index(geom.positions)
    values = np.zeros(ca.udof, dtype=complex)
    np.add.at(values, bins, r.ravel()[flat])
    return CoarraySignal(values / counts, ca)


def population_coarray_signal(scene: SourceScene, coarray: Coarray,
                              noise_var: float) -> CoarraySignal:
    """Exact coarray signal sum_d p_d exp(j*pi*l*theta_d) + noise spike."""
    lags = np.asarray(coarray.contiguous_lags)
    a = steering_matrix(lags, scene.thetas, sign=+1)
    values = a @ np.asarray(scene.powers, dtype=complex)
    values[coarray.g - 1] += noise_var
    return CoarraySignal(values, coarray)


def vws_smooth(x: CoarraySignal, a: int) -> SmoothedMatrix:
    """Average the P = G + a outer products of length-M window slices."""
    plan = SmoothingPlan(a=a, g=x.coarray.g)
    w = sliding_window_view(x.values, plan.m)     # rows: windows, ascending lag
    values = w.T @ w.conj() / plan.p
    return SmoothedMatrix(values, plan)
