"""Subspace DOA estimators over the smoothed coarray matrix.

Both estimators consume the noise subspace U_N of the smoothed matrix
and the coarray steering convention a(theta)[m] = exp(+j*pi*m*theta)
over the reference-window lags 0..M-1.  Both read one coefficient
vector, the diagonal sums of U_N U_N^H (Barabell 1983): root-MUSIC
roots that polynomial, MUSIC evaluates it on the default grid by FFT.
"""

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .coarray import coarray_signal, lag_sums, vws_smooth
from .geometry import ArrayGeometry
from .numerics import hermitian_evd, polynomial_roots

__all__ = [
    "Spectrum",
    "EstimationResult",
    "default_grid",
    "noise_subspace",
    "music_spectrum",
    "pick_peaks",
    "root_music",
    "estimate_doas",
    "save_spectrum_csv",
]

_DENOM_FLOOR = 1e-18


@dataclass(frozen=True)
class Spectrum:
    grid: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class EstimationResult:
    """Estimated sine-directions (ascending) plus diagnostics.

    ``fill_count`` counts estimates not backed by a proper peak
    (MUSIC) or taken from outside the unit circle (root variant).
    ``estimate_doas`` attaches the noise subspace U_N it estimated from.
    """

    thetas: np.ndarray
    peaks_found: int = 0
    fill_count: int = 0
    root_moduli: Optional[np.ndarray] = None
    noise: Optional[np.ndarray] = None


def default_grid(size: int = 2000) -> np.ndarray:
    """Uniform grid over [-1, 1) with ``size`` points."""
    if size < 1:
        raise ValueError("grid size must be >= 1")
    return -1.0 + 2.0 * np.arange(size) / size


def noise_subspace(m: np.ndarray, d: int) -> np.ndarray:
    """Noise subspace U_N of an M x M Hermitian matrix: the M x (M-d)
    eigenvectors of all but the d largest eigenvalues."""
    m = np.asarray(m)
    if not 0 <= d < m.shape[0]:
        raise ValueError(f"need 0 <= d < M, got d={d}, M={m.shape[0]}")
    return hermitian_evd(m).eigenvectors[:, d:]


def music_spectrum(noise: np.ndarray, grid,
                   steering: Optional[np.ndarray] = None) -> Spectrum:
    """Pseudospectrum 1 / ||U_N^H a(theta)||^2 over the grid.

    Denominators below 1e-18 are clamped there, so exact nulls give a
    large finite value instead of dividing by zero.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    noise = np.asarray(noise)
    if steering is None:
        steering = np.exp(1j * np.pi * np.outer(np.arange(noise.shape[0]), grid))
    proj = noise.conj().T @ steering
    denom = np.einsum("ij,ij->j", proj, proj.conj()).real
    return Spectrum(grid, 1.0 / np.maximum(denom, _DENOM_FLOOR))


def _noise_polynomial(noise: np.ndarray) -> np.ndarray:
    """Ascending t_{1-M} .. t_{M-1}; t_k sums diagonal k of U_N U_N^H."""
    return lag_sums(noise @ noise.conj().T, range(noise.shape[0]))


def _grid_spectrum(noise: np.ndarray, size: int) -> Spectrum:
    """``music_spectrum`` on ``default_grid(size)``: on theta_j = -1 + 2j/K
    the denominator is Re sum_k (-1)^k t_k exp(2*pi*i*k*j/K), an inverse
    DFT of length K once k is folded mod K."""
    t = _noise_polynomial(noise)
    k = np.arange(t.size) - t.size // 2
    w = np.zeros(size, dtype=complex)
    np.add.at(w, k % size, np.where(k % 2, -t, t))
    denom = np.fft.ifft(w, norm="forward").real
    return Spectrum(default_grid(size), 1.0 / np.maximum(denom, _DENOM_FLOOR))


def pick_peaks(s: Spectrum, d: int) -> EstimationResult:
    """Take the d largest local maxima of the spectrum.

    Endpoints compare against -inf beyond the grid.  Ties break toward
    the smaller angle.  If fewer than d maxima exist, the shortfall is
    filled from the largest remaining grid values and counted in
    ``fill_count``.  A spectrum with fewer than d points raises
    ValueError.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    v = s.values
    if v.size < d:
        raise ValueError(f"spectrum has {v.size} points, fewer than d={d}")
    padded = np.concatenate(([-np.inf], v, [-np.inf]))
    is_max = (v > padded[:-2]) & (v > padded[2:])

    def ranked(idx):                        # largest first, then smaller angle
        return idx[np.lexsort((s.grid[idx], -v[idx]))]

    peak_idx = np.flatnonzero(is_max)
    chosen = ranked(peak_idx)[:d]
    fill = d - chosen.size
    if fill:                                # sort the non-peak rest only here
        chosen = np.concatenate((chosen, ranked(np.flatnonzero(~is_max))[:fill]))
    return EstimationResult(thetas=np.sort(s.grid[chosen]),
                            peaks_found=peak_idx.size, fill_count=fill)


def root_music(noise: np.ndarray, d: int) -> EstimationResult:
    """Search-free estimate from the roots of the noise-subspace
    Laurent polynomial.

    With C = U_N U_N^H, the coefficient of z^(k+M-1) is the sum of the
    k-th superdiagonal of C; corner sums at or below 1e-12 of the
    largest are dropped in pairs, one from each end.  One stable sort
    ranks the roots strictly inside the unit circle first, each side by
    closeness | 1 - |z| |; the first d give theta = angle(z)/pi, and
    those taken from outside are counted in ``fill_count``.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    noise = np.asarray(noise)
    m = noise.shape[0]
    if m < 2:
        raise ValueError("need M >= 2")
    # t is conjugate-reciprocal: both ends vanish together, and
    # np.roots would divide by a near-zero leading coefficient
    t = _noise_polynomial(noise)
    tol = 1e-12 * np.abs(t).max()
    while t.size > 3 and abs(t[-1]) <= tol:
        t = t[1:-1]
    roots = polynomial_roots(t)
    moduli = np.abs(roots)
    outside = moduli >= 1.0
    picked = np.lexsort((np.abs(1.0 - moduli), outside))[:d]
    thetas = np.angle(roots[picked]) / np.pi
    thetas = (thetas + 1.0) % 2.0 - 1.0          # fold angle pi onto -1
    order = np.argsort(thetas)
    return EstimationResult(thetas=thetas[order],
                            fill_count=int(np.count_nonzero(outside[picked])),
                            root_moduli=moduli[picked][order])


def estimate_doas(r: np.ndarray, geom: ArrayGeometry, d: int, a: int,
                  method: str = "vws-ca-rmusic",
                  grid_size: int = 2000) -> tuple[EstimationResult, float]:
    """Full pipeline from an N x N covariance to DOA estimates; the one
    place that runs coarray, smoothing, EVD and estimator in sequence.

    Returns the estimate, with the noise subspace U_N in ``noise``, and
    the wall time of the subspace EVD step.  MUSIC searches
    ``default_grid(grid_size)``.
    """
    sm = vws_smooth(coarray_signal(r, geom), a)
    t0 = time.perf_counter()
    noise = noise_subspace(sm.values, d)
    evd_time = time.perf_counter() - t0
    if method == "vws-ca-music":
        result = pick_peaks(_grid_spectrum(noise, grid_size), d)
    elif method == "vws-ca-rmusic":
        result = root_music(noise, d)
    else:
        raise ValueError(f"unknown method {method!r}")
    return replace(result, noise=noise), evd_time


def save_spectrum_csv(s: Spectrum, path) -> None:
    """Export as CSV rows ``theta,value``."""
    with open(path, "w") as fh:
        fh.write("theta,value\n")
        for th, v in zip(s.grid, s.values):
            fh.write(f"{float(th)!r},{float(v)!r}\n")
