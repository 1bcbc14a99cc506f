"""Subspace DOA estimators over the smoothed coarray matrix.

Both estimators consume the noise subspace U_N of the smoothed matrix
and the coarray steering convention a(theta)[m] = exp(+j*pi*m*theta)
over the reference-window lags 0..M-1.  Both read one coefficient
vector, the diagonal sums of U_N U_N^H (Barabell 1983).  MUSIC
evaluates that polynomial on the default grid by FFT.  root-MUSIC
roots it in real arithmetic up to window size M = 37: a rotated Cayley
map turns the conjugate-reciprocal polynomial of degree 2M-2 into a
real one of the same degree, whose real companion EVD is several times
cheaper than the complex one (unitary root-MUSIC, Pesavento, Gershman
& Haardt 2000).  Larger windows root the polynomial itself through its
complex companion matrix.

``_estimate_block`` runs the whole chain for a stack of covariances,
each stage once for the stack up to the polynomial roots: one coarray
sum, one smoothing product, one EVD, then one FFT and one peak pick, or
one companion EVD.  Root ranking runs per estimate.  It returns the
estimates beside the stack of noise subspaces they came from.
``estimate_doas`` is its block of one, and the public stage functions
are the blocks of one of their stacked kernels, so an estimate is bit
for bit the same alone or in any block.
"""

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .coarray import _smooth, coarray_signal, lag_sums
from .geometry import ArrayGeometry
from .numerics import _companion_roots, hermitian_evd

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

_METHODS = ("vws-ca-music", "vws-ca-rmusic")
_DENOM_FLOOR = 1e-18
# Largest window M rooted through the real Cayley polynomial, within
# 1e-8 of the complex companion.  Past it the x-basis, whose entries grow
# as C(2L, L), lets sampled roots drift by 1e-5 at M = 38 and population
# ones past 1e-8 from M = 43 on.
_CAYLEY_MAX_M = 37
_ON_CIRCLE_TOL = 1e-7       # | 1 - |z| | up to it: a double root, unpolished


@dataclass(frozen=True)
class Spectrum:
    grid: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class EstimationResult:
    """Estimated sine-directions (ascending) plus diagnostics.

    ``fill_count`` counts estimates not backed by a proper peak
    (MUSIC) or taken from outside the unit circle (root variant).
    """

    thetas: np.ndarray
    peaks_found: int = 0
    fill_count: int = 0
    root_moduli: Optional[np.ndarray] = None


def default_grid(size: int = 2000) -> np.ndarray:
    """Uniform grid over [-1, 1) with ``size`` points, an integer >= 1."""
    if not (float(size).is_integer() and size >= 1):
        raise ValueError(f"grid size must be an integer >= 1, got {size}")
    return -1.0 + 2.0 * np.arange(size) / size


def noise_subspace(m: np.ndarray, d: int) -> np.ndarray:
    """Noise subspace U_N of an M x M Hermitian matrix, or of each matrix
    of a (..., M, M) stack: the M x (M-d) eigenvectors of all but the d
    largest eigenvalues."""
    m = np.asarray(m)
    if not 0 <= d < m.shape[-1]:
        raise ValueError(f"need 0 <= d < M, got d={d}, M={m.shape[-1]}")
    return hermitian_evd(m).eigenvectors[..., d:]


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
    """Ascending t_{1-M} .. t_{M-1}; t_k sums diagonal k of U_N U_N^H.
    A (..., M, M-d) stack of U_N gives a stack of rows."""
    return lag_sums(noise @ noise.conj().swapaxes(-1, -2),
                    range(noise.shape[-2]))


def _circle_values(t: np.ndarray, size: int) -> np.ndarray:
    """p(z) = sum_k t_k z^k, k = -L..L, at z = -exp(2*pi*i*j/size) for
    j = 0..size-1: sum_k (-1)^k t_k exp(2*pi*i*k*j/size), an inverse DFT
    of length ``size``.  t is conjugate-symmetric, t_{-k} = conj(t_k), so
    the values are real and one half-length real transform of the
    non-negative bins, which hold lags 0..L, gives them.  A grid coarser
    than 2L + 1 points is every ``step``-th value of the transform over
    ``step * size`` >= 2L + 1 points.  A stack of rows t gives a row of
    values each."""
    lag = t.shape[-1] // 2
    step = -(-t.shape[-1] // size)
    c = np.zeros(t.shape[:-1] + (step * size // 2 + 1,), dtype=complex)
    c[..., :lag + 1] = t[..., lag:]
    c[..., 1:lag + 1:2] *= -1
    return np.fft.irfft(c, step * size, norm="forward")[..., ::step]


def _grid_spectrum(noise: np.ndarray, size: int) -> Spectrum:
    """``music_spectrum`` of U_N on ``default_grid(size)``, the spectrum
    MUSIC picks from, by its noise polynomial t: at theta_j = -1 + 2j/K,
    exp(j*pi*theta_j) = -exp(2*pi*i*j/K), so the denominators are
    ``_circle_values`` of t.  A stack of U_N gives a row each."""
    grid = default_grid(size)
    denom = _circle_values(_noise_polynomial(noise), grid.size)
    return Spectrum(grid, 1.0 / np.maximum(denom, _DENOM_FLOOR))


def pick_peaks(s: Spectrum, d: int) -> EstimationResult:
    """Take the d largest local maxima of the spectrum.

    Endpoints compare against -inf beyond the grid.  Ties break toward
    the smaller angle.  If fewer than d maxima exist, the shortfall is
    filled from the largest remaining grid values and counted in
    ``fill_count``.  A spectrum with fewer than d points raises
    ValueError.
    """
    return _pick_peaks(Spectrum(s.grid, s.values[None]), d)[0]


def _pick_peaks(s: Spectrum, d: int) -> list[EstimationResult]:
    """``pick_peaks`` of each row of a (K, G) stack of spectra on one
    grid.  The maxima of every row are ranked by one sort over (row,
    -value, angle); only a row with fewer than d of them sorts its other
    points."""
    if d < 1:
        raise ValueError("d must be >= 1")
    v, grid = s.values, s.grid
    if v.shape[-1] < d:
        raise ValueError(f"spectrum has {v.shape[-1]} points, fewer than "
                         f"d={d}")
    padded = np.full((len(v), v.shape[-1] + 2), -np.inf)
    padded[:, 1:-1] = v
    is_max = (v > padded[:, :-2]) & (v > padded[:, 2:])
    flat = np.flatnonzero(is_max)
    rows, idx = np.divmod(flat, v.shape[-1])
    idx = idx[np.lexsort((grid[idx], -v.ravel()[flat], rows))]
    bounds = np.searchsorted(rows, np.arange(len(v) + 1)).tolist()
    results = []
    for k, (start, end) in enumerate(zip(bounds, bounds[1:])):
        chosen = idx[start:min(end, start + d)]
        fill = d - chosen.size
        if fill:                            # sort the non-peak rest only here
            rest = np.flatnonzero(~is_max[k])
            rest = rest[np.lexsort((grid[rest], -v[k, rest]))]
            chosen = np.concatenate((chosen, rest[:fill]))
        results.append(EstimationResult(thetas=np.sort(grid[chosen]),
                                        peaks_found=end - start,
                                        fill_count=fill))
    return results


@lru_cache(maxsize=64)
def _cayley_basis(lag: int) -> np.ndarray:
    """The real form of B, whose row k + L holds the ascending
    x-coefficients of (1+jx)^(L+k) (1-jx)^(L-k), k = -L..L, so that with
    z = (1+jx)/(1-jx), sum_k t_k z^k = (t @ B)(x) / (1+x^2)^L.

    The coefficient of x^n is j^n times an integer; the integers are
    built exactly (they reach C(72, 36) ~ 4e20 at L = 36, the largest
    lag ``root_music`` roots this way) and rounded once.  Moving one
    factor from (1-jx) to (1+jx) is, on the integers, adding the shifted
    row and then a cumulative sum (the exact division by 1 - jx).

    Rows 2i and 2i + 1 hold Re B[i] and -Im B[i], so for complex t,
    Re(t @ B) = t.view(float) @ basis: a real product, whose bits do not
    depend on how BLAS splits it across threads, as a complex one's did
    at L = 36.
    """
    n = 2 * lag + 1
    row = np.array([(-1) ** i * math.comb(n - 1, i) for i in range(n)],
                   dtype=object)                        # (1 - jx)^(2L)
    rows = [row]
    for _ in range(n - 1):
        row = np.cumsum(row + np.concatenate(([0], row[:-1])))
        rows.append(row)
    j_powers = np.array([1, 1j, -1, -1j])[np.arange(n) % 4]
    basis = np.array(rows, dtype=float) * j_powers
    basis = np.stack((basis.real, -basis.imag), axis=1).reshape(2 * n, n)
    basis.flags.writeable = False           # one array serves every caller
    return basis


def _newton_step(t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One step z - P/P' on P(z) = sum_i t_i z^i, taken where it is finite
    and z is a simple root, more than 1e-7 off the unit circle; the
    double roots on it, where Newton only halves the error, stay."""
    i = np.arange(t.size)
    with np.errstate(all="ignore"):
        powers = z[:, None] ** i
        step = z - (powers @ t) / (powers[:, :-1] @ (i[1:] * t[1:]))
    simple = np.abs(1.0 - np.abs(z)) > _ON_CIRCLE_TOL
    return np.where(simple & np.isfinite(step), step, z)


def root_music(noise: np.ndarray, d: int) -> EstimationResult:
    """Search-free estimate from the roots of the noise-subspace
    Laurent polynomial, found in real arithmetic for M <= 37 (unitary
    root-MUSIC, Pesavento, Gershman & Haardt 2000).

    With C = U_N U_N^H, the coefficient of z^(k+M-1) is the sum of the
    k-th superdiagonal of C; corner sums at or below 1e-12 of the
    largest are dropped in pairs, one from each end.  Up to M = 37 the
    rotated Cayley map z = e^(j*phi) (1+jx)/(1-jx) turns the
    conjugate-reciprocal polynomial into a real one in x, q >= 0 on the
    real line; its pole z = -e^(j*phi) sits where the polynomial is
    largest on a short FFT grid, the point farthest from every root.
    Im x > 0 maps inside the unit circle and real x onto it.  There the
    double roots come back split into adjacent pairs of real x-roots:
    every second one counts as outside, and both take the pair's mean.
    Larger windows root the z-polynomial through its complex companion
    matrix, with |z| >= 1 outside: the x-basis entries grow as C(2L, L),
    and rooting q in that basis drifts by 1e-5 on sampled scenes from
    M = 38 on.  Both paths stay within 1e-8 of the population directions
    on every swept array up to M = 169.  One stable sort ranks the roots
    inside first, each side by closeness | 1 - |z| |; the first d, the
    simple ones polished by one Newton step, give theta = angle(z)/pi
    and ``root_moduli``, and those taken from outside are counted in
    ``fill_count``.

    At M = d + 1 with one noise vector u, the polynomial is
    q(z) conj(q(1/conj z)) with q(z) = sum_m conj(u_m) z^m, so its roots
    pair up as r and 1/conj(r).  Unless its corner sum u_0 conj(u_{M-1})
    was dropped, q of degree d is rooted instead: its roots are simple,
    and each one's angle is that of the inside member of its pair, which
    is the root taken, never counted as a fill.
    """
    return _root_music(np.asarray(noise)[None], d)[0]


def _root_music(noise: np.ndarray, d: int) -> list[EstimationResult]:
    """``root_music`` of each U_N of a (K, M, M - D) stack.  The
    polynomials of a like degree and kind are rooted by one stacked
    companion EVD; the ring, the ranking and the Newton step run per
    estimate."""
    if d < 1:
        raise ValueError("d must be >= 1")
    m = noise.shape[-2]
    if m < 2:
        raise ValueError("need M >= 2")
    # t is conjugate-reciprocal: both ends vanish together, and rooting
    # would divide by a near-zero leading coefficient.  Row k drops
    # trims[k] corner pairs, while more than three coefficients remain.
    t = _noise_polynomial(noise)
    tol = 1e-12 * np.abs(t).max(axis=-1, keepdims=True)
    trims = np.cumprod(np.abs(t[:, -1:m:-1]) <= tol, axis=-1).sum(axis=-1)
    # rows of a kind are rooted together: the corner pairs dropped, or
    # -1 for rooting q at M = d + 1
    kind = trims
    if noise.shape[-1] == 1 and d == m - 1:
        kind = np.where(np.abs(t[:, -1]) > tol[:, 0], -1, trims)
    results = [None] * len(t)
    for k in sorted(set(kind.tolist())):
        rows = np.flatnonzero(kind == k)
        if k < 0:
            block = _root_single_noise(noise[rows, :, 0])
        else:
            block = _root_polynomials(t[rows, k:t.shape[-1] - k], m, d)
        for i, result in zip(rows, block):
            results[i] = result
    return results


def _root_single_noise(u: np.ndarray) -> list[EstimationResult]:
    """``root_music`` at M = d + 1 from each row u of noise vectors: the
    roots r of q(z) = sum_m conj(u_m) z^m, each read as the inside member
    of the pair r, 1/conj(r)."""
    r = _companion_roots(u.conj())
    inside = np.where(np.abs(r) > 1.0, 1.0 / r.conj(), r)
    return [_estimate(z, 0) for z in inside]


def _root_polynomials(t: np.ndarray, m: int, d: int
                      ) -> list[EstimationResult]:
    """``root_music`` of each row of a stack of noise polynomials of one
    length, from windows of size m; raises ValueError if d exceeds the
    polynomials' root count."""
    if d >= t.shape[-1]:
        raise ValueError(f"d={d} exceeds the {t.shape[-1] - 1} roots of the "
                         f"noise polynomial")
    if m > _CAYLEY_MAX_M:
        roots = _companion_roots(t.astype(complex))
        return [_pick(row, z, np.abs(z) >= 1.0, d)
                for row, z in zip(t, roots)]
    lag = t.shape[-1] // 2
    size = 4 * t.shape[-1]
    phi = 2 * np.pi * np.argmax(_circle_values(t, size), axis=-1) / size
    rotated = t * np.exp(1j * phi[:, None] * np.arange(-lag, lag + 1))
    q = rotated.view(float)[:, None] @ _cayley_basis(lag)
    results = []
    for row, x, rotation in zip(t, _companion_roots(q[:, 0]), phi):
        outside = x.imag < 0
        ring = np.flatnonzero(x.imag == 0)
        ring = ring[np.argsort(x.real[ring])]
        lo, hi = ring[:-1:2], ring[1::2]    # each split double root
        outside[hi] = True
        x[lo] = x[hi] = (x[lo] + x[hi]) / 2
        with np.errstate(divide="ignore", invalid="ignore"):  # x = -j: z = inf
            z = np.exp(1j * rotation) * (1 + 1j * x) / (1 - 1j * x)
        results.append(_pick(row, z, outside, d))
    return results


def _pick(t: np.ndarray, z: np.ndarray, outside: np.ndarray,
          d: int) -> EstimationResult:
    """The d roots z of t ranked first, inside before outside and each
    side by | 1 - |z| |, the simple ones given one Newton step."""
    picked = np.lexsort((np.abs(1.0 - np.abs(z)), outside))[:d]
    return _estimate(_newton_step(t, z[picked]),
                     int(np.count_nonzero(outside[picked])))


def _estimate(z: np.ndarray, fill_count: int) -> EstimationResult:
    """The estimate theta = angle(z)/pi of picked roots z, ascending."""
    thetas = np.angle(z) / np.pi
    thetas = (thetas + 1.0) % 2.0 - 1.0          # fold angle pi onto -1
    order = np.argsort(thetas)
    return EstimationResult(thetas=thetas[order], fill_count=fill_count,
                            root_moduli=np.abs(z)[order])


def estimate_doas(r: np.ndarray, geom: ArrayGeometry, d: int, a: int,
                  method: str = "vws-ca-rmusic",
                  grid_size: int = 2000
                  ) -> tuple[EstimationResult, np.ndarray]:
    """Full pipeline from an N x N covariance to DOA estimates: the
    block of one of ``_estimate_block``, the one place that runs
    coarray, smoothing, EVD and estimator in sequence.

    Returns the estimate and the M x (M-d) noise subspace U_N it was
    estimated from.  MUSIC searches ``default_grid(grid_size)``.
    """
    r = np.asarray(r)
    if r.shape != (geom.n, geom.n):             # a stack is no covariance
        raise ValueError("covariance dimension does not match geometry")
    results, noise, _ = _estimate_block(r[None], geom, d, a, method,
                                        grid_size)
    return results[0], noise[0]


def _estimate_block(covs: np.ndarray, geom: ArrayGeometry, d: int, a: int,
                    method: str = "vws-ca-rmusic", grid_size: int = 2000
                    ) -> tuple[list[EstimationResult], np.ndarray, float]:
    """``estimate_doas`` of each covariance of a (K, N, N) stack, each
    stage run once for the stack; returns the K estimates, the
    (K, M, M-d) stack of their noise subspaces U_N, and the wall time of
    the block's EVD."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    sm = _smooth(coarray_signal(covs, geom), a)
    t0 = time.perf_counter()
    noise = noise_subspace(sm, d)
    evd_time = time.perf_counter() - t0
    if method == "vws-ca-music":
        results = _pick_peaks(_grid_spectrum(noise, grid_size), d)
    else:
        results = _root_music(noise, d)
    return results, noise, evd_time


def save_spectrum_csv(s: Spectrum, path) -> None:
    """Export as CSV rows ``theta,value``."""
    with open(path, "w") as fh:
        fh.write("theta,value\n")
        for th, v in zip(s.grid, s.values):
            fh.write(f"{float(th)!r},{float(v)!r}\n")
