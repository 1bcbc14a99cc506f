"""Test-only references: independent formulations the package is
checked against, kept out of the package itself."""

from dataclasses import dataclass

import numpy as np

from sladoa.coarray import coarray_signal, vws_smooth
from sladoa.estimators import (EstimationResult, _noise_polynomial,
                               default_grid, music_spectrum, pick_peaks,
                               root_music)
from sladoa.geometry import (ArrayGeometry, Coarray, build_mra, build_nested,
                             build_super_nested, build_ula,
                             difference_coarray)
from sladoa.numerics import hermitian_evd, polynomial_roots
from sladoa.signal_model import SourceScene, steering_matrix

# Every builder, at sizes up to mra(10) (UDOF 73, largest window M = 37).
# All of their windows are rooted through the real Cayley polynomial
# (M <= 37); tests that reach past that size name their own geometries.
BUILDER_GEOMETRIES = ([build_ula(n) for n in range(2, 11)]
                      + [build_mra(n) for n in range(3, 11)]
                      + [build_nested(2, 2), build_nested(3, 5),
                         build_nested(4, 4), build_super_nested(4, 4),
                         build_super_nested(5, 4), build_super_nested(6, 3)])


def reference_snapshots(scene: SourceScene, geom: ArrayGeometry, t: int,
                        noise_var: float, seed) -> np.ndarray:
    """T snapshots x = A s + n drawn term by term: the D x T source
    samples scaled by sqrt(p), then the N x T noise samples scaled by
    sqrt(noise_var), each entry (g1 + j*g2)/sqrt(2) from 2(D + N)T
    standard normals.  The package's draw from one triangular factor of
    R must have the same law."""
    rng = np.random.default_rng(seed)
    d = scene.d
    s = rng.standard_normal((d, t)) + 1j * rng.standard_normal((d, t))
    s *= np.sqrt(np.asarray(scene.powers) / 2.0)[:, None]
    n = rng.standard_normal((geom.n, t)) + 1j * rng.standard_normal((geom.n, t))
    n *= np.sqrt(noise_var / 2.0)
    a = steering_matrix(geom.positions, scene.thetas, sign=-1)
    return a @ s + n


@dataclass(frozen=True)
class OracleDecomposition:
    """Population-level split of the smoothed matrix into
    (1/P)(R1^2 + R2^2); used as an independent test oracle."""

    r1: np.ndarray
    r2sq: np.ndarray
    b: np.ndarray
    omegas: np.ndarray

    @property
    def smoothed(self) -> np.ndarray:
        p = self.r1.shape[0] + self.b.shape[1]   # P = M + 2a
        return (self.r1 @ self.r1 + self.r2sq) / p


def decompose_oracle(scene: SourceScene, coarray: Coarray, a: int,
                     noise_var: float) -> OracleDecomposition:
    """Population decomposition of the smoothed matrix.

    With A_r the coarray steering over the reference-window lags
    0..M-1 and omega_d = exp(-j*pi*theta_d):
      R1   = A_r diag(p) A_r^H + noise_var * I
      R2^2 = A_r B B^H A_r^H,  B = diag(p) [omega_d^i] over the
             unperturbed window offsets i in {-a..-1} u {G-a..G-1}.
    The smoothed matrix equals (1/P)(R1^2 + R2^2).
    """
    if noise_var < 0:
        raise ValueError("noise_var must be >= 0")
    m = coarray.g - a
    ar = steering_matrix(range(m), scene.thetas, sign=+1)
    p = np.asarray(scene.powers)
    omegas = np.exp(-1j * np.pi * np.asarray(scene.thetas))
    r1 = (ar * p) @ ar.conj().T + noise_var * np.eye(m)
    exps = np.concatenate([np.arange(-a, 0), np.arange(coarray.g - a, coarray.g)])
    b = p[:, None] * omegas[:, None] ** exps[None, :]
    arb = ar @ b
    r2sq = arb @ arb.conj().T
    return OracleDecomposition(r1=r1, r2sq=r2sq, b=b, omegas=omegas)


def population_coarray_signal(scene: SourceScene, coarray: Coarray,
                              noise_var: float) -> np.ndarray:
    """Exact coarray signal sum_d p_d exp(j*pi*l*theta_d) + noise spike
    over the contiguous lags l = -(G-1)..(G-1)."""
    lags = np.arange(-(coarray.g - 1), coarray.g)
    a = steering_matrix(lags, scene.thetas, sign=+1)
    values = a @ np.asarray(scene.powers, dtype=complex)
    values[coarray.g - 1] += noise_var
    return values


def pairwise_lag_average(r: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """The coarray signal by a plain loop over sensor pairs: entries are
    summed per contiguous lag in row-major order, then divided by the
    pair count of that lag."""
    g = difference_coarray(geom).g
    sums = np.zeros(2 * g - 1, dtype=complex)
    counts = np.zeros(2 * g - 1)
    for i, pi in enumerate(geom.positions):
        for j, pj in enumerate(geom.positions):
            if abs(pj - pi) < g:
                sums[pj - pi + g - 1] += r[i, j]
                counts[pj - pi + g - 1] += 1
    return sums / counts


def companion_root_music(noise: np.ndarray, d: int) -> EstimationResult:
    """root-MUSIC through the complex companion matrix of the noise
    polynomial itself, degree 2M - 2: the direct formulation that the
    package's real, Cayley-mapped rooting must reproduce.

    Corner deflation and the ranking rule are the package's: roots
    strictly inside the unit circle first, each side by | 1 - |z| |.
    """
    t = _noise_polynomial(np.asarray(noise))
    tol = 1e-12 * np.abs(t).max()
    while t.size > 3 and abs(t[-1]) <= tol:
        t = t[1:-1]
    roots = polynomial_roots(t.astype(complex))
    moduli = np.abs(roots)
    outside = moduli >= 1.0
    picked = np.lexsort((np.abs(1.0 - moduli), outside))[:d]
    thetas = np.angle(roots[picked]) / np.pi
    thetas = (thetas + 1.0) % 2.0 - 1.0          # fold angle pi onto -1
    order = np.argsort(thetas)
    return EstimationResult(thetas=thetas[order],
                            fill_count=int(np.count_nonzero(outside[picked])),
                            root_moduli=moduli[picked][order])


def chained_estimate(r: np.ndarray, geom: ArrayGeometry, d: int, a: int,
                     method: str, grid_size: int = 2000) -> EstimationResult:
    """One covariance through the public stages in turn, one call each:
    ``coarray_signal``, ``vws_smooth``, ``hermitian_evd``, then
    ``root_music``, or ``music_spectrum`` on ``default_grid(grid_size)``
    and ``pick_peaks``.  The block engine, which runs each stage once for
    a stack of covariances, must reproduce it."""
    smoothed = vws_smooth(coarray_signal(r, geom), a).values
    noise = hermitian_evd(smoothed).eigenvectors[:, d:]
    if method == "vws-ca-music":
        return pick_peaks(music_spectrum(noise, default_grid(grid_size)), d)
    return root_music(noise, d)
