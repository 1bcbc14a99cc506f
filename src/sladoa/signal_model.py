"""Synthetic far-field narrowband snapshot model.

Directions are parameterized throughout as theta = sin(DOA) in [-1, 1).
Sources and noise are uncorrelated circular complex Gaussian, so each
snapshot x = A s + n is CN(0, R) with R = A diag(p) A^H + noise_var * I.
It is drawn as x = L g: L is an N x N lower-triangular factor with
L L^H = R, and g holds N circular complex normals of unit variance,
each (g1 + j*g2)/sqrt(2) with independent standard normals.  SNR
convention: unit source powers with noise variance 10**(-snr_db/10);
+inf dB is noiseless.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry

__all__ = [
    "SourceScene",
    "steering_matrix",
    "simulate_snapshots",
    "exact_covariance",
    "sample_covariance",
    "snr_to_noise_var",
]


@dataclass(frozen=True)
class SourceScene:
    """D uncorrelated far-field sources: sine-directions and powers."""

    thetas: tuple[float, ...]
    powers: tuple[float, ...]

    def __post_init__(self):
        th = tuple(float(t) for t in self.thetas)
        pw = tuple(float(p) for p in self.powers)
        if len(th) == 0:
            raise ValueError("scene needs at least one source")
        if len(th) != len(pw):
            raise ValueError("thetas and powers must have equal length")
        if any(b <= a for a, b in zip(th, th[1:])):
            raise ValueError("thetas must be strictly increasing")
        if not all(-1.0 <= t < 1.0 for t in th):    # NaN fails too
            raise ValueError("thetas must lie in [-1, 1)")
        if not all(0.0 < p < np.inf for p in pw):
            raise ValueError("powers must be positive and finite")
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "powers", pw)

    @classmethod
    def unit_powers(cls, thetas) -> "SourceScene":
        thetas = tuple(thetas)
        return cls(thetas, (1.0,) * len(thetas))

    @property
    def d(self) -> int:
        return len(self.thetas)


def steering_matrix(positions, thetas, sign: int = -1) -> np.ndarray:
    """Steering matrix with entries exp(sign * j*pi * position * theta).

    sign=-1 is the physical-array convention; sign=+1 the coarray
    (virtual-array) convention.
    """
    if sign not in (-1, +1):
        raise ValueError("sign must be +1 or -1")
    pos = np.asarray(positions, dtype=float).reshape(-1, 1)
    th = np.asarray(thetas, dtype=float).reshape(1, -1)
    return np.exp(sign * 1j * np.pi * pos * th)


def _check_noise_var(noise_var: float) -> None:
    if not 0.0 <= noise_var < np.inf:           # NaN fails too
        raise ValueError(f"noise_var must be finite and >= 0, got {noise_var}")


def exact_covariance(scene: SourceScene, geom: ArrayGeometry,
                     noise_var: float) -> np.ndarray:
    """Population covariance A diag(p) A^H + noise_var * I."""
    _check_noise_var(noise_var)
    a = steering_matrix(geom.positions, scene.thetas, sign=-1)
    r = (a * np.asarray(scene.powers)) @ a.conj().T
    r += noise_var * np.eye(geom.n)
    return r


def simulate_snapshots(scene: SourceScene, geom: ArrayGeometry, t: int,
                       noise_var: float, seed) -> np.ndarray:
    """Draw T iid snapshots x(t) ~ CN(0, R), the law of A s(t) + n(t),
    as an N x T complex array (sensors by time).

    x = L g from the triangular factor of ``_snapshot_factor``: 2*N*T
    standard normals, drawn in one call in the order (sensor, time,
    real/imaginary part), so output is bit-reproducible for a given
    seed, and a draw of more sensors from it starts with these rows bit
    for bit.  ``seed`` is anything :func:`numpy.random.default_rng` takes.
    It is the one-seed, one-factor case of ``_draw``, the draw of every
    Monte Carlo trial.
    """
    factor = _snapshot_factor(scene, geom, noise_var)
    return next(_draw([factor], t, [seed]))[0]


def _snapshot_factor(scene: SourceScene, geom: ArrayGeometry,
                     noise_var: float) -> np.ndarray:
    """N x N lower-triangular L with 2 L L^H = R: the factor of R with
    the 1/sqrt(2) of a circular normal folded in.

    L^H is the triangular factor of one QR of F^H, where
    F = [A diag(sqrt(p / 2)), sqrt(noise_var / 2) I] and so 2 F F^H = R.
    Unlike a Cholesky of R, the QR never squares the condition number:
    it holds at any SNR, and at noise_var = 0, where L has rank D.
    """
    _check_noise_var(noise_var)
    a = steering_matrix(geom.positions, scene.thetas, sign=-1)
    f = np.hstack([a * np.sqrt(np.asarray(scene.powers) / 2.0),
                   np.sqrt(noise_var / 2.0) * np.eye(geom.n)])
    return np.linalg.qr(f.conj().T, mode="r").conj().T


def _draw(factors, t: int, seeds):
    """For each seed in turn, yield the list of ``factor @ g`` for each
    N x N factor, g the N x T normals ``simulate_snapshots`` draws from
    the seed: one draw of the largest N per seed, which
    ``standard_normal`` fills in (sensor, time, part) order, so its first
    N rows are bit for bit an N-row draw.  The normals and each factor's
    snapshots live in buffers allocated once for all seeds, so each
    list yielded is overwritten by the next."""
    if t < 1:
        raise ValueError("t must be >= 1")
    n = max(f.shape[0] for f in factors)
    parts = np.empty((n, t, 2))
    g = parts.view(np.complex128).reshape(n, t)
    xs = [np.empty((f.shape[0], t), dtype=complex) for f in factors]
    for seed in seeds:
        np.random.default_rng(seed).standard_normal(out=parts)
        for f, x in zip(factors, xs):
            np.matmul(f, g[:len(f)], out=x)
        yield xs


def sample_covariance(x) -> np.ndarray:
    """Sample covariance (1/T) X X^H of an N x T snapshot array.

    Raises ValueError unless the input is 2-D with T >= 1.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("snapshots must be N x T with T >= 1, "
                         f"got shape {x.shape}")
    return x @ x.conj().T / x.shape[1]


def snr_to_noise_var(snr_db: float) -> float:
    """Noise variance for unit-power sources at the given SNR in dB."""
    snr_db = float(snr_db)
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError(f"snr_db: must be a number or +inf, got {snr_db}")
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db: {snr_db} dB overflows the noise "
                         "variance") from None
