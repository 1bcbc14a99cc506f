"""Synthetic far-field narrowband snapshot model.

Directions are parameterized throughout as theta = sin(DOA) in [-1, 1).
Source and noise samples are circular complex Gaussian, drawn as
(g1 + j*g2)/sqrt(2) with independent standard normals, so each complex
entry has unit variance.  SNR convention: unit source powers with noise
variance 10**(-snr_db/10); +inf dB is noiseless.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry

__all__ = [
    "SourceScene",
    "SnapshotSet",
    "steering_matrix",
    "simulate_snapshots",
    "exact_covariance",
    "sample_covariance",
    "snr_to_noise_var",
    "save_snapshots_csv",
    "load_snapshots_csv",
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
        if th[0] < -1.0 or th[-1] >= 1.0:
            raise ValueError("thetas must lie in [-1, 1)")
        if any(p <= 0 for p in pw):
            raise ValueError("powers must be positive")
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "powers", pw)

    @classmethod
    def unit_powers(cls, thetas) -> "SourceScene":
        thetas = tuple(thetas)
        return cls(thetas, (1.0,) * len(thetas))

    @property
    def d(self) -> int:
        return len(self.thetas)


@dataclass(frozen=True)
class SnapshotSet:
    """N x T matrix of received samples (sensors by time)."""

    data: np.ndarray
    geometry: ArrayGeometry

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 2 or data.shape[0] != self.geometry.n:
            raise ValueError("data must be N x T with N matching the geometry")
        if data.shape[1] < 1:
            raise ValueError("need at least one snapshot")
        object.__setattr__(self, "data", data)

    @property
    def t(self) -> int:
        return self.data.shape[1]


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


def exact_covariance(scene: SourceScene, geom: ArrayGeometry,
                     noise_var: float) -> np.ndarray:
    """Population covariance A diag(p) A^H + noise_var * I."""
    if noise_var < 0:
        raise ValueError("noise_var must be >= 0")
    a = steering_matrix(geom.positions, scene.thetas, sign=-1)
    r = (a * np.asarray(scene.powers)) @ a.conj().T
    r += noise_var * np.eye(geom.n)
    return r


def simulate_snapshots(scene: SourceScene, geom: ArrayGeometry, t: int,
                       noise_var: float, seed) -> SnapshotSet:
    """Draw T iid snapshots x(t) = A s(t) + n(t).

    The draw order is fixed (all source samples, then all noise
    samples), so output is bit-reproducible for a given seed.  ``seed``
    is anything accepted by :func:`numpy.random.default_rng`.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if noise_var < 0:
        raise ValueError("noise_var must be >= 0")
    rng = np.random.default_rng(seed)
    d = scene.d
    s = (rng.standard_normal((d, t)) + 1j * rng.standard_normal((d, t)))
    s *= np.sqrt(np.asarray(scene.powers) / 2.0)[:, None]
    n = (rng.standard_normal((geom.n, t)) + 1j * rng.standard_normal((geom.n, t)))
    n *= np.sqrt(noise_var / 2.0)
    a = steering_matrix(geom.positions, scene.thetas, sign=-1)
    return SnapshotSet(a @ s + n, geom)


def sample_covariance(x: SnapshotSet) -> np.ndarray:
    """Sample covariance (1/T) X X^H."""
    return x.data @ x.data.conj().T / x.t


def snr_to_noise_var(snr_db: float) -> float:
    """Noise variance for unit-power sources at the given SNR in dB."""
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError(f"snr_db: must be a number or +inf, got {snr_db}")
    return float(10.0 ** (-snr_db / 10.0))


def save_snapshots_csv(x: SnapshotSet, path) -> None:
    """Write snapshots as CSV: header line ``N,T``, then one row per
    sensor with T interleaved real,imag values."""
    data = x.data
    with open(path, "w") as fh:
        fh.write(f"{data.shape[0]},{data.shape[1]}\n")
        for row in data:
            inter = np.empty(2 * row.size)
            inter[0::2] = row.real
            inter[1::2] = row.imag
            fh.write(",".join(repr(float(v)) for v in inter) + "\n")


def load_snapshots_csv(path, geom: ArrayGeometry) -> SnapshotSet:
    """Read snapshots written by :func:`save_snapshots_csv`."""
    with open(path) as fh:
        header = fh.readline().strip()
        n, t = (int(v) for v in header.split(","))
        rows = []
        for _ in range(n):
            vals = np.array([float(v) for v in fh.readline().split(",")])
            rows.append(vals[0::2] + 1j * vals[1::2])
    data = np.array(rows)
    if data.shape != (n, t):
        raise ValueError("snapshot file shape does not match its header")
    return SnapshotSet(data, geom)
