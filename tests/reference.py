"""Test-only references: independent formulations the package is
checked against, kept out of the package itself."""

from dataclasses import dataclass

import numpy as np

from sladoa.coarray import CoarraySignal, SmoothingPlan
from sladoa.geometry import Coarray
from sladoa.signal_model import SourceScene, steering_matrix


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
    plan = SmoothingPlan(a=a, g=coarray.g)
    m = plan.m
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
                              noise_var: float) -> CoarraySignal:
    """Exact coarray signal sum_d p_d exp(j*pi*l*theta_d) + noise spike."""
    lags = np.asarray(coarray.contiguous_lags)
    a = steering_matrix(lags, scene.thetas, sign=+1)
    values = a @ np.asarray(scene.powers, dtype=complex)
    values[coarray.g - 1] += noise_var
    return CoarraySignal(values, coarray)
