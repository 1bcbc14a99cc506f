"""Traced replay of Monte Carlo trials, one public stage at a time.

Spans live in memory.  Per trial the traced pass records:

* ``montecarlo.run_trial``: the package's own ``run_trial``, timed whole;
* ``bench.trial``: a replay of the same trial that calls each public stage
  in turn, with one child span per stage.  These are the stages on the
  path that blocks the trial's result;
* ``bench.probe``: stages the workload's method does not run (the other
  estimator) and kernels timed apart from their caller
  (``numerics.polynomial_roots`` on coefficients formed here).  They are
  never counted against ``run_trial``.

The replay must reproduce ``run_trial`` to the last bit: the traced run
reduces its own per-trial errors and checks that RMSE against
``rmse_sweep``.
"""

import statistics
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from sladoa import (coarray_signal, default_grid, difference_coarray,
                    hermitian_evd, music_spectrum, pick_peaks,
                    polynomial_roots, root_music, run_trial,
                    sample_covariance, simulate_snapshots, vws_smooth)

from workloads import MUSIC, resolve

# Stages on the blocking path of one trial, per method.
PATH_STAGES = {
    "vws-ca-rmusic": ("signal_model.simulate_snapshots",
                      "signal_model.sample_covariance",
                      "coarray.coarray_signal", "coarray.vws_smooth",
                      "numerics.hermitian_evd", "estimators.root_music"),
    "vws-ca-music": ("signal_model.simulate_snapshots",
                     "signal_model.sample_covariance",
                     "coarray.coarray_signal", "coarray.vws_smooth",
                     "numerics.hermitian_evd", "estimators.music_spectrum",
                     "estimators.pick_peaks"),
}
DIFFERENCE_COARRAY_REPEATS = 20


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]     # index of the parent span, None at the root
    trial: int

    @property
    def us(self) -> float:
        return (self.end - self.start) * 1e6


class Tracer:
    """Append-only in-memory span list."""

    def __init__(self):
        self.spans: list[Span] = []

    def begin(self, name: str, parent: Optional[int], trial: int) -> int:
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, trial))
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        s = self.spans[index]
        self.spans[index] = Span(s.name, s.start, time.perf_counter(),
                                 s.parent, s.trial)

    def call(self, name: str, parent: int, trial: int, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.spans.append(Span(name, t0, time.perf_counter(), parent, trial))
        return out


def grid_steering(cache: dict, m: int, size: int):
    """Default grid and its coarray steering matrix, as ``estimate_doas``
    builds them, so the replayed spectrum is bit-identical."""
    if (m, size) not in cache:
        grid = default_grid(size)
        cache[(m, size)] = (grid, np.exp(1j * np.pi * np.outer(np.arange(m),
                                                                grid)))
    return cache[(m, size)]


def polynomial_coefficients(noise: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the root-MUSIC polynomial: the sums of
    the diagonals of U_N U_N^H, offset -(M-1) .. M-1."""
    m = noise.shape[0]
    c = noise @ noise.conj().T
    offset = (np.arange(m)[None, :] - np.arange(m)[:, None]).ravel() + m - 1
    flat = c.ravel()
    return (np.bincount(offset, flat.real, 2 * m - 1)
            + 1j * np.bincount(offset, flat.imag, 2 * m - 1))


def traced_trial(tr: Tracer, cfg, axis_value, axis_index: int,
                 trial_index: int, trial: int, steering: dict):
    """Run one trial twice: whole through ``run_trial`` and replayed stage
    by stage.  Returns the replay's squared errors, thetas and
    diagnostics."""
    root = tr.begin("montecarlo.run_trial", None, trial)
    run_trial(cfg, axis_value, axis_index, trial_index)
    tr.end(root)

    d = len(cfg.thetas)
    t, noise_var = resolve(cfg, axis_value)
    seed = np.random.SeedSequence([int(cfg.seed), axis_index, trial_index])
    root = tr.begin("bench.trial", None, trial)
    snaps = tr.call("signal_model.simulate_snapshots", root, trial,
                    simulate_snapshots, cfg.scene, cfg.geometry, t, noise_var,
                    seed)
    r = tr.call("signal_model.sample_covariance", root, trial,
                sample_covariance, snaps)
    x = tr.call("coarray.coarray_signal", root, trial, coarray_signal, r,
                cfg.geometry)
    sm = tr.call("coarray.vws_smooth", root, trial, vws_smooth, x, cfg.a)
    evd = tr.call("numerics.hermitian_evd", root, trial, hermitian_evd,
                  sm.values)
    noise = evd.eigenvectors[:, d:]
    grid, steer = grid_steering(steering, noise.shape[0], cfg.grid_size)
    if cfg.method == MUSIC:
        spec = tr.call("estimators.music_spectrum", root, trial,
                       music_spectrum, noise, grid, steer)
        result = tr.call("estimators.pick_peaks", root, trial, pick_peaks,
                         spec, d)
    else:
        result = tr.call("estimators.root_music", root, trial, root_music,
                         noise, d)
    err = result.thetas - np.asarray(cfg.thetas)
    sq = err * err
    tr.end(root)

    probe = tr.begin("bench.probe", None, trial)
    if cfg.method == MUSIC:
        tr.call("estimators.root_music", probe, trial, root_music, noise, d)
        peaks = result.peaks_found
    else:
        spec = tr.call("estimators.music_spectrum", probe, trial,
                       music_spectrum, noise, grid, steer)
        peaks = tr.call("estimators.pick_peaks", probe, trial, pick_peaks,
                        spec, d).peaks_found
    coeffs = polynomial_coefficients(noise)
    tr.call("numerics.polynomial_roots", probe, trial, polynomial_roots,
            coeffs)
    tr.end(probe)

    lam = evd.eigenvalues
    return {"sq": sq, "thetas": result.thetas, "fills": result.fill_count,
            "peaks": peaks, "eigengap": float(lam[d - 1] / lam[d]),
            "m": noise.shape[0], "normals": 2 * (d + cfg.geometry.n) * t}


def time_difference_coarray(tr: Tracer, configs) -> None:
    probe = tr.begin("bench.probe", None, -1)
    for cfg in configs:
        for _ in range(DIFFERENCE_COARRAY_REPEATS):
            tr.call("geometry.difference_coarray", probe, -1,
                    difference_coarray, cfg.geometry)
    tr.end(probe)


def stage_means(spans) -> dict:
    """Mean µs per call of every span name among the given spans."""
    by_name: dict[str, list[float]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s.us)
    return {k: statistics.fmean(v) for k, v in by_name.items()}
