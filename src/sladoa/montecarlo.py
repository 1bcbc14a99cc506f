"""Seeded Monte Carlo sweeps of RMSE versus SNR or snapshot count.

Per-trial seeds derive from (master seed, axis index, trial index)
through :class:`numpy.random.SeedSequence`, so results are identical
for any execution order or worker count.  Squared errors are collected
per trial and reduced in a fixed order, keeping the float summation
deterministic under parallelism.
"""

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .coarray import max_shrinkage
from .estimators import estimate_doas
from .geometry import ArrayGeometry, difference_coarray
from .signal_model import (SourceScene, sample_covariance,
                           simulate_snapshots, snr_to_noise_var)

__all__ = [
    "ExperimentConfig",
    "SweepResult",
    "run_trial",
    "rmse_sweep",
    "write_sweep_csv",
    "write_sweep_json",
]

_METHODS = ("vws-ca-music", "vws-ca-rmusic")
_AXES = ("snr", "snapshots")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a scene, a geometry, an estimator, and an axis."""

    geometry: ArrayGeometry
    thetas: tuple[float, ...]
    method: str
    a: int
    snapshots: int
    snr_db: float
    axis: str                       # "snr" or "snapshots"
    axis_values: tuple[float, ...]
    trials: int
    seed: int
    grid_size: int = 2000
    powers: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        object.__setattr__(self, "axis_values", tuple(self.axis_values))
        if not self.powers:
            object.__setattr__(self, "powers", (1.0,) * len(self.thetas))

    @property
    def scene(self) -> SourceScene:
        return SourceScene(self.thetas, self.powers)

    def validate(self) -> None:
        """Raise ValueError naming the offending field."""
        _ = self.scene                              # validates thetas/powers
        if self.method not in _METHODS:
            raise ValueError(f"method: must be one of {_METHODS}")
        if self.axis not in _AXES:
            raise ValueError(f"axis: must be one of {_AXES}")
        if len(self.axis_values) == 0:
            raise ValueError("axis_values: must be nonempty")
        if self.axis == "snapshots" and any(v < 1 for v in self.axis_values):
            raise ValueError("axis_values: snapshot counts must be >= 1")
        try:
            for v in self.axis_values if self.axis == "snr" else ():
                snr_to_noise_var(v)
        except ValueError as exc:
            raise ValueError(f"axis_values: {exc}") from None
        snr_to_noise_var(self.snr_db)           # its error names snr_db
        if self.snapshots < 1:
            raise ValueError("snapshots: must be >= 1")
        if self.trials < 1:
            raise ValueError("trials: must be >= 1")
        if self.grid_size < 2:
            raise ValueError("grid_size: must be >= 2")
        ca = difference_coarray(self.geometry)
        amax = max_shrinkage(ca.udof, len(self.thetas))
        if not 0 <= self.a <= amax:
            raise ValueError(
                f"a: shrinkage {self.a} infeasible for UDOF={ca.udof}, "
                f"D={len(self.thetas)}; maximum a is {amax}"
            )


@dataclass(frozen=True)
class SweepResult:
    """RMSE curve with per-axis fill counts and EVD timing.

    ``mean_evd_time`` is wall-clock time: it goes to the JSON sidecar
    and never to the CSV, which stays byte-identical run to run.
    """

    axis: str
    axis_values: tuple[float, ...]
    rmse: tuple[float, ...]
    fills: tuple[int, ...]
    trials: int
    mean_evd_time: tuple[float, ...]
    seed: int
    config: dict = field(default_factory=dict)


def trial_seed(master: int, axis_index: int, trial_index: int):
    """Documented stream split: SeedSequence over the three indices."""
    return np.random.SeedSequence([int(master), int(axis_index), int(trial_index)])


def _resolve(cfg: ExperimentConfig, axis_value):
    if cfg.axis == "snr":
        return int(cfg.snapshots), snr_to_noise_var(float(axis_value))
    return int(axis_value), snr_to_noise_var(cfg.snr_db)


def run_trial(cfg: ExperimentConfig, axis_value, axis_index: int,
              trial_index: int):
    """One end-to-end trial; returns (squared errors per source,
    fill count, EVD wall time)."""
    t, noise_var = _resolve(cfg, axis_value)
    seed = trial_seed(cfg.seed, axis_index, trial_index)
    snaps = simulate_snapshots(cfg.scene, cfg.geometry, t, noise_var, seed)
    r = sample_covariance(snaps)
    result, evd_time = estimate_doas(r, cfg.geometry, len(cfg.thetas), cfg.a,
                                     method=cfg.method, grid_size=cfg.grid_size)
    err = result.thetas - np.asarray(cfg.thetas)
    return err * err, result.fill_count, evd_time


def _run_chunk(cfg: ExperimentConfig, axis_value, axis_index: int,
               start: int, stop: int):
    d = len(cfg.thetas)
    sq = np.empty((stop - start, d))
    fills = np.empty(stop - start, dtype=int)
    times = np.empty(stop - start)
    for i, trial in enumerate(range(start, stop)):
        sq[i], fills[i], times[i] = run_trial(cfg, axis_value, axis_index, trial)
    return sq, fills, times


def rmse_sweep(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """RMSE over the axis: sqrt(mean of squared errors over trials and
    sources), no outlier rejection."""
    cfg.validate()
    k, d = cfg.trials, len(cfg.thetas)
    bounds = np.linspace(0, k, max(workers, 1) + 1, dtype=int).tolist()
    rmse, fills, mean_t = [], [], []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        run = map if pool is None else pool.map
        for ai, av in enumerate(cfg.axis_values):
            chunks = run(_run_chunk, repeat(cfg), repeat(av), repeat(ai),
                         bounds[:-1], bounds[1:])
            sq, fl, tm = (np.concatenate(parts) for parts in zip(*chunks))
            rmse.append(float(np.sqrt(np.sum(sq) / (k * d))))
            fills.append(int(np.sum(fl)))
            mean_t.append(float(np.mean(tm)))
    finally:
        if pool is not None:
            pool.shutdown()
    return SweepResult(axis=cfg.axis, axis_values=cfg.axis_values,
                       rmse=tuple(rmse), fills=tuple(fills), trials=k,
                       mean_evd_time=tuple(mean_t), seed=cfg.seed,
                       config=config_echo(cfg))


def config_echo(cfg: ExperimentConfig) -> dict:
    return {
        "geometry": cfg.geometry.name,
        "positions": list(cfg.geometry.positions),
        "thetas": list(cfg.thetas),
        "powers": list(cfg.powers),
        "method": cfg.method,
        "a": cfg.a,
        "snapshots": cfg.snapshots,
        "snr_db": cfg.snr_db,
        "axis": cfg.axis,
        "axis_values": list(cfg.axis_values),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "grid_size": cfg.grid_size,
    }


def write_sweep_csv(results, path) -> None:
    """CSV with one row per (run, axis point) of a sequence of
    SweepResults; columns geometry,method,a,axis_value,rmse,trials,fills.

    Floats are written with ``repr`` and no wall-clock column is
    written, so the file is byte-identical for any worker count.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["geometry", "method", "a", "axis_value", "rmse",
                         "trials", "fills"])
        for result in results:
            c = result.config
            for av, rm, fl in zip(result.axis_values, result.rmse,
                                  result.fills):
                writer.writerow([c["geometry"], c["method"], c["a"],
                                 repr(float(av)), repr(float(rm)),
                                 result.trials, fl])


def write_sweep_json(results, path) -> None:
    """JSON sidecar: one object per SweepResult, with config and seed."""
    payload = [{
        "config": result.config,
        "seed": result.seed,
        "axis": result.axis,
        "axis_values": list(result.axis_values),
        "rmse": list(result.rmse),
        "fills": list(result.fills),
        "trials": result.trials,
        "mean_evd_time": list(result.mean_evd_time),
    } for result in results]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
