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
from dataclasses import dataclass
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
_INTEGER_FIELDS = ("a", "snapshots", "trials", "seed", "grid_size")


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
        for field in _INTEGER_FIELDS:       # 3.0 runs, and is written, as 3
            v = getattr(self, field)
            if isinstance(v, float) and v.is_integer():
                object.__setattr__(self, field, int(v))
        object.__setattr__(self, "axis_values", tuple(self.axis_values))
        if not self.powers:
            object.__setattr__(self, "powers", (1.0,) * len(self.thetas))

    @property
    def scene(self) -> SourceScene:
        return SourceScene(self.thetas, self.powers)

    def validate(self) -> None:
        """Raise ValueError naming the offending field."""
        try:
            self.scene
        except ValueError as exc:
            raise ValueError(f"thetas/powers: {exc}") from None
        d = len(self.thetas)
        if self.method not in _METHODS:
            raise ValueError(f"method: must be one of {_METHODS}")
        if self.axis not in _AXES:
            raise ValueError(f"axis: must be one of {_AXES}")
        if len(self.axis_values) == 0:
            raise ValueError("axis_values: must be nonempty")
        snr_to_noise_var(self.snr_db)           # its error names snr_db
        if self.axis == "snapshots" and not all(
                _is_count(v) for v in self.axis_values):
            raise ValueError("axis_values: snapshot counts must be "
                             "integers >= 1")
        try:
            for v in self.axis_values if self.axis == "snr" else ():
                snr_to_noise_var(v)
        except ValueError as exc:
            raise ValueError(f"axis_values: {exc}") from None
        if not _is_count(self.snapshots):
            raise ValueError("snapshots: must be an integer >= 1")
        if not _is_count(self.trials):
            raise ValueError("trials: must be an integer >= 1")
        if not _is_count(self.seed, least=0):
            raise ValueError("seed: must be an integer >= 0")
        if not (_is_count(self.grid_size) and self.grid_size >= 2):
            raise ValueError("grid_size: must be an integer >= 2")
        if self.method == "vws-ca-music" and self.grid_size < d:
            raise ValueError(f"grid_size: {self.grid_size} points, "
                             f"fewer than d={d} sources")
        if not float(self.a).is_integer():
            raise ValueError(f"a: must be an integer, got {self.a}")
        ca = difference_coarray(self.geometry)
        amax = max_shrinkage(ca.udof, d)
        if not 0 <= self.a <= amax:
            raise ValueError(
                f"a: shrinkage {self.a} infeasible for UDOF={ca.udof}, "
                f"D={d}; maximum a is {amax}"
            )


def _is_count(v, least: int = 1) -> bool:
    """True for an integer-valued number >= least (100.0 counts, 100.7
    not)."""
    return float(v).is_integer() and v >= least


@dataclass(frozen=True)
class SweepResult:
    """The RMSE curve of ``config``: per point of ``config.axis_values``,
    the RMSE, the fill count summed over trials and the mean EVD time.

    ``mean_evd_time`` is wall-clock time: it goes to the JSON sidecar
    and never to the CSV, which stays byte-identical run to run.
    """

    config: ExperimentConfig
    rmse: tuple[float, ...]
    fills: tuple[int, ...]
    mean_evd_time: tuple[float, ...]


def trial_seed(master: int, axis_index: int, trial_index: int):
    """Documented stream split: SeedSequence over the three indices."""
    return np.random.SeedSequence([master, axis_index, trial_index])


def _resolve(cfg: ExperimentConfig, axis_value):
    if cfg.axis == "snr":
        return cfg.snapshots, snr_to_noise_var(float(axis_value))
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
                                     method=cfg.method,
                                     grid_size=cfg.grid_size)
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
    sources), no outlier rejection.  ``workers > 1`` splits the trials
    over min(workers, trials) processes; ``workers < 1`` raises
    ValueError."""
    cfg.validate()
    if workers < 1:
        raise ValueError("workers: must be >= 1")
    k, d = cfg.trials, len(cfg.thetas)
    workers = min(workers, k)               # an idle worker is a wasted fork
    bounds = np.linspace(0, k, workers + 1, dtype=int).tolist()
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
    return SweepResult(cfg, tuple(rmse), tuple(fills), tuple(mean_t))


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
            for av, rm, fl in zip(c.axis_values, result.rmse, result.fills):
                writer.writerow([c.geometry.name, c.method, c.a,
                                 repr(float(av)), repr(float(rm)),
                                 c.trials, fl])


def write_sweep_json(results, path) -> None:
    """JSON sidecar: one object per SweepResult, with its config echoed
    whole and its seed, axis, axis values and trials repeated at the top
    level."""
    payload = []
    for result in results:
        echo = config_echo(result.config)
        payload.append({
            "config": echo,
            "seed": echo["seed"],
            "axis": echo["axis"],
            "axis_values": echo["axis_values"],
            "rmse": list(result.rmse),
            "fills": list(result.fills),
            "trials": echo["trials"],
            "mean_evd_time": list(result.mean_evd_time),
        })
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
