"""Seeded Monte Carlo sweeps of RMSE versus SNR or snapshot count.

Per-trial seeds derive from (master seed, axis index, trial index)
through :class:`numpy.random.SeedSequence`, so results are identical
for any execution order or worker count.  Each task computes its axis
point's snapshot factor once, draws its trials' covariances from it
one by one, and estimates them in blocks of up to ``_BLOCK`` trials,
each estimator stage one numpy call per block; a trial's draw and
estimate are bit for bit the same in any block.  Squared errors
are collected per trial and reduced in a fixed order, keeping the float
summation deterministic under parallelism.

Parallel sweeps share one process pool for the life of the process: it
is forked at the first sweep with ``workers > 1`` and its workers are
joined at interpreter exit.
"""

import csv
import json
import math
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from functools import partial
from numbers import Real

import numpy as np

from .coarray import max_shrinkage
from .estimators import _METHODS, _estimate_block, estimate_doas
from .geometry import ArrayGeometry, difference_coarray
from .signal_model import (SourceScene, _draw, _snapshot_factor,
                           sample_covariance, simulate_snapshots,
                           snr_to_noise_var)

__all__ = [
    "ExperimentConfig",
    "SweepResult",
    "estimate_trial",
    "run_trial",
    "rmse_sweep",
    "write_sweep_csv",
    "write_sweep_json",
]

_AXES = ("snr", "snapshots")
_INTEGER_FIELDS = ("a", "snapshots", "trials", "seed", "grid_size")
# Trials estimated together.  Larger blocks gain little speed and add
# their stacked arrays to the peak memory.
_BLOCK = 8


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
        # lists, arrays and numpy scalars are stored as tuples of Python
        # floats, so the config hashes, equals its tuple twin and is
        # written to JSON as given
        for field in ("thetas", "powers", "axis_values"):
            object.__setattr__(self, field,
                               tuple(float(v) for v in getattr(self, field)))
        if isinstance(self.snr_db, Real):
            object.__setattr__(self, "snr_db", float(self.snr_db))
        # 3.0 or np.int64(3) runs, and is written to JSON, as 3; other
        # values are left for ``validate`` to reject
        for field in _INTEGER_FIELDS:
            v = getattr(self, field)
            if isinstance(v, Real) and float(v).is_integer():
                object.__setattr__(self, field, int(v))
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
        try:
            amax = max_shrinkage(ca.udof, d)
        except ValueError as exc:
            raise ValueError(f"thetas: {self.geometry.name}: {exc}") from None
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

    ``mean_evd_time`` is wall-clock time: the mean over trials of each
    trial's share of its block's EVD time.  It goes to the JSON sidecar
    and never to the CSV, which stays byte-identical run to run.
    """

    config: ExperimentConfig
    rmse: tuple[float, ...]
    fills: tuple[int, ...]
    mean_evd_time: tuple[float, ...]


def trial_seed(master: int, axis_index: int, trial_index: int):
    """Documented stream split: SeedSequence over the three indices."""
    return np.random.SeedSequence([master, axis_index, trial_index])


def _axis_point(cfg: ExperimentConfig, axis_value):
    """(snapshots, noise variance) of ``cfg`` at ``axis_value``."""
    if cfg.axis == "snr":
        return cfg.snapshots, snr_to_noise_var(float(axis_value))
    return int(axis_value), snr_to_noise_var(cfg.snr_db)


def estimate_trial(cfg: ExperimentConfig, axis_value, seed):
    """Draw one snapshot set of ``cfg`` at ``axis_value`` from ``seed``
    and estimate from its sample covariance; returns what
    ``estimate_doas`` returns, (EstimationResult, noise subspace U_N)."""
    t, noise_var = _axis_point(cfg, axis_value)
    r = sample_covariance(
        simulate_snapshots(cfg.scene, cfg.geometry, t, noise_var, seed))
    return estimate_doas(r, cfg.geometry, len(cfg.thetas), cfg.a,
                         method=cfg.method, grid_size=cfg.grid_size)


def run_trial(cfg: ExperimentConfig, axis_value, axis_index: int,
              trial_index: int):
    """One end-to-end trial, ``_run_trials`` over one index; returns
    (squared errors per source, fill count, EVD wall time)."""
    return _run_trials(cfg, axis_value, axis_index, [trial_index])[0]


def _run_trials(cfg: ExperimentConfig, axis_value, axis_index: int,
                trial_indices):
    """(squared errors per source, fill count, EVD seconds) of each
    trial of ``trial_indices`` at one axis point, in order.  Trials are
    drawn one by one from their own seeds through one snapshot factor,
    computed once per call, so each is what ``simulate_snapshots`` draws
    from that seed.  They are estimated in blocks of up to ``_BLOCK``;
    each gets an equal share of its block's EVD time.

    Errors are scored on the circle θ ≡ θ + 2: the sorted estimates are
    paired with the sorted thetas by the cyclic shift with the least sum
    of squared errors (the unshifted pairing on a tie), and each
    difference is taken modulo 2 into [-1, 1].  So a source at θ = -1
    estimated just below +1 scores its small error.
    """
    d = len(cfg.thetas)
    shifts = (np.arange(d)[:, None] + np.arange(d)) % d    # row s: shift s
    t, noise_var = _axis_point(cfg, axis_value)
    factor = _snapshot_factor(cfg.scene, cfg.geometry, noise_var)
    rows = []
    for start in range(0, len(trial_indices), _BLOCK):
        block = trial_indices[start:start + _BLOCK]
        covs = np.array([sample_covariance(_draw(
            factor, t, trial_seed(cfg.seed, axis_index, ti)))
            for ti in block])
        results, _, evd_time = _estimate_block(covs, cfg.geometry, d, cfg.a,
                                               cfg.method, cfg.grid_size)
        for result in results:
            err = result.thetas[shifts] - cfg.thetas
            err -= 2.0 * np.rint(err / 2.0)
            sq = err * err
            rows.append((sq[sq.sum(axis=1).argmin()], result.fill_count,
                         evd_time / len(block)))
    return rows


def rmse_sweep(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """RMSE over the axis: sqrt(mean of squared errors over trials and
    sources), no outlier rejection.  Each axis point runs its trials in
    ``_run_trials`` tasks of ceil(trials / workers) trials, at most
    ``workers`` tasks per point; ``workers > 1`` maps them on the
    process's shared pool of min(workers, trials) processes.  The pool is
    forked at the first such sweep and kept for every later sweep of its
    size until exit; a sweep of another size replaces it.  If a worker
    dies, the sweep runs once more on a new pool, and a second break
    raises ``BrokenProcessPool``.  ``workers`` must be an integer >= 1
    (2.0 counts, 2.5 not), or ValueError is raised."""
    cfg.validate()
    if not _is_count(workers):
        raise ValueError("workers: must be an integer >= 1")
    workers = min(int(workers), cfg.trials)
    if workers == 1:
        return _sweep(cfg, 1, map)
    with _pool_lock:                    # one sweep at a time owns the pool
        for retry in (False, True):
            try:
                return _sweep(cfg, workers, _shared_pool(workers).map)
            except BrokenProcessPool:
                # a worker died, perhaps while the pool sat idle since the
                # last sweep; the trials are seeded, so a rerun is identical
                _drop_pool()
                if retry:
                    raise


def _sweep(cfg: ExperimentConfig, tasks: int, map_tasks) -> SweepResult:
    """The sweep of ``cfg`` with each axis point's trials split into
    ``tasks`` runs of consecutive trials, mapped by ``map_tasks(fn,
    runs)`` and reduced in trial order."""
    k, d = cfg.trials, len(cfg.thetas)
    size = -(-k // tasks)
    runs = [range(i, min(i + size, k)) for i in range(0, k, size)]
    rmse, fills, mean_t = [], [], []
    for ai, av in enumerate(cfg.axis_values):
        rows = [row for task_rows in map_tasks(
            partial(_run_trials, cfg, av, ai), runs) for row in task_rows]
        sq, fl, tm = (np.array(column) for column in zip(*rows))
        rmse.append(float(np.sqrt(np.sum(sq) / (k * d))))
        fills.append(int(np.sum(fl)))
        mean_t.append(float(np.mean(tm)))
    return SweepResult(cfg, tuple(rmse), tuple(fills), tuple(mean_t))


# (size, pool): the one process pool of this process, or None.  It is
# kept between sweeps because a fresh worker's first trial takes about
# ten times as long as a warm one's.
_pool = None
_pool_lock = threading.Lock()


def _shared_pool(size: int) -> ProcessPoolExecutor:
    """The process's pool of ``size`` workers, created at first use.  A
    pool of another size is shut down first: at most one pool is alive,
    so no fork runs beside another pool's threads."""
    global _pool
    if _pool is not None and _pool[0] != size:
        _drop_pool()
    if _pool is None:
        _pool = (size, ProcessPoolExecutor(max_workers=size))
    return _pool[1]


def _drop_pool() -> None:
    """Shut down and forget the shared pool, if there is one."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown()


def config_echo(cfg: ExperimentConfig) -> dict:
    """The config for JSON: the geometry by name and positions, then
    every other ``ExperimentConfig`` field as stored."""
    echo = {"geometry": cfg.geometry.name,
            "positions": list(cfg.geometry.positions)}
    echo.update((f.name, getattr(cfg, f.name)) for f in fields(cfg)
                if f.name != "geometry")
    return echo


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
    """JSON sidecar: one object per SweepResult, holding its ``config``
    echoed whole (each field once) and its ``rmse``, ``fills`` and
    wall-clock ``mean_evd_time`` per axis point.

    Non-finite floats, such as a noiseless sweep's ``snr_db = inf``, are
    written as strings in the CSV's spelling (``"inf"``), so the file is
    strict RFC 8259 JSON."""
    payload = [{"config": config_echo(result.config),
                "rmse": list(result.rmse),
                "fills": list(result.fills),
                "mean_evd_time": list(result.mean_evd_time)}
               for result in results]
    with open(path, "w") as fh:
        json.dump(_finite_json(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _finite_json(value):
    """``value`` with each non-finite float in its lists, tuples and
    dicts replaced by its ``repr``: "inf", "-inf" or "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value
