"""Seeded Monte Carlo sweeps of RMSE versus SNR or snapshot count.

Per-trial seeds derive from (master seed, axis index, trial index)
through :class:`numpy.random.SeedSequence`, so results are identical
for any execution order or worker count.  The unit of drawing, results
and scheduling is the block of up to ``_BLOCK`` consecutive trials of
one axis point, and a sweep is one list of blocks for any worker count.
A block draws its trials' covariances from its axis point's snapshot
factor and estimates them as one stack; a trial's bits are the same in
any block.  It returns its trials' squared errors and fills as arrays,
and each axis point's blocks are reduced in trial order, keeping the
float summation deterministic under parallelism.

Parallel sweeps share one process pool, of at most one worker per
block, for the life of the process: it is forked at the first sweep
with ``workers > 1`` and two or more blocks and joined at interpreter
exit.  The pool stack (``concurrent.futures``, ``multiprocessing``) is
imported with the pool, and ``csv`` and ``json`` with the writers.
"""

# Serial sweeps and ``sladoa estimate`` never use the pool stack or the
# writers' modules, and loading them costs about 20 ms in every fresh
# interpreter, so each is imported where it is used.
import math
import threading
from dataclasses import dataclass, fields
from functools import partial
from numbers import Real

import numpy as np

from .coarray import max_shrinkage
from .estimators import _METHODS, _estimate_block, estimate_doas
from .geometry import ArrayGeometry, difference_coarray
from .signal_model import (SourceScene, _draw, _snapshot_factor,
                           sample_covariance, snr_to_noise_var)

__all__ = [
    "ExperimentConfig",
    "InfeasibleShrinkageError",
    "SweepResult",
    "estimate_trial",
    "run_trial",
    "rmse_sweep",
    "write_sweep_csv",
    "write_sweep_json",
]

_AXES = ("snr", "snapshots")
# the integer fields and the least value of each
_COUNTS = {"snapshots": 1, "trials": 1, "seed": 0, "grid_size": 2, "a": 0}
# The unit of drawing, results and scheduling.  Larger blocks gain
# little speed and add their stacked arrays to the peak memory.
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
        for field in _COUNTS:
            v = getattr(self, field)
            if isinstance(v, Real) and float(v).is_integer():
                object.__setattr__(self, field, int(v))
        if not self.powers:
            object.__setattr__(self, "powers", (1.0,) * len(self.thetas))

    @property
    def scene(self) -> SourceScene:
        return SourceScene(self.thetas, self.powers)

    def validate(self) -> None:
        """Raise ValueError naming the offending field, and its subclass
        InfeasibleShrinkageError for an a above the geometry's bound."""
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
        try:
            for v in self.axis_values if self.axis == "snr" else ():
                snr_to_noise_var(v)
        except ValueError as exc:
            raise ValueError(f"axis_values: {exc}") from None
        counts = [(f, getattr(self, f), least) for f, least in _COUNTS.items()]
        if self.axis == "snapshots":        # each point's snapshot count
            counts += [("axis_values", v, 1) for v in self.axis_values]
        for field, v, least in counts:
            if not _is_count(v, least):
                raise ValueError(f"{field}: must be an integer >= {least}, "
                                 f"got {v}")
        if self.method == "vws-ca-music" and self.grid_size < d:
            raise ValueError(f"grid_size: {self.grid_size} points, "
                             f"fewer than d={d} sources")
        ca = difference_coarray(self.geometry)
        try:
            amax = max_shrinkage(ca.udof, d)
        except ValueError as exc:
            raise ValueError(f"thetas: {self.geometry.name}: {exc}") from None
        if self.a > amax:
            raise InfeasibleShrinkageError(
                f"a: shrinkage {self.a} infeasible for UDOF={ca.udof}, "
                f"D={d}; maximum a is {amax}"
            )


class InfeasibleShrinkageError(ValueError):
    """A shrinkage a above the bound of its geometry and source count:
    the fault of one (geometry, a) combination, not of the config."""


def _is_count(v, least: int = 1) -> bool:
    """True for an integer-valued number >= least (100.0 counts, 100.7
    not)."""
    return float(v).is_integer() and v >= least


@dataclass(frozen=True)
class SweepResult:
    """The RMSE curve of ``config``: per point of ``config.axis_values``,
    the RMSE, the fill count summed over trials and the mean EVD time.

    ``mean_evd_time`` is wall-clock time: the point's summed block EVD
    seconds divided by ``trials``.  It goes to the JSON sidecar and
    never to the CSV, which stays byte-identical run to run.
    """

    config: ExperimentConfig
    rmse: tuple[float, ...]
    fills: tuple[int, ...]
    mean_evd_time: tuple[float, ...]


def trial_seed(master: int, axis_index: int, trial_index: int):
    """Documented stream split: SeedSequence over the three indices."""
    return np.random.SeedSequence([master, axis_index, trial_index])


def _covariances(cfg: ExperimentConfig, axis_value, seeds) -> np.ndarray:
    """The (K, N, N) stack of sample covariances of ``cfg`` at
    ``axis_value``, one per seed: each is ``sample_covariance`` of what
    ``simulate_snapshots`` draws from its seed, through one snapshot
    factor computed once per call."""
    t = cfg.snapshots if cfg.axis == "snr" else int(axis_value)
    snr_db = float(axis_value) if cfg.axis == "snr" else cfg.snr_db
    factor = _snapshot_factor(cfg.scene, cfg.geometry,
                              snr_to_noise_var(snr_db))
    return np.array([sample_covariance(_draw(factor, t, seed))
                     for seed in seeds])


def estimate_trial(cfg: ExperimentConfig, axis_value, seed):
    """Draw one snapshot set of ``cfg`` at ``axis_value`` from ``seed``
    and estimate from its sample covariance; returns what
    ``estimate_doas`` returns, (EstimationResult, noise subspace U_N)."""
    return estimate_doas(_covariances(cfg, axis_value, [seed])[0],
                         cfg.geometry, len(cfg.thetas), cfg.a,
                         method=cfg.method, grid_size=cfg.grid_size)


def run_trial(cfg: ExperimentConfig, axis_value, axis_index: int,
              trial_index: int):
    """One end-to-end trial, ``_run_trials`` over one index; returns
    (squared errors per source, fill count, EVD wall time)."""
    sq, fills, t = _run_trials(cfg, axis_value, axis_index, [trial_index])
    return sq[0], int(fills[0]), t


def _run_trials(cfg: ExperimentConfig, axis_value, axis_index: int,
                trial_indices):
    """The block of ``trial_indices`` at one axis point, drawn as one
    ``_covariances`` stack from the trials' own seeds and estimated as
    one stack: the (K, d) squared errors per source and the (K,) fill
    counts of its trials, in order, and the block's EVD seconds.

    Errors are scored on the circle θ ≡ θ + 2: the sorted estimates are
    paired with the sorted thetas by the cyclic shift with the least sum
    of squared errors (the unshifted pairing on a tie), and each
    difference is taken modulo 2 into [-1, 1].  So a source at θ = -1
    estimated just below +1 scores its small error.
    """
    d = len(cfg.thetas)
    shifts = (np.arange(d)[:, None] + np.arange(d)) % d    # row s: shift s
    covs = _covariances(cfg, axis_value, [
        trial_seed(cfg.seed, axis_index, ti) for ti in trial_indices])
    results, _, evd_time = _estimate_block(covs, cfg.geometry, d, cfg.a,
                                           cfg.method, cfg.grid_size)
    err = np.array([r.thetas for r in results])[:, shifts] - cfg.thetas
    err -= 2.0 * np.rint(err / 2.0)
    sq = err * err
    best = sq[np.arange(len(covs)), sq.sum(axis=-1).argmin(axis=-1)]
    return best, np.array([r.fill_count for r in results]), evd_time


def rmse_sweep(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """RMSE over the axis: sqrt(mean of squared errors over trials and
    sources), no outlier rejection.  The sweep's ``_run_trials`` blocks
    run in one map: serially if ``workers`` is 1 or there is one block,
    else on the process's shared pool of min(workers, blocks) processes.
    The pool is forked at the first such sweep and kept for every later
    sweep of its size until exit; a sweep of another size replaces it.
    If a worker dies, the sweep runs once more on a new pool, and a
    second break raises ``BrokenProcessPool``.  ``workers`` must be an
    integer >= 1 (2.0 counts, 2.5 not), or ValueError is raised."""
    cfg.validate()
    if not _is_count(workers):
        raise ValueError("workers: must be an integer >= 1")
    blocks = [(av, ai, range(i, min(i + _BLOCK, cfg.trials)))
              for ai, av in enumerate(cfg.axis_values)
              for i in range(0, cfg.trials, _BLOCK)]
    workers = min(int(workers), len(blocks))
    if workers == 1:
        return _sweep(cfg, blocks, map)
    from concurrent.futures.process import BrokenProcessPool
    with _pool_lock:                    # one sweep at a time owns the pool
        for retry in (False, True):
            try:
                return _sweep(cfg, blocks, _shared_pool(workers).map)
            except BrokenProcessPool:
                # a worker died, perhaps while the pool sat idle since the
                # last sweep; the trials are seeded, so a rerun is identical
                _drop_pool()
                if retry:
                    raise


def _sweep(cfg: ExperimentConfig, blocks, map_blocks) -> SweepResult:
    """The sweep of ``cfg`` over its list of (axis value, axis index,
    trial range) blocks, every axis point's in trial order, mapped by
    one ``map_blocks(fn, *iterables)`` call; each axis point's block
    results are concatenated in trial order and reduced."""
    k, d = cfg.trials, len(cfg.thetas)
    done = list(zip(blocks, map_blocks(partial(_run_trials, cfg),
                                       *zip(*blocks))))
    rmse, fills, mean_t = [], [], []
    for ai in range(len(cfg.axis_values)):
        sq, fl, tm = zip(*(out for (_, i, _), out in done if i == ai))
        rmse.append(float(np.sqrt(np.sum(np.concatenate(sq)) / (k * d))))
        fills.append(int(np.sum(np.concatenate(fl))))
        mean_t.append(sum(tm) / k)
    return SweepResult(cfg, tuple(rmse), tuple(fills), tuple(mean_t))


# (size, pool): the one process pool of this process, or None.  It is
# kept between sweeps because a fresh worker's first trial takes about
# ten times as long as a warm one's.
_pool = None
_pool_lock = threading.Lock()


def _shared_pool(size: int):
    """The process's ``ProcessPoolExecutor`` of ``size`` workers, created
    at first use.  A pool of another size is shut down first: at most one
    pool is alive, so no fork runs beside another pool's threads."""
    global _pool
    if _pool is not None and _pool[0] != size:
        _drop_pool()
    if _pool is None:
        from concurrent.futures import ProcessPoolExecutor
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
    import csv
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
    import json
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
