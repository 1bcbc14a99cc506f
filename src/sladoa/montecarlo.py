"""Seeded Monte Carlo sweeps of RMSE versus SNR or snapshot count.

Per-trial seeds derive from (master seed, axis index, trial index)
through :class:`numpy.random.SeedSequence`, so results are identical
for any execution order or worker count.  A sweep runs a grid of one
config or of several that differ only in geometry, a, method or grid
size, as one list of blocks of consecutive trials of one axis point:
per point, the fewest blocks of at most ``_BLOCK`` trials whose number
is a multiple of the worker count, of sizes differing by at most one,
so each point splits evenly across the workers.  A block draws each
trial's normals once for the grid, into buffers it reuses for all its
trials, and estimates each config's covariances as one stack, the same
bits in any block and grid; each config's results are reduced per axis
point in trial order, so float sums are deterministic in parallel and
results are the same for any cut into blocks.

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
                           snr_to_noise_var)

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
# the fields the configs of one sweep may differ in; they share the draw
_OWN = ("geometry", "a", "method", "grid_size")
# The largest unit of drawing, results and scheduling.  A block pays
# one snapshot factor per geometry and one call per stage whatever its
# size, so larger blocks run faster per trial; its stacked arrays add
# to the peak memory.
_BLOCK = 20


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
            _check_count(field, v, least)
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


def _check_count(field: str, v, least: int = 1) -> None:
    """Raise ValueError naming ``field`` unless ``v`` is an
    integer-valued number >= least (100.0 counts, 100.7 not)."""
    if not (float(v).is_integer() and v >= least):
        raise ValueError(f"{field}: must be an integer >= {least}, got {v}")


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


def _covariances(grid, axis_value, seeds) -> list[np.ndarray]:
    """Per config of ``grid``, the (K, N, N) stack of sample covariances
    at ``axis_value`` of what ``simulate_snapshots`` draws from each seed,
    bit for bit ``sample_covariance``'s: one ``_draw`` of the seeds
    yields each geometry's snapshots per seed (its row-prefix property),
    whose covariances are formed in place in their stack through one
    conjugate buffer; a geometry's configs share one stack."""
    cfg = grid[0]
    t = cfg.snapshots if cfg.axis == "snr" else int(axis_value)
    snr_db = float(axis_value) if cfg.axis == "snr" else cfg.snr_db
    geometries = list(dict.fromkeys(c.geometry for c in grid))
    factors = [_snapshot_factor(cfg.scene, g, snr_to_noise_var(snr_db))
               for g in geometries]
    stacks = [np.empty((len(seeds), g.n, g.n), dtype=complex)
              for g in geometries]
    conj = np.empty((max(g.n for g in geometries), t), dtype=complex)
    for k, xs in enumerate(_draw(factors, t, seeds)):
        for x, stack in zip(xs, stacks):
            np.matmul(x, np.conjugate(x, out=conj[:len(x)]).T, out=stack[k])
    for stack in stacks:
        stack /= t
    by_geometry = dict(zip(geometries, stacks))
    return [by_geometry[c.geometry] for c in grid]


def estimate_trial(cfg: ExperimentConfig, axis_value, seed):
    """Draw one snapshot set of ``cfg`` at ``axis_value`` from ``seed``
    and estimate from its sample covariance; returns what
    ``estimate_doas`` returns, (EstimationResult, noise subspace U_N)."""
    return estimate_doas(_covariances([cfg], axis_value, [seed])[0][0],
                         cfg.geometry, len(cfg.thetas), cfg.a,
                         method=cfg.method, grid_size=cfg.grid_size)


def run_trial(cfg: ExperimentConfig, axis_value, axis_index: int,
              trial_index: int):
    """One end-to-end trial, ``_run_trials`` of one config and index;
    returns (squared errors per source, fill count, EVD wall time)."""
    sq, fills, t = _run_trials([cfg], axis_value, axis_index, [trial_index])[0]
    return sq[0], int(fills[0]), t


def _run_trials(grid, axis_value, axis_index: int, trial_indices):
    """The block of ``trial_indices`` at one axis point, drawn by one
    ``_covariances`` call: per config of ``grid``, its stack estimated as
    one, the (K, d) squared errors and (K,) fills of its trials, and its
    EVD seconds.

    Errors are scored on the circle θ ≡ θ + 2: the sorted estimates are
    paired with the sorted thetas by the cyclic shift with the least sum
    of squared errors (the unshifted pairing on a tie), and each
    difference is taken modulo 2 into [-1, 1].  So a source at θ = -1
    estimated just below +1 scores its small error.
    """
    d = len(grid[0].thetas)
    shifts = (np.arange(d)[:, None] + np.arange(d)) % d    # row s: shift s
    seeds = [trial_seed(grid[0].seed, axis_index, i) for i in trial_indices]
    out = []
    for cfg, covs in zip(grid, _covariances(grid, axis_value, seeds)):
        block, _, evd_time = _estimate_block(covs, cfg.geometry, d, cfg.a,
                                             cfg.method, cfg.grid_size)
        err = block.thetas[:, shifts] - cfg.thetas
        err -= 2.0 * np.rint(err / 2.0)
        sq = err * err
        best = sq[np.arange(len(covs)), sq.sum(axis=-1).argmin(axis=-1)]
        out.append((best, block.fill_count, evd_time))
    return out


def rmse_sweep(cfg, workers: int = 1):
    """RMSE over the axis: sqrt(mean of squared errors over trials and
    sources), no outlier rejection.  Returns the ``SweepResult`` of one
    ``ExperimentConfig``, or for a list or tuple of configs, validated
    before any trial runs, their results in order, each bit for bit its
    own sweep; ValueError names the first field outside ``_OWN`` in which
    they differ.  Each axis point's trials run in n consecutive blocks,
    n = min(trials, w * ceil(trials / (w * _BLOCK))) for w workers,
    block j holding trials floor(trials * j / n) up to
    floor(trials * (j + 1) / n).  The blocks run in one map: serially if
    ``workers`` is 1 or there is one block, else on the process's shared
    pool of min(workers, blocks) processes, kept for every later sweep of
    its size until exit (another size replaces it).  If a worker dies,
    the sweep runs once more on a new pool; a second break raises
    ``BrokenProcessPool``.  ``workers`` must be an integer >= 1 (2.0
    counts, 2.5 not), or ValueError is raised."""
    if not isinstance(cfg, (list, tuple)):
        return rmse_sweep([cfg], workers)[0]
    if not cfg:
        raise ValueError("configs: an empty list has nothing to sweep")
    for c in cfg:
        c.validate()
    for field in (f.name for f in fields(ExperimentConfig)):
        if field not in _OWN and len({getattr(c, field) for c in cfg}) > 1:
            raise ValueError(f"{field}: the configs of one sweep must agree")
    _check_count("workers", workers)
    workers, trials = int(workers), cfg[0].trials
    n = min(trials, workers * -(-trials // (workers * _BLOCK)))
    cuts = [trials * j // n for j in range(n + 1)]
    blocks = [(av, ai, range(lo, hi))
              for ai, av in enumerate(cfg[0].axis_values)
              for lo, hi in zip(cuts, cuts[1:])]
    workers = min(workers, len(blocks))
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


def _sweep(grid, blocks, map_blocks) -> list[SweepResult]:
    """``grid`` over its list of (axis value, axis index, trial range)
    blocks, mapped by one ``map_blocks(fn, *iterables)`` call; each
    config's results are joined per axis point in trial order, reduced."""
    k, d = grid[0].trials, len(grid[0].thetas)
    done = list(zip(blocks, map_blocks(partial(_run_trials, grid),
                                       *zip(*blocks))))
    results = []
    for c, cfg in enumerate(grid):
        rmse, fills, mean_t = [], [], []
        for ai in range(len(cfg.axis_values)):
            sq, fl, tm = zip(*(out[c] for (_, i, _), out in done if i == ai))
            rmse.append(float(np.sqrt(np.sum(np.concatenate(sq)) / (k * d))))
            fills.append(int(np.sum(np.concatenate(fl))))
            mean_t.append(sum(tm) / k)
        results.append(SweepResult(cfg, tuple(rmse), tuple(fills),
                                   tuple(mean_t)))
    return results


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
