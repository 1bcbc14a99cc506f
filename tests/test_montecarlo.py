"""Monte Carlo harness: determinism, seed pairing, and output formats.

Trial counts here are kept small; the full desk-scale runs live in
test_acceptance.py."""

import csv
import json
import math
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace

import numpy as np
import pytest

from sladoa import montecarlo
from sladoa.estimators import estimate_doas
from sladoa.geometry import build_mra, build_nested, build_super_nested
from sladoa.montecarlo import (ExperimentConfig, InfeasibleShrinkageError,
                               estimate_trial, rmse_sweep, run_trial,
                               trial_seed, write_sweep_csv, write_sweep_json)
from sladoa.signal_model import (_snapshot_factor, sample_covariance,
                                 simulate_snapshots, snr_to_noise_var)

THETAS3 = (-0.8, 0.0, 0.8)
THETAS5 = (-0.8, -0.4, 0.0, 0.4, 0.8)


def make_cfg(**kw):
    base = dict(geometry=build_nested(4, 4), thetas=THETAS3,
                method="vws-ca-rmusic", a=3, snapshots=200, snr_db=10.0,
                axis="snr", axis_values=(0.0, 10.0), trials=20, seed=99)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_valid(self):
        make_cfg().validate()

    def test_rejects_infeasible_a(self):
        with pytest.raises(ValueError, match="a:"):
            make_cfg(a=17).validate()

    def test_negative_a_is_not_infeasible_shrinkage(self):
        # only a above the geometry's bound is one combination's fault
        with pytest.raises(InfeasibleShrinkageError,
                           match="maximum a is 16"):
            make_cfg(a=17).validate()
        with pytest.raises(ValueError,
                           match="a: must be an integer >= 0") as caught:
            make_cfg(a=-1).validate()
        assert not isinstance(caught.value, InfeasibleShrinkageError)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method:"):
            make_cfg(method="esprit").validate()
        with pytest.raises(ValueError, match="axis:"):
            make_cfg(axis="time").validate()

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="axis_values:"):
            make_cfg(axis_values=()).validate()

    @pytest.mark.parametrize("snr", [math.nan, -math.inf, -4000.0])
    def test_rejects_non_finite_snr(self, snr):
        with pytest.raises(ValueError, match="snr_db:"):
            make_cfg(snr_db=snr).validate()
        with pytest.raises(ValueError, match="axis_values:"):
            make_cfg(axis_values=(0.0, snr)).validate()

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="trials:"):
            make_cfg(trials=0).validate()

    def test_rejects_non_integer_snapshots(self):
        with pytest.raises(ValueError, match="snapshots:"):
            make_cfg(snapshots=100.9).validate()
        with pytest.raises(ValueError, match="axis_values:"):
            make_cfg(axis="snapshots", axis_values=(100.7,)).validate()
        make_cfg(axis="snapshots", axis_values=(100.0, 200.0)).validate()

    @pytest.mark.parametrize("field, value", [("trials", 2.5), ("a", 1.5),
                                              ("grid_size", 2000.5),
                                              ("seed", 1.5), ("seed", -1)])
    def test_rejects_non_integer_settings(self, field, value):
        cfg = make_cfg(**{"method": "vws-ca-music", "trials": 2,
                          field: value})
        with pytest.raises(ValueError, match=f"{field}:"):
            rmse_sweep(cfg)

    def test_integer_valued_floats_run_as_integers(self, tmp_path):
        as_int = make_cfg(method="vws-ca-music", trials=2, a=3, grid_size=200)
        as_float = replace(as_int, trials=2.0, a=3.0, grid_size=200.0,
                           snapshots=200.0, seed=99.0)
        outputs = []
        for name, cfg in (("int", as_int), ("float", as_float)):
            csv_path, json_path = (tmp_path / f"{name}.csv",
                                    tmp_path / f"{name}.json")
            result = rmse_sweep(cfg)
            write_sweep_csv([result], csv_path)
            write_sweep_json([result], json_path)
            outputs.append((result.rmse, csv_path.read_bytes(),
                            json.loads(json_path.read_text())[0]["config"]))
        assert outputs[0] == outputs[1]

    def test_numpy_integers_write_a_loadable_sidecar(self, tmp_path):
        as_python = make_cfg(a=3, trials=2, seed=99, snapshots=200,
                             axis="snapshots", axis_values=(100.0, 300.0),
                             powers=(1.0, 2.0, 1.0), snr_db=10.0)
        as_list = replace(as_python, powers=[1.0, 2.0, 1.0])
        assert as_list == as_python and hash(as_list) == hash(as_python)
        for powers in (np.array([1, 2, 1]), tuple(np.array([1, 2, 1])),
                       tuple(np.float32(p) for p in (1, 2, 1))):
            cfg = make_cfg(a=np.int64(3), trials=np.int64(2),
                           seed=np.int64(99), snapshots=np.int64(200),
                           axis="snapshots", axis_values=np.array([100, 300]),
                           powers=powers, snr_db=np.float32(10))
            assert cfg == as_python
            path = tmp_path / "out.json"
            write_sweep_json([rmse_sweep(cfg)], path)
            config = json.loads(path.read_text())[0]["config"]
            assert (config["a"], config["trials"], config["seed"],
                    config["snapshots"], config["axis_values"],
                    config["powers"], config["snr_db"]) == (
                        3, 2, 99, 200, [100.0, 300.0], [1.0, 2.0, 1.0], 10.0)

    def test_rejects_music_grid_below_sources(self):
        with pytest.raises(ValueError, match="grid_size:.*fewer than d=3"):
            make_cfg(method="vws-ca-music", grid_size=2).validate()
        make_cfg(method="vws-ca-music", grid_size=3).validate()
        make_cfg(method="vws-ca-rmusic", grid_size=2).validate()


class TestRunTrial:
    def test_noiseless_nearly_exact(self):
        # zero noise but finite snapshots: only source cross-terms remain
        cfg = make_cfg(axis_values=(math.inf,), trials=1, snapshots=5000)
        sq, fills, _ = run_trial(cfg, math.inf, 0, 0)
        assert np.all(sq < 1e-6)
        assert fills == 0

    def test_deterministic(self):
        cfg = make_cfg()
        a = run_trial(cfg, 10.0, 1, 5)
        b = run_trial(cfg, 10.0, 1, 5)
        np.testing.assert_array_equal(a[0], b[0])

    def test_draws_through_estimate_trial(self):
        cfg = make_cfg()
        result, noise = estimate_trial(cfg, 10.0, trial_seed(99, 1, 5))
        sq, fills, _ = run_trial(cfg, 10.0, 1, 5)
        err = result.thetas - np.asarray(THETAS3)
        np.testing.assert_array_equal(sq, err * err)
        assert fills == result.fill_count
        assert noise.shape == (17, 14)          # M = 20 - a, M - d
        # On the sweeps of the benchmark's three workloads, every trial
        # of a ten-trial ``_run_trials`` block, drawn from the block's
        # once-computed snapshot factor, is bit for bit the public chain
        # from ``simulate_snapshots`` with the trial's seed.
        nested, snaq2 = build_nested(4, 4), build_super_nested(4, 4)
        sweeps = [make_cfg(geometry=g, a=a, snapshots=1000,
                           axis_values=(0.0, 5.0, 10.0))
                  for g, a in ((nested, 0), (nested, 3), (snaq2, 0),
                               (snaq2, 3), (build_mra(10), 0))]
        sweeps += [make_cfg(geometry=g, thetas=THETAS5, a=3,
                            method="vws-ca-music", snapshots=1000,
                            axis_values=(10.0, 15.0, 20.0), grid_size=2000)
                   for g in (nested, snaq2, build_mra(8))]
        sweeps.append(make_cfg(axis="snapshots", snr_db=10.0,
                               axis_values=(100, 300, 1000, 3000)))
        for cfg in sweeps:
            d = len(cfg.thetas)
            for ai, av in enumerate(cfg.axis_values):
                t, snr_db = ((cfg.snapshots, av) if cfg.axis == "snr"
                             else (int(av), cfg.snr_db))
                [(sq, fills, _)] = montecarlo._run_trials([cfg], av, ai,
                                                          range(10))
                assert sq.shape == (10, d) and fills.shape == (10,)
                for ti in range(10):
                    x = simulate_snapshots(cfg.scene, cfg.geometry, t,
                                           snr_to_noise_var(snr_db),
                                           trial_seed(cfg.seed, ai, ti))
                    result, _ = estimate_doas(
                        sample_covariance(x), cfg.geometry, d, cfg.a,
                        method=cfg.method, grid_size=cfg.grid_size)
                    err = result.thetas - np.asarray(cfg.thetas)
                    np.testing.assert_array_equal(
                        sq[ti], err * err, err_msg=f"{cfg.geometry.name}, "
                        f"a={cfg.a}, {cfg.axis}={av}, trial {ti}")
                    assert fills[ti] == result.fill_count

    def test_errors_wrap_at_endfire(self):
        # theta = -1 and +1 are one direction; an estimate of the endfire
        # source just below +1 sorts last and must still pair with -1
        cfg = make_cfg(geometry=build_mra(9), thetas=(-1.0, 0.0, 0.5), a=24,
                       snapshots=1000, axis_values=(30.0,), seed=0)
        wrapped = 0
        for ti in range(4):
            result, _ = estimate_trial(cfg, 30.0, trial_seed(0, 0, ti))
            wrapped += result.thetas[-1] > 0.9
            sq, _, _ = run_trial(cfg, 30.0, 0, ti)
            assert np.all(sq < 1e-6), (ti, result.thetas, sq)
        assert wrapped >= 1

    def test_seed_stream_distinct(self):
        s1 = trial_seed(7, 0, 0).generate_state(4)
        s2 = trial_seed(7, 0, 1).generate_state(4)
        s3 = trial_seed(7, 1, 0).generate_state(4)
        assert not np.array_equal(s1, s2)
        assert not np.array_equal(s1, s3)

    def test_single_source_regression(self):
        # loose sanity bound from an independent full-pipeline run
        cfg = make_cfg(thetas=(0.0,), a=0, snapshots=1000,
                       axis_values=(20.0,), trials=100)
        result = rmse_sweep(cfg)
        assert result.rmse[0] < 0.01


@pytest.fixture
def fresh_pool():
    """No shared process pool before the test, and none left after it."""
    montecarlo._drop_pool()
    yield
    montecarlo._drop_pool()


@pytest.fixture
def in_process_pool(monkeypatch, fresh_pool):
    """Parallel sweeps map on a pool that runs in this process.  Returns
    the sizes of the pools built and the iterables of each map, as
    lists."""
    sizes, maps = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            maps.append([list(it) for it in iterables])
            return map(fn, *maps[-1])

        def shutdown(self):
            pass

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        InProcessPool)
    return sizes, maps


class TestRmseSweep:
    def test_single_trial_definition(self):
        cfg = make_cfg(trials=1, axis_values=(5.0,))
        result = rmse_sweep(cfg)
        sq, _, _ = run_trial(cfg, 5.0, 0, 0)
        assert result.rmse[0] == pytest.approx(math.sqrt(np.mean(sq)))

    def test_result_holds_its_config(self):
        cfg = make_cfg(trials=2)
        result = rmse_sweep(cfg)
        assert result.config is cfg
        assert [f.name for f in fields(result)] == [
            "config", "rmse", "fills", "mean_evd_time"]

    def test_deterministic_across_workers(self):
        # 7 trials per axis point, as one, two or three blocks on 1, 2
        # or 3 processes
        cfg = make_cfg(trials=7)
        r1, r2, r3 = (rmse_sweep(cfg, workers=w) for w in (1, 2, 3))
        assert r1.rmse == r2.rmse == r3.rmse
        assert r1.fills == r2.fills == r3.fills

    @pytest.mark.parametrize("kw, mixed_fills", [
        (dict(method="vws-ca-music", grid_size=600), False),
        (dict(method="vws-ca-rmusic", grid_size=600), False),
        # a 5-point grid: some trials find all three peaks, some fewer
        (dict(method="vws-ca-music", a=0, grid_size=5, snapshots=50), True)],
        ids=["vws-ca-music", "vws-ca-rmusic", "vws-ca-music-fills"])
    def test_trial_alike_in_any_task(self, kw, mixed_fills):
        # 19 trials in one stack, or in stacks cut elsewhere: each
        # trial's squared errors and fills are those it gets alone
        cfg = make_cfg(trials=19, **kw)
        alone = [run_trial(cfg, 10.0, 1, ti) for ti in range(19)]
        for sizes in ([19], [10, 9], [7, 7, 5], [3, 9, 1, 6]):
            ends = np.cumsum(sizes)
            blocks = [montecarlo._run_trials([cfg], 10.0, 1,
                                             range(start, end))[0]
                      for start, end in zip(ends - sizes, ends)]
            for (sq, fills, _), size in zip(blocks, sizes):
                assert sq.shape == (size, 3) and fills.shape == (size,)
            sq = np.concatenate([block[0] for block in blocks])
            fills = np.concatenate([block[1] for block in blocks])
            if mixed_fills:         # zero and nonzero fills side by side
                assert 0 < np.count_nonzero(fills) < fills.size
            for ti, (sq1, fill1, _) in enumerate(alone):
                np.testing.assert_array_equal(sq[ti], sq1)
                assert fills[ti] == fill1
        serial = rmse_sweep(cfg)
        for workers in (2, 3):
            parallel = rmse_sweep(cfg, workers=workers)
            assert (parallel.rmse, parallel.fills) == (serial.rmse,
                                                       serial.fills)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers:"):
            rmse_sweep(make_cfg(trials=2), workers=workers)

    @pytest.mark.parametrize("workers", [2.5, math.nan, math.inf])
    def test_rejects_non_integer_workers(self, workers):
        with pytest.raises(ValueError,
                           match="workers: must be an integer >= 1"):
            rmse_sweep(make_cfg(trials=2), workers=workers)

    def test_pool_capped_at_blocks(self, in_process_pool):
        # no more workers than blocks, and none for a one-block sweep
        sizes, maps = in_process_pool
        one, two = (10.0,), (0.0, 10.0)
        for trials, axis, workers, size in (
                (1, one, 4, []), (8, one, 4, [4]), (4, two, 64, [8]),
                (20, two, 64, [40]), (20, two, 3, [3]), (7, two, 2.0, [2])):
            sizes.clear()
            maps.clear()
            cfg = make_cfg(trials=trials, axis_values=axis)
            capped = rmse_sweep(cfg, workers=workers)
            assert sizes == size
            assert capped.rmse == rmse_sweep(cfg, workers=1).rmse
            if not size:
                assert maps == []
                continue
            # one map per sweep, of n blocks per axis point, n the
            # fewest multiple of the workers with blocks of at most
            # _BLOCK consecutive trials; each point's blocks run every
            # trial once, in order
            assert len(maps) == 1
            values, indices, runs = maps[0]
            w = int(workers)
            n = min(trials, w * math.ceil(trials / (w * montecarlo._BLOCK)))
            assert len(runs) == n * len(axis)
            assert size == [min(workers, len(runs))]
            assert all(len(run) <= montecarlo._BLOCK for run in runs)
            for ai, av in enumerate(cfg.axis_values):
                mine = [(v, run) for v, i, run in zip(values, indices, runs)
                        if i == ai]
                assert all(v == av for v, _ in mine)
                assert [i for _, run in mine for i in run] == list(
                    range(trials))

    @pytest.mark.parametrize("trials, workers", [
        (1, 2), (16, 1), (16, 2), (19, 3), (40, 2), (60, 2), (500, 1),
        (500, 2)])
    def test_blocks_split_each_point_evenly(self, trials, workers,
                                            monkeypatch, in_process_pool):
        # per axis point, n blocks: the fewest multiple of the workers
        # whose blocks hold at most _BLOCK trials, or one per trial;
        # sizes differ by at most one and cover the trials in order
        cut = []

        def recorded(grid, blocks, map_blocks):
            cut.extend(blocks)
            return [None] * len(grid)

        monkeypatch.setattr(montecarlo, "_sweep", recorded)
        axis = (0.0, 10.0)
        rmse_sweep(make_cfg(trials=trials, axis_values=axis), workers=workers)
        size = montecarlo._BLOCK
        n = min(trials, workers * math.ceil(trials / (workers * size)))
        assert n == trials or (n % workers == 0
                               and (n - workers) * size < trials <= n * size)
        assert len(cut) == n * len(axis)
        for ai, av in enumerate(axis):
            runs = [run for v, i, run in cut if i == ai and v == av]
            assert len(runs) == n
            lengths = [len(run) for run in runs]
            assert max(lengths) <= size
            assert max(lengths) - min(lengths) <= 1
            assert [i for run in runs for i in run] == list(range(trials))

    def test_same_blocks_for_any_workers(self, monkeypatch, in_process_pool):
        # 19 trials at each of two axis points: one block of 19 per
        # point serially, 9 and 10 on a pool of 2, and 6, 6 and 7 on a
        # pool of 3, with the same results
        stacks, results = [], []
        inner = montecarlo._estimate_block

        def recorded(covs, *args):
            stacks.append(len(covs))
            return inner(covs, *args)

        monkeypatch.setattr(montecarlo, "_estimate_block", recorded)
        cfg = make_cfg(trials=19)
        for workers, sizes in ((1, [19]), (2, [9, 10]), (3, [6, 6, 7])):
            stacks.clear()
            result = rmse_sweep(cfg, workers=workers)
            assert stacks == sizes * 2, workers
            results.append((result.rmse, result.fills, result.config))
        assert results[0] == results[1] == results[2]

    def test_mean_evd_time_sums_block_times(self, monkeypatch,
                                            in_process_pool):
        # 19 trials per point run as n = 1 block serially and n = 2 on
        # two workers; each block reports t EVD seconds, so each point's
        # mean is n t / 19
        t = 0.001
        inner = montecarlo._estimate_block

        def timed(*args):
            results, noise, _ = inner(*args)
            return results, noise, t

        monkeypatch.setattr(montecarlo, "_estimate_block", timed)
        cfg = make_cfg(trials=19)
        for workers, n in ((1, 1), (2, 2)):
            result = rmse_sweep(cfg, workers=workers)
            assert result.mean_evd_time == (n * t / 19,) * 2, workers

    def test_one_pool_across_sweeps(self, monkeypatch, fresh_pool):
        built = []

        class CountedPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            CountedPool)
        results = [rmse_sweep(make_cfg(trials=4, seed=s), workers=2)
                   for s in (1, 2, 3)]
        assert built == [2]
        assert results[0].rmse == rmse_sweep(make_cfg(trials=4, seed=1)).rmse

    def test_broken_pool_is_replaced(self, fresh_pool):
        cfg = make_cfg(trials=6)
        serial = rmse_sweep(cfg)
        rmse_sweep(cfg, workers=2)
        pid = montecarlo._shared_pool(2).submit(os.getpid).result(timeout=60)
        os.kill(pid, signal.SIGKILL)
        rerun = rmse_sweep(cfg, workers=2)
        assert (rerun.rmse, rerun.fills) == (serial.rmse, serial.fills)

    def test_second_break_raises(self, monkeypatch, fresh_pool):
        # the replacement pool breaks too: the sweep fails after two
        # maps, and neither broken pool is kept
        maps, shut = [], []

        class BrokenPool:
            def map(self, fn, *iterables):
                maps.append(fn)
                raise BrokenProcessPool("a worker died")

            def shutdown(self):
                shut.append(self)

        def broken_pool(size):
            montecarlo._pool = (size, BrokenPool())
            return montecarlo._pool[1]

        monkeypatch.setattr(montecarlo, "_shared_pool", broken_pool)
        with pytest.raises(BrokenProcessPool):
            rmse_sweep(make_cfg(trials=6), workers=2)
        assert len(maps) == 2 and len(shut) == 2
        assert montecarlo._pool is None

    def test_snr_monotonicity_smoke(self):
        cfg = make_cfg(axis_values=(-10.0, 20.0), trials=60)
        result = rmse_sweep(cfg)
        assert result.rmse[1] < result.rmse[0]

    def test_paired_shrinkage_smoke(self):
        base = make_cfg(axis_values=(10.0,), trials=60, snapshots=1000)
        r0 = rmse_sweep(replace(base, a=0))
        r3 = rmse_sweep(replace(base, a=3))
        assert r3.rmse[0] <= r0.rmse[0]

    def test_snapshot_axis(self):
        cfg = make_cfg(axis="snapshots", axis_values=(50, 400), trials=40)
        result = rmse_sweep(cfg)
        assert result.rmse[1] < result.rmse[0]


class TestGridSweep:
    """A list of configs that share their scene, axis, trials and seed
    is swept as one grid: one normal draw per trial for every config."""

    @staticmethod
    def grid(**kw):
        nested, mra10 = build_nested(4, 4), build_mra(10)
        runs = [make_cfg(geometry=g, a=a, trials=10, **kw)
                for g in (nested, mra10) for a in (0, 3)]
        return runs + [make_cfg(geometry=nested, method="vws-ca-music",
                                grid_size=600, trials=10, **kw)]

    @pytest.mark.parametrize("axis", [
        dict(axis_values=(0.0, 10.0)),
        dict(axis="snapshots", axis_values=(50, 200)),
    ], ids=["snr", "snapshots"])
    def test_equals_one_sweep_per_config(self, axis, fresh_pool):
        # N = 8 and N = 10 in one grid, and a, method and grid size apart:
        # each result is bit for bit the config's own sweep
        runs = self.grid(**axis)
        alone = [rmse_sweep(cfg) for cfg in runs]
        for workers in (1, 2, 3):
            together = rmse_sweep(runs, workers=workers)
            assert [r.config for r in together] == runs
            assert ([(r.rmse, r.fills) for r in together]
                    == [(r.rmse, r.fills) for r in alone]), workers
        assert [r.rmse for r in rmse_sweep(tuple(runs[:2]))] == [
            r.rmse for r in alone[:2]]

    @pytest.fixture
    def no_trials(self, monkeypatch):
        """A trial that runs fails the test."""
        def refused(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(montecarlo, "_run_trials", refused)

    @pytest.mark.parametrize("field, value", [
        ("seed", 5), ("thetas", (-0.5, 0.0, 0.5)), ("axis_values", (0.0, 5.0))])
    def test_rejects_configs_that_draw_apart(self, field, value, no_trials):
        runs = self.grid()
        runs.insert(2, replace(runs[2], **{field: value}))
        with pytest.raises(ValueError, match=f"^{field}: the configs of one "
                                             f"sweep must agree"):
            rmse_sweep(runs)

    def test_validates_every_config_before_any_trial(self, no_trials):
        runs = self.grid()
        with pytest.raises(InfeasibleShrinkageError, match="maximum a is 16"):
            rmse_sweep(runs + [replace(runs[0], a=17)])
        with pytest.raises(ValueError, match="configs: an empty list"):
            rmse_sweep([])

    def test_draw_shares_its_row_prefix(self):
        # ``standard_normal`` fills (sensor, time, part) in order, so the
        # first 8 rows of a 10-row draw are the 8-row draw, bit for bit;
        # a grid's geometries take their rows of one draw on this basis
        t = 37
        ten = np.random.default_rng(5).standard_normal((10, t, 2))
        eight = np.random.default_rng(5).standard_normal((8, t, 2))
        np.testing.assert_array_equal(ten[:8], eight)


    @pytest.mark.parametrize("t", [100, 3000])
    @pytest.mark.parametrize("first", ["nested(4,4)", "mra(10)"])
    def test_block_covariances_are_each_seeds_own(self, first, t):
        # a block draws every seed into one normals buffer and forms each
        # geometry's snapshots, conjugate and covariance in buffers of its
        # own; every row must still be its seed's public chain, bit for
        # bit, with no row carried across seeds or geometries (N = 8 and
        # N = 10, both orders)
        geoms = [build_nested(4, 4), build_mra(10)]
        if first == "mra(10)":
            geoms.reverse()
        grid = [make_cfg(geometry=g, a=0, axis="snapshots", axis_values=(t,))
                for g in geoms]
        seeds = [trial_seed(99, 0, i) for i in range(5)]
        stacks = montecarlo._covariances(grid, t, seeds)
        noise_var = snr_to_noise_var(10.0)
        for cfg, stack in zip(grid, stacks):
            assert stack.shape == (5, cfg.geometry.n, cfg.geometry.n)
            for seed, cov in zip(seeds, stack):
                x = simulate_snapshots(cfg.scene, cfg.geometry, t, noise_var,
                                       seed)
                np.testing.assert_array_equal(cov, sample_covariance(x))
        # and the last one read is x = L g, with g a fresh N x T draw
        g = np.random.default_rng(seed).standard_normal((len(x), t, 2))
        factor = _snapshot_factor(cfg.scene, cfg.geometry, noise_var)
        np.testing.assert_array_equal(x, factor @ g.view(complex)[..., 0])


class TestOutputs:
    def test_csv_format(self, tmp_path):
        results = [rmse_sweep(make_cfg(trials=4, a=a)) for a in (0, 3)]
        path = tmp_path / "out.csv"
        write_sweep_csv(results, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["geometry", "method", "a", "axis_value", "rmse",
                           "trials", "fills"]
        assert len(rows) == 1 + 2 * 2
        assert [(r[0], r[2]) for r in rows[1:]] == (
            [("nested(4,4)", "0")] * 2 + [("nested(4,4)", "3")] * 2)

    def test_noiseless_sidecar_is_strict_json(self, tmp_path):
        # +inf SNR, on the axis and as snr_db, is written as "inf", the
        # CSV's spelling; a strict parser rejects the bare Infinity token
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        cfg = make_cfg(axis_values=(math.inf,), snr_db=math.inf, trials=2)
        path = tmp_path / "out.json"
        write_sweep_json([rmse_sweep(cfg)], path)
        [payload] = json.loads(path.read_text(), parse_constant=reject)
        assert payload["config"]["axis_values"] == ["inf"]
        assert payload["config"]["snr_db"] == "inf"
        assert payload["rmse"][0] < 1e-2

    def test_json_sidecar(self, tmp_path):
        cfg = make_cfg(trials=4)
        result = rmse_sweep(cfg)
        path = tmp_path / "out.json"
        write_sweep_json([result], path)
        text = path.read_text()
        [pairs] = json.loads(text, object_pairs_hook=lambda kv: kv)
        keys = [k for k, _ in pairs]
        assert keys == ["config", "rmse", "fills", "mean_evd_time"]
        config_keys = [k for k, _ in dict(pairs)["config"]]
        names = [f.name for f in fields(ExperimentConfig)]
        assert sorted(config_keys) == sorted(names + ["positions"])
        assert not set(keys) & set(config_keys)     # nothing said twice
        payload = json.loads(text)[0]
        for name in set(names) - {"geometry"}:
            value = getattr(cfg, name)
            assert payload["config"][name] == (
                list(value) if isinstance(value, tuple) else value), name
        assert payload["config"]["geometry"] == "nested(4,4)"
        assert payload["config"]["positions"] == list(cfg.geometry.positions)
        assert payload["rmse"] == list(result.rmse)
        assert payload["fills"] == list(result.fills)
