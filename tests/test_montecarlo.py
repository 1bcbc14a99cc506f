"""Monte Carlo harness: determinism, seed pairing, and output formats.

Trial counts here are kept small; the full desk-scale runs live in
test_acceptance.py."""

import csv
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from sladoa.geometry import build_mra, build_nested
from sladoa.montecarlo import (ExperimentConfig, estimate_trial, rmse_sweep,
                               run_trial, trial_seed, write_sweep_csv,
                               write_sweep_json)

THETAS3 = (-0.8, 0.0, 0.8)


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

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method:"):
            make_cfg(method="esprit").validate()

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
        result, evd_time = estimate_trial(cfg, 10.0, trial_seed(99, 1, 5))
        sq, fills, _ = run_trial(cfg, 10.0, 1, 5)
        err = result.thetas - np.asarray(THETAS3)
        np.testing.assert_array_equal(sq, err * err)
        assert fills == result.fill_count and evd_time >= 0.0

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
        cfg = make_cfg(trials=12)
        r1 = rmse_sweep(cfg, workers=1)
        r2 = rmse_sweep(cfg, workers=3)
        assert r1.rmse == r2.rmse
        assert r1.fills == r2.fills

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers:"):
            rmse_sweep(make_cfg(trials=2), workers=workers)

    def test_pool_capped_at_trials(self, monkeypatch):
        sizes = []

        class InProcessPool:
            """Records its size and maps in this process."""
            def __init__(self, max_workers):
                sizes.append(max_workers)
            map = staticmethod(map)

            def shutdown(self):
                pass

        monkeypatch.setattr("sladoa.montecarlo.ProcessPoolExecutor",
                            InProcessPool)
        cfg = make_cfg(trials=4)
        capped = rmse_sweep(cfg, workers=64)
        assert sizes == [4]
        assert capped.rmse == rmse_sweep(cfg, workers=1).rmse

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

    def test_json_sidecar(self, tmp_path):
        result = rmse_sweep(make_cfg(trials=4))
        path = tmp_path / "out.json"
        write_sweep_json([result], path)
        payload = json.loads(path.read_text())[0]
        assert list(payload) == ["config", "seed", "axis", "axis_values",
                                 "rmse", "fills", "trials", "mean_evd_time"]
        assert list(payload["config"]) == [
            "geometry", "positions", "thetas", "powers", "method", "a",
            "snapshots", "snr_db", "axis", "axis_values", "trials", "seed",
            "grid_size"]
        for key in ("seed", "axis", "axis_values", "trials"):
            assert payload[key] == payload["config"][key], key
        assert payload["seed"] == 99
        assert payload["config"]["geometry"] == "nested(4,4)"
        assert payload["config"]["axis_values"] == [0.0, 10.0]
