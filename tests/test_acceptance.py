"""Acceptance gate: ten end-to-end criteria for the VWS coarray toolkit.

Each test covers one criterion and prints a single ``criterion NN: PASS``
line (visible with ``pytest -s`` or in captured output on failure).
The Monte Carlo criteria run at desk scale (500 trials) and share their
sweeps through module-scoped fixtures; the determinism criterion reruns
the same sweeps with two workers and compares CSV bytes.
"""

import time

import numpy as np
import pytest

from sladoa.coarray import max_shrinkage, vws_smooth
from sladoa.estimators import (estimate_doas, noise_subspace)
from sladoa.geometry import (build_mra, build_nested, build_super_nested,
                             difference_coarray)
from sladoa.montecarlo import (ExperimentConfig, rmse_sweep, write_sweep_csv)
from sladoa.signal_model import SourceScene, exact_covariance, steering_matrix

from reference import decompose_oracle, population_coarray_signal

SEED = 20260826
THETAS3 = (-0.8, 0.0, 0.8)
THETAS5 = (-0.8, -0.4, 0.0, 0.4, 0.8)
NAQ2 = build_nested(4, 4)
SNAQ2 = build_super_nested(4, 4)
MRA8 = build_mra(8)

NOISE_VARS = (0.1, 1.0, 10.0)
SHRINKAGES = (0, 1, 3, 5, 16)


def report(n, detail=""):
    print(f"criterion {n:02d}: PASS{' — ' + detail if detail else ''}")


def sweep_cfg(**kw):
    base = dict(geometry=NAQ2, thetas=THETAS3, method="vws-ca-rmusic", a=0,
                snapshots=1000, snr_db=10.0, axis="snr",
                axis_values=(0.0, 5.0, 10.0), trials=500, seed=SEED)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def shrinkage_sweeps():
    """Criterion 6 grid: geometry x method x a, shared seeds throughout."""
    out = {}
    for geom in (NAQ2, SNAQ2):
        for method in ("vws-ca-music", "vws-ca-rmusic"):
            for a in (0, 3):
                cfg = sweep_cfg(geometry=geom, method=method, a=a)
                out[(geom.name, method, a)] = rmse_sweep(cfg)
    return out


@pytest.fixture(scope="module")
def geometry_sweeps():
    """Criterion 7 grid: three N=8 geometries, five sources, MUSIC."""
    out = {}
    for geom in (NAQ2, SNAQ2, MRA8):
        cfg = sweep_cfg(geometry=geom, thetas=THETAS5, method="vws-ca-music",
                        a=3, axis_values=(10.0, 15.0, 20.0))
        out[geom.name] = rmse_sweep(cfg)
    return out


@pytest.fixture(scope="module")
def snapshot_sweep():
    """Criterion 8 axis: snapshot counts at fixed SNR."""
    cfg = sweep_cfg(a=3, axis="snapshots",
                    axis_values=(100, 300, 1000, 3000))
    return rmse_sweep(cfg)


class TestAcceptance:
    def test_criterion_01_decomposition_identity(self):
        scene = SourceScene.unit_powers(THETAS3)
        ca = difference_coarray(NAQ2)
        start = time.perf_counter()
        worst = 0.0
        for noise_var in NOISE_VARS:
            x = population_coarray_signal(scene, ca, noise_var)
            for a in SHRINKAGES:
                smoothed = vws_smooth(x, a).values
                oracle = decompose_oracle(scene, ca, a, noise_var).smoothed
                rel = (np.linalg.norm(smoothed - oracle, "fro")
                       / np.linalg.norm(smoothed, "fro"))
                worst = max(worst, rel)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10
        assert elapsed < 1.0
        report(1, f"max relative error {worst:.2e} in {elapsed:.3f}s")

    def test_criterion_02_subspace_preservation(self):
        scene = SourceScene.unit_powers(THETAS3)
        ca = difference_coarray(NAQ2)
        worst = 0.0
        for noise_var in NOISE_VARS:
            x = population_coarray_signal(scene, ca, noise_var)
            for a in SHRINKAGES:
                smoothed = vws_smooth(x, a)
                sub = noise_subspace(smoothed.values, scene.d)
                ar = steering_matrix(range(smoothed.values.shape[0]),
                                     scene.thetas, sign=+1)
                proj = np.abs(sub.conj().T @ ar)
                worst = max(worst, float(proj.max()))
        assert worst < 1e-8
        report(2, f"max noise-subspace projection {worst:.2e}")

    def test_criterion_03_population_exactness(self):
        scene = SourceScene.unit_powers(THETAS3)
        start = time.perf_counter()
        worst = {"vws-ca-rmusic": 0.0, "vws-ca-music": 0.0}
        for noise_var in NOISE_VARS:
            r = exact_covariance(scene, NAQ2, noise_var)
            for a in SHRINKAGES:
                for method, tol in (("vws-ca-rmusic", 1e-6),
                                    ("vws-ca-music", 1e-3)):
                    result, _ = estimate_doas(r, NAQ2, scene.d, a,
                                              method=method)
                    err = float(np.max(np.abs(result.thetas
                                              - np.asarray(THETAS3))))
                    worst[method] = max(worst[method], err)
                    assert err < tol, (method, noise_var, a, err)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report(3, f"root {worst['vws-ca-rmusic']:.2e}, "
                  f"grid {worst['vws-ca-music']:.2e} in {elapsed:.2f}s")

    def test_criterion_04_identifiability_bound(self):
        assert max_shrinkage(39, 3) == 16
        assert max_shrinkage(47, 5) == 18
        with pytest.raises(ValueError, match="a:"):
            sweep_cfg(a=17).validate()
        report(4, "max a (UDOF=39,D=3)=16, (47,5)=18; a=17 rejected")

    def test_criterion_05_more_sources_than_sensors(self):
        thetas = tuple(np.linspace(-0.8, 0.8, 9))
        scene = SourceScene.unit_powers(thetas)
        r = exact_covariance(scene, NAQ2, noise_var=1.0)
        result, _ = estimate_doas(r, NAQ2, 9, a=0, method="vws-ca-rmusic")
        err = float(np.max(np.abs(result.thetas - np.asarray(thetas))))
        assert err < 1e-6
        report(5, f"9 sources from 8 sensors, max error {err:.2e}")

    def test_criterion_06_shrinkage_never_hurts(self, shrinkage_sweeps):
        margins = []
        for geom in (NAQ2, SNAQ2):
            for method in ("vws-ca-music", "vws-ca-rmusic"):
                r0 = shrinkage_sweeps[(geom.name, method, 0)]
                r3 = shrinkage_sweeps[(geom.name, method, 3)]
                for snr, base, shrunk in zip(r0.config.axis_values, r0.rmse,
                                             r3.rmse):
                    assert shrunk <= base, (geom.name, method, snr,
                                            base, shrunk)
                    margins.append(base - shrunk)
        report(6, f"RMSE(a=3) <= RMSE(a=0) at 12 points, "
                  f"min margin {min(margins):.2e}")

    def test_criterion_07_mra_attains_lowest_rmse(self, geometry_sweeps):
        mra = geometry_sweeps["mra(8)"].rmse
        for name in ("nested(4,4)", "snaq2(4,4)"):
            other = geometry_sweeps[name].rmse
            for snr, m, o in zip((10.0, 15.0, 20.0), mra, other):
                assert m <= o, (name, snr, m, o)
        report(7, "RMSE(MRA) lowest of three geometries at 10/15/20 dB")

    def test_criterion_08_snapshot_sweep_decreasing(self, snapshot_sweep):
        rmse = snapshot_sweep.rmse
        for i in range(len(rmse) - 1):
            assert rmse[i + 1] < rmse[i] * 1.05, (i, rmse)
        report(8, "RMSE decreasing over T in {100,300,1000,3000}: "
                  + " ".join(f"{r:.4f}" for r in rmse))

    def test_criterion_09_evd_time_scales_with_window(self):
        times = {}
        for a in (0, 16):
            cfg = sweep_cfg(a=a, axis_values=(10.0,), trials=200)
            times[a] = rmse_sweep(cfg).mean_evd_time[0]
        assert times[16] < times[0]
        report(9, f"mean EVD time M=4 / M=20 ratio "
                  f"{times[16] / times[0]:.3f}")

    def test_criterion_10_byte_identical_csv(self, tmp_path, shrinkage_sweeps,
                                             geometry_sweeps, snapshot_sweep):
        originals = dict(shrinkage_sweeps)
        originals.update({("geom", n): r for n, r in geometry_sweeps.items()})
        originals[("snapshots",)] = snapshot_sweep

        reruns = {}
        for geom in (NAQ2, SNAQ2):
            for method in ("vws-ca-music", "vws-ca-rmusic"):
                for a in (0, 3):
                    cfg = sweep_cfg(geometry=geom, method=method, a=a)
                    reruns[(geom.name, method, a)] = rmse_sweep(cfg, workers=2)
        for geom in (NAQ2, SNAQ2, MRA8):
            cfg = sweep_cfg(geometry=geom, thetas=THETAS5,
                            method="vws-ca-music", a=3,
                            axis_values=(10.0, 15.0, 20.0))
            reruns[("geom", geom.name)] = rmse_sweep(cfg, workers=2)
        reruns[("snapshots",)] = rmse_sweep(
            sweep_cfg(a=3, axis="snapshots",
                      axis_values=(100, 300, 1000, 3000)), workers=2)

        for i, key in enumerate(originals):
            p1, p2 = tmp_path / f"a{i}.csv", tmp_path / f"b{i}.csv"
            write_sweep_csv([originals[key]], p1)
            write_sweep_csv([reruns[key]], p2)
            assert p1.read_bytes() == p2.read_bytes(), key
        report(10, f"{len(originals)} sweep CSVs byte-identical "
                   f"across 1 vs 2 workers")
