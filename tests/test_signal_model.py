"""Signal model: analytic steering values, covariance identities, and
statistical consistency at loose tolerance."""

import math

import numpy as np
import pytest

from sladoa.geometry import ArrayGeometry, build_nested, build_ula
from sladoa.signal_model import (SnapshotSet, SourceScene, exact_covariance,
                                 sample_covariance, simulate_snapshots,
                                 snr_to_noise_var, steering_matrix)


class TestSourceScene:
    def test_rejects_unsorted_thetas(self):
        with pytest.raises(ValueError):
            SourceScene((0.5, -0.5), (1.0, 1.0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SourceScene((-0.5, 1.0), (1.0, 1.0))

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            SourceScene((0.0,), (0.0,))


class TestSteeringMatrix:
    def test_zero_position(self):
        assert steering_matrix([0], [0.37], sign=-1) == pytest.approx(1.0)

    def test_analytic_value(self):
        val = steering_matrix([1], [0.5], sign=-1)[0, 0]
        assert val == pytest.approx(-1j)

    def test_theta_zero_all_ones(self):
        col = steering_matrix([0, 1, 2], [0.0], sign=+1)
        np.testing.assert_allclose(col, np.ones((3, 1)))

    def test_unit_modulus(self):
        a = steering_matrix([0, 1, 4, 6], [-0.7, 0.1, 0.6], sign=-1)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-14)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            steering_matrix([0, 1], [0.0], sign=2)


class TestExactCovariance:
    def test_diagonal_is_total_power(self):
        geom = build_nested(4, 4)
        scene = SourceScene((0.3,), (2.5,))
        r = exact_covariance(scene, geom, 0.7)
        np.testing.assert_allclose(np.diag(r).real, 3.2, atol=1e-12)

    def test_two_sensor_all_ones(self):
        geom = ArrayGeometry("pair", (0, 1))
        r = exact_covariance(SourceScene((0.0,), (1.0,)), geom, 0.0)
        np.testing.assert_allclose(r, np.ones((2, 2)), atol=1e-14)

    def test_trace(self):
        geom = build_ula(8)
        scene = SourceScene((-0.4, 0.2, 0.5), (1.0, 2.0, 3.0))
        r = exact_covariance(scene, geom, 0.25)
        assert np.trace(r).real == pytest.approx(8 * (6.0 + 0.25), rel=1e-12)

    def test_hermitian_psd(self):
        geom = build_nested(3, 3)
        scene = SourceScene((-0.6, 0.1), (1.0, 0.5))
        r = exact_covariance(scene, geom, 0.1)
        np.testing.assert_allclose(r, r.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(r).min() >= -1e-10 * np.trace(r).real

    def test_position_offset_invariance(self):
        # the steering phase offset cancels in A diag(p) A^H
        scene = SourceScene((-0.4, 0.2, 0.5), (1.0, 2.0, 3.0))
        positions = np.array([0, 1, 4, 6])
        p = np.asarray(scene.powers)
        for offset in (3, 11):
            a0 = steering_matrix(positions, scene.thetas, sign=-1)
            a1 = steering_matrix(positions + offset, scene.thetas, sign=-1)
            r0 = (a0 * p) @ a0.conj().T
            r1 = (a1 * p) @ a1.conj().T
            np.testing.assert_allclose(r0, r1, atol=1e-12)


class TestSimulateSnapshots:
    def test_deterministic(self):
        geom = build_nested(4, 4)
        scene = SourceScene.unit_powers((-0.8, 0.0, 0.8))
        a = simulate_snapshots(scene, geom, 64, 1.0, seed=7)
        b = simulate_snapshots(scene, geom, 64, 1.0, seed=7)
        np.testing.assert_array_equal(a.data, b.data)

    def test_noiseless_rank_one(self):
        geom = build_ula(6)
        scene = SourceScene((0.3,), (1.0,))
        snaps = simulate_snapshots(scene, geom, 32, 0.0, seed=1)
        # each column is a scaled steering vector: unit-modulus structure
        mags = np.abs(snaps.data)
        np.testing.assert_allclose(mags, np.tile(mags[0], (6, 1)), atol=1e-12)

    def test_noiseless_rank_le_d(self):
        geom = build_nested(4, 4)
        scene = SourceScene.unit_powers((-0.5, 0.1, 0.7))
        snaps = simulate_snapshots(scene, geom, 200, 0.0, seed=3)
        sv = np.linalg.svd(snaps.data, compute_uv=False)
        assert np.sum(sv > 1e-8 * sv[0]) <= 3

    def test_rejects_negative_noise(self):
        geom = build_ula(4)
        with pytest.raises(ValueError):
            simulate_snapshots(SourceScene((0.0,), (1.0,)), geom, 8, -1.0, seed=0)

    def test_sample_covariance_consistency(self):
        geom = build_ula(8)
        scene = SourceScene((0.3,), (1.0,))
        snaps = simulate_snapshots(scene, geom, 100_000, 1.0, seed=11)
        rhat = sample_covariance(snaps)
        r = exact_covariance(scene, geom, 1.0)
        rel = np.linalg.norm(rhat - r) / np.linalg.norm(r)
        assert rel < 0.05


class TestSampleCovariance:
    def test_single_column(self):
        geom = ArrayGeometry("pair", (0, 1))
        v = np.array([[1.0 + 2.0j], [3.0 - 1.0j]])
        r = sample_covariance(SnapshotSet(v, geom))
        np.testing.assert_allclose(r, v @ v.conj().T, atol=1e-14)

    def test_zero_data(self):
        geom = ArrayGeometry("pair", (0, 1))
        r = sample_covariance(SnapshotSet(np.zeros((2, 5)), geom))
        np.testing.assert_array_equal(r, np.zeros((2, 2)))


class TestSnr:
    def test_convention(self):
        assert snr_to_noise_var(0.0) == pytest.approx(1.0)
        assert snr_to_noise_var(10.0) == pytest.approx(0.1)
        assert snr_to_noise_var(-10.0) == pytest.approx(10.0)

    def test_infinite_snr_is_noiseless(self):
        assert snr_to_noise_var(math.inf) == 0.0

    @pytest.mark.parametrize("snr", [math.nan, -math.inf, -4000.0])
    def test_rejects_nan_and_negative_infinity(self, snr):
        with pytest.raises(ValueError):
            snr_to_noise_var(snr)
