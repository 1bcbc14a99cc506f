"""Signal model: analytic steering values, covariance identities, and
statistical consistency at loose tolerance."""

import math

import numpy as np
import pytest

from reference import reference_snapshots
from sladoa.geometry import ArrayGeometry, build_mra, build_nested, build_ula
from sladoa.signal_model import (SourceScene, exact_covariance,
                                 sample_covariance, simulate_snapshots,
                                 snr_to_noise_var, steering_matrix)

THETAS5 = (-0.8, -0.4, 0.0, 0.4, 0.8)
# Two scenes on 8 sensors: three unit sources, and five of unequal power.
LAW_SCENES = {
    "nested(4,4)": (build_nested(4, 4),
                    SourceScene.unit_powers((-0.5, 0.1, 0.7))),
    "mra(8)": (build_mra(8), SourceScene(THETAS5, (1.0, 4.0, 0.25, 1.0, 2.0))),
}


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b| over the
    empirical distribution functions of samples a and b."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, x, side="right") / a.size
                        - np.searchsorted(b, x, side="right") / b.size).max())


def ks_critical(n: int, m: int, alpha: float) -> float:
    """Asymptotic critical value of the two-sample KS statistic at level
    alpha: sqrt(-ln(alpha / 2) / 2) * sqrt((n + m) / (n m))."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0 * (n + m) / (n * m))


class TestSourceScene:
    def test_rejects_unsorted_thetas(self):
        with pytest.raises(ValueError):
            SourceScene((0.5, -0.5), (1.0, 1.0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SourceScene((-0.5, 1.0), (1.0, 1.0))

    @pytest.mark.parametrize("thetas, powers, message", [
        ((), (), "at least one source"),
        ((0.1,), (1.0, 1.0), "equal length")])
    def test_rejects_no_source_or_unpaired_power(self, thetas, powers,
                                                 message):
        with pytest.raises(ValueError, match=message):
            SourceScene(thetas, powers)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            SourceScene((0.0,), (0.0,))

    @pytest.mark.parametrize("thetas, powers", [
        ((math.nan,), (1.0,)), ((-0.8, math.nan, 0.8), (1.0, 1.0, 1.0)),
        ((0.0,), (math.inf,)), ((0.0,), (math.nan,))])
    def test_rejects_non_finite(self, thetas, powers):
        with pytest.raises(ValueError, match="thetas must lie|powers must"):
            SourceScene(thetas, powers)


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
        assert a.shape == (geom.n, 64)
        np.testing.assert_array_equal(a, b)

    def test_noiseless_rank_one(self):
        geom = build_ula(6)
        scene = SourceScene((0.3,), (1.0,))
        snaps = simulate_snapshots(scene, geom, 32, 0.0, seed=1)
        # each column is a scaled steering vector: unit-modulus structure
        mags = np.abs(snaps)
        np.testing.assert_allclose(mags, np.tile(mags[0], (6, 1)), atol=1e-12)

    def test_noiseless_rank_le_d(self):
        geom = build_nested(4, 4)
        scene = SourceScene.unit_powers((-0.5, 0.1, 0.7))
        snaps = simulate_snapshots(scene, geom, 200, 0.0, seed=3)
        sv = np.linalg.svd(snaps, compute_uv=False)
        assert np.sum(sv > 1e-8 * sv[0]) <= 3

    def test_rejects_negative_noise(self):
        geom = build_ula(4)
        with pytest.raises(ValueError):
            simulate_snapshots(SourceScene((0.0,), (1.0,)), geom, 8, -1.0, seed=0)

    def test_rejects_no_snapshots(self):
        with pytest.raises(ValueError, match="t must be >= 1"):
            simulate_snapshots(SourceScene((0.0,), (1.0,)), build_ula(4), 0,
                               1.0, seed=0)

    @pytest.mark.parametrize("noise_var", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("model", [
        lambda scene, geom, v: exact_covariance(scene, geom, v),
        lambda scene, geom, v: simulate_snapshots(scene, geom, 8, v, seed=0),
    ], ids=["exact_covariance", "simulate_snapshots"])
    def test_rejects_non_finite_noise(self, model, noise_var):
        # NaN would give an all-NaN array with no error, +inf overflow
        with pytest.raises(ValueError, match=f"noise_var.*got {noise_var}"):
            model(SourceScene((0.0,), (1.0,)), build_ula(4), noise_var)

    def test_draws_two_normals_per_sensor_and_snapshot(self):
        geom, scene = LAW_SCENES["mra(8)"]
        rng = np.random.default_rng(4)
        simulate_snapshots(scene, geom, 37, 0.1, seed=rng)
        expected = np.random.default_rng(4)
        expected.standard_normal(2 * geom.n * 37)
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("scene_name, noise_var", [
        ("nested(4,4)", 0.0), ("nested(4,4)", snr_to_noise_var(150.0)),
        ("nested(4,4)", snr_to_noise_var(300.0)), ("mra(8)", 0.5),
    ], ids=["noiseless", "150dB", "300dB", "non-unit-powers"])
    def test_finite_and_consistent_at_any_snr(self, scene_name, noise_var):
        # at 300 dB, R is singular to working precision and a Cholesky
        # of it fails; at noise_var = 0 it has rank D
        geom, scene = LAW_SCENES[scene_name]
        for t in (3, geom.n, 100_000):                  # T < N, T = N, T >> N
            snaps = simulate_snapshots(scene, geom, t, noise_var, seed=t)
            assert snaps.shape == (geom.n, t)
            assert np.all(np.isfinite(snaps))
        r = exact_covariance(scene, geom, noise_var)
        rel = np.linalg.norm(sample_covariance(snaps) - r) / np.linalg.norm(r)
        assert rel < 0.05

    def test_sample_covariance_consistency(self):
        geom = build_ula(8)
        scene = SourceScene((0.3,), (1.0,))
        snaps = simulate_snapshots(scene, geom, 100_000, 1.0, seed=11)
        rhat = sample_covariance(snaps)
        r = exact_covariance(scene, geom, 1.0)
        rel = np.linalg.norm(rhat - r) / np.linalg.norm(r)
        assert rel < 0.05


class TestSnapshotLaw:
    """The draw against ``reference_snapshots``, which forms A s + n term
    by term: both must be CN(0, R)."""

    SEEDS = 400

    @pytest.mark.parametrize("t", [4, "N", 1000])
    @pytest.mark.parametrize("scene_name", sorted(LAW_SCENES))
    def test_matches_reference_law(self, scene_name, t):
        geom, scene = LAW_SCENES[scene_name]
        t = geom.n if t == "N" else t
        noise_var = 0.1
        # the two draws take disjoint seeds, so the samples compared are
        # independent
        drawn = np.array([sample_covariance(simulate_snapshots(
            scene, geom, t, noise_var, seed=[0, i]))
            for i in range(self.SEEDS)])
        oracle = np.array([sample_covariance(reference_snapshots(
            scene, geom, t, noise_var, seed=[1, i]))
            for i in range(self.SEEDS)])
        # R-hat has rank min(T, N): its smallest eigenvalue is the
        # smallest of those, the rest are zero
        lowest = geom.n - min(t, geom.n)
        lam, lam_oracle = np.linalg.eigvalsh(drawn), np.linalg.eigvalsh(oracle)
        critical = ks_critical(self.SEEDS, self.SEEDS, alpha=1e-3)
        for col in (-1, lowest):
            stat = ks_statistic(lam[:, col], lam_oracle[:, col])
            assert stat < critical, (col, stat, critical)
        # the mean of R-hat is R, entry by entry, within 4 standard
        # errors; the floor admits rounding in the diagonal's imaginary
        # parts, which are zero
        r = exact_covariance(scene, geom, noise_var)
        for part in (np.real, np.imag):
            values = part(drawn)
            se = values.std(axis=0, ddof=1) / math.sqrt(self.SEEDS)
            dev = np.abs(values.mean(axis=0) - part(r))
            assert np.all(dev <= 4.0 * se + 1e-12), (dev / (se + 1e-300)).max()


class TestSampleCovariance:
    def test_single_column(self):
        v = np.array([[1.0 + 2.0j], [3.0 - 1.0j]])
        r = sample_covariance(v)
        np.testing.assert_allclose(r, v @ v.conj().T, atol=1e-14)

    def test_zero_data(self):
        r = sample_covariance(np.zeros((2, 5)))
        np.testing.assert_array_equal(r, np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(4,), (2, 0)])
    def test_rejects_non_matrix_or_no_snapshots(self, shape):
        with pytest.raises(ValueError, match="T >= 1"):
            sample_covariance(np.zeros(shape, dtype=complex))


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
