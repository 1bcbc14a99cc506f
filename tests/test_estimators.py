"""Estimators against the population oracle: exact covariances must be
resolved exactly (up to grid resolution for MUSIC)."""

from itertools import product

import numpy as np
import pytest

from sladoa.coarray import (coarray_signal, difference_coarray,
                            max_shrinkage, vws_smooth)
from sladoa.estimators import (Spectrum, _grid_spectrum, _noise_polynomial,
                               default_grid, estimate_doas, music_spectrum, noise_subspace,
                               pick_peaks, root_music, save_spectrum_csv)
from sladoa.geometry import build_mra, build_nested, build_super_nested, build_ula
from sladoa.signal_model import (SourceScene, exact_covariance,
                                 sample_covariance, simulate_snapshots,
                                 steering_matrix)

from reference import BUILDER_GEOMETRIES, companion_root_music

THETAS3 = (-0.8, 0.0, 0.8)
THETAS5 = (-0.8, -0.4, 0.0, 0.4, 0.8)
# theta = -1 is endfire, z = -1: an estimate may land just below +1
ENDFIRE3 = (-1.0, 0.0, 0.5)
ENDFIRE5 = (-1.0, -0.4, 0.0, 0.4, 0.8)


def population_smoothed(geom, thetas, noise_var, a):
    scene = SourceScene.unit_powers(thetas)
    r = exact_covariance(scene, geom, noise_var)
    return vws_smooth(coarray_signal(r, geom), a)


def wrapped_error(estimates, thetas):
    """Largest difference between two sets of thetas, each sorted after
    reading values within 1e-3 below +1 as the same directions just
    below -1."""
    def fold(v):
        v = np.asarray(v)
        return np.sort(np.where(v > 1 - 1e-3, v - 2, v))
    return np.max(np.abs(fold(estimates) - fold(thetas)))


def sampled_subspace(geom, thetas, a, snapshots, noise_var, seed):
    """Noise subspace of the smoothed sample covariance of one draw."""
    scene = SourceScene.unit_powers(thetas)
    snaps = simulate_snapshots(scene, geom, snapshots, noise_var, seed=seed)
    sm = vws_smooth(coarray_signal(sample_covariance(snaps), geom), a)
    return noise_subspace(sm.values, len(thetas))


def sampled_noise(geom):
    """Noise subspace and source count d at the largest window (a = 0)
    of a seeded sample covariance with up to three sources."""
    d = min(3, (difference_coarray(geom).udof - 1) // 2)
    thetas = tuple(np.linspace(-0.6, 0.6, d))
    return sampled_subspace(geom, thetas, 0, 200, 1.0, 5), d


def trace_coefficients(noise):
    """Reference root-MUSIC coefficients: diagonal sums of U_N U_N^H."""
    m = noise.shape[0]
    c = noise @ noise.conj().T
    return np.array([np.trace(c, offset=k) for k in range(-(m - 1), m)])


class TestNoiseSubspace:
    def test_population_orthogonality(self):
        geom = build_nested(4, 4)
        sm = population_smoothed(geom, THETAS3, 1.0, 3)
        noise = noise_subspace(sm.values, 3)
        m = sm.values.shape[0]
        ar = steering_matrix(range(m), THETAS3, sign=+1)
        proj = np.abs(noise.conj().T @ ar) / np.sqrt(m)
        assert proj.max() < 1e-8

    def test_identity_any_split_valid(self):
        noise = noise_subspace(np.eye(5), 1)
        assert noise.shape == (5, 4)
        np.testing.assert_allclose(noise.conj().T @ noise, np.eye(4),
                                   atol=1e-10)

    def test_single_noise_vector(self):
        noise = noise_subspace(np.diag([4.0, 3.0, 2.0, 1.0]), 3)
        assert noise.shape == (4, 1)
        assert np.linalg.norm(noise) == pytest.approx(1.0)

    def test_rejects_d_ge_m(self):
        with pytest.raises(ValueError):
            noise_subspace(np.eye(4), 4)


class TestMusicSpectrum:
    def test_population_peaks(self):
        geom = build_nested(4, 4)
        sm = population_smoothed(geom, THETAS3, 1.0, 3)
        noise = noise_subspace(sm.values, 3)
        grid = default_grid(2000)
        spec = music_spectrum(noise, grid)
        result = pick_peaks(spec, 3)
        assert np.max(np.abs(result.thetas - np.array(THETAS3))) <= 1e-3

    def test_full_noise_space_flat(self):
        m = 6
        spec = music_spectrum(np.eye(m), default_grid(64))
        np.testing.assert_allclose(spec.values, 1.0 / m, atol=1e-12)

    def test_single_point_grid(self):
        spec = music_spectrum(np.eye(3), [0.25])
        assert spec.values.shape == (1,)

    def test_values_positive_finite(self):
        geom = build_ula(8)
        sm = population_smoothed(geom, (0.3,), 0.0, 0)
        noise = noise_subspace(sm.values, 1)
        spec = music_spectrum(noise, default_grid(500))
        assert np.all(np.isfinite(spec.values))
        assert np.all(spec.values > 0)

    @pytest.mark.parametrize("size", [0, -3, 2.5, float("nan"), float("inf")])
    def test_default_grid_rejects_non_count(self, size):
        with pytest.raises(ValueError, match="integer >= 1"):
            default_grid(size)

    def test_default_grid_accepts_integer_valued_float(self):
        np.testing.assert_array_equal(default_grid(3.0), default_grid(3))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            music_spectrum(np.eye(3), [])

    def test_csv_export(self, tmp_path):
        spec = music_spectrum(np.eye(3), default_grid(16))
        path = tmp_path / "spec.csv"
        save_spectrum_csv(spec, path)
        assert path.read_text().splitlines()[0] == "theta,value"


@pytest.mark.parametrize("geom", BUILDER_GEOMETRIES, ids=lambda g: g.name)
class TestNoisePolynomial:
    """The shared polynomial against the direct definitions, up to
    mra(10) with M = 37."""

    def test_coefficients_match_trace_loop(self, geom):
        noise, _ = sampled_noise(geom)
        ref = trace_coefficients(noise)
        err = np.max(np.abs(_noise_polynomial(noise) - ref))
        assert err <= 1e-12 * np.max(np.abs(ref))

    def test_grid_denominator_matches_music_spectrum(self, geom):
        noise, _ = sampled_noise(geom)
        m = noise.shape[0]
        # sizes below 2M - 1 fold several lags onto one DFT bin
        for size in (1, m, 2 * m - 2, 600, 2000):
            grid = default_grid(size)
            ref = 1.0 / music_spectrum(noise, grid).values
            fast = _grid_spectrum(noise, size)
            np.testing.assert_array_equal(fast.grid, grid)
            assert np.max(np.abs(1.0 / fast.values - ref)) <= 1e-10 * ref.max()

    @pytest.mark.parametrize("size", [600, 2000])
    def test_grid_peaks_match_music_spectrum(self, geom, size):
        # the nulls, where the two denominators differ most relative to
        # their size, are where the peaks are picked
        noise, d = sampled_noise(geom)
        ref = pick_peaks(music_spectrum(noise, default_grid(size)), d)
        fast = pick_peaks(_grid_spectrum(noise, size), d)
        np.testing.assert_array_equal(fast.thetas, ref.thetas)
        assert (fast.peaks_found, fast.fill_count) == (ref.peaks_found,
                                                       ref.fill_count)


class TestPickPeaks:
    def test_three_separated_peaks(self):
        grid = default_grid(100)
        v = np.ones(100)
        v[[10, 50, 90]] = (5.0, 7.0, 6.0)
        res = pick_peaks(Spectrum(grid, v), 3)
        np.testing.assert_allclose(res.thetas, grid[[10, 50, 90]])
        assert res.fill_count == 0
        assert res.peaks_found == 3

    def test_monotone_endpoint(self):
        grid = default_grid(50)
        res = pick_peaks(Spectrum(grid, np.linspace(1.0, 2.0, 50)), 1)
        assert res.thetas[0] == grid[-1]
        assert res.fill_count == 0

    def test_fill_rule(self):
        grid = default_grid(100)
        v = np.ones(100)
        v[[20, 70]] = (5.0, 6.0)
        res = pick_peaks(Spectrum(grid, v), 3)
        assert res.fill_count == 1
        assert res.peaks_found == 2
        assert len(set(res.thetas)) == 3

    def test_tie_breaks_to_smaller_angle(self):
        grid = default_grid(100)
        v = np.ones(100)
        v[[30, 60]] = 5.0
        res = pick_peaks(Spectrum(grid, v), 1)
        assert res.thetas[0] == grid[30]

    def test_single_point_spectrum(self):
        res = pick_peaks(Spectrum(np.array([0.25]), np.array([3.0])), 1)
        np.testing.assert_array_equal(res.thetas, [0.25])
        assert (res.peaks_found, res.fill_count) == (1, 0)

    def test_rejects_fewer_points_than_sources(self):
        grid = default_grid(2)
        with pytest.raises(ValueError, match="fewer than d=3"):
            pick_peaks(Spectrum(grid, np.array([1.0, 2.0])), 3)


@pytest.mark.filterwarnings("error")
class TestRootMusic:
    def test_population_exact(self):
        geom = build_nested(4, 4)
        sm = population_smoothed(geom, THETAS3, 1.0, 3)
        res = root_music(noise_subspace(sm.values, 3), 3)
        assert np.max(np.abs(res.thetas - np.array(THETAS3))) < 1e-6

    def test_two_by_two_hand_case(self):
        # t = (0, 1, 0): the Cayley polynomial is 1 + x^2, whose roots
        # x = j and x = -j are z = 0 and z = infinity
        res = root_music(np.array([[1.0], [0.0]]), 1)
        assert res.thetas[0] == pytest.approx(0.0)
        assert (res.fill_count, res.root_moduli[0]) == (0, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_noise_vector_pairs_double_roots(self, seed):
        # M = D + 1: the noise polynomial is |u^H a(z)|^2, so every root
        # is a double root on the unit circle; its two copies must split
        # into one inside and one outside, or one source is picked twice
        noise = sampled_subspace(build_ula(4), THETAS3, 0, 200, 0.1, seed)
        res = root_music(noise, 3)
        assert noise.shape == (4, 1)
        assert np.min(np.diff(res.thetas)) > 0.4
        assert res.fill_count == 0
        ref = companion_root_music(noise, 3)
        assert ref.fill_count == 0
        assert np.max(np.abs(res.thetas - ref.thetas)) <= 1e-7

    def test_reciprocal_root_symmetry(self):
        geom = build_nested(4, 4)
        scene = SourceScene.unit_powers(THETAS3)
        snaps = simulate_snapshots(scene, geom, 500, 1.0, seed=9)
        sm = vws_smooth(coarray_signal(sample_covariance(snaps), geom), 3)
        coeffs = trace_coefficients(noise_subspace(sm.values, 3))
        roots = np.roots(coeffs[::-1])
        for z in roots:
            partner = 1.0 / np.conj(z)
            assert np.min(np.abs(roots - partner)) < 1e-6 * max(1.0, abs(partner))

    def test_rejects_small_window(self):
        with pytest.raises(ValueError):
            root_music(np.ones((1, 1)), 1)

    def test_fills_from_outside_after_every_inside_root(self):
        # one noise vector u with sum_j conj(u_j) z^j = (z - r1)(z - r2):
        # the roots are r1 = 0.8 e^{j pi/4} and r2 = 0.5 e^{-j pi/2}, and
        # their mirrors 1.25 e^{j pi/4} and 2 e^{-j pi/2} outside.  Both
        # inside roots rank first, although 1.25 e^{j pi/4} is closer to
        # the circle than r2; that mirror then fills the third pick.
        r1, r2 = 0.8 * np.exp(0.25j * np.pi), 0.5 * np.exp(-0.5j * np.pi)
        u = np.conj(np.poly([r1, r2])[::-1])[:, None]
        assert root_music(u, 2).fill_count == 0
        res = root_music(u, 3)
        assert res.fill_count == 1
        np.testing.assert_allclose(res.thetas, [-0.5, 0.25, 0.25], atol=1e-12)
        # the last two share an angle, so rounding decides their order
        picks = sorted(zip(np.round(res.thetas, 9), res.root_moduli))
        np.testing.assert_allclose(picks, [(-0.5, 0.5), (0.25, 0.8),
                                           (0.25, 1.25)], atol=1e-12)


class TestEndToEnd:
    @pytest.mark.parametrize("geom", [build_nested(4, 4),
                                      build_super_nested(4, 4),
                                      build_mra(8)], ids=lambda g: g.name)
    @pytest.mark.parametrize("a", [0, 3])
    def test_population_exactness_both_methods(self, geom, a):
        scene = SourceScene.unit_powers(THETAS3)
        r = exact_covariance(scene, geom, 1.0)
        music, _ = estimate_doas(r, geom, 3, a, method="vws-ca-music")
        assert np.max(np.abs(music.thetas - np.array(THETAS3))) <= 1e-3
        root, _ = estimate_doas(r, geom, 3, a, method="vws-ca-rmusic")
        assert np.max(np.abs(root.thetas - np.array(THETAS3))) < 1e-6

    @pytest.mark.parametrize("geom", BUILDER_GEOMETRIES, ids=lambda g: g.name)
    def test_root_music_five_sources_every_a(self, geom):
        # THETAS5 in z are the 5th roots of unity; at some a the corner
        # coefficients of the noise polynomial vanish to ~1e-18 of the
        # largest, and only deflating them keeps the roots exact.  The
        # endfire scenes put a root at z = -1, the pole of an unrotated
        # Cayley map.  Three-source scenes run where five do not fit.
        udof = difference_coarray(geom).udof
        scenes = [th for th in (THETAS3, THETAS5, ENDFIRE3, ENDFIRE5)
                  if udof >= 2 * len(th) + 1]
        if not scenes:
            pytest.skip("three sources are not identifiable")
        for thetas in scenes:
            d = len(thetas)
            for noise_var in (1.0, 0.1):
                scene = SourceScene.unit_powers(thetas)
                r = exact_covariance(scene, geom, noise_var)
                for a in range(max_shrinkage(udof, d) + 1):
                    res, _ = estimate_doas(r, geom, d, a,
                                           method="vws-ca-rmusic")
                    err = wrapped_error(res.thetas, thetas)
                    assert err <= 1e-8, (f"{thetas}, noise {noise_var}, "
                                         f"a={a}: {err:.1e}")

    def test_scale_invariance(self):
        geom = build_nested(4, 4)
        r = exact_covariance(SourceScene.unit_powers(THETAS3), geom, 1.0)

        def estimate(scale, method):
            return estimate_doas(r * scale, geom, 3, 3, method=method)[0]

        base_m = estimate(1.0, "vws-ca-music")
        base_r = estimate(1.0, "vws-ca-rmusic")
        for scale in (1e-6, 3.7, 1e6):
            np.testing.assert_array_equal(
                estimate(scale, "vws-ca-music").thetas, base_m.thetas)
            np.testing.assert_allclose(
                estimate(scale, "vws-ca-rmusic").thetas, base_r.thetas,
                atol=1e-6)

    def test_more_sources_than_sensors(self):
        geom = build_nested(4, 4)           # 8 physical sensors
        thetas = tuple(np.linspace(-0.8, 0.8, 9))
        scene = SourceScene.unit_powers(thetas)
        r = exact_covariance(scene, geom, 1.0)
        res, _ = estimate_doas(r, geom, 9, 0, method="vws-ca-rmusic")
        assert np.max(np.abs(res.thetas - np.array(thetas))) < 1e-6

    def test_unknown_method(self, monkeypatch):
        calls = []
        for stage in ("coarray_signal", "hermitian_evd"):
            monkeypatch.setattr(f"sladoa.estimators.{stage}",
                                lambda *args, stage=stage: calls.append(stage))
        geom = build_ula(4)
        r = exact_covariance(SourceScene((0.0,), (1.0,)), geom, 1.0)
        with pytest.raises(ValueError, match="unknown method 'esprit'"):
            estimate_doas(r, geom, 1, 0, method="esprit")
        assert calls == []                  # rejected before any stage runs


@pytest.mark.parametrize("geom", BUILDER_GEOMETRIES, ids=lambda g: g.name)
def test_root_music_matches_companion_rooting(geom):
    """The real, Cayley-mapped rooting against the complex companion
    matrix of the noise polynomial, on sampled scenes: D = 3 and 5 where
    identifiable, a at 0, a_max // 2 and a_max, T = 20, 100 and 1000, at
    0 and 10 dB, three seeds each.  Where M = D + 1 every root is a
    double root and the two paths differ at the sqrt(eps) floor, up to
    ~3e-8; elsewhere they agree to 1e-10."""
    udof = difference_coarray(geom).udof
    scenes = [th for th in (THETAS3, THETAS5) if udof >= 2 * len(th) + 1]
    if not scenes:
        pytest.skip("three sources are not identifiable")
    for thetas in scenes:
        d = len(thetas)
        a_max = max_shrinkage(udof, d)
        for a in sorted({0, a_max // 2, a_max}):
            for snapshots in (20, 100, 1000):
                for noise_var, seed in product((1.0, 0.1), range(3)):
                    noise = sampled_subspace(geom, thetas, a, snapshots,
                                             noise_var, seed)
                    res = root_music(noise, d)
                    ref = companion_root_music(noise, d)
                    where = (f"d={d}, a={a}, T={snapshots}, "
                             f"noise {noise_var}, seed {seed}")
                    assert res.fill_count == ref.fill_count, where
                    err = wrapped_error(res.thetas, ref.thetas)
                    assert err <= 1e-7, f"{where}: {err:.1e}"
