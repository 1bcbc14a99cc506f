"""Estimators against the population oracle: exact covariances must be
resolved exactly (up to grid resolution for MUSIC)."""

from itertools import product

import numpy as np
import pytest

from sladoa import estimators
from sladoa.coarray import (coarray_signal, difference_coarray,
                            max_shrinkage, vws_smooth)
from sladoa.estimators import (Spectrum, _estimate_block, _grid_spectrum,
                               _noise_polynomial, _pick_peaks, default_grid,
                               estimate_doas, music_spectrum, noise_subspace,
                               pick_peaks, root_music, save_spectrum_csv)
from sladoa.geometry import build_mra, build_nested, build_super_nested, build_ula
from sladoa.signal_model import (SourceScene, exact_covariance,
                                 sample_covariance, simulate_snapshots,
                                 snr_to_noise_var, steering_matrix)

from reference import (BUILDER_GEOMETRIES, chained_estimate,
                       companion_root_music, reference_pick_peaks)

THETAS3 = (-0.8, 0.0, 0.8)
THETAS5 = (-0.8, -0.4, 0.0, 0.4, 0.8)
METHODS = ("vws-ca-music", "vws-ca-rmusic")
# theta = -1 is endfire, z = -1: an estimate may land just below +1
ENDFIRE3 = (-1.0, 0.0, 0.5)
ENDFIRE5 = (-1.0, -0.4, 0.0, 0.4, 0.8)
# five sources spread to near endfire; at a_max, M = D + 1 = 6 and every
# root is a double root (hardest on nested(3,5), a = 14)
SPREAD5 = (-0.95, -0.5, 0.05, 0.55, 0.97)


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
        with pytest.raises(ValueError, match="d must be >= 1"):
            pick_peaks(Spectrum(grid, np.array([1.0, 2.0])), 0)

    def test_rejects_grid_of_another_length(self):
        # a longer grid would give the angles of other points than the
        # peaks, and a shorter one would index past its end
        v = np.ones(10)
        v[[2, 5, 8]] = (4.0, 6.0, 5.0)
        for size in (14, 6):
            with pytest.raises(ValueError,
                               match=f"grid has {size} points, spectrum 10"):
                pick_peaks(Spectrum(default_grid(size), v), 2)
            with pytest.raises(ValueError, match=f"grid has {size} points"):
                _pick_peaks(Spectrum(default_grid(size), np.stack((v, v))), 2)

    def test_block_rows_match_single_spectra(self):
        # rows: an ordinary spectrum with many maxima, a monotone one
        # (one maximum, two fills), a plateau beside one peak (the strict
        # comparisons see no maximum on it), four equal-height peaks, and
        # a flat one with no maximum at all
        grid = default_grid(100)
        v = np.ones((5, 100))
        v[0] = np.random.default_rng(3).random(100)
        v[1] = np.linspace(1.0, 2.0, 100)
        v[2, 40:43], v[2, 70] = 4.0, 6.0
        v[3, [10, 30, 60, 80]] = 5.0
        block = _pick_peaks(Spectrum(grid, v), 3)
        assert len(block.thetas) == len(v)
        for k, row in enumerate(v):
            for ref in (pick_peaks(Spectrum(grid, row), 3),
                        reference_pick_peaks(Spectrum(grid, row), 3)):
                np.testing.assert_array_equal(block.thetas[k], ref.thetas)
                assert (block.peaks_found[k], block.fill_count[k]) == (
                    ref.peaks_found, ref.fill_count)
        assert list(zip(block.peaks_found[1:], block.fill_count[1:])) == [
            (1, 2), (1, 2), (4, 0), (0, 3)]
        np.testing.assert_array_equal(block.thetas[2], grid[[40, 41, 70]])
        np.testing.assert_array_equal(block.thetas[3], grid[[10, 30, 60]])


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

    @pytest.mark.parametrize("n, a, thetas, snapshots, noise_var, seed", [
        # the real companion splits a double root into two real x-roots
        # 4.7e-6 apart in theta, on either side of it; their mean is it
        (41, 5, THETAS3, 1000, 0.024378174208277346, 449280152),
        # seven sources at 34 dB, M = 37, the largest real-path window
        (38, 1, (-0.9166250241981901, -0.6491742178037301,
                 -0.5864824382197988, -0.5253866002211929,
                 -0.45018011719218864, -0.09676364864544218,
                 0.6426050867047184), 30000, 0.0004121014289673618,
         58599457),
    ], ids=["M36-split-pair", "M37-34dB"])
    def test_sampled_double_roots_match_companion(self, n, a, thetas,
                                                  snapshots, noise_var, seed):
        noise = sampled_subspace(build_ula(n), thetas, a, snapshots,
                                 noise_var, seed)
        res = root_music(noise, len(thetas))
        ref = companion_root_music(noise, len(thetas))
        assert res.fill_count == ref.fill_count == 0
        assert np.max(np.abs(res.thetas - ref.thetas)) <= 1e-8

    def test_single_noise_vector_roots_q(self):
        # M = D + 1 on ula(D + 1 + a): the one noise vector u gives
        # q(z) = sum_m conj(u_m) z^m, whose D simple roots carry the
        # angles; rooting the Laurent polynomial instead, whose roots are
        # all double, missed 31 of these scenes by up to 2.2e-6
        rng = np.random.default_rng(20261019)
        for scene in range(200):
            d, a = int(rng.integers(1, 9)), int(rng.integers(0, 6))
            thetas = tuple(np.sort(rng.uniform(-1, 1, d)))
            snapshots = int(np.exp(rng.uniform(np.log(20), np.log(30000))))
            noise_var = 10 ** (-rng.uniform(-5, 80) / 10)
            noise = sampled_subspace(build_ula(d + 1 + a), thetas, a,
                                     snapshots, noise_var, scene)
            assert noise.shape == (d + 1, 1)
            r = np.roots(np.conj(noise[::-1, 0]))
            expected = (np.angle(r) / np.pi + 1.0) % 2.0 - 1.0
            res = root_music(noise, d)
            assert res.fill_count == 0
            err = wrapped_error(res.thetas, expected)
            assert err <= 1e-8, (f"scene {scene}: d={d}, a={a}, "
                                 f"T={snapshots}: {err:.1e}")
            inside = np.minimum(np.abs(r), 1 / np.abs(r))
            np.testing.assert_allclose(np.sort(res.root_moduli),
                                       np.sort(inside), rtol=1e-8)

    def test_rejects_small_window(self):
        with pytest.raises(ValueError):
            root_music(np.ones((1, 1)), 1)
        with pytest.raises(ValueError, match="d must be >= 1"):
            root_music(np.array([[1.0], [0.5j], [0.25]]), 0)

    def test_rejects_more_sources_than_roots(self):
        # M = 3 with one noise vector: the noise polynomial has degree
        # 4, so d = 4 takes every root and d = 5 or 6 has too few
        u = np.array([[1.0], [0.5j], [0.25]])
        assert root_music(u, 4).thetas.size == 4
        for d in (5, 6):
            with pytest.raises(ValueError, match=f"d={d} exceeds the 4 roots"):
                root_music(u, d)

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
        scenes = [th for th in (THETAS3, THETAS5, ENDFIRE3, ENDFIRE5,
                                SPREAD5) if udof >= 2 * len(th) + 1]
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

    @pytest.mark.parametrize("geom", [build_ula(64), build_nested(8, 8),
                                      build_nested(12, 12)],
                             ids=lambda g: g.name)
    def test_root_music_population_large_windows(self, geom):
        # M = 64, 72 and 156 at a = 0 lie above the largest window whose
        # real Cayley polynomial roots reliably; rooted in the x-basis
        # these scenes were off by up to 1.5
        udof = difference_coarray(geom).udof
        for thetas in (THETAS3, THETAS5, ENDFIRE5):
            d = len(thetas)
            a_max = max_shrinkage(udof, d)
            for noise_var in (1.0, 0.1):
                r = exact_covariance(SourceScene.unit_powers(thetas), geom,
                                     noise_var)
                for a in (0, a_max // 2):
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

    def test_rejects_a_stack_of_covariances(self):
        geom = build_nested(4, 4)
        r = exact_covariance(SourceScene.unit_powers(THETAS3), geom, 1.0)
        with pytest.raises(ValueError, match="does not match geometry"):
            estimate_doas(np.array([r, r]), geom, 3, 0)

    def test_unknown_method(self, monkeypatch):
        calls = []
        for stage in ("coarray_signal", "_centro_hermitian_evd"):
            monkeypatch.setattr(f"sladoa.estimators.{stage}",
                                lambda *args, stage=stage: calls.append(stage))
        geom = build_ula(4)
        r = exact_covariance(SourceScene((0.0,), (1.0,)), geom, 1.0)
        with pytest.raises(ValueError, match="unknown method 'esprit'"):
            estimate_doas(r, geom, 1, 0, method="esprit")
        assert calls == []                  # rejected before any stage runs


@pytest.mark.parametrize("geom", BUILDER_GEOMETRIES + [
    build_nested(18, 2), build_nested(6, 6)], ids=lambda g: g.name)
def test_root_music_matches_companion_rooting(geom):
    """``root_music`` against the complex companion matrix of the noise
    polynomial, on sampled scenes: D = 3 and 5 where identifiable, a at
    0, a_max // 2 and a_max, T = 20, 100 and 1000, at 0 and 10 dB, three
    seeds each.  Besides the builder geometries, whose windows reach
    M = 37, the largest rooted through the real Cayley polynomial,
    nested(18,2) and nested(6,6) reach M = 38 and 42.  Where M = D + 1
    every root is a double root and the two paths differ at the
    sqrt(eps) floor, up to ~3e-8; elsewhere they agree to 1e-10."""
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


def sampled_block(geom, thetas, a, snapshots, noise_var, seeds):
    """A (K, N, N) stack of sample covariances, one per seed."""
    scene = SourceScene.unit_powers(thetas)
    return np.array([sample_covariance(simulate_snapshots(
        scene, geom, snapshots, noise_var, seed=seed)) for seed in seeds])


@pytest.mark.parametrize("geom", BUILDER_GEOMETRIES + [
    build_nested(18, 2), build_nested(6, 6)], ids=lambda g: g.name)
def test_engine_noise_projector_matches_noise_subspace(geom):
    # the engine's real EVD against the generic complex one: D = 1 and 3
    # where identifiable, a at 0, a_max // 2 and a_max (M = D + 1, and
    # M = 2 for D = 1); windows reach M = 38 and 42 on the nested arrays
    udof = difference_coarray(geom).udof
    for d in sorted({1, min(3, (udof - 1) // 2)}):
        thetas = tuple(np.linspace(-0.6, 0.6, d)) if d > 1 else (0.3,)
        a_max = max_shrinkage(udof, d)
        for a in sorted({0, a_max // 2, a_max}):
            covs = sampled_block(geom, thetas, a, 100, 1.0,
                                 [(13, a, k) for k in range(4)])
            noise = _estimate_block(covs, geom, d, a)[1]
            ref = noise_subspace(np.array([vws_smooth(
                coarray_signal(r, geom), a).values for r in covs]), d)
            proj = noise @ noise.conj().swapaxes(-1, -2)
            err = np.abs(proj - ref @ ref.conj().swapaxes(-1, -2)).max()
            assert err <= 1e-12, f"d={d} a={a}: {err:.1e}"


@pytest.mark.parametrize("snr_db", [0.0, 10.0])
@pytest.mark.parametrize("geom", [build_nested(4, 4), build_super_nested(4, 4)],
                         ids=lambda g: g.name)
def test_shrinkage_lowers_subspace_error(geom, snr_db):
    # the abstract's "separation between signal and noise subspaces" read
    # as subspace accuracy: the sample noise projector lies closer to the
    # population one at a = 3 than at a = 0, on the same 200 draws of
    # T = 1000 snapshots, by more than 3 standard errors of the paired
    # difference of ||P_hat - P||_F^2
    noise_var = snr_to_noise_var(snr_db)
    population = exact_covariance(SourceScene.unit_powers(THETAS3), geom,
                                  noise_var)
    covs = np.concatenate((population[None], sampled_block(
        geom, THETAS3, 0, 1000, noise_var, [(23, k) for k in range(200)])))
    errors = []
    for a in (0, 3):
        noise = _estimate_block(covs, geom, 3, a)[1]
        proj = noise @ noise.conj().swapaxes(-1, -2)
        errors.append(np.sum(np.abs(proj[1:] - proj[0]) ** 2, axis=(1, 2)))
    diff = errors[0] - errors[1]
    assert diff.mean() > 3 * diff.std(ddof=1) / np.sqrt(diff.size), (
        f"{errors[0].mean():.3e} -> {errors[1].mean():.3e}")


def test_nan_covariance_rejected():
    geom = build_nested(4, 4)
    r = exact_covariance(SourceScene.unit_powers(THETAS3), geom, 1.0)
    r[2, 5] = np.nan
    for method in METHODS:
        with pytest.raises(ValueError, match="non-finite entries"):
            estimate_doas(r, geom, 3, 3, method=method)


class TestBlockEngine:
    """``_estimate_block`` runs each stage once for a stack of
    covariances; it must reproduce the public stages chained one
    covariance at a time."""

    @staticmethod
    def assert_matches_chain(covs, geom, d, a, method, where=""):
        block, _, _ = _estimate_block(covs, geom, d, a, method)
        assert len(block.thetas) == len(covs)
        for k, r in enumerate(covs):
            ref = chained_estimate(r, geom, d, a, method)
            err = np.max(np.abs(block.thetas[k] - ref.thetas))
            assert err <= 1e-12, f"{where} trial {k}: {err:.1e}"
            assert (block.fill_count[k], block.peaks_found[k]) == (
                ref.fill_count, ref.peaks_found), f"{where} trial {k}"

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("geom", BUILDER_GEOMETRIES + [build_nested(6, 6)],
                             ids=lambda g: g.name)
    def test_block_matches_chained_stages(self, geom, method):
        # a at 0, a_max // 2 and a_max, where M = d + 1; windows reach
        # M = 37 on mra(10), the largest rooted through the real Cayley
        # polynomial, and M = 42 on nested(6,6), through the complex
        # companion
        udof = difference_coarray(geom).udof
        d = min(3, (udof - 1) // 2)
        thetas = tuple(np.linspace(-0.6, 0.6, d))
        a_max = max_shrinkage(udof, d)
        for a in sorted({0, a_max // 2, a_max}):
            covs = sampled_block(geom, thetas, a, 100, 1.0,
                                 [(11, a, k) for k in range(8)])
            self.assert_matches_chain(covs, geom, d, a, method, f"a={a}")

    def test_corner_trimmed_rows_share_a_block(self):
        # on ula(9) with THETAS5 at a = 1 (M = 8), the population noise
        # polynomial loses two corner pairs; sampled ones keep them, so
        # the block roots two polynomial lengths
        geom = build_ula(9)
        r = exact_covariance(SourceScene.unit_powers(THETAS5), geom, 1.0)
        sampled = sampled_block(geom, THETAS5, 1, 200, 1.0, range(3))
        covs = np.concatenate((sampled[:2], r[None], sampled[2:]))
        t = _noise_polynomial(noise_subspace(population_smoothed(
            geom, THETAS5, 1.0, 1).values, 5))
        assert np.all(np.abs(t[-2:]) <= 1e-12 * np.abs(t).max())
        self.assert_matches_chain(covs, geom, 5, 1, "vws-ca-rmusic")
        population = _estimate_block(covs, geom, 5, 1)[0].thetas[2]
        assert np.max(np.abs(population - np.array(THETAS5))) <= 1e-8

    @pytest.mark.parametrize("method", METHODS)
    def test_estimate_alike_in_any_block(self, method):
        # 19 covariances, alone, in blocks of 8, 8 and 3, in odd splits
        # and all in one: every estimate is the same to the bit
        geom = build_mra(8)
        covs = sampled_block(geom, THETAS5, 3, 100, 1.0, range(19))
        alone = [estimate_doas(r, geom, 5, 3, method=method)[0]
                 for r in covs]
        for sizes in ([8, 8, 3], [1, 7, 11], [5, 9, 5], [19]):
            ends = np.cumsum(sizes)
            blocks = [_estimate_block(covs[start:end], geom, 5, 3, method)[0]
                      for start, end in zip(ends - sizes, ends)]
            blocked = [(block, k) for block in blocks
                       for k in range(len(block.thetas))]
            for one, (block, k) in zip(alone, blocked):
                np.testing.assert_array_equal(block.thetas[k], one.thetas)
                assert (block.fill_count[k], block.peaks_found[k]) == (
                    one.fill_count, one.peaks_found)


class TestStackedTail:
    """root-MUSIC turns the roots of a whole block into estimates with
    array operations: ranking, ring pairing, Newton step, fold and sort.
    Blocks here mix population covariances, whose double roots on the
    unit circle come back from the real companion EVD as exactly real
    Cayley roots, with sampled ones, which almost never have any."""

    @staticmethod
    def split_pairs(z, outside):
        """Per row, whether two roots are equal to the bit with one
        counted inside and one outside: a ring pair read at its mean."""
        same = z[:, :, None] == z[:, None, :]
        return (same & ~outside[:, :, None] & outside[:, None, :]).any(
            axis=(1, 2))

    @pytest.mark.parametrize("geom, d, a", [
        (build_nested(4, 4), 3, 0), (build_nested(4, 4), 3, 3),
        (build_super_nested(4, 4), 3, 3), (build_mra(10), 3, 0),
        (build_nested(6, 6), 3, 0), (build_nested(4, 4), 3, 16),
        (build_mra(8), 1, 22)],
        ids=["nested-M20", "nested-M17", "snaq2-M17", "mra10-M37",
             "nested66-M42", "nested-M4=d+1", "mra8-M2=d+1"])
    def test_block_mixes_population_and_sampled_rows(self, geom, d, a,
                                                     monkeypatch):
        thetas = tuple(np.linspace(-0.7, 0.6, d)) if d > 1 else (0.3,)
        scene = SourceScene.unit_powers(thetas)
        sampled = sampled_block(geom, thetas, a, 200, 1.0,
                                [(17, a, k) for k in range(5)])
        covs = np.concatenate((
            exact_covariance(scene, geom, 1.0)[None], sampled[:2],
            exact_covariance(scene, geom, 0.1)[None], sampled[2:]))
        population = [0, 3]
        roots = []
        real_roots = estimators._root_polynomials

        def recorded(t, m, d):
            z, outside = real_roots(t, m, d)
            roots.append((len(t), z.copy(), outside.copy()))
            return z, outside

        monkeypatch.setattr(estimators, "_root_polynomials", recorded)
        block = _estimate_block(covs, geom, d, a)[0]
        m = difference_coarray(geom).g - a
        if m == d + 1:
            assert roots == []          # every row roots q instead
        elif m <= 37:
            # one kind, rooted on the Cayley path: the pairing branch ran
            # for each population row, and for no sampled one
            [(k, z, outside)] = roots
            assert k == len(covs)
            paired = self.split_pairs(z, outside)
            assert np.flatnonzero(paired).tolist() == population
        else:                           # the complex companion, one kind
            assert [k for k, _, _ in roots] == [len(covs)]
        for k, r in enumerate(covs):
            alone = estimate_doas(r, geom, d, a)[0]
            np.testing.assert_array_equal(block.thetas[k], alone.thetas)
            np.testing.assert_array_equal(block.root_moduli[k],
                                          alone.root_moduli)
            assert block.fill_count[k] == alone.fill_count
            ref = chained_estimate(r, geom, d, a, "vws-ca-rmusic")
            assert block.fill_count[k] == ref.fill_count, f"row {k}"
            # a double root moves by the square root of its input's error,
            # so a population row is held to the scene, not the chain
            err = np.abs(block.thetas[k] - (thetas if k in population
                                            else ref.thetas)).max()
            assert err <= (1e-8 if k in population else 1e-12), f"row {k}"
