"""Coarray signal extraction and VWS smoothing, checked against the
population decomposition oracle and an independently coded fixed-window
implementation."""

from dataclasses import fields

import numpy as np
import pytest

from sladoa.coarray import (coarray_signal, lag_sums, max_shrinkage,
                            vws_smooth)
from sladoa.geometry import (ArrayGeometry, build_mra, build_nested,
                             build_super_nested, build_ula,
                             difference_coarray)
from sladoa.numerics import hermitian_evd
from sladoa.signal_model import (SourceScene, exact_covariance,
                                 sample_covariance, simulate_snapshots,
                                 steering_matrix)

from reference import (BUILDER_GEOMETRIES, decompose_oracle,
                       pairwise_lag_average, population_coarray_signal)


def scene_for(d):
    return SourceScene.unit_powers(tuple(np.linspace(-0.8, 0.8, d)) if d > 1
                                   else (0.3,))


def population_signal(scene, geom, noise_var):
    return coarray_signal(exact_covariance(scene, geom, noise_var), geom)


class TestMaxShrinkage:
    def test_paper_bounds(self):
        assert max_shrinkage(39, 3) == 16
        assert max_shrinkage(47, 5) == 18

    def test_infeasible(self):
        with pytest.raises(ValueError):
            max_shrinkage(5, 3)
        with pytest.raises(ValueError, match="d must be >= 1"):
            max_shrinkage(39, 0)

    def test_rejects_even_udof(self):
        with pytest.raises(ValueError):
            max_shrinkage(10, 1)


class TestCoarraySignal:
    def test_two_sensor(self):
        geom = ArrayGeometry("pair", (0, 1))
        beta = 0.3 - 0.7j
        r = np.array([[2.0, beta], [np.conj(beta), 2.0]])
        x = coarray_signal(r, geom)
        np.testing.assert_allclose(x, [np.conj(beta), 2.0, beta])

    def test_identity_covariance(self):
        geom = build_nested(4, 4)
        x = coarray_signal(np.eye(8), geom)
        expected = np.zeros(39)
        expected[19] = 1.0
        np.testing.assert_allclose(x, expected, atol=1e-14)

    def test_population_single_source(self):
        geom = build_nested(4, 4)
        theta, p, nv = 0.42, 1.7, 0.6
        x = population_signal(SourceScene((theta,), (p,)), geom, nv)
        lags = np.arange(-19, 20)
        expected = p * np.exp(1j * np.pi * lags * theta)
        expected[19] += nv
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_conjugate_symmetry(self):
        geom = build_mra(8)
        x = population_signal(scene_for(3), geom, 1.0)
        np.testing.assert_allclose(x, np.conj(x[::-1]), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            coarray_signal(np.eye(5), build_nested(4, 4))

    def test_matches_direct_construction(self):
        geom = build_nested(4, 4)
        scene = scene_for(3)
        a = population_signal(scene, geom, 0.5)
        b = population_coarray_signal(scene, difference_coarray(geom), 0.5)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("geom", BUILDER_GEOMETRIES, ids=lambda g: g.name)
    def test_matches_pair_loop(self, geom):
        rng = np.random.default_rng(geom.n)
        for _ in range(3):
            z = (rng.standard_normal((geom.n, 2 * geom.n))
                 + 1j * rng.standard_normal((geom.n, 2 * geom.n)))
            r = z @ z.conj().T / z.shape[1]
            assert np.array_equal(coarray_signal(r, geom),
                                  pairwise_lag_average(r, geom))


class TestLagSums:
    def test_infinite_part_stays_in_its_part(self):
        # 1 + j inf at lag 1 sums to 1 + j inf there, with no NaN from
        # the infinite imaginary part reaching the real one
        r = np.eye(3, dtype=complex)
        r[0, 1] = complex(1, np.inf)
        sums = lag_sums(r, (0, 1, 2))
        assert sums[3].real == 1.0 and sums[3].imag == np.inf
        np.testing.assert_array_equal(sums[[0, 1, 2, 4]], [0, 0, 3, 0])


class TestSmoothingPlan:
    """The plan vws_smooth carries out: window size M = G - a and
    P = G + a windows, read back from the noise-spike output I_M / P."""

    def test_identity(self):
        x = coarray_signal(np.eye(8), build_nested(4, 4))  # G = 20
        sm = vws_smooth(x, 3).values
        m, p = sm.shape[0], round(1 / sm[0, 0].real)
        assert m == 17
        assert p == 23
        assert m == x.size - p + 1
        assert p == m + 2 * 3

    def test_rejects_tiny_window(self):
        x = coarray_signal(np.eye(8), build_nested(4, 4))  # G = 20
        with pytest.raises(ValueError):
            vws_smooth(x, 19)
        with pytest.raises(ValueError):
            vws_smooth(x, -1)


class TestVwsSmooth:
    def test_a0_two_windows(self):
        # UDOF=3 (G=2): window 1 covers lags (0,1), window 2 lags (-1,0)
        geom = ArrayGeometry("pair", (0, 1))
        x = np.array([1.0 + 1j, 2.0, 1.0 - 1j])
        sm = vws_smooth(x, 0)
        w1 = x[1:3]
        w2 = x[0:2]
        expected = (np.outer(w1, w1.conj()) + np.outer(w2, w2.conj())) / 2
        np.testing.assert_allclose(sm.values, expected, atol=1e-14)

    def test_noise_spike_gives_scaled_identity(self):
        geom = build_nested(4, 4)
        x = coarray_signal(np.eye(8), geom)
        for a in (0, 3, 7):
            sm = vws_smooth(x, a)
            # G = 20: window size M = G - a, P = G + a windows
            np.testing.assert_allclose(sm.values, np.eye(20 - a) / (20 + a),
                                       atol=1e-14)
            assert [f.name for f in fields(sm)] == ["values"]

    def test_matches_independent_fixed_window(self):
        # Eq-by-eq fixed-window smoothing with explicit selection matrices
        geom = build_mra(8)
        x = population_signal(scene_for(3), geom, 1.0)
        g = difference_coarray(geom).g
        acc = np.zeros((g, g), dtype=complex)
        for i in range(1, g + 1):
            j = np.zeros((g, 2 * g - 1))
            j[:, g - i:2 * g - i] = np.eye(g)
            w = j @ x
            acc += np.outer(w, w.conj())
        np.testing.assert_allclose(vws_smooth(x, 0).values, acc / g,
                                   atol=1e-12)

    def test_a_too_large(self):
        geom = build_nested(4, 4)
        x = population_signal(scene_for(3), geom, 1.0)
        # G = 20: a = 19 leaves M = 1; 1.5 and -1 are not shrinkages
        for a in (19, 1.5, -1):
            with pytest.raises(ValueError, match="^a: "):
                vws_smooth(x, a)

    def test_integer_valued_a_runs_as_integer(self):
        x = coarray_signal(np.eye(8), build_nested(4, 4))
        np.testing.assert_array_equal(vws_smooth(x, 3.0).values,
                                      vws_smooth(x, 3).values)

    def test_rejects_non_vector_or_even_length(self):
        for x in (np.ones((3, 3)), np.ones(4), np.ones(0)):
            with pytest.raises(ValueError, match="odd length"):
                vws_smooth(x, 0)

    def test_hermitian_psd(self):
        geom = build_super_nested(4, 4)
        x = population_signal(scene_for(3), geom, 0.5)
        for a in (0, 5, 16):
            sm = vws_smooth(x, a).values
            np.testing.assert_allclose(sm, sm.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(sm).min() >= -1e-10 * np.trace(sm).real


class TestDecomposeOracle:
    def test_a0_collapses_to_classical(self):
        geom = build_nested(4, 4)
        ca = difference_coarray(geom)
        scene = scene_for(3)
        orc = decompose_oracle(scene, ca, 0, 1.0)
        assert orc.b.shape == (3, 0)
        np.testing.assert_allclose(orc.r2sq, 0.0, atol=1e-14)
        sm = vws_smooth(population_signal(scene, geom, 1.0), 0)
        np.testing.assert_allclose(sm.values, orc.r1 @ orc.r1 / ca.g,
                                   rtol=0, atol=1e-10 * np.linalg.norm(orc.r1))

    def test_naq2_identity(self):
        geom = build_nested(4, 4)
        ca = difference_coarray(geom)
        scene = SourceScene.unit_powers((-0.8, 0.0, 0.8))
        sm = vws_smooth(population_signal(scene, geom, 1.0), 3)
        orc = decompose_oracle(scene, ca, 3, 1.0)
        rel = (np.linalg.norm(sm.values - orc.smoothed)
               / np.linalg.norm(sm.values))
        assert rel < 1e-10

    @staticmethod
    def _rank(m):
        sv = np.linalg.svd(m, compute_uv=False)
        return int(np.sum(sv > 1e-8 * sv[0]))

    def test_r2sq_rank_report(self):
        # Numerical rank of the unperturbed term for a=1, D=3.  Generic
        # directions give min(2a, D); the benchmark scene (-0.8, 0, 0.8)
        # satisfies omega^G = 1 with G = 20, which pairs up the columns
        # of B and drops the rank to a.  See the README note.
        geom = build_nested(4, 4)
        ca = difference_coarray(geom)
        bench = decompose_oracle(
            SourceScene.unit_powers((-0.8, 0.0, 0.8)), ca, 1, 1.0)
        assert self._rank(bench.r2sq) == 1
        generic = decompose_oracle(
            SourceScene.unit_powers((-0.81, 0.05, 0.77)), ca, 1, 1.0)
        assert self._rank(generic.r2sq) == min(2 * 1, 3)

    def test_r1_positive_definite(self):
        geom = build_mra(8)
        ca = difference_coarray(geom)
        orc = decompose_oracle(scene_for(5), ca, 4, 0.5)
        assert np.linalg.eigvalsh(orc.r1).min() > 0

    def test_r2sq_column_space_within_steering(self):
        geom = build_nested(4, 4)
        ca = difference_coarray(geom)
        scene = scene_for(3)
        orc = decompose_oracle(scene, ca, 4, 1.0)
        m = ca.g - 4
        ar = steering_matrix(range(m), scene.thetas, sign=+1)
        q, _ = np.linalg.qr(ar)
        resid = orc.r2sq - q @ (q.conj().T @ orc.r2sq)
        assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(orc.r2sq)


GEOMETRIES = [build_ula(8), build_nested(4, 4), build_super_nested(4, 4),
              build_mra(8)]


class TestPopulationIdentityGrid:
    @pytest.mark.parametrize("geom", GEOMETRIES, ids=lambda g: g.name)
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("noise_var", [0.0, 0.1, 1.0, 10.0])
    def test_identity_all_feasible_a(self, geom, d, noise_var):
        ca = difference_coarray(geom)
        try:
            amax = max_shrinkage(ca.udof, d)
        except ValueError:
            pytest.skip("scene not identifiable for this geometry")
        scene = scene_for(d)
        x = population_signal(scene, geom, noise_var)
        for a in range(amax + 1):
            sm = vws_smooth(x, a)
            orc = decompose_oracle(scene, ca, a, noise_var)
            rel = (np.linalg.norm(sm.values - orc.smoothed)
                   / max(np.linalg.norm(sm.values), 1e-300))
            assert rel < 1e-10, f"a={a}"

    @pytest.mark.parametrize("geom", GEOMETRIES, ids=lambda g: g.name)
    def test_noise_floor_eigenvalues_equal(self, geom):
        ca = difference_coarray(geom)
        d = 3
        scene = scene_for(d)
        x = population_signal(scene, geom, 1.0)
        for a in range(max_shrinkage(ca.udof, d) + 1):
            sm = vws_smooth(x, a)
            vals = hermitian_evd(sm.values).eigenvalues
            floor = vals[d:]
            if floor.size > 1:
                spread = (floor.max() - floor.min()) / abs(floor.max())
                assert spread < 1e-9, f"a={a}"


@pytest.mark.parametrize("geom", BUILDER_GEOMETRIES, ids=lambda g: g.name)
def test_sampled_smoothing_is_centro_hermitian(geom):
    # J conj(S) J = S, J the exchange matrix, is what lets the estimators
    # decompose S by a real EVD; it holds for sampled covariances too,
    # up to the last ulp of the coarray sums
    udof = difference_coarray(geom).udof
    a_max = max_shrinkage(udof, 1)
    snaps = simulate_snapshots(scene_for(1), geom, 50, 1.0, seed=3)
    x = coarray_signal(sample_covariance(snaps), geom)
    for a in sorted({0, a_max // 2, a_max}):
        s = vws_smooth(x, a).values
        flipped = s[::-1, ::-1].conj()
        assert np.abs(flipped - s).max() <= 1e-14 * np.abs(s).max(), f"a={a}"
