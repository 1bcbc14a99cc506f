"""Geometry constructions checked against brute-force difference
enumeration, which serves as the oracle throughout."""

import itertools

import pytest

from sladoa.geometry import (ArrayGeometry, build_mra, build_nested,
                             build_super_nested, build_ula,
                             difference_coarray, _MRA_TABLE)


def brute_lags(positions):
    return {a - b for a in positions for b in positions}


def brute_udof(positions):
    lags = brute_lags(positions)
    half = 0
    while half + 1 in lags:
        half += 1
    return 2 * half + 1


class TestArrayGeometry:
    def test_rejects_single_sensor(self):
        with pytest.raises(ValueError):
            ArrayGeometry("x", (0,))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ArrayGeometry("x", (0, 3, 1))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ArrayGeometry("x", (1, 2, 5))


class TestUla:
    def test_two_sensors(self):
        assert build_ula(2).positions == (0, 1)

    def test_three_sensors(self):
        assert build_ula(3).positions == (0, 1, 2)

    def test_eight_sensor_coarray(self):
        ca = difference_coarray(build_ula(8))
        assert ca.lags == tuple(range(-7, 8))
        assert ca.udof == 15

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            build_ula(1)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_udof_formula(self, n):
        assert difference_coarray(build_ula(n)).udof == 2 * n - 1


class TestNested:
    def test_canonical_44(self):
        assert build_nested(4, 4).positions == (0, 1, 2, 3, 4, 9, 14, 19)

    def test_44_coarray(self):
        ca = difference_coarray(build_nested(4, 4))
        assert ca.udof == 39
        assert ca.g == 20

    def test_degenerate(self):
        assert build_nested(1, 1).positions == (0, 1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            build_nested(0, 3)
        with pytest.raises(ValueError):
            build_nested(3, 0)

    @pytest.mark.parametrize("n1,n2", list(itertools.product(range(1, 7), range(1, 7))))
    def test_hole_free_and_udof_formula(self, n1, n2):
        geom = build_nested(n1, n2)
        assert geom.n == n1 + n2
        assert brute_udof(geom.positions) == 2 * n2 * (n1 + 1) - 1
        assert difference_coarray(geom).udof == 2 * n2 * (n1 + 1) - 1
        # hole-free over the whole aperture
        assert brute_lags(geom.positions) >= set(range(geom.aperture + 1))


class TestSuperNested:
    def test_44_matches_parent_lag_set(self):
        sn = build_super_nested(4, 4)
        parent = build_nested(4, 4)
        assert brute_lags(sn.positions) == brute_lags(parent.positions)
        assert difference_coarray(sn).udof == 39

    def test_44_reduced_lag1_weight(self):
        sn = difference_coarray(build_super_nested(4, 4))
        parent = difference_coarray(build_nested(4, 4))
        assert sn.weights[1] < parent.weights[1]

    def test_42_cardinality(self):
        assert build_super_nested(4, 2).n == 6

    def test_rejects_out_of_regime(self):
        with pytest.raises(ValueError):
            build_super_nested(3, 4)
        with pytest.raises(ValueError):
            build_super_nested(5, 1)

    @pytest.mark.parametrize("n1,n2",
                             list(itertools.product(range(4, 13), range(2, 7))))
    def test_lag_set_equality_everywhere(self, n1, n2):
        sn = build_super_nested(n1, n2)
        parent = build_nested(n1, n2)
        assert sn.n == parent.n
        assert brute_lags(sn.positions) == brute_lags(parent.positions)
        wsn = difference_coarray(sn).weights[1]
        assert wsn < difference_coarray(parent).weights[1]
        # the rearrangement achieves weight 1 at lag 1 for odd n1, 2 for
        # even; n2 = 2 gains one extra pair where the mirror block abuts
        # the displaced outer sensor
        expected = 1 if n1 % 2 else 2
        assert wsn == expected or (n2 == 2 and wsn == expected + 1)


class TestMra:
    def test_four_sensor_layout(self):
        geom = build_mra(4)
        assert geom.positions == (0, 1, 4, 6)
        assert brute_lags(geom.positions) >= set(range(7))

    def test_four_sensor_aperture_is_maximal(self):
        # no 4-sensor layout with aperture > 6 is hole-free
        for aperture in range(7, 10):
            assert not any(
                set(range(aperture + 1)) <= brute_lags((0,) + mid + (aperture,))
                for mid in itertools.combinations(range(1, aperture), 2))

    def test_three_sensor(self):
        assert build_mra(3).positions == (0, 1, 3)

    def test_eight_sensor(self):
        ca = difference_coarray(build_mra(8))
        assert build_mra(8).aperture == 23
        assert ca.udof == 47
        assert ca.g == 24

    def test_rejects_out_of_table(self):
        with pytest.raises(ValueError):
            build_mra(2)
        with pytest.raises(ValueError):
            build_mra(11)

    @pytest.mark.parametrize("n", sorted(_MRA_TABLE))
    def test_table_hole_free(self, n):
        geom = build_mra(n)
        assert geom.n == n
        assert brute_lags(geom.positions) >= set(range(geom.aperture + 1))
        assert difference_coarray(geom).udof == 2 * geom.aperture + 1


class TestCoarrayInvariants:
    @pytest.mark.parametrize("geom", [
        build_ula(8), build_nested(4, 4), build_super_nested(4, 4),
        build_mra(8), build_nested(2, 5), build_mra(5),
    ], ids=lambda g: g.name)
    def test_symmetry_and_weights(self, geom):
        ca = difference_coarray(geom)
        for lag in ca.lags:
            assert -lag in ca.lags
            assert ca.weights[lag] == ca.weights[-lag]
        assert ca.weights[0] == geom.n
        assert ca.udof % 2 == 1
        assert ca.g == (ca.udof + 1) // 2
        assert ca.lags == tuple(sorted(brute_lags(geom.positions)))
