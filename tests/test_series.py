import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from lawson import (
    TruncatedBiSeries,
    cheah_series,
    geometric_factor,
    macdonald_series,
    one,
    series_mul,
)
from lawson.series import geometric_product


class TestTruncatedBiSeries:
    def test_zero_coefficients_dropped(self):
        series = TruncatedBiSeries(2, 2, {(0, 0): 1, (1, 1): 0})
        assert (1, 1) not in series.coefficients

    def test_out_of_box_monomials_rejected(self):
        with pytest.raises(ValueError):
            TruncatedBiSeries(2, 2, {(3, 0): 1})

    def test_coefficient_query_outside_box_rejected(self):
        series = one(2, 2)
        with pytest.raises(ValueError):
            series.coefficient(0, 3)

    def test_t_row(self):
        series = TruncatedBiSeries(3, 1, {(0, 1): 1, (2, 1): 5})
        assert series.t_row(1) == (1, 0, 5, 0)


class TestSeriesMul:
    def test_telescoping(self):
        # (1/(1-t)) * (1-t) == 1 inside the box; the t^6 spillover is cut.
        geometric = geometric_factor(0, 1, 1, 0, 5)
        linear = TruncatedBiSeries(0, 5, {(0, 0): 1, (0, 1): -1})
        assert series_mul(geometric, linear) == one(0, 5)

    def test_truncation_discards_overflow(self):
        z = TruncatedBiSeries(1, 1, {(1, 0): 1})
        assert series_mul(z, z) == TruncatedBiSeries(1, 1, {})

    def test_mismatched_boxes_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            series_mul(one(1, 1), one(1, 2))

    def test_simple_product(self):
        a = TruncatedBiSeries(2, 2, {(0, 0): 1, (1, 1): 2})
        b = TruncatedBiSeries(2, 2, {(0, 0): 3, (1, 0): 1})
        product = series_mul(a, b)
        assert product.coefficient(0, 0) == 3
        assert product.coefficient(1, 0) == 1
        assert product.coefficient(1, 1) == 6
        assert product.coefficient(2, 1) == 2


def random_series(max_z=3, max_t=3):
    keys = [(a, b) for a in range(max_z + 1) for b in range(max_t + 1)]
    return st.builds(
        lambda values: TruncatedBiSeries(
            max_z, max_t, {k: v for k, v in zip(keys, values)}
        ),
        st.lists(st.integers(-4, 4), min_size=len(keys), max_size=len(keys)),
    )


class TestSeriesAlgebra:
    @given(random_series(), random_series())
    def test_commutative(self, a, b):
        assert series_mul(a, b) == series_mul(b, a)

    @given(random_series(2, 2), random_series(2, 2), random_series(2, 2))
    def test_associative(self, a, b, c):
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))

    @given(random_series())
    def test_one_is_neutral(self, a):
        assert series_mul(a, one(a.max_z, a.max_t)) == a


class TestGeometricFactor:
    def test_pure_t_double_pole(self):
        # 1/(1-t)^2 = 1 + 2t + 3t^2 + ...
        series = geometric_factor(0, 1, 2, 0, 4)
        assert series.t_row(0) == (1,)
        assert [series.coefficient(0, j) for j in range(5)] == [1, 2, 3, 4, 5]

    def test_double_pole_against_convolution_oracle(self):
        # Square 1/(1-t) by explicit convolution and compare.
        bound = 6
        single = [1] * (bound + 1)
        squared = [
            sum(single[i] * single[j - i] for i in range(j + 1))
            for j in range(bound + 1)
        ]
        series = geometric_factor(0, 1, 2, 0, bound)
        assert [series.coefficient(0, j) for j in range(bound + 1)] == squared

    def test_mixed_exponents(self):
        series = geometric_factor(2, 1, 1, 6, 3)
        assert series.coefficient(0, 0) == 1
        assert series.coefficient(2, 1) == 1
        assert series.coefficient(4, 2) == 1
        assert series.coefficient(6, 3) == 1
        assert series.coefficient(2, 2) == 0

    def test_multiplicity_zero_is_one(self):
        assert geometric_factor(2, 1, 0, 4, 4) == one(4, 4)

    def test_zero_t_exponent_rejected(self):
        with pytest.raises(ValueError):
            geometric_factor(2, 0, 1, 4, 4)


class TestCheahSeries:
    def test_single_point_row(self):
        series = cheah_series(1, 1)
        assert series.t_row(1) == (1, 0, 1, 0, 1)

    def test_two_point_row_on_the_plane(self):
        series = cheah_series(1, 2)
        row = series.t_row(2)
        assert [row[k] for k in range(0, 9, 2)] == [1, 2, 3, 2, 1]
        assert all(row[k] == 0 for k in range(1, 9, 2))

    def test_middle_betti_zero(self):
        series = cheah_series(0, 1)
        assert series.t_row(1) == (1, 0, 0, 0, 1)

    def test_unit_constant_term(self):
        assert cheah_series(2, 3).t_row(0) == (1,) + (0,) * 12

    def test_truncation_stability(self):
        # Enlarging the box must not disturb earlier coefficients.
        small = cheah_series(1, 2)
        large = cheah_series(1, 3)
        for d in range(3):
            for k in range(9):
                assert small.coefficient(k, d) == large.coefficient(k, d)

    def test_coefficients_nonnegative(self):
        series = cheah_series(2, 4)
        assert all(value >= 0 for value in series.coefficients.values())

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            cheah_series(-1, 2)
        with pytest.raises(ValueError):
            cheah_series(1, 0)


class TestMacdonaldSeries:
    def test_line_rows_are_flat(self):
        series = macdonald_series([1, 1], 3)
        for d in range(1, 4):
            row = series.t_row(d)
            for k in range(2 * 3 + 1):
                expected = 1 if k % 2 == 0 and k <= 2 * d else 0
                assert row[k] == expected

    def test_point_rows(self):
        series = macdonald_series([1], 5)
        assert all(series.coefficient(0, d) == 1 for d in range(6))
        assert series.max_z == 0

    def test_quadric_surface_square(self):
        series = macdonald_series([1, 2, 1], 2)
        row = series.t_row(2)
        assert [row[k] for k in range(0, 9, 2)] == [1, 2, 4, 2, 1]

    def test_profile_without_a_zero_cell(self):
        # b_0 = 0 is allowed: one 1-cell gives a single class z^(2d) t^d.
        series = macdonald_series([0, 1], 2)
        assert [series.t_row(d) for d in range(3)] == [
            (1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1),
        ]

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            macdonald_series([], 2)
        with pytest.raises(ValueError):
            macdonald_series([0, 0], 2)
        with pytest.raises(ValueError):
            macdonald_series([1, -1], 2)
        with pytest.raises(ValueError):
            macdonald_series([1, 1], 0)


class TestGeometricProduct:
    # Factors (a, b, m) of (1 - z^(2a) t^b)^(-m): multiplicities up to 12 make
    # the kernel take both its pass form and its scatter form.
    factors = st.lists(
        st.tuples(st.integers(0, 4), st.integers(1, 4), st.integers(0, 12)), max_size=5
    )

    @settings(max_examples=150, deadline=None)
    @given(factors, st.integers(1, 6), st.integers(0, 7))
    def test_matches_the_product_of_geometric_factors(self, factors, half_width, max_t):
        max_z = 2 * half_width - 2
        expected = one(max_z, max_t)
        for a, b, m in factors:
            expected = series_mul(expected, geometric_factor(2 * a, b, m, max_z, max_t))
        grid = geometric_product(factors, half_width, max_t)
        assert [expected.t_row(t)[::2] for t in range(max_t + 1)] == [
            tuple(row) for row in grid
        ]

    def test_a_large_multiplicity_on_a_sparse_grid_is_one_scatter(self):
        # 7,500 passes over 7,500 rows take about a minute; the scatter from
        # the one nonzero row is linear in d.
        start = time.perf_counter()
        series = macdonald_series([7500], 7500)
        assert time.perf_counter() - start < 2
        assert series.coefficient(0, 7500) == math.comb(14999, 7500)
