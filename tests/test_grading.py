import pytest
from hypothesis import given, strategies as st

from lawson import (
    BiGradedTable,
    Coefficients,
    LawsonRangeError,
    binomial,
    cellular_table,
    chi_profile,
    euler_chi,
    quadric_table,
    rank_at,
    shift_and_sum,
    suspend,
    torus_table,
)

Z = Coefficients.INTEGER
Q = Coefficients.RATIONAL


def pascal_triangle(rows):
    # Independent oracle: build binomials by the addition rule alone.
    triangle = [[1]]
    for n in range(1, rows + 1):
        prev = triangle[-1]
        row = [1]
        for j in range(1, n):
            row.append(prev[j - 1] + prev[j])
        row.append(1)
        triangle.append(row)
    return triangle


class TestBinomial:
    def test_small_values(self):
        assert binomial(5, 2) == 10
        assert binomial(0, 0) == 1
        assert binomial(6, 6) == 1

    def test_out_of_range_lower_argument_is_zero(self):
        assert binomial(4, 7) == 0
        assert binomial(3, -1) == 0

    def test_negative_upper_argument_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_large_value_against_pascal_oracle(self):
        triangle = pascal_triangle(30)
        assert binomial(30, 15) == triangle[30][15] == 155117520

    @given(st.integers(0, 40), st.integers(-5, 45))
    def test_addition_rule(self, n, j):
        assert binomial(n + 1, j) == binomial(n, j) + binomial(n, j - 1)


class TestBiGradedTable:
    def test_ranks_view_holds_the_nonzero_entries(self):
        table = BiGradedTable(1, True, Z, ((1, 0, 1), (1,)))
        assert dict(table.ranks) == {(0, 0): 1, (0, 2): 1, (1, 2): 1}
        assert table == BiGradedTable(1, True, Z, [[1, 0, 1], [1]])

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ValueError, match="2 rows"):
            BiGradedTable(1, True, Z, ((1, 0, 1),))
        with pytest.raises(ValueError, match="2 rows"):
            BiGradedTable(1, True, Z, ((1, 0, 1), (1,), ()))

    def test_wrong_row_length_rejected(self):
        with pytest.raises(ValueError, match="row 0"):
            BiGradedTable(1, True, Z, ((1, 0), (1,)))  # stops short of k = 2
        with pytest.raises(ValueError, match="row 1"):
            BiGradedTable(1, True, Z, ((1, 0, 1), (0, 1)))  # reaches k = 1 < 2r

    def test_negative_ranks_rejected(self):
        with pytest.raises(ValueError):
            BiGradedTable(1, True, Z, ((-2, 0, 0), (0,)))

    def test_ranks_mapping_is_read_only(self):
        table = BiGradedTable(0, True, Z, ((1,),))
        with pytest.raises(TypeError):
            table.ranks[(0, 0)] = 5

    def test_suspension_shares_the_inner_rows(self):
        inner = quadric_table(2)
        rows = suspend(inner).rows
        assert len(rows) == len(inner.rows) + 1
        assert all(outer is row for outer, row in zip(rows[1:], inner.rows))


class TestRankAt:
    def test_point_table(self):
        pt = cellular_table((0,))
        assert rank_at(pt, 0, 0) == 1
        assert rank_at(pt, 0, 1) == 0

    def test_negative_r_falls_back_to_row_zero(self):
        pt = cellular_table((0,))
        assert rank_at(pt, -2, 0) == 1
        p2 = cellular_table((0, 1, 2))
        for k in range(5):
            assert rank_at(p2, -1, k) == rank_at(p2, 0, k)

    def test_below_lawson_range_is_an_error(self):
        pt = cellular_table((0,))
        with pytest.raises(LawsonRangeError, match="outside the Lawson range"):
            rank_at(pt, 1, 1)
        with pytest.raises(LawsonRangeError):
            rank_at(pt, 2, 3)

    def test_degrees_outside_band_are_zero(self):
        p1 = cellular_table((0, 1))
        assert rank_at(p1, 0, -1) == 0
        assert rank_at(p1, 0, 7) == 0
        assert rank_at(p1, 2, 8) == 0


@st.composite
def small_tables(draw, max_dim=3):
    dim = draw(st.integers(0, max_dim))
    rows = tuple(
        tuple(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
        for n in (2 * (dim - r) + 1 for r in range(dim + 1))
    )
    return BiGradedTable(dim, True, Coefficients.INTEGER, rows)


class TestShiftAndSum:
    def test_two_shifted_lines_give_the_quadric(self):
        p1 = cellular_table((0, 1))
        result = shift_and_sum([(p1, 0), (p1, 1)], 2, proper=True)
        assert result == quadric_table(1)
        assert dict(result.ranks) == {
            (0, 0): 1, (0, 2): 2, (0, 4): 1, (1, 2): 2, (1, 4): 1, (2, 4): 1,
        }

    def test_unshifted_point_adds_to_degree_zero(self):
        p2 = cellular_table((0, 1, 2))
        pt = cellular_table((0,))
        result = shift_and_sum([(p2, 0), (pt, 0)], 2, proper=True)
        assert rank_at(result, 0, 0) == 2
        for k in (2, 4):
            assert rank_at(result, 0, k) == rank_at(p2, 0, k)

    def test_single_summand_is_the_identity(self):
        table = quadric_table(2)
        assert shift_and_sum([(table, 0)], table.dim, proper=True) == table

    def test_mixed_coefficient_tags_rejected(self):
        integral = cellular_table((0,))
        rational = BiGradedTable(0, True, Q, ((1,),))
        with pytest.raises(ValueError, match="mixed"):
            shift_and_sum([(integral, 0), (rational, 0)], 0, proper=True)

    def test_undersized_target_rejected(self):
        p1 = cellular_table((0, 1))
        with pytest.raises(ValueError):
            shift_and_sum([(p1, 2)], 2, proper=True)

    def test_empty_summands_rejected(self):
        with pytest.raises(ValueError):
            shift_and_sum([], 0, proper=True)

    @given(
        st.lists(
            st.tuples(small_tables(), st.integers(0, 3)), min_size=1, max_size=4
        ),
        st.integers(0, 2),
        st.randoms(use_true_random=False),
    )
    def test_order_of_summands_is_irrelevant(self, summands, slack, rng):
        target = max(t.dim + s for t, s in summands) + slack
        expected = shift_and_sum(summands, target, proper=True)
        shuffled = list(summands)
        rng.shuffle(shuffled)
        assert shift_and_sum(shuffled, target, proper=True) == expected

    @given(st.lists(st.tuples(small_tables(), st.integers(0, 3)), min_size=1, max_size=3))
    def test_direct_summation_oracle(self, summands):
        # Recompute every entry with an explicit loop, conventions inlined.
        target = max(t.dim + s for t, s in summands)
        result = shift_and_sum(summands, target, proper=True)
        for r in range(target + 1):
            for k in range(2 * r, 2 * target + 1):
                expected = 0
                for table, shift in summands:
                    rr, kk = max(r - shift, 0), k - 2 * shift
                    if 0 <= kk <= 2 * table.dim:
                        expected += table.ranks.get((rr, kk), 0)
                assert result.ranks.get((r, k), 0) == expected


class TestEulerChi:
    def test_quadric_row_one(self):
        assert euler_chi(quadric_table(1), 1) == 3

    def test_projective_plane(self):
        assert euler_chi(cellular_table((0, 1, 2)), 0) == 3

    def test_torus_profile(self):
        table = torus_table(2)
        assert [euler_chi(table, p) for p in range(3)] == [0, -1, 1]
        assert chi_profile(table).values == (0, -1, 1)

    def test_row_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            euler_chi(cellular_table((0, 1)), 2)
        with pytest.raises(ValueError):
            euler_chi(cellular_table((0,)), -1)

    @given(
        st.lists(st.tuples(small_tables(), st.integers(0, 2)), min_size=1, max_size=3),
        st.integers(0, 5),
    )
    def test_additivity_over_shifted_sums(self, summands, p):
        target = max(t.dim + s for t, s in summands)
        if p > target:
            return
        total = shift_and_sum(summands, target, proper=True)
        expected = 0
        for table, shift in summands:
            row = max(p - shift, 0)
            if row <= table.dim:
                expected += euler_chi(table, row)
        assert euler_chi(total, p) == expected
