import random
import time

import pytest

from lawson import (
    AffineSpace,
    BiGradedTable,
    CHECK_SUITES,
    Cellular,
    CellularFiberBundle,
    Coefficients,
    Decomposition,
    FixedComponent,
    HilbertScheme,
    LawsonRangeError,
    Point,
    Product,
    ProjectiveSpace,
    SingularHypersurface,
    Smoothness,
    SplitQuadric,
    Suspension,
    SymmetricProduct,
    Toric,
    Torus,
    UnsupportedQueryError,
    ValidationError,
    VarietyAttributes,
    cellular_table,
    chi_profile,
    chi_toric,
    chi_torus,
    cstar_product,
    decompose,
    euler_chi,
    euler_profile,
    evaluate,
    fiber_bundle_table,
    higher_chow,
    hilb_table,
    parse,
    quadric_table,
    rank_at,
    render,
    run_checks,
    sp_table,
    suspend,
    toric_smooth_table,
    torus_table,
    validate,
)
from lawson.checks import IDENTITIES

from astgen import random_expr

Z = Coefficients.INTEGER
Q = Coefficients.RATIONAL


def ranks(table: BiGradedTable) -> dict:
    return dict(table.ranks)


class TestCellularTable:
    def test_projective_plane(self):
        table = cellular_table((0, 1, 2))
        assert ranks(table) == {
            (0, 0): 1,
            (0, 2): 1,
            (1, 2): 1,
            (0, 4): 1,
            (1, 4): 1,
            (2, 4): 1,
        }
        assert table.dim == 2 and table.proper

    def test_repeated_cells_add(self):
        table = cellular_table((0, 1, 1, 2))
        assert rank_at(table, 0, 2) == 2
        assert rank_at(table, 1, 2) == 2

    def test_affine_is_a_single_shifted_cell(self):
        table = cellular_table((2,), proper=False)
        assert ranks(table) == {(0, 4): 1, (1, 4): 1, (2, 4): 1}
        assert not table.proper

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            cellular_table(())
        with pytest.raises(ValueError):
            cellular_table((0, -1))


class TestTorusTable:
    def test_one_dimensional(self):
        assert ranks(torus_table(1)) == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    def test_two_dimensional(self):
        assert ranks(torus_table(2)) == {
            (0, 2): 1,
            (0, 3): 2,
            (0, 4): 1,
            (1, 3): 2,
            (1, 4): 1,
            (2, 4): 1,
        }

    def test_matches_iterated_splitting(self):
        # Independent oracle: split off one C* factor at a time, starting
        # from the point, using only the two-term recursion.
        def by_recursion(n):
            values = {(0, 0): 1}

            def at(r, k, dim):
                if r < 0:
                    r = 0
                if k < 0 or k > 2 * dim:
                    return 0
                return values.get((r, k), 0)

            for dim in range(1, n + 1):
                new = {}
                for r in range(dim + 1):
                    for k in range(2 * r, 2 * dim + 1):
                        total = at(r - 1, k - 2, dim - 1)
                        if k - 1 >= 2 * r:
                            total += at(r, k - 1, dim - 1)
                        if total:
                            new[(r, k)] = total
                values = new
            return values

        for n in range(1, 7):
            assert ranks(torus_table(n)) == by_recursion(n)

    def test_not_proper(self):
        assert not torus_table(3).proper

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            torus_table(0)


class TestCstarProduct:
    def test_point_gives_the_torus_line(self):
        assert cstar_product(cellular_table((0,))) == torus_table(1)

    def test_projective_line_factor(self):
        table = cstar_product(cellular_table((0, 1)))
        assert table.dim == 2 and not table.proper
        assert rank_at(table, 0, 1) == 1
        assert rank_at(table, 0, 2) == 1
        # The second splitting term sits below the range at k = 2r and
        # contributes nothing there.
        assert rank_at(table, 1, 2) == 1
        assert rank_at(table, 2, 4) == 1

    def test_requires_projective_input(self):
        with pytest.raises(ValueError, match="projective"):
            cstar_product(torus_table(1))


class TestSuspend:
    def test_point_to_line(self):
        assert suspend(cellular_table((0,))) == cellular_table((0, 1))

    def test_line_to_plane(self):
        assert suspend(cellular_table((0, 1))) == cellular_table((0, 1, 2))

    def test_degree_one_always_vanishes(self):
        table = suspend(quadric_table(1))
        assert rank_at(table, 0, 1) == 0
        assert rank_at(table, 1, 2) == 1

    def test_row_shift(self):
        inner = quadric_table(1)
        table = suspend(inner)
        for r in range(1, table.dim + 1):
            for k in range(2 * r, 2 * table.dim + 1):
                assert rank_at(table, r, k) == rank_at(inner, r - 1, k - 2)

    def test_requires_projective_integer_input(self):
        with pytest.raises(ValueError, match="projective"):
            suspend(torus_table(1))
        with pytest.raises(ValueError, match="integer"):
            suspend(sp_table((0, 1), 2))


class TestDecompose:
    def test_two_projective_spaces_make_a_quadric(self):
        for d in range(1, 4):
            parts = (
                FixedComponent(ProjectiveSpace(d), 0),
                FixedComponent(ProjectiveSpace(d), d),
            )
            assert decompose(parts) == quadric_table(d)

    def test_single_component_with_shift(self):
        table = decompose((FixedComponent(Point(), 2),))
        assert table.dim == 2
        assert ranks(table) == {(0, 4): 1, (1, 4): 1, (2, 4): 1}
        assert table.proper

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decompose(())

    def test_non_projective_component_rejected(self):
        with pytest.raises(ValidationError, match="projective"):
            decompose((FixedComponent(AffineSpace(1), 0),))

    def test_rational_component_rejected(self):
        with pytest.raises(UnsupportedQueryError, match="integer"):
            decompose((FixedComponent(SymmetricProduct(ProjectiveSpace(1), 2), 0),))

    def test_negative_shift_rejected(self):
        with pytest.raises(ValidationError):
            decompose((FixedComponent(Point(), -1),))


class TestFiberBundleTable:
    def test_line_bundle_over_line_is_the_quadric_surface(self):
        base = cellular_table((0, 1))
        assert fiber_bundle_table(base, (0, 1)) == quadric_table(1)

    def test_base_properness_carries_over(self):
        table = fiber_bundle_table(torus_table(1), (0, 1))
        assert not table.proper
        assert table.dim == 2

    def test_point_fiber_is_identity(self):
        base = cellular_table((0, 1, 2))
        assert fiber_bundle_table(base, (0,)) == base

    def test_bad_fibers(self):
        base = cellular_table((0,))
        with pytest.raises(ValueError):
            fiber_bundle_table(base, ())
        with pytest.raises(ValueError):
            fiber_bundle_table(base, (-1,))


class TestQuadricTable:
    def test_surface(self):
        assert ranks(quadric_table(1)) == {
            (0, 0): 1,
            (0, 2): 2,
            (1, 2): 2,
            (0, 4): 1,
            (1, 4): 1,
            (2, 4): 1,
        }

    def test_middle_rank_two_elsewhere_one(self):
        for d in range(1, 5):
            table = quadric_table(d)
            assert table.dim == 2 * d
            for k in range(0, 4 * d + 1, 2):
                expected = 2 if k == 2 * d else 1
                for r in range(k // 2 + 1):
                    assert rank_at(table, r, k) == expected

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            quadric_table(0)


class TestToricSmoothTable:
    def test_plane_fan(self):
        assert toric_smooth_table((1, 3, 3)) == cellular_table((0, 1, 2))

    def test_quadric_fan(self):
        assert toric_smooth_table((1, 4, 4)) == quadric_table(1)

    def test_threefold_fan(self):
        assert toric_smooth_table((1, 4, 6, 4)) == cellular_table((0, 1, 2, 3))

    def test_inconsistent_counts(self):
        with pytest.raises(ValidationError, match="inconsistent cone counts"):
            toric_smooth_table((1, 0, 5))

    def test_bad_zero_count(self):
        with pytest.raises(ValidationError, match="d_0"):
            toric_smooth_table((2, 3, 3))


class TestHilbTable:
    def test_one_point_is_the_surface(self):
        assert hilb_table(1, 1) == cellular_table((0, 1, 2))
        assert hilb_table(3, 1) == cellular_table((0, 1, 1, 1, 2))

    def test_two_points_row(self):
        table = hilb_table(1, 2)
        assert table.dim == 4
        row = [rank_at(table, 0, k) for k in range(0, 9)]
        assert row == [1, 0, 2, 0, 3, 0, 2, 0, 1]

    def test_three_points_middle_rank(self):
        assert rank_at(hilb_table(1, 3), 0, 4) == 5

    def test_column_constancy(self):
        table = hilb_table(2, 2)
        for (r, k), value in table.ranks.items():
            assert value == rank_at(table, 0, k)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            hilb_table(1, 0)
        with pytest.raises(ValueError):
            hilb_table(-1, 1)


class TestSpTable:
    def test_powers_of_the_line_are_projective_spaces(self):
        for d in range(1, 6):
            assert ranks(sp_table((0, 1), d)) == ranks(cellular_table(range(d + 1)))

    def test_square_of_the_quadric_surface(self):
        table = sp_table((0, 1, 1, 2), 2)
        assert table.dim == 4
        row = [rank_at(table, 0, k) for k in range(0, 9, 2)]
        assert row == [1, 2, 4, 2, 1]

    def test_rational_tag_and_properness(self):
        assert sp_table((0, 1), 2).coefficients is Q
        assert sp_table((0, 1), 2).proper
        assert not sp_table((1,), 2, proper=False).proper

    def test_powers_of_the_point(self):
        for d in (1, 3, 5):
            assert ranks(sp_table((0,), d)) == {(0, 0): 1}

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            sp_table((), 2)
        with pytest.raises(ValueError):
            sp_table((0, 1), 0)
        with pytest.raises(ValueError):
            sp_table((-1,), 2)


class TestEvaluate:
    def test_result_shape(self):
        result = evaluate(SplitQuadric(1))
        assert result.expr_text == "quadric(1)"
        assert result.attributes == validate(SplitQuadric(1))
        assert result.table == quadric_table(1)

    def test_atoms(self):
        assert evaluate(Point()).table == cellular_table((0,))
        assert evaluate(ProjectiveSpace(3)).table == cellular_table((0, 1, 2, 3))
        assert evaluate(AffineSpace(2)).table == cellular_table((2,), proper=False)
        assert evaluate(Torus(2)).table == torus_table(2)
        assert evaluate(Cellular((0, 1, 1, 2))).table == cellular_table((0, 1, 1, 2))
        assert evaluate(Toric((1, 4, 4))).table == quadric_table(1)
        assert evaluate(HilbertScheme(1, 2)).table == hilb_table(1, 2)

    def test_singular_hypersurface_shares_the_quadric_table(self):
        assert evaluate(SingularHypersurface(3, 2)).table == quadric_table(2)

    def test_product_is_symmetric_in_its_table(self):
        left = evaluate(Product(Torus(1), ProjectiveSpace(1))).table
        right = evaluate(Product(ProjectiveSpace(1), Torus(1))).table
        assert left == right
        assert left == cstar_product(cellular_table((0, 1)))

    def test_product_of_lines(self):
        table = evaluate(Product(ProjectiveSpace(1), ProjectiveSpace(1))).table
        assert table == quadric_table(1)

    def test_suspension_chain(self):
        expr = Suspension(Suspension(Point()))
        assert evaluate(expr).table == cellular_table((0, 1, 2))

    def test_symmetric_product_uses_the_inner_profile(self):
        result = evaluate(SymmetricProduct(Cellular((0, 1, 1, 2)), 2))
        assert result.table == sp_table((0, 1, 1, 2), 2)
        assert result.attributes.coefficients is Q

    def test_simplicial_toric_full_table_is_unsupported(self):
        with pytest.raises(UnsupportedQueryError, match="chi"):
            evaluate(Toric((1, 3, 3), Smoothness.SIMPLICIAL))
        with pytest.raises(UnsupportedQueryError):
            evaluate(Toric((1, 0, 5), Smoothness.GENERAL))

    def test_rational_suspension_is_unsupported(self):
        expr = Suspension(SymmetricProduct(ProjectiveSpace(1), 2))
        assert validate(expr).proper
        with pytest.raises(UnsupportedQueryError, match="suspension"):
            evaluate(expr)

    def test_validation_still_runs_first(self):
        with pytest.raises(ValidationError):
            evaluate(ProjectiveSpace(0))

    def test_shared_subtrees_build_fast_and_render_lazily(self):
        x = Point()
        for _ in range(30):
            x = Product(x, x)
        start = time.perf_counter()
        result = evaluate(x)
        assert time.perf_counter() - start < 0.05
        assert result.table == cellular_table((0,))
        small = Product(Product(Point(), Point()), Point())
        small = Product(small, small)
        assert evaluate(small).expr_text == render(small)

    def test_random_expressions_evaluate_deterministically(self):
        rng = random.Random(7)
        seen = 0
        for _ in range(120):
            expr = random_expr(rng)
            try:
                first = evaluate(expr)
            except (ValidationError, UnsupportedQueryError):
                continue
            seen += 1
            again = evaluate(expr)
            assert again.table == first.table
            assert first.expr_text == render(expr)
            attrs = first.attributes
            assert first.table.dim == attrs.dim
            if attrs.cell_profile is not None:
                for m in range(attrs.dim + 1):
                    count = sum(1 for c in attrs.cell_profile if c == m)
                    assert rank_at(first.table, 0, 2 * m) == count
        assert seen >= 40


class TestSinglePass:
    @pytest.mark.parametrize(
        "text",
        [
            "prod(toric([1,3,3],simplicial),P(0))",
            "decomp(susp(sp(P(1),2)):0,affine(1):0)",
            "prod(susp(sp(P(1),2)),P(0))",
        ],
    )
    def test_validation_error_beats_an_unsupported_subtree(self, text):
        # Each tree also holds a subtree whose table is unsupported; the
        # whole tree is validated before any table is built.
        with pytest.raises(ValidationError):
            evaluate(parse(text))

    def test_attributes_are_derived_once_per_node(self, monkeypatch):
        built = []
        init = VarietyAttributes.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(VarietyAttributes, "__init__", counting)
        result = evaluate(parse("susp(" * 150 + "pt" + ")" * 150))
        assert result.table.dim == 150
        assert len(built) <= 151


class TestChiFormulas:
    def test_torus_values(self):
        assert chi_torus(0, 0) == 1
        assert [chi_torus(1, p) for p in range(2)] == [0, 1]
        assert [chi_torus(2, p) for p in range(3)] == [0, -1, 1]
        assert [chi_torus(3, p) for p in range(4)] == [0, 1, -2, 1]

    def test_torus_matches_table(self):
        for n in range(1, 6):
            table = torus_table(n)
            for p in range(n + 1):
                assert chi_torus(n, p) == euler_chi(table, p)

    def test_torus_bad_inputs(self):
        with pytest.raises(ValueError):
            chi_torus(-1, 0)
        with pytest.raises(ValueError):
            chi_torus(2, 3)

    def test_toric_plane(self):
        assert [chi_toric((1, 3, 3), p) for p in range(3)] == [3, 2, 1]

    def test_toric_chi0_counts_top_cones(self):
        for counts in ((1, 3, 3), (1, 4, 4), (1, 4, 6, 4), (1, 7, 7)):
            assert chi_toric(counts, 0) == counts[-1]

    def test_toric_matches_smooth_table(self):
        for counts in ((1, 3, 3), (1, 4, 4), (1, 4, 6, 4)):
            table = toric_smooth_table(counts)
            for p in range(len(counts)):
                assert chi_toric(counts, p) == euler_chi(table, p)

    def test_toric_ignores_smoothness(self):
        # The orbit formula sees only the cone counts, so a simplicial
        # reading of the same counts gives the same profile.
        assert chi_toric((1, 0, 5), 0) == 5

    def test_toric_bad_inputs(self):
        with pytest.raises(ValidationError):
            chi_toric((), 0)
        with pytest.raises(ValidationError):
            chi_toric((2, 3, 3), 0)
        with pytest.raises(ValueError):
            chi_toric((1, 3, 3), 5)


class TestEulerProfile:
    def test_projective_plane(self):
        assert euler_profile(ProjectiveSpace(2)).values == (3, 2, 1)

    def test_matches_chi_profile_when_a_table_exists(self):
        for expr in (SplitQuadric(1), Torus(2), Cellular((0, 1, 1, 2))):
            assert euler_profile(expr) == chi_profile(evaluate(expr).table)

    def test_simplicial_toric_profile_is_computable(self):
        profile = euler_profile(Toric((1, 3, 3), Smoothness.SIMPLICIAL))
        assert profile.values == (3, 2, 1)

    def test_general_toric_profile_is_computable(self):
        profile = euler_profile(Toric((1, 0, 5), Smoothness.GENERAL))
        assert profile.values[0] == 5


class TestHigherChow:
    def test_torus_values(self):
        assert higher_chow(Torus(2), 0, 3) == 2
        assert higher_chow(Torus(2), 0, 2) == 1
        assert higher_chow(Torus(1), 1, 0) == 1
        assert higher_chow(Torus(1), 1, 1) == 0

    def test_aliases_the_table(self):
        for expr in (Torus(3), ProjectiveSpace(2), Toric((1, 3, 3))):
            table = evaluate(expr).table
            for r in range(table.dim + 1):
                for m in range(2 * table.dim + 1):
                    assert higher_chow(expr, r, m) == rank_at(table, r, 2 * r + m)

    def test_non_toric_is_unsupported(self):
        with pytest.raises(UnsupportedQueryError, match="toric"):
            higher_chow(SplitQuadric(1), 0, 0)
        with pytest.raises(UnsupportedQueryError):
            higher_chow(HilbertScheme(1, 1), 0, 0)

    def test_toric_composites_qualify(self):
        expr = Product(Torus(1), ProjectiveSpace(1))
        assert higher_chow(expr, 0, 1) == 1

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            higher_chow(Torus(1), -1, 0)
        with pytest.raises(ValueError):
            higher_chow(Torus(1), 0, -1)


class TestRunChecks:
    @pytest.mark.parametrize(
        "identity", IDENTITIES, ids=[identity.name for identity in IDENTITIES]
    )
    def test_all_pass(self, identity):
        assert identity.result().passed

    def test_named_suites(self):
        total = 0
        for suite in CHECK_SUITES[1:]:
            results = run_checks(suite)
            total += len(results)
            assert results
            assert all(result.passed for result in results)
            assert all(result.name and result.instances for result in results)
        # "all" adds the cross-cutting properties on top of the named suites.
        assert len(run_checks("all")) == total + 4 == len(IDENTITIES) == 20

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown check suite"):
            run_checks("spectra")

    def test_deterministic(self):
        assert run_checks("toric") == run_checks("toric")


class TestLawsonRangeThroughEngine:
    def test_rank_queries_outside_the_range(self):
        table = evaluate(ProjectiveSpace(2)).table
        with pytest.raises(LawsonRangeError):
            rank_at(table, 1, 1)
        assert rank_at(table, -2, 4) == rank_at(table, 0, 4) == 1
