import copy
import dataclasses
import gc
import pickle
import time
import weakref

import pytest

from lawson import (
    AffineSpace,
    Cellular,
    CellularFiberBundle,
    Coefficients,
    Decomposition,
    FixedComponent,
    HilbertScheme,
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
    ValidationError,
    evaluate,
    parse,
    render,
    smooth_toric_betti,
    validate,
)
from lawson.dsl import MAX_DEPTH, ParseError
from lawson.varieties import _LIVE

Z = Coefficients.INTEGER
Q = Coefficients.RATIONAL


class TestValidateAtoms:
    def test_point(self):
        attrs = validate(Point())
        assert (attrs.dim, attrs.proper, attrs.coefficients) == (0, True, Z)
        assert attrs.cell_profile == (0,)
        assert attrs.toric

    def test_projective_space(self):
        attrs = validate(ProjectiveSpace(3))
        assert attrs.dim == 3 and attrs.proper
        assert attrs.cell_profile == (0, 1, 2, 3)
        assert attrs.toric

    def test_affine_space(self):
        attrs = validate(AffineSpace(2))
        assert attrs.dim == 2 and not attrs.proper
        assert attrs.cell_profile == (2,)

    def test_torus_has_no_profile(self):
        attrs = validate(Torus(2))
        assert not attrs.proper and attrs.cell_profile is None and attrs.toric

    def test_split_quadric_profile(self):
        attrs = validate(SplitQuadric(2))
        assert attrs.dim == 4 and attrs.proper
        assert attrs.cell_profile == (0, 1, 2, 2, 3, 4)
        assert not attrs.toric

    def test_singular_hypersurface_has_no_profile(self):
        attrs = validate(SingularHypersurface(3, 2))
        assert attrs.dim == 4 and attrs.proper
        assert attrs.cell_profile is None

    def test_degenerate_dimensions_rejected(self):
        for bad in (
            ProjectiveSpace(0),
            AffineSpace(0),
            Torus(0),
            SplitQuadric(0),
            SingularHypersurface(1, 2),
            SingularHypersurface(2, 0),
            HilbertScheme(1, 0),
            HilbertScheme(-1, 1),
        ):
            with pytest.raises(ValidationError):
                validate(bad)


class TestValidateToric:
    def test_smooth_projective_plane(self):
        attrs = validate(Toric((1, 3, 3)))
        assert attrs.dim == 2 and attrs.proper and attrs.toric
        assert attrs.cell_profile == (0, 1, 2)
        assert attrs.coefficients is Z

    def test_smooth_quadric_surface_fan(self):
        assert validate(Toric((1, 4, 4))).cell_profile == (0, 1, 1, 2)

    def test_zero_cone_count_must_be_one(self):
        with pytest.raises(ValidationError, match="d_0"):
            validate(Toric((2, 3, 3)))

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValidationError, match="inconsistent cone counts"):
            validate(Toric((1, 0, 5)))

    def test_simplicial_is_rational_without_profile(self):
        attrs = validate(Toric((1, 3, 3), Smoothness.SIMPLICIAL))
        assert attrs.coefficients is Q
        assert attrs.cell_profile is None
        assert attrs.toric

    def test_general_keeps_integer_tag(self):
        attrs = validate(Toric((1, 0, 5), Smoothness.GENERAL))
        assert attrs.coefficients is Z
        assert attrs.cell_profile is None


class TestSmoothToricBetti:
    def test_known_fans(self):
        assert smooth_toric_betti((1, 3, 3)) == [1, 1, 1]
        assert smooth_toric_betti((1, 4, 4)) == [1, 2, 1]
        assert smooth_toric_betti((1, 4, 6, 4)) == [1, 1, 1, 1]

    def test_blown_up_plane(self):
        assert smooth_toric_betti((1, 5, 5)) == [1, 3, 1]

    def test_negative_alternating_sum_rejected(self):
        with pytest.raises(ValidationError, match="inconsistent cone counts"):
            smooth_toric_betti((1, 0, 5))


class TestValidateConstructors:
    def test_suspension(self):
        attrs = validate(Suspension(ProjectiveSpace(1)))
        assert attrs.dim == 2 and attrs.proper
        assert attrs.cell_profile == (0, 1, 2)
        assert not attrs.toric

    def test_suspension_of_quadric_profile(self):
        attrs = validate(Suspension(SplitQuadric(1)))
        assert attrs.cell_profile == (0, 1, 2, 2, 3)

    def test_suspension_needs_projective_inner(self):
        with pytest.raises(ValidationError, match="projective"):
            validate(Suspension(AffineSpace(1)))
        with pytest.raises(ValidationError):
            validate(Suspension(Torus(2)))

    def test_product_profiles_combine_pairwise(self):
        attrs = validate(Product(ProjectiveSpace(1), ProjectiveSpace(1)))
        assert attrs.dim == 2
        assert attrs.cell_profile == (0, 1, 1, 2)
        assert attrs.toric

    def test_product_with_one_profiled_factor(self):
        attrs = validate(Product(Torus(1), ProjectiveSpace(1)))
        assert attrs.dim == 2 and not attrs.proper
        assert attrs.cell_profile is None
        assert attrs.toric

    def test_product_needs_a_cellular_factor(self):
        with pytest.raises(ValidationError, match="cell profile"):
            validate(Product(Torus(1), HilbertScheme(1, 2)))

    def test_bundle_attributes(self):
        attrs = validate(CellularFiberBundle(ProjectiveSpace(1), (0, 1)))
        assert attrs.dim == 2 and attrs.proper
        assert attrs.cell_profile == (0, 1, 1, 2)

    def test_bundle_over_profileless_base(self):
        attrs = validate(CellularFiberBundle(Torus(1), (0, 2)))
        assert attrs.dim == 3 and not attrs.proper
        assert attrs.cell_profile is None

    def test_decomposition(self):
        expr = Decomposition(
            (FixedComponent(ProjectiveSpace(2), 0), FixedComponent(Point(), 3))
        )
        attrs = validate(expr)
        assert attrs.dim == 3 and attrs.proper
        assert attrs.cell_profile == (0, 1, 2, 3)

    def test_decomposition_needs_projective_components(self):
        with pytest.raises(ValidationError, match="projective"):
            validate(Decomposition((FixedComponent(AffineSpace(1), 0),)))

    def test_decomposition_rejects_negative_shift(self):
        with pytest.raises(ValidationError):
            validate(Decomposition((FixedComponent(Point(), -1),)))

    def test_symmetric_product(self):
        attrs = validate(SymmetricProduct(ProjectiveSpace(1), 3))
        assert attrs.dim == 3
        assert attrs.coefficients is Q
        assert attrs.cell_profile is None

    def test_symmetric_product_needs_a_profile(self):
        with pytest.raises(ValidationError, match="cell profile"):
            validate(SymmetricProduct(Torus(1), 2))
        with pytest.raises(ValidationError):
            validate(SymmetricProduct(SymmetricProduct(ProjectiveSpace(1), 2), 2))

    def test_hilbert_scheme(self):
        attrs = validate(HilbertScheme(1, 2))
        assert attrs.dim == 4 and attrs.proper and attrs.coefficients is Z
        assert attrs.cell_profile is None

    def test_rational_tag_propagates(self):
        inner = SymmetricProduct(ProjectiveSpace(1), 2)
        assert validate(Suspension(inner)).coefficients is Q
        assert validate(Product(inner, Point())).coefficients is Q
        bundle = CellularFiberBundle(Toric((1, 3, 3), Smoothness.SIMPLICIAL), (0,))
        assert validate(bundle).coefficients is Q

    def test_cellular_cells_are_sorted_on_construction(self):
        assert Cellular((2, 0, 1, 1)) == Cellular((0, 1, 1, 2))
        attrs = validate(Cellular((2, 0, 1, 1)))
        assert attrs.cell_profile == (0, 1, 1, 2)
        assert attrs.dim == 2


def _suspended(expr, times):
    for _ in range(times):
        expr = Suspension(expr)
    return expr


class TestValidateWalk:
    def test_betti_counts_cells_and_cell_profile_expands_them(self):
        attrs = validate(CellularFiberBundle(Cellular((0, 2, 2)), (0, 1)))
        assert attrs.betti == (1, 1, 2, 2)
        assert attrs.cell_profile == (0, 1, 2, 2, 3, 3)

    def test_deep_python_tree_is_a_validation_error(self):
        assert validate(_suspended(Point(), MAX_DEPTH)).dim == MAX_DEPTH
        with pytest.raises(ValidationError, match=f"bound {MAX_DEPTH}"):
            validate(_suspended(Point(), 1000))

    def test_depth_through_a_shared_node_counts_its_longest_path(self):
        # x is met first at depth 1, then again under 60 more suspensions.
        x = _suspended(Point(), 150)
        expr = Product(x, _suspended(x, 60))
        with pytest.raises(ValidationError, match=f"bound {MAX_DEPTH}"):
            validate(expr)
        with pytest.raises(ParseError):
            parse(render(expr))

    def test_shared_subtrees_are_validated_once(self):
        x = Point()
        for _ in range(30):
            x = Product(x, x)
        start = time.perf_counter()
        assert validate(x).dim == 0
        assert time.perf_counter() - start < 0.05


class TestRender:
    def test_atoms(self):
        assert render(Point()) == "pt"
        assert render(ProjectiveSpace(2)) == "P(2)"
        assert render(AffineSpace(3)) == "affine(3)"
        assert render(Torus(1)) == "torus(1)"
        assert render(SplitQuadric(1)) == "quadric(1)"
        assert render(SingularHypersurface(3, 2)) == "singquadric(3,2)"

    def test_lists_and_flags(self):
        assert render(Cellular((0, 1, 1, 2))) == "cellular([0,1,1,2])"
        assert render(Toric((1, 3, 3))) == "toric([1,3,3])"
        assert render(Toric((1, 3, 3), Smoothness.GENERAL)) == "toric([1,3,3],general)"

    def test_constructors(self):
        assert render(Suspension(SplitQuadric(1))) == "susp(quadric(1))"
        assert render(Product(Point(), Torus(2))) == "prod(pt,torus(2))"
        assert (
            render(CellularFiberBundle(ProjectiveSpace(1), (0, 1)))
            == "bundle(P(1),[0,1])"
        )
        expr = Decomposition(
            (FixedComponent(ProjectiveSpace(2), 0), FixedComponent(Point(), 3))
        )
        assert render(expr) == "decomp(P(2):0, pt:3)"
        assert render(SymmetricProduct(ProjectiveSpace(1), 4)) == "sp(P(1),4)"
        assert render(HilbertScheme(1, 2)) == "hilb(1,2)"


class TestInterning:
    def test_equal_nodes_are_one_object(self):
        assert ProjectiveSpace(3) is ProjectiveSpace(3)
        assert Cellular([2, 0, 1]) is Cellular((0, 1, 2))
        assert Toric(cone_counts=[1, 3, 3]) is Toric((1, 3, 3), Smoothness.SMOOTH)

    def test_a_value_of_another_type_is_another_node(self):
        assert ProjectiveSpace(True) is not ProjectiveSpace(1)
        assert ProjectiveSpace(1.0) is not ProjectiveSpace(1)
        assert render(ProjectiveSpace(True)) == "P(True)"

    def test_copies_and_pickles_are_the_node_itself(self):
        x = Decomposition(
            (FixedComponent(Suspension(Point()), 1), FixedComponent(Toric((1, 4, 4)), 0))
        )
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x

    def test_fields_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ProjectiveSpace(2).n = 3

    def test_a_dropped_node_leaves_the_intern_table(self):
        gc.collect()
        before = len(_LIVE)
        node = Suspension(ProjectiveSpace(987_654))
        assert len(_LIVE) == before + 2
        dropped = weakref.ref(node)
        del node
        assert dropped() is None and len(_LIVE) == before

    def test_validate_rejects_what_is_not_a_node(self):
        for bad in ("x", Suspension("x")):
            with pytest.raises(TypeError, match="not a variety expression"):
                validate(bad)

    def test_validate_keeps_the_attributes_on_the_node(self):
        x = Product(ProjectiveSpace(2), Suspension(Point()))
        assert validate(x) is x.validated is validate(x)
        assert x.right.validated == validate(Suspension(Point()))

    def test_repeated_text_parses_to_a_dag(self):
        x = parse("prod(susp(P(2)),susp(P(2)))")
        assert x.left is x.right is Suspension(ProjectiveSpace(2))

    def test_towers_built_apart_are_one_object(self):
        def tower():
            x = Point()
            for _ in range(30):
                x = Product(x, x)
            return x

        start = time.perf_counter()
        a, b = tower(), tower()
        assert a is b and a == b and hash(a) == hash(b)
        assert evaluate(a) == evaluate(b)
        assert time.perf_counter() - start < 0.05
