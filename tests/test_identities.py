"""The paper's cross-route identities as properties over random expressions.

Each property draws expressions from ``astgen.random_expr`` and keeps the
first ones that evaluate, so the two routes are compared only where the
calculator gives an answer.
"""

from hypothesis import assume, given, settings, strategies as st

from lawson import (
    CellularFiberBundle,
    Coefficients,
    Product,
    UnsupportedQueryError,
    ValidationError,
    checks,
    evaluate,
    rank_at,
)

from astgen import random_expr

RANDOMS = st.randoms(use_true_random=False)
PROPERTY = settings(max_examples=100, deadline=None)


def _evaluating(rng, accept=lambda result: True):
    """The first of up to 50 random expressions that evaluates and whose
    result passes ``accept``, with that result."""
    for _ in range(50):
        expr = random_expr(rng)
        try:
            result = evaluate(expr)
        except (ValidationError, UnsupportedQueryError):
            continue
        if accept(result):
            return expr, result
    assume(False)


@PROPERTY
@given(RANDOMS)
def test_suspension_is_a_two_component_decomposition(rng):
    x, _ = _evaluating(
        rng, lambda r: r.table.proper and r.table.coefficients is Coefficients.INTEGER
    )
    assert checks.suspension_is_a_two_component_decomposition(x)


@PROPERTY
@given(RANDOMS)
def test_product_commutes(rng):
    x, _ = _evaluating(rng)
    y, _ = _evaluating(rng, lambda r: r.attributes.cell_profile is not None)
    for left, right in ((x, y), (y, x)):
        assert evaluate(Product(left, right)).table == evaluate(Product(right, left)).table


@PROPERTY
@given(RANDOMS)
def test_product_associates(rng):
    x, _ = _evaluating(rng)
    y, _ = _evaluating(rng, lambda r: r.attributes.cell_profile is not None)
    z, _ = _evaluating(rng, lambda r: r.attributes.cell_profile is not None)
    left = evaluate(Product(Product(x, y), z)).table
    assert evaluate(Product(x, Product(y, z))).table == left


@PROPERTY
@given(RANDOMS)
def test_bundle_over_a_cell_profile_is_the_product(rng):
    x, _ = _evaluating(rng)
    y, fiber = _evaluating(rng, lambda r: r.attributes.cell_profile is not None)
    bundle = evaluate(CellularFiberBundle(x, fiber.attributes.cell_profile)).table
    product = evaluate(Product(x, y)).table
    assert (bundle.dim, bundle.coefficients, bundle.ranks) == (
        product.dim,
        product.coefficients,
        product.ranks,
    )
    # The bundle is as proper as its base; the product needs both factors.
    assert product.proper == (bundle.proper and fiber.table.proper)


@PROPERTY
@given(RANDOMS)
def test_row_zero_counts_cells(rng):
    _, result = _evaluating(rng, lambda r: r.attributes.cell_profile is not None)
    assert checks.row_zero_counts_cells(result)


@PROPERTY
@given(RANDOMS)
def test_columns_are_constant_given_a_cell_profile(rng):
    _, result = _evaluating(rng, lambda r: r.attributes.cell_profile is not None)
    assert checks.columns_are_constant(result.table)


@PROPERTY
@given(RANDOMS)
def test_rank_at_reads_the_ranks_view(rng):
    _, result = _evaluating(rng)
    table = result.table
    assert list(table.ranks) == sorted(table.ranks)
    assert all(
        rank_at(table, r, k) == table.ranks.get((r, k), 0)
        for r in range(table.dim + 1)
        for k in range(2 * r, 2 * table.dim + 1)
    )
