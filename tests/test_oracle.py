"""Validated attributes and series rows against an independent oracle.

``bench/queries.py`` derives dimension, properness, coefficient tag, Betti
count vector and toric flag with its own arithmetic and never imports
lawson.  A small converter maps lawson expressions to its tuples, so random
trees can be checked against it: both sides agree, or both reject.
``bench/reference.py`` expands the Cheah product and counts cell multisets
on its own dense grids; the ``hilb`` and ``sp`` tables must read the same.
"""

import dataclasses
import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from astgen import random_expr
from lawson import (
    CellularFiberBundle,
    Coefficients,
    Decomposition,
    Product,
    Smoothness,
    Suspension,
    SymmetricProduct,
    Toric,
    ValidationError,
    hilb_table,
    parse,
    sp_table,
    validate,
)
from lawson.cli import run

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    # Under its own name, since the bench modules import each other so.
    spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


queries = _load("queries")
_load("answers")
reference = _load("reference")


def to_tuple(e) -> tuple:
    """The benchmark's tuple for a lawson expression.  A smooth toric carries
    its alternating-sum Betti numbers; a negative one raises ValueError, as
    the calculator rejects such counts."""
    if isinstance(e, Toric):
        counts, n = e.cone_counts, len(e.cone_counts) - 1
        betti = tuple(
            sum((-1) ** (i - m) * math.comb(i, m) * counts[n - i] for i in range(m, n + 1))
            for m in range(n + 1)
        )
        if e.smoothness is Smoothness.SMOOTH and min(betti) < 0:
            raise ValueError("no fan has these cone counts")
        return ("toric", counts, e.smoothness.value, betti)
    if isinstance(e, Suspension):
        return ("susp", to_tuple(e.inner))
    if isinstance(e, Product):
        return ("prod", to_tuple(e.left), to_tuple(e.right))
    if isinstance(e, CellularFiberBundle):
        return ("bundle", to_tuple(e.base), e.fiber_cells)
    if isinstance(e, Decomposition):
        return ("decomp", tuple((to_tuple(c.component), c.shift) for c in e.components))
    if isinstance(e, SymmetricProduct):
        return ("sp", to_tuple(e.inner), e.d)
    # The atoms share their keywords and argument order with the tuples.
    return (e.keyword,) + dataclasses.astuple(e)


def lawson_view(e):
    try:
        a = validate(e)
    except ValidationError:
        return "rejected"
    return (a.dim, a.proper, a.coefficients is Coefficients.RATIONAL, a.betti, a.toric)


def oracle_view(e):
    try:
        a = queries.attrs(to_tuple(e))
    except ValueError:
        return "rejected"
    return (a.dim, a.proper, a.rational, a.profile, a.toric)


def test_attributes_match_the_oracle_on_random_trees():
    rng = random.Random(2009)
    outcomes = [lawson_view(e) == oracle_view(e) for e in (random_expr(rng) for _ in range(2000))]
    assert all(outcomes), outcomes.index(False)


DOUBLING = "P(3)"
for _ in range(4):
    DOUBLING = f"prod({DOUBLING},{DOUBLING})"
BUNDLE_CHAIN = "bundle(susp(" * 30 + "pt" + "),[0,1])" * 30


@pytest.mark.parametrize("text", [DOUBLING, BUNDLE_CHAIN])
def test_exponential_cell_counts_stay_cheap(text):
    expr = parse(text)
    assert lawson_view(expr) == oracle_view(expr)


def test_prod_doubling_answers_chi(capsys):
    assert len(DOUBLING) == 169
    assert run(["chi", DOUBLING, "--p", "0"]) == 0
    assert capsys.readouterr().out == f"{4 ** 16}\n"


def test_bundle_chain_evaluates(capsys):
    assert run(["eval", BUNDLE_CHAIN]) == 0
    assert "dim: 60\n" in capsys.readouterr().out


def constant_columns(column) -> tuple:
    # Rows of a table whose degree-k rank is column[k] on every row r <= k/2.
    column = tuple(column)
    return tuple(column[2 * r :] for r in range((len(column) - 1) // 2 + 1))


@pytest.mark.parametrize("b2", range(25))
def test_hilb_rows_match_the_reference_grid(b2):
    for d in range(1, 13):
        assert hilb_table(b2, d).rows == constant_columns(reference.cheah_grid(b2, d)[d])


@pytest.mark.parametrize("b2", [0, 1, 24])
def test_hilb_rows_match_the_reference_grid_at_forty_points(b2):
    assert hilb_table(b2, 40).rows == constant_columns(reference.cheah_grid(b2, 40)[40])


def even_degrees(counts) -> list:
    column = [0] * (2 * len(counts) - 1)
    column[::2] = counts
    return column


# Betti count vectors b_0..b_n with b_n > 0, so that n is the top cell dimension.
betti_lists = st.tuples(
    st.lists(st.integers(0, 4), max_size=4), st.integers(1, 4)
).map(lambda pair: pair[0] + [pair[1]])


@settings(max_examples=150, deadline=None)
@given(betti_lists, st.integers(1, 6))
def test_sp_rows_match_the_reference_multiset_counts(betti, d):
    cells = [m for m, many in enumerate(betti) for _ in range(many)]
    expected = even_degrees(reference.multiset_counts(betti, d)[d])
    assert sp_table(cells, d).rows == constant_columns(expected)
