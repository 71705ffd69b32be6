"""Validated attributes against an independent oracle.

``bench/queries.py`` derives dimension, properness, coefficient tag, Betti
count vector and toric flag with its own arithmetic and never imports
lawson.  A small converter maps lawson expressions to its tuples, so random
trees can be checked against it: both sides agree, or both reject.
"""

import dataclasses
import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

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
    parse,
    validate,
)
from lawson.cli import run

_PATH = Path(__file__).resolve().parents[1] / "bench" / "queries.py"
_SPEC = importlib.util.spec_from_file_location("bench_queries", _PATH)
queries = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = queries
_SPEC.loader.exec_module(queries)


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
