"""Evaluation engine: from variety expressions to rank tables.

Each constructor in :mod:`lawson.varieties` has a table builder here that
implements the corresponding structure theorem:

* cellular varieties (point, projective space, affine space, explicit cell
  lists, smooth toric varieties, Hilbert schemes of points on surfaces) have
  rank tables that are constant down each column, equal to the cell counts
  or to generating-function coefficients;
* the torus has a closed-form table, reproducible by iterating the two-term
  splitting for a product with the punctured affine line;
* suspensions shift the table down one cycle dimension and two degrees;
* products with a cellular factor, cellular fiber bundles, and
  fixed-component decompositions are shifted direct sums;
* symmetric products specialize to rational coefficients through the
  MacDonald product.

The table rule of each node class is its entry in ``_BUILD``; the classes
themselves, with their syntax and attribute rules, live in
:mod:`lawson.varieties`.  :func:`evaluate` validates the whole tree once and
then builds the tables in one walk over the attributes kept on the nodes,
building a subtree that several parents share at most twice.  Euler profiles
and higher Chow ranks are read off the same tables, or off the cone counts.

The split quadric deliberately has two independent routes: a closed form
here, and its fixed-component decomposition into two projective spaces.
:mod:`lawson.checks` replays those dual routes (and the other cross-checks)
as the built-in oracle suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Iterable, Optional, Sequence

from .grading import (
    BiGradedTable,
    ChiProfile,
    Coefficients,
    binomial,
    chi_profile,
    rank_at,
    shift_and_sum,
)
from .series import cheah_rows, macdonald_rows
from .varieties import (
    AffineSpace,
    Cellular,
    CellularFiberBundle,
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
    VarietyAttributes,
    VarietyExpr,
    cell_counts,
    check_cone_counts,
    render,
    smooth_toric_betti,
    validate,
)


class UnsupportedQueryError(ValueError):
    """A valid expression whose requested answer is beyond the known theorems."""


@dataclass(frozen=True)
class EvaluationResult:
    """A fully evaluated expression: the expression, its attributes, and its
    table.  ``expr_text``, the canonical text, is rendered on first use."""

    expr: VarietyExpr
    attributes: VarietyAttributes
    table: BiGradedTable

    def __post_init__(self) -> None:
        a, t = self.attributes, self.table
        if (t.dim, t.proper, t.coefficients) != (a.dim, a.proper, a.coefficients):
            raise ValueError(
                "evaluation produced a table inconsistent with the validated attributes"
            )

    @cached_property
    def expr_text(self) -> str:
        return render(self.expr)


# ---------------------------------------------------------------------------
# table builders


def _constant_columns(
    column: tuple[int, ...], proper: bool, coefficients: Coefficients
) -> BiGradedTable:
    # The shape a cell decomposition gives: column[k], the degree-k rank for
    # k = 0..2*dim, repeats on every row r with 2r <= k.
    dim = (len(column) - 1) // 2
    rows = tuple(column[2 * r :] for r in range(dim + 1))
    return BiGradedTable(dim, proper, coefficients, rows)


def _even_degrees(counts: Sequence[int]) -> tuple[int, ...]:
    # Column of a space with counts[m] classes in degree 2m and none in odd
    # degrees.
    column = [0] * (2 * len(counts) - 1)
    column[::2] = counts
    return tuple(column)


def cellular_table(cells: Iterable[int], proper: bool = True) -> BiGradedTable:
    """Table of a variety with cells of the given dimensions: every group in
    degree k = 2m has rank equal to the number of m-cells, independent of r."""
    return _constant_columns(_even_degrees(cell_counts(cells)), proper, Coefficients.INTEGER)


def torus_table(n: int) -> BiGradedTable:
    """Closed-form table of the split torus (C*)^n: rank C(n, k - n) when
    k >= r + n and zero below that line.  Non-proper, so the ranks are of
    Borel-Moore flavor."""
    if n < 1:
        raise ValueError("the torus requires a positive dimension")
    column = tuple(binomial(n, j) for j in range(n + 1))
    rows = tuple((0,) * (n - r) + column[r:] for r in range(n + 1))
    return BiGradedTable(n, False, Coefficients.INTEGER, rows)


def _cstar_split(table: BiGradedTable) -> BiGradedTable:
    # Core of the two-term splitting for X x C*: the (r, k) rank is
    # rank(r-1, k-2) + rank(r, k-1), terms below the Lawson range vanishing.
    # Output row r adds input row r-1 (row 0, two degrees up, for r = 0) to
    # input row r one degree up.
    rows = table.rows
    lower = ((0, 0) + rows[0],) + rows
    upper = tuple((0,) + row + (0,) for row in rows) + ((0,),)
    split = tuple(tuple(map(add, a, b)) for a, b in zip(lower, upper))
    return BiGradedTable(table.dim + 1, False, table.coefficients, split)


def cstar_product(table: BiGradedTable) -> BiGradedTable:
    """Table of X x C* from the table of a projective X, via the splitting
    rank(r, k) = rank_X(r-1, k-2) + rank_X(r, k-1)."""
    if not table.proper:
        raise ValueError("the splitting is stated for a projective factor")
    return _cstar_split(table)


def suspend(table: BiGradedTable) -> BiGradedTable:
    """Table of the algebraic suspension of a projective variety with
    integral table: row r >= 1 is row r-1 shifted up two degrees, and row 0
    restarts with a single class in degree 0."""
    if not table.proper:
        raise ValueError("suspension requires a projective variety")
    if table.coefficients is not Coefficients.INTEGER:
        raise ValueError("suspension requires integer coefficients")
    rows = ((1, 0) + table.rows[0],) + table.rows
    return BiGradedTable(table.dim + 1, True, Coefficients.INTEGER, rows)


def decompose(components: Sequence[FixedComponent]) -> BiGradedTable:
    """Assemble a table from the fixed components of a C*-action: component
    (F, s) contributes its table shifted by s in cycle dimension and 2s in
    degree.  All components must be projective with integer coefficients."""
    return evaluate(Decomposition(tuple(components))).table


def fiber_bundle_table(
    base: BiGradedTable, fiber_cells: Iterable[int], proper: bool | None = None
) -> BiGradedTable:
    """Table of a Zariski-locally trivial bundle with cellular fibers: one
    shifted copy of the base table per fiber cell.  Properness follows the
    base unless overridden."""
    return _bundle(base, cell_counts(fiber_cells), base.proper if proper is None else proper)


def _bundle(base: BiGradedTable, betti: Sequence[int], proper: bool) -> BiGradedTable:
    # The fiber's b_m copies of the base, shifted by m, as one weighted summand.
    summands = [(base, m, b) for m, b in enumerate(betti) if b]
    return shift_and_sum(summands, base.dim + len(betti) - 1, proper)


def quadric_table(d: int) -> BiGradedTable:
    """Closed-form table of the split quadric of dimension 2d: rank 2 in the
    middle degree k = 2d, rank 1 in every other even degree, on every
    admissible row.  Kept independent of :func:`decompose` on purpose so the
    two routes can check each other."""
    if d < 1:
        raise ValueError("the split quadric requires d >= 1")
    column = _even_degrees([2 if m == d else 1 for m in range(2 * d + 1)])
    return _constant_columns(column, True, Coefficients.INTEGER)


def toric_smooth_table(cone_counts: Sequence[int]) -> BiGradedTable:
    """Table of a smooth proper toric variety from its cone counts, through
    the alternating-sum Betti numbers; constant down each column."""
    column = _even_degrees(smooth_toric_betti(check_cone_counts(cone_counts)))
    return _constant_columns(column, True, Coefficients.INTEGER)


def hilb_table(b2: int, d: int) -> BiGradedTable:
    """Table of the Hilbert scheme of d points on a surface with a C*-action
    and isolated fixed points (a toric surface with b2 + 2 rays, say): the
    degree-k rank is the z^k t^d Cheah coefficient, on every row.  Not for
    other surfaces: on a K3, L_1H_2 is Neron-Severi, of rank <= 20, not 22."""
    if d < 1:
        raise ValueError("the Hilbert scheme requires d >= 1")
    if b2 < 0:
        raise ValueError("the middle Betti number must be nonnegative")
    return _constant_columns(_even_degrees(cheah_rows(b2, d)[d]), True, Coefficients.INTEGER)


def sp_table(
    inner_profile: Iterable[int], d: int, proper: bool = True
) -> BiGradedTable:
    """Rational table of the d-th symmetric product of a cellular variety
    with the given cell profile, through the MacDonald product."""
    return _symmetric_power(cell_counts(inner_profile), d, proper)


def _symmetric_power(betti: Sequence[int], d: int, proper: bool) -> BiGradedTable:
    column = _even_degrees(macdonald_rows(betti, d)[d])
    return _constant_columns(column, proper, Coefficients.RATIONAL)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(expr: VarietyExpr) -> EvaluationResult:
    """Validate an expression and build its rank table.

    Validation covers the whole tree before any table is built, so a
    validation error anywhere wins over an unsupported query elsewhere.
    Simplicial and general toric descriptions are rejected here with an
    unsupported-query error: only their Euler profiles are computable, via
    :func:`euler_profile` or :func:`chi_toric`.  Suspensions and
    decompositions of rational-coefficient expressions are likewise
    unsupported, since those two rules are stated integrally.
    """
    attributes = validate(expr)

    # Tables are immutable, so a subtree that parents share is kept from its
    # second build on; None marks a node built once.  Keeping every table
    # would hold a whole tower at once.
    tables: dict[VarietyExpr, Optional[BiGradedTable]] = {}

    def build(node: VarietyExpr) -> BiGradedTable:
        table = tables.get(node)
        if table is None:
            table = _BUILD[type(node)](node, build)
            tables[node] = table if node in tables else None
        return table

    return EvaluationResult(expr, attributes, build(expr))


def _integral(table: BiGradedTable, message: str) -> BiGradedTable:
    if table.coefficients is not Coefficients.INTEGER:
        raise UnsupportedQueryError(message)
    return table


def _toric_rule(e: Toric, build) -> BiGradedTable:
    if e.smoothness is not Smoothness.SMOOTH:
        raise UnsupportedQueryError(
            "unsupported full-table query: only the chi profile is computable "
            "from simplicial or general cone counts; use `chi`"
        )
    return toric_smooth_table(e.cone_counts)


def _suspension_rule(e: Suspension, build) -> BiGradedTable:
    message = "unsupported full-table query: the suspension rule is stated"
    return suspend(_integral(build(e.inner), message + " for integer coefficients"))


def _product_rule(e: Product, build) -> BiGradedTable:
    # A bundle over one factor, fibered by the other; validate() ensured one has betti.
    base, fiber = e.left, e.right.validated.betti
    if fiber is None:
        base, fiber = e.right, e.left.validated.betti
    return _bundle(build(base), fiber, e.validated.proper)


def _decomposition_rule(e: Decomposition, build) -> BiGradedTable:
    message = "decomposition components must carry integer coefficients"
    summands = [(_integral(build(p.component), message), p.shift) for p in e.components]
    return shift_and_sum(summands, e.validated.dim, proper=True)


# One table rule per node class: rule(expr, build), where build(node) gives a
# node's table; node.validated holds its attributes.  Builders are looked up
# by name at call time, so wrappers installed on them apply.
_BUILD = {
    Point: lambda e, build: cellular_table((0,)),
    ProjectiveSpace: lambda e, build: cellular_table(range(e.n + 1)),
    AffineSpace: lambda e, build: cellular_table((e.n,), proper=False),
    Cellular: lambda e, build: cellular_table(e.cells),
    Torus: lambda e, build: torus_table(e.n),
    SplitQuadric: lambda e, build: quadric_table(e.d),
    SingularHypersurface: lambda e, build: quadric_table(e.d),
    Toric: _toric_rule,
    Suspension: _suspension_rule,
    Product: _product_rule,
    CellularFiberBundle: lambda e, build: fiber_bundle_table(build(e.base), e.fiber_cells),
    Decomposition: _decomposition_rule,
    SymmetricProduct: lambda e, build: _symmetric_power(
        e.inner.validated.betti, e.d, e.validated.proper
    ),
    HilbertScheme: lambda e, build: hilb_table(e.b2, e.d),
}


# ---------------------------------------------------------------------------
# Euler profiles and higher Chow ranks


def chi_torus(n: int, p: int) -> int:
    """chi_p of the split torus (C*)^n: sum_{i=p}^{n} (-1)^(n+i) C(n, i).
    The empty torus (n = 0) is a point with chi_0 = 1."""
    if n < 0:
        raise ValueError("the torus dimension must be nonnegative")
    if p < 0 or p > n:
        raise ValueError(f"p must lie in 0..{n}")
    return sum((-1) ** (n + i) * binomial(n, i) for i in range(p, n + 1))


def chi_toric(cone_counts: Sequence[int], p: int) -> int:
    """chi_p of any toric variety from its cone counts, by summing torus
    contributions over orbits: sum_i d_i * chi_p((C*)^(n-i))."""
    counts = check_cone_counts(cone_counts)
    n = len(counts) - 1
    if p < 0 or p > n:
        raise ValueError(f"p must lie in 0..{n}")
    return sum(
        (-1) ** (n - i + j) * counts[i] * binomial(n - i, j)
        for i in range(0, n - p + 1)
        for j in range(p, n - i + 1)
    )


def euler_profile(expr: VarietyExpr) -> ChiProfile:
    """Euler profile chi_0 .. chi_n of an expression.  Unlike full tables,
    this works for simplicial and general toric descriptions, where the
    orbit formula applies directly to the cone counts."""
    if isinstance(expr, Toric):
        dim = validate(expr).dim
        return ChiProfile(tuple(chi_toric(expr.cone_counts, p) for p in range(dim + 1)))
    return chi_profile(evaluate(expr).table)


def higher_chow(expr: VarietyExpr, r: int, m: int) -> int:
    """Rank of the weight-r, degree-m higher Chow group, read off the table
    at (r, 2r + m).  Only expressions built entirely from torus-invariant
    atoms are accepted; for anything else the identification is not known."""
    if r < 0 or m < 0:
        raise ValueError("both indices must be nonnegative")
    if not validate(expr).toric:
        raise UnsupportedQueryError(
            "identification proven only for toric varieties"
        )
    return rank_at(evaluate(expr).table, r, 2 * r + m)

