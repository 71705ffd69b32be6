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
then builds the tables in one walk over the recorded attributes.

The split quadric deliberately has two independent routes: a closed form
here, and its fixed-component decomposition into two projective spaces.
``run_checks`` replays those dual routes (and the other cross-checks) as a
built-in oracle suite.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import Iterable, Sequence

from .grading import (
    BiGradedTable,
    ChiProfile,
    Coefficients,
    binomial,
    chi_profile,
    euler_chi,
    rank_at,
    shift_and_sum,
)
from .series import cheah_series, macdonald_series
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
    convolve,
    render,
    smooth_toric_betti,
    validate,
)


class UnsupportedQueryError(ValueError):
    """A valid expression whose requested answer is beyond the known theorems."""


@dataclass(frozen=True)
class EvaluationResult:
    """A fully evaluated expression: canonical text, attributes, and table."""

    expr_text: str
    attributes: VarietyAttributes
    table: BiGradedTable

    def __post_init__(self) -> None:
        a, t = self.attributes, self.table
        if (t.dim, t.proper, t.coefficients) != (a.dim, a.proper, a.coefficients):
            raise ValueError(
                "evaluation produced a table inconsistent with the validated attributes"
            )


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
    series = cheah_series(b2, d)
    return _constant_columns(series.t_row(d), True, Coefficients.INTEGER)


def sp_table(
    inner_profile: Iterable[int], d: int, proper: bool = True
) -> BiGradedTable:
    """Rational table of the d-th symmetric product of a cellular variety
    with the given cell profile, through the MacDonald product."""
    return _symmetric_power(cell_counts(inner_profile), d, proper)


def _symmetric_power(betti: Sequence[int], d: int, proper: bool) -> BiGradedTable:
    series = macdonald_series(betti, d)
    return _constant_columns(series.t_row(d), proper, Coefficients.RATIONAL)


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
    recorded: dict[int, VarietyAttributes] = {}
    attributes = validate(expr, recorded)

    def attrs(node: VarietyExpr) -> VarietyAttributes:
        return recorded[id(node)]

    def build(node: VarietyExpr) -> BiGradedTable:
        return _BUILD[type(node)](node, attrs, build)

    return EvaluationResult(render(expr), attributes, build(expr))


def _integral(table: BiGradedTable, message: str) -> BiGradedTable:
    if table.coefficients is not Coefficients.INTEGER:
        raise UnsupportedQueryError(message)
    return table


def _toric_rule(e: Toric, attrs, build) -> BiGradedTable:
    if e.smoothness is not Smoothness.SMOOTH:
        raise UnsupportedQueryError(
            "unsupported full-table query: only the chi profile is computable "
            "from simplicial or general cone counts; use `chi`"
        )
    return toric_smooth_table(e.cone_counts)


def _suspension_rule(e: Suspension, attrs, build) -> BiGradedTable:
    message = "unsupported full-table query: the suspension rule is stated"
    return suspend(_integral(build(e.inner), message + " for integer coefficients"))


def _product_rule(e: Product, attrs, build) -> BiGradedTable:
    # A bundle over one factor, fibered by the other; validate() ensured one has betti.
    base, fiber = e.left, attrs(e.right).betti
    if fiber is None:
        base, fiber = e.right, attrs(e.left).betti
    return _bundle(build(base), fiber, attrs(e).proper)


def _decomposition_rule(e: Decomposition, attrs, build) -> BiGradedTable:
    message = "decomposition components must carry integer coefficients"
    summands = [(_integral(build(p.component), message), p.shift) for p in e.components]
    return shift_and_sum(summands, attrs(e).dim, proper=True)


# One table rule per node class: rule(expr, attrs, build), where attrs(node)
# gives a node's validated attributes and build(node) its table.  Builders
# are looked up by name at call time, so wrappers installed on them apply.
_BUILD = {
    Point: lambda e, attrs, build: cellular_table((0,)),
    ProjectiveSpace: lambda e, attrs, build: cellular_table(range(e.n + 1)),
    AffineSpace: lambda e, attrs, build: cellular_table((e.n,), proper=False),
    Cellular: lambda e, attrs, build: cellular_table(e.cells),
    Torus: lambda e, attrs, build: torus_table(e.n),
    SplitQuadric: lambda e, attrs, build: quadric_table(e.d),
    SingularHypersurface: lambda e, attrs, build: quadric_table(e.d),
    Toric: _toric_rule,
    Suspension: _suspension_rule,
    Product: _product_rule,
    CellularFiberBundle: lambda e, attrs, build: fiber_bundle_table(
        build(e.base), e.fiber_cells
    ),
    Decomposition: _decomposition_rule,
    SymmetricProduct: lambda e, attrs, build: _symmetric_power(
        attrs(e.inner).betti, e.d, attrs(e).proper
    ),
    HilbertScheme: lambda e, attrs, build: hilb_table(e.b2, e.d),
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


# ---------------------------------------------------------------------------
# built-in check suites


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one oracle property over its stated instance range."""

    name: str
    instances: str
    passed: bool


CHECK_SUITES = ("all", "torus", "toric", "quadric", "hilb", "sp", "suspension")

_CHECK_SEED = 20210923

# Proper expressions with cell profiles, used by the cross-cutting checks.
_PROFILED_CORPUS: tuple[VarietyExpr, ...] = (
    Point(),
    ProjectiveSpace(2),
    ProjectiveSpace(4),
    SplitQuadric(1),
    Cellular((0, 1, 1, 2)),
    Suspension(ProjectiveSpace(1)),
    Product(ProjectiveSpace(1), ProjectiveSpace(2)),
    CellularFiberBundle(ProjectiveSpace(1), (0, 1)),
    Decomposition((FixedComponent(ProjectiveSpace(2), 0), FixedComponent(Point(), 3))),
    Toric((1, 3, 3)),
)

_SUSPENSION_CORPUS: tuple[VarietyExpr, ...] = (
    Point(),
    ProjectiveSpace(1),
    ProjectiveSpace(2),
    ProjectiveSpace(3),
    ProjectiveSpace(4),
    SplitQuadric(1),
    Cellular((0, 1, 1, 2)),
    Toric((1, 4, 4)),
    HilbertScheme(1, 1),
)


def _torus_table_by_recursion(n: int) -> BiGradedTable:
    # Independent oracle: iterate the two-term splitting n times from the
    # point, never consulting the binomial closed form.
    table = cellular_table((0,))
    for _ in range(n):
        table = _cstar_split(table)
    return table


def _pn_cone_counts(n: int) -> tuple[int, ...]:
    # The fan of P^n has C(n+1, i) cones of dimension i.
    return tuple(binomial(n + 1, i) for i in range(n + 1))


def _random_smooth_cone_counts(rng: random.Random) -> tuple[int, ...]:
    # Sample from two provably realizable families: products of projective
    # spaces, and P^2 blown up at fixed points (counts (1, m, m)).
    if rng.random() < 0.4:
        m = rng.randint(3, 9)
        return (1, m, m)
    counts: tuple[int, ...] = (1,)
    for _ in range(rng.randint(1, 3)):
        counts = convolve(counts, _pn_cone_counts(rng.randint(1, 3)))
    return counts


def _cheah_coefficient_by_enumeration(b2: int, k: int, d: int) -> int:
    # Independent oracle for the Cheah coefficient of z^k t^d: enumerate
    # exponent tuples over the factors (1 - z^a t^b)^-m with b <= d, the
    # j-th power of a factor weighing C(m-1+j, j).
    factors = []
    for fk in range(1, d + 1):
        factors.append((2 * fk - 2, fk, 1))
        if b2:
            factors.append((2 * fk, fk, b2))
        factors.append((2 * fk + 2, fk, 1))

    def count(index: int, t_left: int, z_left: int) -> int:
        if index == len(factors):
            return 1 if t_left == 0 and z_left == 0 else 0
        a, b, m = factors[index]
        total = count(index + 1, t_left, z_left)  # j = 0
        j = 1
        while b * j <= t_left and a * j <= z_left:
            weight = binomial(m - 1 + j, j)
            total += weight * count(index + 1, t_left - b * j, z_left - a * j)
            j += 1
        return total

    return count(0, d, k)


def _symmetric_power_dims_by_enumeration(profile: Sequence[int], d: int) -> Counter:
    # Independent oracle for symmetric-power dimensions: with all classes in
    # even degree, the degree-k dimension counts size-d multisets of basis
    # elements whose degrees add up to k.
    basis = [2 * c for c in profile]
    dims: Counter = Counter()
    for combo in itertools.combinations_with_replacement(range(len(basis)), d):
        dims[sum(basis[i] for i in combo)] += 1
    return dims


def _torus_checks() -> list[CheckResult]:
    return [
        CheckResult(
            "torus closed form matches the iterated splitting",
            "n=1..8",
            all(torus_table(n) == _torus_table_by_recursion(n) for n in range(1, 9)),
        ),
        CheckResult(
            "torus chi formula matches its table",
            "n=1..8, p=0..n",
            all(
                chi_torus(n, p) == euler_chi(torus_table(n), p)
                for n in range(1, 9)
                for p in range(n + 1)
            ),
        ),
        CheckResult(
            "torus chi_0 telescopes to zero",
            "n=1..8",
            all(chi_torus(n, 0) == 0 for n in range(1, 9)),
        ),
    ]


def _toric_checks() -> list[CheckResult]:
    rng = random.Random(_CHECK_SEED)
    fans = [(1, 3, 3), (1, 4, 4)]
    fans += [_random_smooth_cone_counts(rng) for _ in range(20)]
    tables = [toric_smooth_table(counts) for counts in fans]
    return [
        CheckResult(
            "toric chi formula matches the Betti table",
            "[1,3,3], [1,4,4], and 20 seeded random smooth fans",
            all(
                chi_toric(counts, p) == euler_chi(table, p)
                for counts, table in zip(fans, tables)
                for p in range(len(counts))
            ),
        ),
        CheckResult(
            "toric chi_0 equals the top cone count",
            "same fans",
            all(chi_toric(counts, 0) == counts[-1] for counts in fans),
        ),
    ]


def _quadric_checks() -> list[CheckResult]:
    return [
        CheckResult(
            "quadric closed form equals its fixed-component decomposition",
            "d=1..6",
            all(
                quadric_table(d)
                == decompose(
                    (
                        FixedComponent(ProjectiveSpace(d), 0),
                        FixedComponent(ProjectiveSpace(d), d),
                    )
                )
                for d in range(1, 7)
            ),
        ),
        CheckResult(
            "singular hypersurface shares the quadric table",
            "d=1..4, m=2..3",
            all(
                evaluate(SingularHypersurface(m, d)).table == quadric_table(d)
                for d in range(1, 5)
                for m in (2, 3)
            ),
        ),
    ]


def _hilb_checks() -> list[CheckResult]:
    return [
        CheckResult(
            "Cheah coefficients match direct enumeration",
            "b2=0..2, d=1..3",
            all(
                series.coefficient(k, d) == _cheah_coefficient_by_enumeration(b2, k, d)
                for b2, series in ((b2, cheah_series(b2, 3)) for b2 in range(3))
                for d in range(1, 4)
                for k in range(4 * d + 1)
            ),
        ),
        CheckResult(
            "odd-degree Cheah coefficients vanish",
            "b2=0..2, d=0..3",
            all(
                cheah_series(b2, 3).coefficient(k, d) == 0
                for b2 in range(3)
                for d in range(4)
                for k in range(1, 13, 2)
            ),
        ),
        CheckResult(
            "one point reproduces the base surface",
            "b2=0..3",
            all(
                hilb_table(b2, 1) == cellular_table((0,) + (1,) * b2 + (2,))
                for b2 in range(4)
            ),
        ),
    ]


def _sp_checks() -> list[CheckResult]:
    cases = (((0, 1), 2), ((0, 1), 4), ((0, 1, 1, 2), 2), ((0, 1, 2), 3))
    return [
        CheckResult(
            "symmetric powers of the line are projective spaces",
            "d=1..6",
            all(
                sp_table((0, 1), d).ranks == evaluate(ProjectiveSpace(d)).table.ranks
                for d in range(1, 7)
            ),
        ),
        CheckResult(
            "symmetric-power dimensions match multiset enumeration",
            "profiles of dim <= 2, d <= 4",
            all(
                rank_at(table, 0, k) == dims.get(k, 0)
                for table, dims in (
                    (sp_table(profile, d), _symmetric_power_dims_by_enumeration(profile, d))
                    for profile, d in cases
                )
                for k in range(2 * table.dim + 1)
            ),
        ),
        CheckResult(
            "symmetric powers of the point stay a point",
            "d=1..7",
            all(dict(sp_table((0,), d).ranks) == {(0, 0): 1} for d in range(1, 8)),
        ),
    ]


def _suspension_checks() -> list[CheckResult]:
    inner = [evaluate(expr).table for expr in _SUSPENSION_CORPUS]
    return [
        CheckResult(
            "suspension equals the two-component decomposition",
            "proper corpus up to dimension 4",
            all(
                suspend(table)
                == decompose((FixedComponent(expr, 1), FixedComponent(Point(), 0)))
                for expr, table in zip(_SUSPENSION_CORPUS, inner)
            ),
        ),
        CheckResult(
            "degree-one rank of a suspension vanishes",
            "same corpus",
            all(rank_at(suspend(table), 0, 1) == 0 for table in inner),
        ),
        CheckResult(
            "suspending the point gives the line",
            "single instance",
            suspend(cellular_table((0,))) == evaluate(ProjectiveSpace(1)).table,
        ),
    ]


def _general_checks() -> list[CheckResult]:
    profiled = [evaluate(expr) for expr in _PROFILED_CORPUS]
    aliased: list[VarietyExpr] = [Torus(n) for n in range(1, 5)]
    aliased += [ProjectiveSpace(n) for n in range(1, 5)]
    aliased.append(Toric((1, 3, 3)))
    return [
        CheckResult(
            "row zero counts cells (Dold-Thom rows)",
            "profiled corpus",
            all(
                rank_at(result.table, 0, k)
                == (result.attributes.betti[k // 2] if k % 2 == 0 else 0)
                for result in profiled
                for k in range(2 * result.attributes.dim + 1)
            ),
        ),
        CheckResult(
            "negative cycle dimension falls back to row zero",
            "r=1..3",
            all(
                rank_at(result.table, -r, k) == rank_at(result.table, 0, k)
                for result in profiled[:4]
                for r in (1, 2, 3)
                for k in range(2 * result.attributes.dim + 1)
            ),
        ),
        CheckResult(
            "cellular tables are constant down each column",
            "profiled corpus",
            all(
                value == rank_at(result.table, 0, k)
                for result in profiled
                for (r, k), value in result.table.ranks.items()
            ),
        ),
        CheckResult(
            "higher Chow ranks alias the table",
            "torus/P^n for n=1..4 and toric([1,3,3])",
            all(
                higher_chow(expr, r, m) == rank_at(table, r, 2 * r + m)
                for expr, table in ((expr, evaluate(expr).table) for expr in aliased)
                for r in range(table.dim + 1)
                for m in range(2 * table.dim + 1)
            ),
        ),
    ]


_SUITE_RUNNERS = {
    "torus": _torus_checks,
    "toric": _toric_checks,
    "quadric": _quadric_checks,
    "hilb": _hilb_checks,
    "sp": _sp_checks,
    "suspension": _suspension_checks,
}


def run_checks(suite: str = "all") -> tuple[CheckResult, ...]:
    """Run one named oracle suite, or all of them plus the cross-cutting
    properties.  Returns one result per property; the caller decides how to
    surface failures."""
    if suite not in CHECK_SUITES:
        raise ValueError(f"unknown check suite {suite!r}")
    names = CHECK_SUITES[1:] if suite == "all" else (suite,)
    results = [result for name in names for result in _SUITE_RUNNERS[name]()]
    if suite == "all":
        results += _general_checks()
    return tuple(results)
