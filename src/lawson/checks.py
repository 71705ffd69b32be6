"""The identity list behind ``lawson check``.

``IDENTITIES`` states each identity once: suite, name, instance text, fixed
instances and predicate.  An identity equates two routes to the same numbers:
a closed form and a fixed-component decomposition, say, or a builder and an
oracle here that shares no code with it.  The property tests run the three
public predicates again on random expressions.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .engine import (
    EvaluationResult,
    _cstar_split,
    cellular_table,
    chi_toric,
    chi_torus,
    decompose,
    evaluate,
    higher_chow,
    hilb_table,
    quadric_table,
    sp_table,
    suspend,
    toric_smooth_table,
    torus_table,
)
from .grading import BiGradedTable, binomial, euler_chi, rank_at
from .series import cheah_series
from .varieties import (
    Cellular,
    CellularFiberBundle,
    Decomposition,
    FixedComponent,
    HilbertScheme,
    Point,
    Product,
    ProjectiveSpace,
    SingularHypersurface,
    SplitQuadric,
    Suspension,
    Toric,
    Torus,
    VarietyExpr,
    convolve,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one oracle property over its stated instance range."""

    name: str
    instances: str
    passed: bool


@dataclass(frozen=True)
class Identity:
    """``holds(*case)`` must be true for every case that ``cases()`` yields.
    Suite "all" marks a cross-cutting identity, run only by ``run_checks()``."""

    suite: str
    name: str
    instances: str
    cases: Callable[[], Iterable[tuple]]
    holds: Callable[..., bool]

    def result(self) -> CheckResult:
        passed = all(self.holds(*case) for case in self.cases())
        return CheckResult(self.name, self.instances, passed)


CHECK_SUITES = ("all", "torus", "toric", "quadric", "hilb", "sp", "suspension")

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

# Toric expressions whose higher Chow ranks are read off their tables.
_ALIASED_CORPUS: tuple[VarietyExpr, ...] = (
    *map(Torus, range(1, 5)), *map(ProjectiveSpace, range(1, 5)), Toric((1, 3, 3))
)


def _torus_table_by_recursion(n: int) -> BiGradedTable:
    # Independent oracle: iterate the two-term splitting n times from the
    # point, never consulting the binomial closed form.
    table = cellular_table((0,))
    for _ in range(n):
        table = _cstar_split(table)
    return table


def _random_smooth_cone_counts(rng: random.Random) -> tuple[int, ...]:
    # Sample from two provably realizable families: products of projective
    # spaces, and P^2 blown up at fixed points (counts (1, m, m)).
    if rng.random() < 0.4:
        m = rng.randint(3, 9)
        return (1, m, m)
    counts: tuple[int, ...] = (1,)
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, 3)  # the fan of P^n has C(n+1, i) cones of dimension i
        counts = convolve(counts, tuple(binomial(n + 1, i) for i in range(n + 1)))
    return counts


def _smooth_fans() -> list[tuple[int, ...]]:
    rng = random.Random(20210923)  # a fixed seed keeps the check reproducible
    return [(1, 3, 3), (1, 4, 4)] + [_random_smooth_cone_counts(rng) for _ in range(20)]


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


def suspension_is_a_two_component_decomposition(x: VarietyExpr) -> bool:
    """The suspension of a projective, integral x is x at weight 1 beside a
    point at weight 0, both as ``suspend`` of x's table and as the table of
    the suspension node."""
    decomposed = decompose((FixedComponent(x, 1), FixedComponent(Point(), 0)))
    return suspend(evaluate(x).table) == decomposed == evaluate(Suspension(x)).table


def row_zero_counts_cells(result: EvaluationResult) -> bool:
    """Dold-Thom: row 0 is singular homology, one class in degree 2m per
    m-cell, both as the stored row and through :func:`rank_at`."""
    betti, table = result.attributes.betti, result.table
    cells = tuple(0 if k % 2 else betti[k // 2] for k in range(2 * table.dim + 1))
    return table.rows[0] == cells == tuple(rank_at(table, 0, k) for k in range(len(cells)))


def columns_are_constant(table: BiGradedTable) -> bool:
    """Each row repeats row 0 from its first degree on, both in the stored
    rows and in the ``ranks`` view."""
    rows = table.rows
    return all(row == rows[0][2 * r :] for r, row in enumerate(rows)) and all(
        value == rank_at(table, 0, k) for (r, k), value in table.ranks.items()
    )


# In output order.  ``cases`` yields argument tuples; ``zip(xs)`` gives (x,).
IDENTITIES: tuple[Identity, ...] = (
    Identity(
        "torus", "torus closed form matches the iterated splitting", "n=1..8",
        lambda: zip(range(1, 9)),
        lambda n: torus_table(n) == _torus_table_by_recursion(n),
    ),
    Identity(
        "torus", "torus chi formula matches its table", "n=1..8, p=0..n",
        lambda: ((n, p) for n in range(1, 9) for p in range(n + 1)),
        lambda n, p: chi_torus(n, p) == euler_chi(torus_table(n), p),
    ),
    Identity(
        "torus", "torus chi_0 telescopes to zero", "n=1..8",
        lambda: zip(range(1, 9)),
        lambda n: chi_torus(n, 0) == 0,
    ),
    Identity(
        "toric", "toric chi formula matches the Betti table",
        "[1,3,3], [1,4,4], and 20 seeded random smooth fans",
        lambda: ((counts, toric_smooth_table(counts)) for counts in _smooth_fans()),
        lambda counts, table: all(
            chi_toric(counts, p) == euler_chi(table, p) for p in range(len(counts))
        ),
    ),
    Identity(
        "toric", "toric chi_0 equals the top cone count", "same fans",
        lambda: zip(_smooth_fans()),
        lambda counts: chi_toric(counts, 0) == counts[-1],
    ),
    Identity(
        "quadric", "quadric closed form equals its fixed-component decomposition",
        "d=1..6",
        lambda: zip(range(1, 7)),
        lambda d: quadric_table(d) == decompose(
            (FixedComponent(ProjectiveSpace(d), 0), FixedComponent(ProjectiveSpace(d), d))
        ),
    ),
    Identity(
        "quadric", "singular hypersurface shares the quadric table", "d=1..4, m=2..3",
        lambda: ((m, d) for d in range(1, 5) for m in (2, 3)),
        lambda m, d: evaluate(SingularHypersurface(m, d)).table == quadric_table(d),
    ),
    Identity(
        "hilb", "Cheah coefficients match direct enumeration", "b2=0..2, d=1..3",
        lambda: ((b2, cheah_series(b2, 3)) for b2 in range(3)),
        lambda b2, series: all(
            series.coefficient(k, d) == _cheah_coefficient_by_enumeration(b2, k, d)
            for d in range(1, 4)
            for k in range(4 * d + 1)
        ),
    ),
    Identity(
        "hilb", "odd-degree Cheah coefficients vanish", "b2=0..2, d=0..3",
        lambda: ((cheah_series(b2, 3),) for b2 in range(3)),
        lambda series: all(
            series.coefficient(k, d) == 0 for d in range(4) for k in range(1, 13, 2)
        ),
    ),
    Identity(
        "hilb", "one point reproduces the base surface", "b2=0..3",
        lambda: zip(range(4)),
        lambda b2: hilb_table(b2, 1) == cellular_table((0,) + (1,) * b2 + (2,)),
    ),
    Identity(
        "sp", "symmetric powers of the line are projective spaces", "d=1..6",
        lambda: zip(range(1, 7)),
        lambda d: sp_table((0, 1), d).ranks == evaluate(ProjectiveSpace(d)).table.ranks,
    ),
    Identity(
        "sp", "symmetric-power dimensions match multiset enumeration",
        "profiles of dim <= 2, d <= 4",
        lambda: (
            (sp_table(profile, d), _symmetric_power_dims_by_enumeration(profile, d))
            for profile, d in (((0, 1), 2), ((0, 1), 4), ((0, 1, 1, 2), 2), ((0, 1, 2), 3))
        ),
        lambda table, dims: all(
            rank_at(table, 0, k) == dims.get(k, 0) for k in range(2 * table.dim + 1)
        ),
    ),
    Identity(
        "sp", "symmetric powers of the point stay a point", "d=1..7",
        lambda: zip(range(1, 8)),
        lambda d: dict(sp_table((0,), d).ranks) == {(0, 0): 1},
    ),
    Identity(
        "suspension", "suspension equals the two-component decomposition",
        "proper corpus up to dimension 4",
        lambda: zip(_SUSPENSION_CORPUS),
        suspension_is_a_two_component_decomposition,
    ),
    Identity(
        "suspension", "degree-one rank of a suspension vanishes", "same corpus",
        lambda: zip(_SUSPENSION_CORPUS),
        lambda x: rank_at(suspend(evaluate(x).table), 0, 1) == 0,
    ),
    Identity(
        "suspension", "suspending the point gives the line", "single instance",
        lambda: [()],
        lambda: suspend(cellular_table((0,))) == evaluate(ProjectiveSpace(1)).table,
    ),
    Identity(
        "all", "row zero counts cells (Dold-Thom rows)", "profiled corpus",
        lambda: ((evaluate(x),) for x in _PROFILED_CORPUS),
        row_zero_counts_cells,
    ),
    Identity(
        "all", "negative cycle dimension falls back to row zero", "r=1..3",
        lambda: ((evaluate(x).table,) for x in _PROFILED_CORPUS[:4]),
        lambda table: all(
            rank_at(table, -r, k) == rank_at(table, 0, k)
            for r in (1, 2, 3)
            for k in range(2 * table.dim + 1)
        ),
    ),
    Identity(
        "all", "cellular tables are constant down each column", "profiled corpus",
        lambda: ((evaluate(x).table,) for x in _PROFILED_CORPUS),
        columns_are_constant,
    ),
    Identity(
        "all", "higher Chow ranks alias the table",
        "torus/P^n for n=1..4 and toric([1,3,3])",
        lambda: ((x, evaluate(x).table) for x in _ALIASED_CORPUS),
        lambda x, table: all(
            higher_chow(x, r, m) == rank_at(table, r, 2 * r + m)
            for r in range(table.dim + 1)
            for m in range(2 * table.dim + 1)
        ),
    ),
)


def run_checks(suite: str = "all") -> tuple[CheckResult, ...]:
    """Run one named oracle suite, or all of them plus the cross-cutting
    properties.  Returns one result per property; the caller decides how to
    surface failures."""
    if suite not in CHECK_SUITES:
        raise ValueError(f"unknown check suite {suite!r}")
    return tuple(i.result() for i in IDENTITIES if suite in ("all", i.suite))
