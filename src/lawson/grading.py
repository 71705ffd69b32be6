"""Bigraded rank tables with exact integer arithmetic.

A variety of complex dimension n carries a family of cycle-space homology
groups indexed by a cycle dimension r and a topological degree k, defined
for 0 <= 2r <= k <= 2n.  Every group that the calculator can reach is free
abelian (or a rational vector space), so a table records nothing but ranks.
It stores them as rows: row r is the tuple of ranks at k = 2r, ..., 2n, so
the triangle is exactly the set of representable entries.  Every transport
rule maps an output row to one input row moved up in degree, so builders
work on whole rows and tables share them.  The mapping ``ranks`` is a
derived read-only view of the nonzero entries, keyed by (r, k).

Three conventions are baked into lookups and are relied on everywhere else:

* a negative cycle dimension falls back to the r = 0 row, which agrees with
  ordinary singular homology by the Dold-Thom identification of 0-cycles;
* degrees k outside [0, 2n] have rank zero;
* r >= 1 with k < 2r is *undefined* rather than zero, and raises
  :class:`LawsonRangeError` so caller bugs are not silently absorbed.

All arithmetic is exact; ranks are plain Python integers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from operator import add
from types import MappingProxyType
from typing import Mapping, Sequence


class Coefficients(enum.Enum):
    """Coefficient ring tag: honest integral ranks, or rational dimensions."""

    INTEGER = "Z"
    RATIONAL = "Q"


class LawsonRangeError(ValueError):
    """Raised for queries at r >= 1, k < 2r, where no group is defined."""


def binomial(n: int, j: int) -> int:
    """Binomial coefficient C(n, j); 0 when j < 0 or j > n.

    The upper argument must be nonnegative.  Out-of-range lower arguments
    return 0 so that shifted sums can be written without edge guards.
    """
    if n < 0:
        raise ValueError("binomial requires a nonnegative upper argument")
    if j < 0 or j > n:
        return 0
    return math.comb(n, j)


@dataclass(frozen=True)
class BiGradedTable:
    """Table of ranks on the triangle 0 <= 2r <= k <= 2*dim, stored by row.

    ``dim`` is the complex dimension of the underlying variety, ``proper``
    records whether the variety is compact (non-proper tables hold
    Borel-Moore style ranks), and ``coefficients`` tags the ring.  ``rows``
    holds dim + 1 tuples; row r lists the ranks at k = 2r, ..., 2*dim, so it
    has 2*(dim - r) + 1 entries.  Row tuples are kept as given, which lets
    tables share rows.  ``ranks`` is the read-only mapping (r, k) -> rank of
    the nonzero entries, in (r, k) order, built on first use.
    """

    dim: int
    proper: bool
    coefficients: Coefficients
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("complex dimension must be nonnegative")
        if not isinstance(self.coefficients, Coefficients):
            raise TypeError("coefficients must be a Coefficients tag")
        rows = tuple(map(tuple, self.rows))  # tuple() returns a tuple as is
        if len(rows) != self.dim + 1:
            raise ValueError(f"dimension {self.dim} needs {self.dim + 1} rows")
        for r, row in enumerate(rows):
            if len(row) != 2 * (self.dim - r) + 1:
                raise ValueError(f"row {r} must hold {2 * (self.dim - r) + 1} ranks")
        if min(map(min, rows)) < 0:
            raise ValueError("ranks must be nonnegative")
        object.__setattr__(self, "rows", rows)

    @cached_property
    def ranks(self) -> Mapping[tuple[int, int], int]:
        return MappingProxyType(
            {
                (r, k): value
                for r, row in enumerate(self.rows)
                for k, value in enumerate(row, 2 * r)
                if value
            }
        )


@dataclass(frozen=True)
class ChiProfile:
    """Euler characteristics chi_0, ..., chi_n of the rows of a table."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))


def rank_at(table: BiGradedTable, r: int, k: int) -> int:
    """Rank of the (r, k) group of ``table``, applying the standard
    conventions: negative r resolves to the singular-homology row, degrees
    outside [0, 2*dim] are zero, and r >= 1 with k < 2r is an error."""
    if r < 0:
        r = 0
    elif r >= 1 and k < 2 * r:
        raise LawsonRangeError(
            f"({r}, {k}) is outside the Lawson range: no group is defined for k < 2r"
        )
    if k < 0 or k > 2 * table.dim:
        return 0
    return table.rows[r][k - 2 * r]


def shift_and_sum(
    summands: Sequence[tuple[BiGradedTable, int] | tuple[BiGradedTable, int, int]],
    target_dimension: int,
    proper: bool,
) -> BiGradedTable:
    """Direct sum of tables, each shifted by a nonnegative weight.

    A summand (T, s) contributes rank_at(T, r - s, k - 2s) to the (r, k)
    entry of the result: output row r takes row max(r - s, 0) of T, moved
    up 2s degrees.  A summand (T, s, times) counts as ``times`` copies of
    (T, s).  This is the common engine behind fixed-component
    decompositions and cellular fiber bundles.  All summands must carry the
    same coefficient tag, and the target dimension must be large enough to
    hold every shifted summand.
    """
    summands = [(table, shift, times[0] if times else 1) for table, shift, *times in summands]
    if not summands:
        raise ValueError("at least one summand is required")
    tags = {table.coefficients for table, _, _ in summands}
    if len(tags) > 1:
        raise ValueError("summands carry mixed coefficient tags")
    for table, shift, times in summands:
        if shift < 0 or times < 0:
            raise ValueError("shifts and multiplicities must be nonnegative")
        if target_dimension < table.dim + shift:
            raise ValueError(
                f"target dimension {target_dimension} cannot hold a summand of "
                f"dimension {table.dim} shifted by {shift}"
            )
    rows = []
    for r in range(target_dimension + 1):
        row = [0] * (2 * (target_dimension - r) + 1)
        for table, s, times in summands:
            if r - s > table.dim:
                continue
            # Below the shift (r < s) the summand's row 0 stands in for its
            # negative cycle dimension, and its degree 0 lands 2(s - r)
            # places into the output row.
            source = table.rows[max(r - s, 0)]
            if times != 1:
                source = [times * value for value in source]
            start = 2 * max(s - r, 0)
            end = start + len(source)
            row[start:end] = map(add, row[start:end], source)
        rows.append(tuple(row))
    return BiGradedTable(target_dimension, proper, tags.pop(), tuple(rows))


def euler_chi(table: BiGradedTable, p: int) -> int:
    """Signed rank sum of row p: sum over k >= 2p of (-1)^k rank(p, k)."""
    if p < 0 or p > table.dim:
        raise ValueError(f"row index p must lie in 0..{table.dim}")
    # Row p starts at the even degree 2p, so even positions are even degrees.
    row = table.rows[p]
    return sum(row[::2]) - sum(row[1::2])


def chi_profile(table: BiGradedTable) -> ChiProfile:
    """All row Euler characteristics of a table, chi_0 through chi_dim."""
    return ChiProfile(tuple(euler_chi(table, p) for p in range(table.dim + 1)))
