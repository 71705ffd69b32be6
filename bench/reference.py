"""Independent reference answers.  Nothing here imports the calculator.

* Expressions with a cell profile: a table constant down each column, whose
  degree-2m entry is the number of m-cells (the Dold-Thom rows).
* ``torus(n)``: the two-term splitting for a product with C*, iterated n
  times from the point on dense rows.
* ``hilb(b2, d)``: Goettsche's product for the Betti numbers of Hilbert
  schemes of points, expanded on a dense (t, z) grid one geometric factor at a
  time by the in-place recurrence P[t][z] += P[t-b][z-a].
* ``sp(X, d)``: a dynamic program over size-d multisets of cells, keyed by
  multiset size and total cell dimension.
* Other composites (a suspension, product, bundle or decomposition over a
  factor with no cell profile): the shift rules applied to the reference's own
  dense rows.

Answers are reduced to the digests of :mod:`answers`.
"""

from __future__ import annotations

from operator import add

from answers import digest, entries_digest, table_digest
from queries import Attrs, Query, attrs, counts_of, quadric_counts


class Reference:
    """Reference answers, with caches for the costly series and tori."""

    def __init__(self) -> None:
        self._cheah: dict[int, list[list[int]]] = {}
        self._torus: dict[int, list[list[int]]] = {}

    # -- answers ------------------------------------------------------------

    def answer(self, query: Query) -> tuple[int, str]:
        """Expected (exit code, answer digest) of a query."""
        kind = query.expect[0]
        if kind == "reject":
            return query.expect[1], digest(("reject",))
        if kind == "check":
            return 0, digest(("check", True))
        if kind == "series_hilb":
            _, b2, d = query.expect
            grid = self.cheah(b2, d)
            return 0, digest(("rows", tuple(tuple(grid[t][: 4 * d + 1]) for t in range(d + 1))))
        if kind == "series_sp":
            _, cells, d = query.expect
            counts = multiset_counts(counts_of(cells), d)
            width = 2 * d * max(cells) + 1
            rows = []
            for t in range(d + 1):
                row = [0] * width
                for m, v in enumerate(counts[t]):
                    row[2 * m] = v
                rows.append(tuple(row))
            return 0, digest(("rows", tuple(rows)))
        e = query.expect[1]
        if kind == "table":
            a = attrs(e)
            entries = _entries(self.rows(e))
            if query.fmt == "csv":  # CSV carries the entries only
                return 0, entries_digest(entries)
            return 0, table_digest(a.dim, a.proper, "Q" if a.rational else "Z", entries)
        if kind == "chi_all":
            return 0, digest(("chi", self.chi(e)))
        if kind == "chi_p":
            return 0, digest(("int", self.chi(e)[query.expect[2]]))
        if kind == "chow":
            _, e, r, m = query.expect
            rows = self.rows(e)
            k = 2 * r + m
            value = rows[r][k] if r < len(rows) and k < len(rows[r]) else 0
            return 0, digest(("int", value))
        raise ValueError(f"unknown expectation {kind!r}")

    def chi(self, e: tuple) -> tuple[int, ...]:
        """Row Euler characteristics.  Toric descriptions of any smoothness
        sum the torus orbits: chi_p = sum_i d_i chi_p((C*)^(n-i))."""
        if e[0] == "toric":
            counts = e[1]
            n = len(counts) - 1
            return tuple(
                sum(counts[i] * _row_chi(self._torus_rows(n - i), p)
                    for i in range(n - p + 1))
                for p in range(n + 1)
            )
        rows = self.rows(e)
        return tuple(_row_chi(rows, p) for p in range(len(rows)))

    # -- tables -------------------------------------------------------------

    def rows(self, e: tuple) -> list[list[int]]:
        """Dense rows: rows[r][k] for 0 <= r <= dim, 0 <= k <= 2 dim."""
        return self._rows(e, {})

    def _rows(self, e: tuple, memo: dict) -> list[list[int]]:
        key = id(e)
        if key not in memo:
            memo[key] = (e, self._build(e, memo))
        return memo[key][1]

    def _build(self, e: tuple, memo: dict) -> list[list[int]]:
        a: Attrs = attrs(e)
        if a.profile is not None:
            return _column_rows(a.dim, {2 * m: c for m, c in enumerate(a.profile)})
        tag = e[0]
        if tag == "torus":
            return self._torus_rows(e[1])
        if tag == "singquadric":
            return _column_rows(2 * e[2], {2 * m: c for m, c in enumerate(quadric_counts(e[2]))})
        if tag == "hilb":
            _, b2, d = e
            return _column_rows(2 * d, dict(enumerate(self.cheah(b2, d)[d][: 4 * d + 1])))
        if tag == "sp":
            inner, d = e[1], e[2]
            counts = multiset_counts(attrs(inner).profile, d)[d]
            return _column_rows(a.dim, {2 * m: v for m, v in enumerate(counts)})
        if tag == "susp":
            return suspend_rows(self._rows(e[1], memo))
        if tag == "prod":
            x, y = e[1], e[2]
            if attrs(y).profile is None:
                x, y = y, x
            return shift_sum(a.dim, [(self._rows(x, memo), s)
                                     for s, c in enumerate(attrs(y).profile) for _ in range(c)])
        if tag == "bundle":
            return shift_sum(a.dim, [(self._rows(e[1], memo), s) for s in e[2]])
        if tag == "decomp":
            return shift_sum(a.dim, [(self._rows(x, memo), s) for x, s in e[1]])
        raise ValueError(f"no reference table for {tag!r}")

    def _torus_rows(self, n: int) -> list[list[int]]:
        if n not in self._torus:
            if len(self._torus) > 64:
                self._torus.clear()
            self._torus[n] = torus_rows(n)
        return self._torus[n]

    def cheah(self, b2: int, d: int) -> list[list[int]]:
        """Goettsche/Cheah coefficients grid[t][z] for t <= d, z <= 4d (cached
        per b2 at the largest d asked for so far)."""
        grid = self._cheah.get(b2)
        if grid is None or len(grid) <= d:
            grid = cheah_grid(b2, max(d, 40))
            self._cheah[b2] = grid
        return grid


def _entries(rows: list[list[int]]):
    """Nonzero (r, k, rank) triples in (r, k) order."""
    return ((r, k, v) for r, row in enumerate(rows) for k, v in enumerate(row) if v)


def _row_chi(rows: list[list[int]], p: int) -> int:
    return sum(-v if k % 2 else v for k, v in enumerate(rows[p]))


def _column_rows(dim: int, columns: dict[int, int]) -> list[list[int]]:
    """Rows of a table that is constant down each column: entry (r, k) is
    columns[k] whenever k >= 2r."""
    full = [columns.get(k, 0) for k in range(2 * dim + 1)]
    return [[0] * (2 * r) + full[2 * r:] for r in range(dim + 1)]


def suspend_rows(rows: list[list[int]]) -> list[list[int]]:
    """Suspension: row r >= 1 is row r-1 moved up two degrees; row 0 restarts
    with one class in degree 0."""
    out = [[1, 0] + rows[0]]
    out.extend([0, 0] + row for row in rows)
    return out


def shift_sum(dim: int, parts) -> list[list[int]]:
    """Direct sum of tables, (rows, s) moved s rows down and 2s degrees up.
    Rows above a table's own range read its row 0."""
    out = [[0] * (2 * dim + 1) for _ in range(dim + 1)]
    for rows, s in parts:
        top = len(rows) - 1
        for r in range(min(dim, top + s) + 1):
            src = rows[max(r - s, 0)]
            dst = out[r]
            for j, v in enumerate(src):
                if v:
                    dst[2 * s + j] += v
    return out


def torus_rows(n: int) -> list[list[int]]:
    """(C*)^n by n two-term splittings of the point:
    rank(r, k) = rank_X(r-1, k-2) + rank_X(r, k-1), row -1 reading row 0."""
    rows = [[1]]
    for m in range(1, n + 1):
        width = 2 * m + 1
        new = []
        for r in range(m + 1):
            left = [0, 0] + rows[max(r - 1, 0)]
            same = [0] + rows[r] + [0] if r < m else [0] * width
            new.append(list(map(add, left, same)))
        rows = new
    return rows


def cheah_grid(b2: int, d: int) -> list[list[int]]:
    """prod_{k>=1} (1 - z^(2k-2) t^k)^-1 (1 - z^(2k) t^k)^-b2 (1 - z^(2k+2) t^k)^-1
    on the box t <= d, z <= 4d."""
    width = 4 * d + 1
    grid = [[0] * width for _ in range(d + 1)]
    grid[0][0] = 1
    for k in range(1, d + 1):
        for a, times in ((2 * k - 2, 1), (2 * k, b2), (2 * k + 2, 1)):
            if a >= width:
                continue
            for _ in range(times):
                # Ascending t makes each pass multiply by 1 / (1 - z^a t^k).
                for t in range(k, d + 1):
                    src = grid[t - k]
                    row = grid[t]
                    row[a:] = map(add, row[a:], src[: width - a])
    return grid


def multiset_counts(profile, d: int) -> list[list[int]]:
    """counts[s][m]: size-s multisets of cells (profile[c] cells of dimension
    c) whose dimensions add up to m, for s <= d."""
    top = len(profile) - 1
    counts = [[0] * (d * top + 1) for _ in range(d + 1)]
    counts[0][0] = 1
    for c, many in enumerate(profile):
        for _ in range(many):
            # One more distinct cell of dimension c, usable any number of times.
            for s in range(1, d + 1):
                src = counts[s - 1]
                row = counts[s]
                row[c:] = map(add, row[c:], src[: len(row) - c])
    return counts
