"""Command-line front end.

Subcommands: ``eval`` (full rank table as plain text, JSON, or CSV),
``chi`` (Euler profiles, including simplicial and general toric
descriptions that have no full table), ``chow`` (higher Chow ranks for
toric expressions), ``series`` (raw generating-function rows), and
``check`` (the built-in oracle suites).

Exit codes: 0 success, 1 syntax or usage error, 2 semantic validation
error, 3 unsupported query, 4 failed check suite.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .checks import CHECK_SUITES, run_checks
from .dsl import ParseError, literal, parse
from .engine import UnsupportedQueryError, euler_profile, evaluate, higher_chow
from .series import cheah_rows, macdonald_rows
from .varieties import cell_counts


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="lawson",
        description="Exact rank tables for cycle-space homology of composed varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("eval", help="evaluate an expression to a full rank table")
    cmd.add_argument("expr", help="variety expression, e.g. 'quadric(1)'")
    cmd.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    cmd.add_argument("--max-r", type=int, default=None, dest="max_r",
                     help="emit only rows with r up to this bound")

    cmd = sub.add_parser("chi", help="Euler profile of an expression")
    cmd.add_argument("expr")
    group = cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=int, default=None, help="single row index")
    group.add_argument("--all", action="store_true", help="whole profile")

    cmd = sub.add_parser("chow", help="higher Chow rank of a toric expression")
    cmd.add_argument("expr")
    cmd.add_argument("--r", type=int, required=True)
    cmd.add_argument("--m", type=int, required=True)

    cmd = sub.add_parser("series", help="raw generating-function rows")
    series_sub = cmd.add_subparsers(dest="series_kind", required=True)
    hilb = series_sub.add_parser("hilb", help="Hilbert-scheme coefficient rows")
    hilb.add_argument("--b2", type=int, required=True)
    hilb.add_argument("--d", type=int, required=True)
    sp = series_sub.add_parser("sp", help="symmetric-power coefficient rows")
    sp.add_argument("--cells", required=True,
                    help="comma-separated cell dimensions, e.g. 0,1,1,2")
    sp.add_argument("--d", type=int, required=True)

    cmd = sub.add_parser("check", help="run the built-in oracle suites")
    cmd.add_argument("--suite", choices=CHECK_SUITES, default="all")

    return parser


def _kept_rows(table, max_r: Optional[int]):
    # Rows 0..max_r, clamped: a negative slice end would keep rows.
    return table.rows if max_r is None else table.rows[: max(max_r + 1, 0)]


def _entries(table, max_r: Optional[int]):
    # The nonzero entries of the kept rows, in (r, k) order.
    for r, row in enumerate(_kept_rows(table, max_r)):
        for k, value in enumerate(row, 2 * r):
            if value:
                yield (r, k), value


def _emit_json(result, max_r: Optional[int]) -> None:
    document = {
        "expr": result.expr_text,
        "dim": result.table.dim,
        "proper": result.table.proper,
        "coefficients": result.table.coefficients.value,
        "ranks": [
            {"r": r, "k": k, "rank": value}
            for (r, k), value in _entries(result.table, max_r)
        ],
    }
    print(json.dumps(document))


def _emit_csv(result, max_r: Optional[int]) -> None:
    print("r,k,rank")
    for (r, k), value in _entries(result.table, max_r):
        print(f"{r},{k},{value}")


def _emit_plain(result, max_r: Optional[int]) -> None:
    table = result.table
    print(f"expr: {result.expr_text}")
    print(f"dim: {table.dim}")
    print(f"proper: {'true' if table.proper else 'false'}")
    print(f"coefficients: {table.coefficients.value}")
    width = max(len(str(v)) for row in table.rows for v in row)
    width = max(width, len(str(2 * table.dim)))
    header = "r\\k".rjust(5) + " |" + "".join(
        str(k).rjust(width + 1) for k in range(2 * table.dim + 1)
    )
    print(header)
    print("-" * len(header))
    blank = " " * (width + 1)  # below the defined range
    for r, row in enumerate(_kept_rows(table, max_r)):
        cells = "".join((str(v) if v else ".").rjust(width + 1) for v in row)
        print(str(r).rjust(5) + " |" + blank * (2 * r) + cells)


def _cmd_eval(ns) -> int:
    result = evaluate(parse(ns.expr))
    if ns.format == "json":
        _emit_json(result, ns.max_r)
    elif ns.format == "csv":
        _emit_csv(result, ns.max_r)
    else:
        _emit_plain(result, ns.max_r)
    return 0


def _cmd_chi(ns) -> int:
    expr = parse(ns.expr)
    profile = euler_profile(expr)
    if ns.all:
        print(" ".join(f"p={p}:{v}" for p, v in enumerate(profile.values)))
        return 0
    if not 0 <= ns.p < len(profile.values):
        raise ValueError(f"p must lie in 0..{len(profile.values) - 1}")
    print(profile.values[ns.p])
    return 0


def _cmd_chow(ns) -> int:
    print(higher_chow(parse(ns.expr), ns.r, ns.m))
    return 0


def _parse_cells(text: str) -> tuple[int, ...]:
    cleaned = text.strip().strip("[]")
    parts = [piece.strip() for piece in cleaned.split(",") if piece.strip()]
    if not parts or not all(piece.isdecimal() for piece in parts):
        raise ValueError(
            "cells must be a comma-separated list of nonnegative integers"
        )
    return tuple(map(literal, parts))


def _cmd_series(ns) -> int:
    if ns.series_kind == "hilb":
        grid = cheah_rows(ns.b2, ns.d)
    else:
        grid = macdonald_rows(cell_counts(_parse_cells(ns.cells)), ns.d)
    for d, row in enumerate(grid):
        # The grid holds the even z-exponents; the odd ones are zero.
        print(f"d={d}: " + " 0 ".join(map(str, row)))
    return 0


def _cmd_check(ns) -> int:
    results = run_checks(ns.suite)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name} ({result.instances})")
    return 0 if all(result.passed for result in results) else 4


_HANDLERS = {
    "eval": _cmd_eval,
    "chi": _cmd_chi,
    "chow": _cmd_chow,
    "series": _cmd_series,
    "check": _cmd_check,
}


def run(argv: Sequence[str]) -> int:
    """Parse arguments, dispatch, and map failures to the exit-code contract."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except SystemExit as exc:  # --help and friends
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    # Exact answers may have any number of digits, so lift the limit in here.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _HANDLERS[ns.command](ns)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 1
    except UnsupportedQueryError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
