"""Digests of canonical answers, and parsers for the CLI's output.

The workload process reduces each answer to the digest of its canonical form
and keeps only that; the reference computes the same digest on its own.
Equal digests mean equal answers.  A table's digest is fed one entry at a
time in (r, k) order, so taking it adds little to the peak memory of the
process being measured.
"""

from __future__ import annotations

import hashlib
import json


def _entry_stream(header: str, entries) -> str:
    h = hashlib.sha256(header.encode())
    for r, k, v in entries:
        h.update(f"{r} {k} {v}\n".encode())
    return h.hexdigest()[:32]


def table_digest(dim: int, proper: bool, coefficients: str, entries) -> str:
    """``entries``: the nonzero (r, k, rank) triples in (r, k) order."""
    return _entry_stream(f"table {dim} {proper} {coefficients}\n", entries)


def entries_digest(entries) -> str:
    """A table known by its entries alone, as CSV gives it."""
    return _entry_stream("entries\n", entries)


def digest(canon: tuple) -> str:
    """Digest of a small canonical answer."""
    return hashlib.sha256(repr(canon).encode()).hexdigest()[:32]


def result_digest(result) -> str:
    """Digest of an in-process ``EvaluationResult``."""
    table = result.table
    ranks = table.ranks
    return table_digest(table.dim, table.proper, table.coefficients.value,
                        ((r, k, ranks[r, k]) for r, k in sorted(ranks)))


def output_digest(expect_kind: str, fmt: str, stdout: str) -> str:
    """Digest of a CLI answer, parsed from its standard output."""
    try:
        return _parse(expect_kind, fmt, stdout)
    except (ValueError, KeyError, IndexError, TypeError):
        return digest(("unparsable", stdout[:200]))


def _parse(kind: str, fmt: str, out: str) -> str:
    if kind == "reject":
        return digest(("reject",) if out == "" else ("stdout", out[:200]))
    lines = out.splitlines()
    if kind == "check":
        return digest(("check", bool(lines) and all(line.startswith("[PASS] ") for line in lines)))
    if kind in ("chi_p", "chow"):
        (line,) = lines
        return digest(("int", int(line)))
    if kind == "chi_all":
        (line,) = lines
        values = []
        for p, item in enumerate(line.split()):
            label, value = item.split(":")
            if label != f"p={p}":
                raise ValueError(label)
            values.append(int(value))
        return digest(("chi", tuple(values)))
    if kind in ("series_hilb", "series_sp"):
        rows = []
        for t, line in enumerate(lines):
            label, _, body = line.partition(": ")
            if label != f"d={t}":
                raise ValueError(label)
            rows.append(tuple(int(v) for v in body.split()))
        return digest(("rows", tuple(rows)))
    if fmt == "json":
        doc = json.loads(out)
        entries = sorted((e["r"], e["k"], e["rank"]) for e in doc["ranks"])
        return table_digest(doc["dim"], doc["proper"], doc["coefficients"], entries)
    if fmt == "csv":
        if lines[0] != "r,k,rank":
            raise ValueError(lines[0])
        return entries_digest(sorted(tuple(int(v) for v in line.split(",")) for line in lines[1:]))
    return _parse_plain(lines)


def _parse_plain(lines: list[str]) -> str:
    head = dict(line.split(": ", 1) for line in lines[1:4])
    dim = int(head["dim"])
    proper = {"true": True, "false": False}[head["proper"]]
    entries = []
    rows = lines[6:]
    if len(rows) != dim + 1:
        raise ValueError("row count")
    for line in rows:
        label, cells = line.split(" |", 1)
        r = int(label)
        values = cells.split()
        if len(values) != 2 * dim - 2 * r + 1:
            raise ValueError("row width")
        for j, v in enumerate(values):
            if v != ".":
                entries.append((r, 2 * r + j, int(v)))
    return table_digest(dim, proper, head["coefficients"], entries)
