"""Spans and counters recorded by shims around the calculator's public
functions, installed from outside the package and removed afterwards.

A shim replaces every binding of the original function in every ``lawson``
module namespace, because modules import each other's functions by name:
``engine`` binds ``validate``, ``render``, ``rank_at``, ``shift_and_sum`` and
the series products, the package binds everything it re-exports, ``validate``
and ``render`` recurse through their own module globals, and
``shift_and_sum`` calls ``grading.rank_at``.  Patching only the defining
module would miss most calls.

Each span is ``[name, start_ns, end_ns, parent_index, query_id]``.  Spans stay
in memory; the caller writes them out when the run ends.  ``rank_at`` runs
about a million times for one deep suspension, so it gets a counter and no
span; its time shows as self time of its caller.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

BUILDERS = (
    "suspend", "fiber_bundle_table", "decompose", "torus_table", "quadric_table",
    "cellular_table", "toric_smooth_table", "hilb_table", "sp_table",
)

# span name -> (module, attribute)
SPANS = {
    "dsl.parse": ("lawson.dsl", "parse"),
    "varieties.validate": ("lawson.varieties", "validate"),
    "varieties.render": ("lawson.varieties", "render"),
    "engine.evaluate": ("lawson.engine", "evaluate"),
    "grading.shift_and_sum": ("lawson.grading", "shift_and_sum"),
    "series.mul": ("lawson.series", "series_mul"),
    "cli.run": ("lawson.cli", "run"),
    **{f"engine.build.{b}": ("lawson.engine", b) for b in BUILDERS},
}


class Tracer:
    """Installs the shims on entry and restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.query = -1
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        import lawson.cli  # noqa: F401  (every module must be loaded before patching)
        from lawson.grading import BiGradedTable

        counters = self.counters

        def source_bytes(text, *_):
            counters["dsl.source_bytes"] += len(
                text if isinstance(text, bytes) else text.encode("utf-8"))

        def mul_pairs(a, b):
            counters["series.mul_pairs"] += len(a.coefficients) * len(b.coefficients)

        count = {"dsl.parse": source_bytes, "series.mul": mul_pairs}
        for name, (module, attr) in SPANS.items():
            original = getattr(sys.modules[module], attr)
            self._patch_everywhere(original, self._span(name, original, count.get(name)))

        rank_at = sys.modules["lawson.grading"].rank_at

        def counted_rank_at(*args, **kwargs):
            counters["grading.rank_at_calls"] += 1
            return rank_at(*args, **kwargs)

        self._patch_everywhere(rank_at, counted_rank_at)

        post_init = BiGradedTable.__post_init__
        checked = self._span("grading.table_check", post_init)

        def table_check(table):
            checked(table)
            counters["grading.entries_built"] += len(table.ranks)

        self._set(BiGradedTable, "__post_init__", table_check)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, shim) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "lawson" or name.startswith("lawson.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, shim)

    def _span(self, name: str, fn, count=None):
        """A shim recording one span per call; ``count`` sees the arguments."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def shim(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            span = [name, clock(), 0, stack[-1] if stack else -1, tracer.query]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        shim.__wrapped__ = fn
        return shim

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Return and reset the spans and counters recorded so far."""
        spans, counters = self.spans[:], dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span: its duration minus its children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list], counters: dict[str, int], nodes: int,
              eval_queries: frozenset[int]) -> dict[str, float]:
    """Per-layer metrics of one pass.  ``nodes`` is the number of distinct
    subexpressions the pass parsed; ``eval_queries`` the ids of CLI ``eval``
    queries, whose ``cli.run`` self time is the emit cost."""
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    emit_ns = 0
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] += 1
        self_ns[name] += own
        total_ns[name] += span[2] - span[1]
        if name == "cli.run" and span[4] in eval_queries:
            emit_ns += own

    def ms(ns: int) -> float:
        return ns / 1e6

    def per_node(n: int) -> float:
        return n / nodes if nodes else 0.0

    out = {
        "varieties.validate_calls": calls["varieties.validate"],
        "varieties.validate_self_ms": ms(self_ns["varieties.validate"]),
        "varieties.validate_per_node": per_node(calls["varieties.validate"]),
        "varieties.render_calls": calls["varieties.render"],
        "varieties.render_ms": ms(self_ns["varieties.render"]),
        "engine.evaluate_calls": calls["engine.evaluate"],
        "engine.evaluate_per_node": per_node(calls["engine.evaluate"]),
        "engine.evaluate_self_ms": ms(self_ns["engine.evaluate"]),
    }
    for b in BUILDERS:
        out[f"engine.build_ms.{b}"] = ms(self_ns[f"engine.build.{b}"])
    out.update({
        "grading.rank_at_calls": counters.get("grading.rank_at_calls", 0),
        "grading.tables_built": calls["grading.table_check"],
        "grading.entries_built": counters.get("grading.entries_built", 0),
        "grading.table_check_ms": ms(self_ns["grading.table_check"]),
        "grading.shift_and_sum_self_ms": ms(self_ns["grading.shift_and_sum"]),
        "series.mul_calls": calls["series.mul"],
        "series.mul_pairs": counters.get("series.mul_pairs", 0),
        "series.mul_ms": ms(self_ns["series.mul"]),
        "dsl.parse_calls": calls["dsl.parse"],
        "dsl.parse_ms": ms(self_ns["dsl.parse"]),
        "dsl.source_bytes": counters.get("dsl.source_bytes", 0),
        "cli.run_ms": ms(total_ns["cli.run"]),
        "cli.emit_ms": ms(emit_ns),
    })
    return out
