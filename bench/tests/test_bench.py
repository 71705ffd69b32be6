"""Tests of the benchmark itself: the tracer's probe counts, the reference,
and the CLI output parsers.

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import lawson  # noqa: E402
import lawson.cli  # noqa: E402
from answers import output_digest, result_digest  # noqa: E402
from queries import Query, round_queries  # noqa: E402
from reference import Reference, cheah_grid, multiset_counts, torus_rows  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402


def traced(text: str) -> dict:
    with Tracer() as tracer:
        lawson.evaluate(lawson.parse(text))
        spans, counters = tracer.take()
    return summarize(spans, counters, 1, frozenset())


class ProbeCounts(unittest.TestCase):
    """Exact counts that only come out right when every namespace binding a
    shimmed name is patched."""

    def test_nested_suspension(self):
        m = traced("susp(" * 150 + "pt" + ")" * 150)
        self.assertEqual(m["varieties.validate_calls"], 11_476)
        self.assertEqual(m["engine.evaluate_calls"], 151)
        self.assertEqual(m["grading.rank_at_calls"], 1_158_775)
        self.assertGreater(m["engine.build_ms.suspend"], 0)

    def test_hilbert_series(self):
        self.assertEqual(traced("hilb(1,40)")["series.mul_calls"], 120)

    def test_originals_restored(self):
        before = {name: getattr(lawson, name) for name in lawson.__all__}
        post_init = lawson.BiGradedTable.__post_init__
        traced("prod(P(1),torus(2))")
        self.assertEqual({name: getattr(lawson, name) for name in lawson.__all__}, before)
        self.assertIs(lawson.engine.validate, lawson.varieties.validate)
        self.assertIs(lawson.grading.rank_at, lawson.engine.rank_at)
        self.assertIs(lawson.BiGradedTable.__post_init__, post_init)


class ReferenceTables(unittest.TestCase):
    def test_torus_split_matches_closed_form(self):
        for n in range(1, 9):
            rows = torus_rows(n)
            for r in range(n + 1):
                for k in range(2 * n + 1):
                    want = math.comb(n, k - n) if k >= max(2 * r, r + n) else 0
                    self.assertEqual(rows[r][k], want, (n, r, k))

    def test_hilbert_scheme_of_two_points_on_the_plane(self):
        # Hilb^2(P^2) has Betti numbers 1, 2, 3, 2, 1 in even degrees.
        self.assertEqual(cheah_grid(1, 2)[2][::2], [1, 2, 3, 2, 1])

    def test_symmetric_powers_of_the_line(self):
        counts = multiset_counts((1, 1), 5)
        self.assertEqual(counts[5], [1] * 6)

    def test_first_rounds_agree_with_the_calculator(self):
        ref = Reference()
        for workload in ("transport_nested", "series_box"):
            for q in round_queries(workload, 7, 0):
                result = lawson.evaluate(lawson.parse(q.text))
                self.assertEqual(result_digest(result), ref.answer(q)[1], q.text)


class CliOutputs(unittest.TestCase):
    def run_cli(self, q: Query) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = lawson.cli.run(list(q.argv))
        return code, output_digest(q.expect[0], q.fmt, out.getvalue())

    def test_formats_parse_to_the_reference(self):
        ref = Reference()
        e = ("prod", ("torus", 2), ("P", 1))
        for fmt in ("plain", "json", "csv"):
            argv = ("eval", "prod(torus(2),P(1))") + (("--format", fmt) if fmt != "plain" else ())
            q = Query("eval", "prod(torus(2),P(1))", ("table", e), argv, fmt)
            self.assertEqual(self.run_cli(q), ref.answer(q), fmt)

    def test_a_cli_round_agrees_with_the_reference(self):
        ref = Reference()
        for q in round_queries("cli_mixed", 7, 0):
            self.assertEqual(self.run_cli(q), ref.answer(q), q.argv)


if __name__ == "__main__":
    unittest.main()
