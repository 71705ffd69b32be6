"""Correction for the speed of a shared machine.

On a machine whose cores are shared with other tenants, the same query can
take twice as long from one second to the next, and a slowdown lasts for
seconds, so it moves whole runs.  So each timed interval is paired with a
short probe right before and right after it, and a time is reported as
``measured / mean(slowness before, slowness after)``, where a probe's
slowness is its time over its time on an idle core (2 GHz Xeon, CPython
3.11).  Reported times are thus milliseconds at idle-core speed; the raw wall
times are reported alongside.

Two probes, matched to what is being timed:

* ``work_slowness``: a fixed pure-Python task made of the operations the
  calculator spends its time on (small function calls, tuple-keyed dict
  lookups, integer adds), for work done inside the process;
* ``spawn_slowness``: starting ``python -S -c pass``, for anything that
  starts a process (a CLI query, a worker's set-up).
"""

from __future__ import annotations

import subprocess
import sys
import time

WORK_REFERENCE_NS = 130_000
SPAWN_REFERENCE_NS = 12_000_000


def _look(table: dict, r: int, k: int) -> int:
    if r < 0:
        r = 0
    return table.get((r, k), 0)


def _task() -> int:
    table = {(r, k): r + k for r in range(10) for k in range(2 * r, 40)}
    total = 0
    for r in range(10):
        for k in range(2 * r, 40):
            total += _look(table, r - 1, k - 2) + _look(table, r, k - 1)
    return total


def work_slowness() -> float:
    """Fastest of three runs of the task (interrupts only ever add time),
    over its idle-core time."""
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        _task()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / WORK_REFERENCE_NS


def spawn_slowness() -> float:
    """Time to start and end a bare interpreter, over its idle-core time."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (time.perf_counter_ns() - start) / SPAWN_REFERENCE_NS


def scaled(measured: float, before: float, after: float) -> float:
    """A time measured between two probes, at idle-core speed."""
    return 2 * measured / (before + after)
