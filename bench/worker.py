"""One workload in one fresh process; started by run.py.

Protocol on standard output: the line ``ready`` once set-up is done (the
first query is ready to be sent), then one JSON line with the raw
measurements.  Answers are reduced to digests here and checked by run.py
against the reference after this process has exited, so the reference's
memory never shows in this process's peak RSS.

Every workload is a closed loop with one caller: the next query is sent only
after the previous one has returned.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import speed
from answers import output_digest, result_digest
from queries import HOSTILE, distinct_nodes, query_expr, round_queries

# Limits for every CLI child, set in the child only.
CHILD_CPU_SECONDS = 2
CHILD_ADDRESS_SPACE = 512 * 1024 * 1024
CHILD_WALL_SECONDS = 30
RAW_CAP = 1.6
TRACEBACK = "Traceback (most recent call last)"


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_SECONDS, CHILD_CPU_SECONDS + 1))
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


class CliRunner:
    """Runs ``lawson`` subprocesses under the child limits."""

    def __init__(self, root: Path) -> None:
        self.command = [sys.executable, "-m", "lawson.cli"]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.root = root
        self.stdout_bytes = 0

    def run(self, argv) -> tuple[int, int, str, str]:
        """(latency_ns, exit code, stdout, stderr); a child over its wall
        limit is killed and reported with exit code -9."""
        start = time.perf_counter_ns()
        child = subprocess.Popen(
            self.command + list(argv), cwd=self.root, env=self.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=_limit_child,
        )
        try:
            out, err = child.communicate(timeout=CHILD_WALL_SECONDS)
        except subprocess.TimeoutExpired:
            child.kill()
            out, err = child.communicate()
        latency = time.perf_counter_ns() - start
        self.stdout_bytes += len(out)
        return latency, child.returncode, out.decode("utf-8", "replace"), err.decode("utf-8", "replace")

    def query(self, q) -> tuple[int, list]:
        latency, code, out, err = self.run(q.argv)
        note = ""
        if code < 0:
            note = f"killed by signal {-code}"
        elif TRACEBACK in err:
            note = "traceback"
        return latency, [code, output_digest(q.expect[0], q.fmt, out), note]


def in_process_query(lawson, q) -> tuple[int, list]:
    start = time.perf_counter_ns()
    try:
        result = lawson.evaluate(lawson.parse(q.text))
    except Exception as exc:  # a failed query is counted, the loop goes on
        return time.perf_counter_ns() - start, [-1, "", f"{type(exc).__name__}: {exc}"[:200]]
    latency = time.perf_counter_ns() - start
    return latency, [0, result_digest(result), ""]


def in_process_cli_query(lawson, q) -> tuple[int, list]:
    """``cli.run`` in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lawson.cli.run(list(q.argv))
    latency = time.perf_counter_ns() - start
    return latency, [code, output_digest(q.expect[0], q.fmt, out.getvalue()), ""]


def hostile_outcomes(cli: CliRunner) -> list[dict]:
    """Run the hostile inputs.  A documented rejection (exit 1-3, no
    traceback) counts as handled; a traceback, a kill or a limit hit as failed."""
    outcomes = []
    for name, argv in HOSTILE:
        latency, code, _, err = cli.run(argv)
        handled = code in (1, 2, 3) and TRACEBACK not in err
        tail = err.strip().splitlines()[-1:] or [""]
        outcomes.append({"name": name, "exit": code, "handled": handled,
                         "seconds": latency / 1e9, "stderr_tail": tail[0][:120]})
    return outcomes


def run_scaled(queries, run_query, slowness) -> tuple[list[int], list[float], list[list]]:
    """Run queries in order: raw latencies, latencies scaled to idle-core
    speed by the ``slowness`` probes around each one, and observations."""
    raw, scaled, observations = [], [], []
    before = slowness()
    for q in queries:
        latency, obs = run_query(q)
        after = slowness()
        raw.append(latency)
        scaled.append(speed.scaled(latency, before, after))
        observations.append(obs)
        before = after
    return raw, scaled, observations


def timed_loop(workload: str, seed: int, seconds: float, run_query, slowness) -> dict:
    """Whole rounds until the summed query latency, scaled to idle-core
    speed, reaches ``seconds``, so that a run does the same work however busy
    the machine is (and the tail percentile, which depends on the sample
    count, means the same thing in every run).  The raw latency is capped at
    RAW_CAP times ``seconds`` so that a very slow machine still ends in time."""
    wall_cap = time.monotonic() + 2 * RAW_CAP * seconds + 30
    out: dict = {"latencies_ns": [], "scaled_ns": [], "observations": []}
    busy = raw_busy = 0.0
    index = 0
    while (busy < seconds * 1e9 and raw_busy < RAW_CAP * seconds * 1e9
           and time.monotonic() < wall_cap):
        raw, scaled, observations = run_scaled(round_queries(workload, seed, index),
                                               run_query, slowness)
        out["latencies_ns"] += raw
        out["scaled_ns"] += scaled
        out["observations"] += observations
        busy += sum(scaled)
        raw_busy += sum(raw)
        index += 1
    out["rounds"] = index
    return out


def traced_passes(workload: str, seed: int, seconds: float, run_query,
                  out_path: Path) -> dict:
    """Alternate untraced and traced passes over round 0 until ``seconds``
    of wall time have gone, at least one of each.  Counts come from the first
    traced pass (they repeat exactly for a seed); times are scaled to
    reference speed and are medians over the traced passes."""
    from tracing import Tracer, summarize

    queries = round_queries(workload, seed, 0)
    nodes = sum(distinct_nodes(e) for e in map(query_expr, queries) if e is not None)
    eval_ids = frozenset(i for i, q in enumerate(queries) if q.argv[:1] == ("eval",))
    deadline = time.monotonic() + seconds
    plain_walls, traced_walls, summaries, observations = [], [], [], []
    first_spans = None
    while not (plain_walls and traced_walls) or time.monotonic() < deadline:
        before = speed.work_slowness()
        start = time.perf_counter_ns()
        for q in queries:
            observations.append(run_query(q)[1])
        wall = time.perf_counter_ns() - start
        middle = speed.work_slowness()
        plain_walls.append(speed.scaled(wall, before, middle))
        with Tracer() as tracer:
            start = time.perf_counter_ns()
            for i, q in enumerate(queries):
                tracer.query = i
                observations.append(run_query(q)[1])
            wall = time.perf_counter_ns() - start
            spans, counters = tracer.take()
        scale = speed.scaled(1.0, middle, speed.work_slowness())
        traced_walls.append(wall * scale)
        summary = summarize(spans, counters, nodes, eval_ids)
        summaries.append({k: v * scale if k.endswith("_ms") else v for k, v in summary.items()})
        if first_spans is None:
            first_spans = spans
    _write_spans(out_path, workload, seed, queries, first_spans)
    metrics = dict(summaries[0])
    for name in metrics:
        if name.endswith("_ms"):
            metrics[name] = median([s[name] for s in summaries])
    metrics["trace.overhead_share"] = median(traced_walls) / median(plain_walls) - 1
    return {"metrics": metrics, "observations": observations,
            "passes": len(traced_walls), "queries_per_pass": len(queries)}


def _write_spans(path: Path, workload: str, seed: int, queries, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "seed": seed,
           "queries": [q.text or " ".join(q.argv) for q in queries],
           "fields": ["name", "start_ns", "end_ns", "parent", "query"],
           "spans": spans}
    path.write_text(json.dumps(doc))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = args.root.resolve()
    cli = CliRunner(root)
    in_process = args.workload != "cli_mixed"

    # -- set-up: everything before the first query can be sent --------------
    lawson = None
    if in_process or args.trace:
        sys.path.insert(0, str(root / "src"))
        import lawson
        import lawson.cli  # noqa: F401

        if Path(lawson.__file__).resolve().parent != root / "src" / "lawson":
            sys.exit(f"imported lawson from {lawson.__file__}, not from {root / 'src'}")
    round_queries(args.workload, args.seed, 0)
    if in_process:
        lawson.evaluate(lawson.parse("pt"))
    else:
        cli.run(("eval", "pt"))
    print("ready", flush=True)
    if args.setup_only:
        return

    # -- measurement ----------------------------------------------------------
    result: dict = {}
    if not args.trace:
        if in_process:
            result = timed_loop(args.workload, args.seed, args.seconds,
                                lambda q: in_process_query(lawson, q), speed.work_slowness)
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            result = timed_loop(args.workload, args.seed, args.seconds, cli.query,
                                speed.spawn_slowness)
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            result["hostile"] = hostile_outcomes(cli)
    else:
        out_path = root / ".bench_out" / f"spans_{args.workload}_seed{args.seed}.json"
        if in_process:
            result = traced_passes(args.workload, args.seed, args.seconds,
                                   lambda q: in_process_query(lawson, q), out_path)
            result["metrics"].update({"cli.process_ms": 0.0, "cli.stdout_bytes": 0,
                                      "cli.hostile_failed": 0})
        else:
            # The same round as subprocesses (process cost, bytes, hostile slice),
            # then in-process through cli.run for the per-layer split.
            cli.stdout_bytes = 0
            _, scaled, observations = run_scaled(round_queries(args.workload, args.seed, 0),
                                                 cli.query, speed.spawn_slowness)
            stdout_bytes = cli.stdout_bytes
            hostile = hostile_outcomes(cli)
            result = traced_passes(args.workload, args.seed, args.seconds,
                                   lambda q: in_process_cli_query(lawson, q), out_path)
            result["observations"] = observations + result["observations"]
            result["hostile"] = hostile
            result["metrics"].update({
                "cli.process_ms": median(scaled) / 1e6,
                "cli.stdout_bytes": stdout_bytes,
                "cli.hostile_failed": sum(not h["handled"] for h in hostile),
            })
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
