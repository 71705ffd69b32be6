"""Benchmark for the lawson calculator.  Standard library only.

    python3 bench/run.py --workload transport_nested --seed 1 --seconds 18 --trace 0

runs one workload and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (see BENCHMARK.json); with ``--trace 1`` they
are the per-layer ones of a separate traced run.  ``--workload all`` (the
default) runs the three workloads one after another.  Run it from any
directory: the calculator is imported from ``src/`` next to this directory,
and the program refuses to run when that is missing.

Set-up is measured several times, each in a fresh worker process, and the
median reported.  Answers are checked against reference.py after the worker
has exited.  Run-level notes (environment, tail percentile, hostile slice)
go to standard output above the result line.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import speed
from queries import WORKLOADS, round_queries
from reference import Reference

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7  # set-up-only workers
PROBES = 5  # interpreter and import probes per run
WORKER_TIMEOUT = 120  # seconds; a hung worker must not hold the run past its limit
LAWSON_MODULES = ("__init__", "cli", "dsl", "engine", "grading", "series", "varieties")


def _child_seconds(args: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(args, env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def interpreter_ms() -> float:
    """Median wall time of ``python -c pass``: what every CLI process pays
    before the calculator runs at all."""
    return 1000 * median([_child_seconds([sys.executable, "-c", "pass"], dict(os.environ))
                          for _ in range(PROBES)])


def import_ms() -> float:
    """Median in-child time of ``import lawson.cli``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import time; s = time.perf_counter(); import lawson.cli; "
            "print(1000 * (time.perf_counter() - s))")
    samples = [float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                    check=True, capture_output=True, text=True).stdout)
               for _ in range(PROBES)]
    return median(samples)


def environment() -> dict:
    tags = [importlib.util.cache_from_source(str(ROOT / "src" / "lawson" / f"{m}.py"))
            for m in LAWSON_MODULES]
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "bytecode_cache": "warm" if all(Path(t).exists() for t in tags) else "cold",
        "writes_bytecode": not sys.dont_write_bytecode,
        "cli.interpreter_ms": round(interpreter_ms(), 3),
    }


def _worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    """Start a worker; return its set-up seconds (scaled to reference speed
    for a set-up-only worker, raw otherwise) and its parsed result."""
    args = [sys.executable, str(Path(__file__).with_name("worker.py")), "--root", str(ROOT),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if setup_only:
        args.append("--setup-only")
    before = speed.spawn_slowness()
    start = time.perf_counter()
    with subprocess.Popen(args, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                          text=True) as child:
        ready = child.stdout.readline()
        setup = time.perf_counter() - start
        try:
            rest, _ = child.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise SystemExit(f"{workload} worker killed after {WORKER_TIMEOUT} s")
    if ready.strip() != "ready" or child.returncode != 0:
        raise SystemExit(f"{workload} worker failed (exit {child.returncode})")
    if setup_only:
        return speed.scaled(setup, before, speed.spawn_slowness()), None
    return setup, json.loads(rest.strip().splitlines()[-1])


def check(workload: str, seed: int, observations: list, trace: int) -> int:
    """Number of observations that differ from the reference.  A timed run's
    observations follow the seeded stream round by round; a traced run's
    repeat round 0."""
    ref = Reference()
    failed = 0
    queries: list = []
    index = 0
    for i, (code, got, note) in enumerate(observations):
        if trace:
            if not queries:
                queries = round_queries(workload, seed, 0)
            q = queries[i % len(queries)]
        else:
            if i >= len(queries):
                queries += round_queries(workload, seed, index)
                index += 1
            q = queries[i]
        want_code, want = ref.answer(q)
        if note or code != want_code or got != want:
            failed += 1
            print(f"FAILED {q.cls}: {(q.text or ' '.join(q.argv))[:100]} "
                  f"exit {code} (want {want_code}) {note}")
    return failed


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 units: dict[str, str]) -> dict:
    """One run; ``units`` maps each metric to report to its unit."""
    env = environment()
    setups = [] if trace else [_worker(workload, seed, seconds, trace, True)[0]
                               for _ in range(SETUP_SAMPLES)]
    _, raw = _worker(workload, seed, seconds, trace, False)
    observations = raw["observations"]
    failed = check(workload, seed, observations, trace)
    print(f"env {json.dumps(env)}")
    for h in raw.get("hostile", ()):
        state = "handled" if h["handled"] else "FAILED"
        print(f"hostile {h['name']}: {state}, exit {h['exit']} after {h['seconds']:.2f} s; "
              f"{h['stderr_tail']}")
    if trace:
        values = raw["metrics"]
        values["cli.interpreter_ms"] = env["cli.interpreter_ms"]
        values["cli.import_ms"] = import_ms()
        print(f"{workload} traced: {raw['passes']} traced passes over round 0 "
              f"({raw['queries_per_pass']} queries), spans in .bench_out/")
    else:
        scaled = sorted(raw["scaled_ns"])
        n = len(scaled)
        # Highest percentile with at least ten samples above it.
        tail = max(n - 11, 0)
        values = {
            "setup_s": median(setups),
            "throughput_qps": n / (sum(scaled) / 1e9),
            "latency_p50_ms": median(scaled) / 1e6,
            "latency_tail_ms": scaled[tail] / 1e6,
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        }
        wall = sorted(raw["latencies_ns"])
        print(f"{workload}: {n} queries in {raw['rounds']} rounds; latency_tail_ms is "
              f"p{100 * (tail + 1) / n:.1f} ({n - tail - 1} of {n} samples above); "
              f"raw wall p50 {median(wall) / 1e6:.2f} ms, p{100 * (tail + 1) / n:.1f} "
              f"{wall[tail] / 1e6:.2f} ms, busy {sum(wall) / 1e9:.2f} s; "
              f"set-up samples {[round(s, 4) for s in setups]}")
    return {"correct": failed == 0, "attempted": len(observations), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lawson" / "__init__.py").is_file():
        sys.exit(f"no calculator source at {ROOT / 'src' / 'lawson'}")
    # One core for this process and every child, so that the speed probes
    # measure the core the queries run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace, units)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
