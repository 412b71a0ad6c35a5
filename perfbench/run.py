#!/usr/bin/env python3
"""Benchmark of the replicated block device stack, end to end and by layer.

Usage (from the repository root, no install and no PYTHONPATH needed)::

    python3 perfbench/run.py --workload mcv-block --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` measures the same workload untraced for half the time and
then with per-layer spans (see ``tracing.py``) for the other half, and
reports the per-layer metrics.  Every run checks the program's results
against the benchmark's own oracles and exits 1, printing no result, on
a wrong one.  Otherwise the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See ``README.md`` for the
workloads, the metrics and how they relate.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up is timed about this many times per run, spread over the
#: whole run; the median is reported.
SETUPS = 40

#: Printed in the table but left out of the JSON result: co-tenant load
#: on a shared host moves them by more than a gated metric's bound of
#: 0.25 between runs of unchanged code (see README.md).
UNGATED = ("read_us_p50", "read_us_p99", "write_us_p50", "write_us_p99")


def git_commit() -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_setup(workload, setups: list):
    """Build a stack, appending its processor time to ``setups``."""
    gc.collect()
    t0 = thread_time()
    stack = workload.setup()
    setups.append(thread_time() - t0)
    return stack


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, budget: float, timed: bool, trace=None):
    """Replay rounds until ``budget`` wall seconds have passed.

    Each round builds its own stack.  After the first round, every
    round also builds enough extra stacks that about :data:`SETUPS`
    set-ups are timed, spread over the run.  With ``timed`` each round
    records its entry-call latencies.  Returns the rounds, every set-up
    time and the peak RSS after the first round, before the benchmark's
    own records grow with the number of rounds that fit in ``budget``.
    """
    from workloads import Latencies

    rounds, setups = [], []
    extra, rss = 0, 0.0
    begin = perf_counter()
    while not rounds or perf_counter() - begin < budget:
        stack = timed_setup(workload, setups)
        lat = Latencies.empty() if timed and workload.has_latencies else None
        if trace is not None:
            trace.active = True
        try:
            stats = workload.run(stack, lat, trace)
        finally:
            if trace is not None:
                trace.active = False
                trace.end_round()
        stats.lat = lat
        rounds.append(stats)
        del stack
        if len(rounds) == 1:
            rss = peak_rss_mb()
            first = perf_counter() - begin
            if budget > first:
                extra = math.ceil(SETUPS * first / budget) - 1
        for _ in range(extra):
            timed_setup(workload, setups)
    while len(setups) < SETUPS:
        timed_setup(workload, setups)
    return rounds, setups, rss


def ops_per_s(rounds) -> float:
    """Operations per second of the simulation's processor time."""
    return sum(r.ops for r in rounds) / sum(r.cpu_s for r in rounds)


def latency_us(rounds, kind: str):
    """p50 and p99 of one call kind, in microseconds.

    The simulation is deterministic, so the i-th successful call of a
    kind is the same call in every round.  Each call's latency is the
    median of its replays, which drops a stall that hit one replay, and
    the percentiles are taken over the calls.
    """
    samples = [np.frombuffer(getattr(r.lat, kind)) for r in rounds]
    if len({len(s) for s in samples}) != 1:
        raise RuntimeError(f"rounds replayed different {kind} calls")
    if not len(samples[0]):
        return 0.0, 0.0
    per_call = np.median(np.array(samples), axis=0)
    p50, p99 = np.percentile(per_call, [50, 99]) * 1e6
    return float(p50), float(p99)


def end_to_end(rounds, setups, rss: float) -> dict:
    ops = sum(r.ops for r in rounds)
    metrics = {"ops_per_s": (ops_per_s(rounds), "1/s")}
    if rounds[0].lat is not None:
        for kind in ("read", "write"):
            p50, p99 = latency_us(rounds, kind)
            metrics[f"{kind}_us_p50"] = (p50, "us")
            metrics[f"{kind}_us_p99"] = (p99, "us")
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (rss, "MB")
    metrics["msgs_per_op"] = (sum(r.msgs for r in rounds) / ops, "msgs/op")
    metrics["bytes_per_op"] = (sum(r.bytes for r in rounds) / ops, "B/op")
    metrics["success_frac"] = (
        1.0 - sum(r.failed for r in rounds) / ops, "fraction"
    )
    return metrics


def per_layer(plain, traced, trace) -> dict:
    """Per-layer metrics of the traced rounds, per round (one replay of
    the seed's script); rates use the untraced rounds' wall time."""
    from tracing import LAYERS

    n = len(traced)
    ops_round = traced[0].ops
    plain_ops_per_s = ops_per_s(plain)
    rounds_per_s = plain_ops_per_s / ops_round
    info = trace.breakdown()
    total_self = sum(info[layer]["self_s"] for layer in LAYERS)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (info[layer]["calls"] / n, "count")
        metrics[f"{layer}.self_s"] = (info[layer]["self_s"] / n, "s")
        metrics[f"{layer}.self_frac"] = (
            info[layer]["self_s"] / total_self, "fraction"
        )
    labels = info["labels"]
    recovery = [v for k, v in labels.items() if k.endswith(".on_site_repaired")]
    c = trace.counters
    calls = {layer: info[layer]["calls"] for layer in LAYERS}

    def ratio(a, b):
        return a / b if b else 0.0

    msgs = sum(r.msgs for r in traced) / n
    metrics.update({
        "fs.dev_ops_per_call": (
            ratio(calls["device.driver"], calls["fs"]), "ops/call"),
        "device.cache.hit_rate": (
            ratio(c.get("cache_hits", 0),
                  c.get("cache_hits", 0) + c.get("cache_misses", 0)),
            "fraction"),
        "device.driver.forwarded_per_call": (
            ratio(c.get("forwarded", 0), calls["device.driver"]), "ops/call"),
        "device.reliable.failovers": (c.get("failovers", 0) / n, "count"),
        "device.reliable.retries": (c.get("retries", 0) / n, "count"),
        "device.reliable.rounds_per_call": (
            ratio(c.get("rounds", 0), calls["device.reliable"]),
            "rounds/call"),
        "core.recovery_calls": (sum(v["count"] for v in recovery) / n, "count"),
        "core.recovery_s": (sum(v["span_s"] for v in recovery) / n, "s"),
        "core.recovery_msgs": (trace.recovery_msgs / n, "count"),
        "net.msgs": (msgs, "count"),
        "net.bytes": (sum(r.bytes for r in traced) / n, "B"),
        "net.msgs_per_s": (msgs * rounds_per_s, "1/s"),
        "sim.events": (trace.schedule_calls / n, "count"),
        "sim.events_per_s": (trace.schedule_calls / n * rounds_per_s, "1/s"),
        "membership.view_changes": (
            sum(r.counters.get("view_changes", 0) for r in traced) / n,
            "count"),
        "faults.injected": (
            sum(r.counters.get("injected", 0) for r in traced) / n, "count"),
        "obs.spans_per_op": (
            sum(r.counters.get("program_spans", 0) for r in traced)
            / sum(r.ops for r in traced), "spans/op"),
        "bench.trace_overhead_frac": (
            plain_ops_per_s / ops_per_s(traced) - 1.0, "fraction"),
    })
    rounds = plain + traced
    metrics["bench.failed_frac"] = (
        sum(r.failed for r in rounds) / sum(r.ops for r in rounds), "fraction"
    )
    metrics["bench.client_retries"] = (
        sum(r.retries for r in rounds) / len(rounds), "count"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="input size per round relative to the defined size "
             "(self-tests use small values)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources ({SRC / 'repro'}) are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from oracles import OracleError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_model": "open loop in simulated time (Poisson arrivals at a "
                      "fixed simulated rate), instant simulated delivery",
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "commit": git_commit(),
    }
    try:
        if args.trace == 0:
            rounds, setups, rss = measure(workload, args.seconds, timed=True)
            metrics = end_to_end(rounds, setups, rss)
        else:
            from tracing import LayerTrace

            plain, _, _ = measure(workload, args.seconds / 2, timed=False)
            trace = LayerTrace().install()
            try:
                traced, _, _ = measure(
                    workload, args.seconds / 2, timed=False, trace=trace
                )
            finally:
                trace.remove()
            metrics = per_layer(plain, traced, trace)
            rounds = plain + traced
    except OracleError as exc:
        print(f"WRONG RESULT: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    provenance.update(
        rounds=len(rounds), ops_per_round=rounds[0].ops,
        ops_per_run=attempted,
    )
    if args.trace == 1:
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}.npz"
        provenance["span_file"] = str(span_file.relative_to(ROOT))
        trace.dump(span_file, provenance)
    print(json.dumps({"provenance": provenance}))
    wall_ops = attempted / sum(r.wall_s for r in rounds)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6g} {unit}")
    print(f"{'ops_per_wall_s':36s} {wall_ops:16.6g} 1/s")
    print(f"{'failed_frac':36s} {failed / attempted:16.6g} fraction")
    retries = sum(r.retries for r in rounds) / len(rounds)
    print(f"{'client_retries per round':36s} {retries:16.6g} count")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in UNGATED
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
