"""One workload in one fresh interpreter: set up, then time a closed loop.

Started by run.py with the checkout's ``src`` on PYTHONPATH. It prints
``READY`` with its CPU time so far once set-up is done (model or pair loaded,
inputs generated, one untimed warm-up pass).
In ``setup`` mode it exits there. Otherwise it computes the references, checks
and digests the warm-up outputs, runs the timed loop, and prints one JSON line.

The loop has one client: each op starts when the previous one returned. Inputs
cycle in whole passes, each pass in a fresh seeded order, and the loop stops at
the first pass boundary after ``--seconds`` of wall time that also has
MIN_SAMPLES ops. Per-op latency covers the engine calls only; checking each
output happens outside it.

Times are CPU time of this thread (set-up: of this process, from interpreter
start). The loop is single-threaded, CPU-bound and does no I/O, so this is the
wall time minus the time the host ran something else. On a shared VM the
host's speed also drifts, by up to 1.8x over minutes, and the drift moves all
pure-Python code alike. So the loop also times a fixed calibration unit after
every pass, and its times are scaled to a reference speed (see
calibration.py). The record keeps the scale, the loop's wall time and the
share of it that op CPU time covered.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time, thread_time_ns

import conspec as cs
from calibration import calibrate, speed_scale
from spans import Tracer
from workloads import WORKLOADS

MAX_SPANS = 1_000_000  # bounds a traced run's memory and spans file
# p99 needs at least 10 samples beyond it; on a slow host the loop runs the
# few extra passes that takes.
MIN_SAMPLES = 1000


def attempt(wl, item):
    """The op's output, or None when the engine raised ConspecError."""
    try:
        return wl.run(item)
    except cs.ConspecError:
        return None


def timed_passes(
    wl, rng: random.Random, seconds: float, tracer: Tracer | None = None, min_samples: int = 0
):
    """Run whole passes until ``seconds`` have elapsed and ``min_samples`` ops
    ran, or a traced run holds MAX_SPANS spans. Times one calibration unit
    after each pass. Returns (latencies ns, failures, calibration ns, wall
    seconds)."""
    latencies: list[int] = []
    calibration: list[int] = []
    failed = 0
    n = len(wl.inputs)
    start = perf_counter()
    deadline = start + seconds
    while True:
        order = list(range(n))
        rng.shuffle(order)
        for i in order:
            item = wl.inputs[i]
            if tracer is not None:
                tracer.begin_op(len(latencies))
            t0 = thread_time_ns()
            out = attempt(wl, item)
            t1 = thread_time_ns()
            if tracer is not None:
                tracer.end_op()
            latencies.append(t1 - t0)
            if out is None or not wl.check(i, out):
                failed += 1
        calibration += calibrate(1)
        if (perf_counter() >= deadline and len(latencies) >= min_samples) or (
            tracer is not None and tracer.span_count() >= MAX_SPANS
        ):
            return latencies, failed, calibration, perf_counter() - start


def loop_summary(latencies: list[int], calibration: list[int], wall_s: float) -> dict:
    scale = speed_scale(calibration)
    cuts = statistics.quantiles(latencies, n=100)
    p99 = cuts[98]
    return {
        "samples": len(latencies),
        "loop_wall_s": wall_s,
        "op_cpu_share_of_wall": sum(latencies) / 1e9 / wall_s,
        "speed_scale": scale,
        "ops_per_s": len(latencies) / (sum(latencies) * scale / 1e9),
        "latency_p50_ms": cuts[49] * scale / 1e6,
        "latency_p99_ms": p99 * scale / 1e6,
        "samples_beyond_p99": sum(1 for x in latencies if x > p99),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spans", help="gzip'd TSV the trace mode writes its spans to")
    args = ap.parse_args(argv)

    data = Path(cs.__file__).parent / "data"
    wl = WORKLOADS[args.workload](data, args.seed)
    warm = [attempt(wl, item) for item in wl.inputs]
    print(f"READY {process_time()!r}", flush=True)
    if args.mode == "setup":
        return 0

    record: dict = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    record.update(wl.reference())
    digest = hashlib.sha256()
    for out in warm:
        for line in wl.ranked(out) if out is not None else ["<ConspecError>"]:
            digest.update(line.encode("utf-8") + b"\n")
    record["digest"] = digest.hexdigest()
    record["warmup_failed"] = sum(out is None or not wl.check(i, out) for i, out in enumerate(warm))
    del warm

    rng = random.Random(args.seed)
    if args.mode == "measure":
        latencies, failed, calibration, wall_s = timed_passes(wl, rng, args.seconds, min_samples=MIN_SAMPLES)
        record.update(loop_summary(latencies, calibration, wall_s))
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        latencies, failed, calibration, wall_s = timed_passes(wl, rng, args.seconds / 2)
        untraced = loop_summary(latencies, calibration, wall_s)
        tracer = Tracer()
        tracer.install()
        traced_latencies, traced_failed, calibration, wall_s = timed_passes(wl, rng, args.seconds / 2, tracer)
        traced = loop_summary(traced_latencies, calibration, wall_s)
        failed += traced_failed
        latencies += traced_latencies
        record["layers"] = tracer.metrics(len(traced_latencies))
        record["traced_samples"] = traced["samples"]
        record["untraced_ops_per_s"] = untraced["ops_per_s"]
        record["traced_ops_per_s"] = traced["ops_per_s"]
        record["spans"] = tracer.write(args.spans)
    record["attempted"] = len(latencies)
    record["failed"] = failed
    record["correct"] = failed == 0 and record["warmup_failed"] == 0 and record["reference_ok"]
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
