"""conspec benchmark: one workload, one seed, one closed-loop run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus_roundtrip --seed 1 --seconds 30 --trace 0

Every run drives the checkout's own ``src/conspec`` through its public API in
fresh interpreters (see worker.py), one process and one thread at a time.

``--trace 0`` measures the end-to-end metrics untraced. Set-up is the CPU
time from interpreter start to the end of the warm-up pass, taken in
SETUP_RUNS fresh interpreters and reported as their median; the last of them
goes on to the timed loop. All times are scaled to a reference interpreter
speed (see worker.py and calibration.py), set-up by the loop's factor.
``--trace 1`` makes one traced run instead and reports the per-layer metrics,
with the tracing overhead as the gap in ops_per_s between its untraced and
traced halves.

Human-readable lines come first; the last line of standard output is the
result as one JSON object. A record of the run (seed, output digest, sample
counts, machine) and, for traced runs, every span go to RESULTS_DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from spans import metric_specs

HERE = Path(__file__).resolve().parent

WORKLOAD_NAMES = ("corpus_roundtrip", "translate_pair", "fanout_sim", "cold_realize")
SETUP_RUNS = 3
RESULTS_DIR = ".perfbench_out"
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(Exception):
    pass


def spawn(root: Path, args: list[str]) -> tuple[float, list[str]]:
    """Run worker.py; returns (the set-up CPU seconds its READY line reports,
    later lines)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = None
            lines = []
            for line in proc.stdout:
                if ready is None and line.startswith("READY "):
                    ready = float(line.split()[1])
                else:
                    lines.append(line.rstrip("\n"))
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0 or ready is None:
        raise ChildFailed(f"worker {' '.join(args)} exited with code {code}")
    return ready, lines


def machine() -> dict:
    return {
        "arch": platform.machine(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "conspec" / "__init__.py").is_file():
        print("perfbench: run from the root of a conspec checkout (no src/conspec here)", file=sys.stderr)
        return 2
    out_dir = root / RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    spans_path = out_dir / f"{stem}.spans.tsv.gz"
    setups = []
    try:
        if args.trace:
            _, lines = spawn(root, common + ["--mode", "trace", "--spans", str(spans_path)])
        else:
            setups = [spawn(root, common + ["--mode", "setup"])[0] for _ in range(SETUP_RUNS - 1)]
            ready, lines = spawn(root, common + ["--mode", "measure"])
            setups.append(ready)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = json.loads(lines[-1])
    record["machine"] = machine()

    if args.trace:
        units = {name: unit for name, unit, _ in metric_specs()}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in record["layers"].items()}
        overhead = record["untraced_ops_per_s"] - record["traced_ops_per_s"]
        metrics["trace.untraced_ops_per_s"] = {"value": record["untraced_ops_per_s"], "unit": "ops/s"}
        metrics["trace.traced_ops_per_s"] = {"value": record["traced_ops_per_s"], "unit": "ops/s"}
        metrics["trace.overhead_ops_per_s"] = {"value": overhead, "unit": "ops/s"}
        print(f"{args.workload} seed={args.seed}: {record['traced_samples']} traced ops, "
              f"{record['spans']} spans -> {spans_path.relative_to(root)}")
    else:
        # The set-up children ran just before the loop, so the loop's speed
        # scale is the best estimate of the host's speed for them too.
        record["setup_runs_raw_s"] = setups
        record["setup_s"] = statistics.median(setups) * record["speed_scale"]
        metrics = {name: {"value": record[name], "unit": unit} for name, unit in END_TO_END}
        print(f"{args.workload} seed={args.seed}: {record['samples']} samples, "
              f"{record['samples_beyond_p99']} beyond p99, setup median of {len(setups)}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    fail_ratio = record["failed"] / record["attempted"]
    print(f"  {'fail_ratio':48s} {fail_ratio:.6g} 1 ({record['failed']}/{record['attempted']} ops)")
    print(f"  digest {record['digest']}")
    if "fractional_share" in record:
        print(f"  fractional pairs {record['fractional_share']:.3f}")
    correct = record["correct"]
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": record["attempted"], "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
