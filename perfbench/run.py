"""Benchmark of costshare: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload solve-cap --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  solve-cap           `costshare solve --trace` on 11-agent documents
  truthfulness-sweep  check_truthfulness for cvm and rsm on 5-agent instances
  ir-check            `costshare check --property individual-rationality`

Every measurement runs in a fresh single-threaded interpreter (worker.py),
closed loop with one client. The set-up time is the median over several
fresh interpreters, each timed from just before it is started until it is
ready to run its first op. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics, per
traced pass over the corpus. Lines before it give the run context, a calibration loop timed
at the start and end of the run (a drift diagnostic only; no metric is
scaled by it) and every metric with its unit.

Exits 2 without a result when the checkout has no costshare sources, and 1
when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_RUNS = 6  # plus the measuring worker's own set-up
WORKER_TIMEOUT_S = 150


def calibrate_ms() -> float:
    """Median of three timings of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) % 1_000_003
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def start_worker(args, *extra) -> tuple[float, dict]:
    """Run worker.py to completion; return its start time and summary."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale, *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description="costshare benchmark, one run")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny runs a one-instance corpus, for the self-test")
    p.add_argument("--golden", help="golden digests file (default: perfbench/golden)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "costshare" / "__init__.py").is_file():
        print(f"error: no costshare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    extra = ["--golden", args.golden] if args.golden else []
    calib_start = calibrate_ms()
    try:
        setups = []
        for _ in range(SETUP_ONLY_RUNS):
            started, ready = start_worker(args, "--setup-only", *extra)
            setups.append(ready["ready"] - started)
        started, result = start_worker(args, *extra)
        setups.append(result["ready"] - started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calib_end = calibrate_ms()

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if metrics.keys() != units.keys():
        print(f"error: metrics {sorted(metrics.keys() ^ units.keys())} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]

    cpus = len(os.sched_getaffinity(0))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} scale {args.scale}")
    print(f"context python {platform.python_version()} nproc {cpus} "
          f"machine {platform.machine()}")
    print(f"calibration_ms start {calib_start:.3f} end {calib_end:.3f}")
    print(f"setup_s samples {' '.join(f'{s:.4f}' for s in setups)}")
    for key, value in sorted(result["notes"].items()):
        if key != "self_share":
            print(f"note {key} {json.dumps(value)}")
    for layer, share in sorted(result["notes"].get("self_share", {}).items(),
                               key=lambda kv: -kv[1]):
        print(f"self_share {layer} {share:.4f}")
    for failure in result["failures"][:10]:
        print(f"failure {failure}")
    print(f"failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted})")
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
