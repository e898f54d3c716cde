"""Self-test of the benchmark at a tiny size (about half a minute).

    python3 perfbench/selftest.py

Checks, on one-instance corpora:
  * every workload prints exactly the end-to-end metrics of BENCHMARK.json
    with their units (--trace 0), and exactly its per-layer metrics
    (--trace 1), each also on a "metric <name> <value> <unit>" line;
  * two traced runs on one seed give identical counts;
  * a corrupted golden output is counted as a failed op, not a crash;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "_work" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

failures = []


def check(ok: bool, what: str, detail: str = "") -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)
        if detail:
            print(detail)


def bench(workload: str, trace: int, *extra, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, lines, result


def printed_units(lines) -> dict:
    return {parts[1]: parts[3] for parts in (ln.split() for ln in lines)
            if len(parts) == 4 and parts[0] == "metric"}


def main() -> int:
    for workload in WORKLOADS:
        proc, lines, result = bench(workload, 0)
        check(result is not None, f"{workload}: untraced run succeeds", proc.stderr)
        if result is None:
            continue
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        check(units == E2E, f"{workload}: result carries every end-to-end metric with its unit")
        check(printed_units(lines) == E2E, f"{workload}: every end-to-end metric is printed")
        check(result["failed"] == 0 and result["correct"], f"{workload}: no op fails")

        counts = []
        for _ in range(2):
            proc, lines, result = bench(workload, 1)
            check(result is not None, f"{workload}: traced run succeeds", proc.stderr)
            if result is None:
                break
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == LAYERS, f"{workload}: result carries every per-layer metric")
            check(printed_units(lines) == LAYERS, f"{workload}: every per-layer metric is printed")
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] == "count"})
        if len(counts) == 2:
            check(counts[0] == counts[1], f"{workload}: two traced runs give identical counts")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    golden = json.loads((HERE / "golden" / "solve_cap.json").read_text(encoding="utf-8"))
    golden["11/0/rsm"] = "0" * 64
    corrupt = SCRATCH / "corrupt_golden.json"
    corrupt.write_text(json.dumps(golden), encoding="utf-8")
    proc, lines, result = bench("solve-cap", 0, "--golden", str(corrupt))
    check(result is not None and 0 < result["failed"] < result["attempted"]
          and not result["correct"],
          "solve-cap: a corrupted golden output counts as failed ops")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, lines, result = bench("solve-cap", 0, cwd=bare)
    check(proc.returncode != 0 and not any(ln.startswith("{") for ln in lines),
          "without the library sources the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
