"""The committed benchmark trajectory.

Each ``BENCH_<workload>.json`` at the repository root records runs of
``perfbench/run.py`` on that workload, appended by every change that claims
a speed gain. A run holds the commit it measured, the pair it belongs to
(the commits compared and the pair's number), the seed, ``run_seconds``, the
run-context lines ``run.py`` printed and its final JSON line. Both runs of
a pair share seed, length and trace mode and measure different commits.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
           1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
RUN_KEYS = {"commit", "pair", "seed", "run_seconds", "context", "result"}
COMMIT = re.compile(r"[0-9a-f]{40}")
PAIR = re.compile(r"([0-9a-f]{7,40})\.\.([0-9a-f]{7,40})/\d+")
FIRST_LINE = re.compile(r"workload (\S+) seed (\d+) seconds (\S+) trace ([01]) scale full")


def test_every_workload_has_a_trajectory():
    assert {p.name for p in BENCH_FILES} == {
        f"BENCH_{w['name']}.json" for w in SPEC["workloads"]}


def _check_run(workload: str, run: dict) -> tuple:
    """Assert one run's shape; return what its pair partner must share."""
    assert run.keys() == RUN_KEYS, sorted(run)
    assert COMMIT.fullmatch(run["commit"]), run["commit"]
    assert PAIR.fullmatch(run["pair"]), run["pair"]
    assert isinstance(run["seed"], int)
    assert isinstance(run["run_seconds"], (int, float)) and run["run_seconds"] > 0
    context = run["context"]
    assert context and all(isinstance(line, str) for line in context)
    head = FIRST_LINE.fullmatch(context[0])
    assert head, context[0]
    assert head[1] == workload
    assert int(head[2]) == run["seed"] and float(head[3]) == run["run_seconds"]
    assert any(line.startswith("context python ") for line in context)
    trace = int(head[4])
    result = run["result"]
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is (result["failed"] == 0)
    assert 0 <= result["failed"] <= result["attempted"]
    units = METRICS[trace]
    assert result["metrics"].keys() == units.keys()
    for name, metric in result["metrics"].items():
        assert metric.keys() == {"value", "unit"}
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)), name
    return run["pair"], run["seed"], run["run_seconds"], trace


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_shape(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    workload = path.name[len("BENCH_"):-len(".json")]
    assert doc.keys() == {"workload", "runs"}
    assert doc["workload"] == workload
    assert doc["runs"]
    pairs: dict = {}
    for run in doc["runs"]:
        shared = _check_run(workload, run)
        pairs.setdefault(shared, []).append(run["commit"])
    labels = [label for label, *_ in pairs]
    assert len(labels) == len(set(labels)), "a pair mixes seeds, lengths or trace modes"
    for (label, *_), commits in pairs.items():
        before, after = PAIR.fullmatch(label).group(1, 2)
        assert len(commits) == 2, label
        assert sorted(c.startswith(before) for c in commits) == [False, True], label
        assert sorted(c.startswith(after) for c in commits) == [False, True], label
