"""One workload process of the costshare benchmark.

run.py starts this file in a fresh interpreter for every measurement; it is
not meant to be run by hand except for --capture-golden. The process imports
costshare from the checkout's ``src``, builds its fixed corpus (setup), then
runs whole passes over that corpus in an order drawn from --seed until
--seconds have elapsed. One pass visits every (instance, mechanism) op once,
so every run sees the same mix of work. Peak RSS is read right after the
timed phase; every op's output is verified after that.

With --trace 1 the process instead alternates untraced passes with passes
under the outside-in tracer, all in one order, and reports per-layer metrics
per traced pass. The last stdout line is a JSON summary for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
GOLDEN = HERE / "golden" / "solve_cap.json"

# Percentile reported as ``<mechanism>.op_ms_tail``. It is fixed per
# workload so that it does not move with the number of passes a run fits,
# and chosen as the highest one with at least ten samples per mechanism
# beyond it in a run at the benchmark's run_seconds. Each run prints how
# many samples lie beyond it.
TAIL_PERCENTILE = {"solve-cap": 75, "truthfulness-sweep": 80, "ir-check": 65}

lib = None  # the costshare modules (a Lib), set by main()


class Lib:
    def __init__(self):
        sys.path.insert(0, str(ROOT / "src"))
        import costshare
        from costshare import cli, documents, properties, steiner

        where = Path(costshare.__file__).resolve().parent
        if where != (ROOT / "src" / "costshare").resolve():
            raise SystemExit(f"costshare imported from {where}, not from this checkout")
        self.cli = cli
        self.documents = documents
        self.properties = properties
        self.steiner = steiner


class Op(NamedTuple):
    mech: str
    key: str  # names the op in golden files and failure messages
    arg: object  # what the workload's run() needs: a path, an instance, an argv


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _edge_tree_problem(inst, edges, must_span, total) -> str | None:
    """Why ``edges`` is not a tree of the instance graph that spans
    ``must_span`` and costs ``total``, or None."""
    if not edges:
        return None if not must_span and total == 0 else "empty witness"
    nodes = {v for e in edges for v in e}
    if len(edges) != len(nodes) - 1:
        return f"witness has {len(edges)} edges on {len(nodes)} nodes"
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        if not inst.graph.has_edge(u, v):
            return f"witness edge {u}-{v} is not in the graph"
        parent[find(u)] = find(v)
    if len({find(v) for v in nodes}) != 1:
        return "witness is not connected"
    if not must_span <= nodes:
        return f"witness misses {sorted(must_span - nodes)}"
    cost = sum(Fraction(inst.graph.cost(u, v)) for u, v in edges)
    if cost != total:
        return f"witness costs {cost}, total_cost is {total}"
    return None


class SolveCap:
    """`costshare solve --mechanism M --trace` on 11-agent documents.

    Eleven agents plus the source is the largest graph the brute-force
    oracle accepts, so every op gets every check. One size keeps the op
    times of a mechanism in one band, so its median does not sit on the
    boundary between sizes whose DP costs differ threefold.
    """

    name = "solve-cap"
    mechanisms = ("cvm", "rsm", "bird")

    def __init__(self, scale: str, golden_path: Path = GOLDEN):
        self.pool = [(11, g) for g in range(6 if scale == "full" else 1)]
        self.golden_path = golden_path

    def setup(self) -> list[Op]:
        gen = lib.properties.generate_instance
        serialize = lib.documents.serialize_instance
        folder = WORK / self.name
        folder.mkdir(parents=True, exist_ok=True)
        self.instances = {}
        ops = []
        for a, g in self.pool:
            inst = gen(agents=a, edge_probability=0.4, seed=g)
            path = folder / f"agents{a}-seed{g}.json"
            path.write_text(serialize(inst), encoding="utf-8")
            self.instances[f"{a}/{g}"] = inst
            ops.extend(Op(m, f"{a}/{g}/{m}", str(path)) for m in self.mechanisms)
        self.golden = (json.loads(self.golden_path.read_text(encoding="utf-8"))
                       if self.golden_path.is_file() else {})
        return ops

    def run(self, op: Op):
        return run_cli(["solve", "--input", op.arg, "--mechanism", op.mech, "--trace"])

    def verify(self, op: Op, out, golden: bool = True) -> str | None:
        rc, text = out
        if rc != 0:
            return f"exit code {rc}: {text[:200]}"
        if golden and hashlib.sha256(text.encode()).hexdigest() != self.golden.get(op.key):
            return "output differs from the golden output"
        doc = json.loads(text)
        inst = self.instances[op.key.rsplit("/", 1)[0]]
        shares = {i: Fraction(str(x)) for i, x in doc["shares"].items()}
        total = Fraction(str(doc["total_cost"]))
        selected = frozenset(doc["selected"])
        for i, x in shares.items():
            if x < 0:
                return f"negative share for {i}"
            # The attachment rule ignores valuations; only the two truthful
            # mechanisms promise shares within the reported valuation.
            if op.mech != "bird" and x > inst.valuations[i]:
                return f"share of {i} exceeds its valuation"
        if op.mech == "rsm" and sum(shares.values()) != total:
            return f"rsm shares sum to {sum(shares.values())}, total_cost is {total}"
        edges = [tuple(e) for e in doc["edges"]]
        must_span = selected | {inst.source} if selected else frozenset()
        problem = _edge_tree_problem(inst, edges, must_span, total)
        if problem:
            return problem
        if selected:
            best = lib.steiner.brute_force_steiner_oracle(inst.graph, must_span)
            if best is None or Fraction(best.cost) != total:
                return f"total_cost {total} differs from the oracle's {best and best.cost}"
        return None


class TruthfulnessSweep:
    """check_truthfulness for cvm and rsm on 5-agent instances.

    The corpus is the first generator seeds from 1 whose instance has 8
    edges, the most common count at edge probability 0.55. The size of the
    deviation grid grows with 2**degree, so a fixed agent and edge count
    keeps the verdicts' costs within a narrow band.
    """

    name = "truthfulness-sweep"
    agents, edges = 5, 8

    def __init__(self, scale: str):
        self.size = 10 if scale == "full" else 1

    def setup(self) -> list[Op]:
        gen = lib.properties.generate_instance
        ops = []
        seed = 0
        while len(ops) < 3 * self.size:
            seed += 1
            inst = gen(agents=self.agents, edge_probability=0.55, max_cost=5,
                       max_valuation=8, seed=seed)
            if len(inst.graph.edges()) == self.edges:
                ops.extend(Op(m, f"{seed}/{m}", inst) for m in ("cvm", "rsm", "bird"))
        return ops

    def run(self, op: Op):
        cache = lib.steiner.SteinerCache()
        if op.mech == "bird":
            # Every workload reports bird latencies. The attachment rule is
            # not truthful, so its truthfulness sweep would stop wherever the
            # first manipulation sits; its op is the pointwise budget-balance
            # check instead, which holds by construction.
            rep = lib.properties.check_budget_balance(op.arg, "bird", cache=cache)
        else:
            rep = lib.properties.check_truthfulness(op.arg, op.mech, cache=cache)
        return rep.verdict, rep.witness

    def verify(self, op: Op, out) -> str | None:
        verdict, witness = out
        if verdict != "holds" or witness is not None:
            return f"verdict {verdict}, witness {witness}"
        return None


class IRCheck:
    """`costshare check --property individual-rationality` over seed windows.

    Each invocation checks --count 2 generated 6-agent instances with 30
    joint-deviation samples per agent, so a run fits about thirty
    invocations per mechanism while each still keeps one solver cache for
    its whole corpus.
    """

    name = "ir-check"

    def __init__(self, scale: str):
        if scale == "full":
            self.agents, self.count, self.samples, self.bird_count = 6, 2, 30, 50
            self.windows = [1 + self.count * j for j in range(6)]
        else:
            self.agents, self.count, self.samples, self.bird_count = 4, 1, 5, 2
            self.windows = [1]

    def setup(self) -> list[Op]:
        ops = []
        for w in self.windows:
            common = ["--agents", str(self.agents), "--seed", str(w)]
            for m in ("cvm", "rsm"):
                argv = ["check", "--property", "individual-rationality", "--mechanism", m,
                        *common, "--count", str(self.count), "--ir-samples", str(self.samples)]
                ops.append(Op(m, f"{w}/{m}", argv))
            # The attachment rule is not individually rational, so its check
            # would stop at the first violation; budget balance always holds.
            # One bird run costs ~2 ms, so a longer corpus gives an op that
            # lasts, like the others, longer than the machine's fast jitter.
            argv = ["check", "--property", "budget-balance", "--mechanism", "bird",
                    *common, "--count", str(self.bird_count)]
            ops.append(Op("bird", f"{w}/bird", argv))
        return ops

    def run(self, op: Op):
        return run_cli(op.arg)

    def verify(self, op: Op, out) -> str | None:
        rc, text = out
        if rc != 0:
            return f"exit code {rc}: {text[:200]}"
        reports = json.loads(text)
        want = "budget-balance" if op.mech == "bird" else "individual-rationality"
        if [(r["property"], r["mechanism"]) for r in reports] != [(want, op.mech)]:
            return f"unexpected reports {text[:200]}"
        if reports[0]["verdict"] != "holds" or reports[0]["witness"] is not None:
            return f"verdict {reports[0]['verdict']}, witness {reports[0]['witness']}"
        return None


WORKLOADS = {w.name: w for w in (SolveCap, TruthfulnessSweep, IRCheck)}

# Layers that must record calls on a workload. A layer that stays silent
# means a wrapped name no longer matches the library, so the run fails
# rather than report that layer as idle.
_CORE = {"steiner.lookup", "steiner.apsp", "steiner.cost_table", "steiner.contract",
         "welfare.recurrence", "rsm.stage", "baselines.prim", "model.induced_graph",
         "model.profile", "cvm.run", "rsm.run", "baselines.run"}
REQUIRED_LAYERS = {
    "solve-cap": _CORE | {"steiner.tree", "allocation.to_json", "documents.load", "cli.main"},
    "truthfulness-sweep": _CORE | {"properties.check"},
    "ir-check": _CORE | {"properties.check", "cli.main"},
}


def run_op(workload, op: Op):
    t0 = time.perf_counter_ns()
    try:
        out, error = workload.run(op), None
    except Exception:  # an op that raises is a failed op, not a failed run
        out, error = None, traceback.format_exc(limit=3)
    return op, time.perf_counter_ns() - t0, out, error


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def verify_all(workload, records) -> tuple[int, list[str]]:
    failures = []
    for op, _, out, error in records:
        if error is None:
            try:
                error = workload.verify(op, out)
            except Exception:  # a checker crash counts against the op
                error = "verification raised " + traceback.format_exc(limit=3)
        if error is not None:
            failures.append(f"{op.key}: {error}")
    return len(failures), failures


def latency_metrics(workload_name: str, records) -> tuple[dict, dict]:
    by_mech: dict[str, list[float]] = {}
    for op, ns, _, _ in records:
        by_mech.setdefault(op.mech, []).append(ns / 1e6)
    tail_p = TAIL_PERCENTILE[workload_name]
    metrics, notes = {}, {}
    for mech, values in sorted(by_mech.items()):
        values.sort()
        tail = percentile(values, tail_p)
        metrics[f"{mech}.op_ms_p50"] = percentile(values, 50)
        metrics[f"{mech}.op_ms_tail"] = tail
        notes[f"{mech}.op_ms_tail"] = {"percentile": tail_p, "samples": len(values),
                                       "beyond": sum(1 for v in values if v > tail)}
    return metrics, notes


def timed_run(workload, ops, seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    records = []
    passes = 0
    t0 = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        records.extend(run_op(workload, op) for op in order)
        passes += 1
        if time.perf_counter() - t0 >= seconds:
            break
    elapsed = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, failures = verify_all(workload, records)
    metrics, notes = latency_metrics(workload.name, records)
    metrics["ops_per_s"] = len(records) / elapsed
    metrics["peak_rss_mb"] = peak_rss_mb
    notes.update(passes=passes, timed_s=elapsed)
    return {"attempted": len(records), "failed": failed, "failures": failures,
            "metrics": metrics, "notes": notes}


def layer_metrics(tracer, traced_wall: float, untraced_wall: float, passes: int) -> dict:
    """Per-layer metrics per pass over the corpus: counts and self times
    are totals divided by the number of traced passes."""
    t = tracer
    lookups = t.count("steiner.lookup")
    misses = t.nested_in("steiner.apsp", "steiner.lookup")
    runs = t.count("cvm.run") + t.count("rsm.run") + t.count("baselines.run")
    rejected = t.rejected("cvm.run") + t.rejected("rsm.run") + t.rejected("baselines.run")
    totals = {
        "steiner.cost_table_calls": t.count("steiner.cost_table"),
        "steiner.dp_runs": t.dp_runs,
        "steiner.cost_table_s": t.self_s("steiner.cost_table"),
        "steiner.lookups": lookups,
        "steiner.solvers_built": t.count("steiner.apsp"),
        "steiner.apsp_s": t.self_s("steiner.apsp"),
        "steiner.contract_calls": t.count("steiner.contract"),
        "steiner.contract_s": t.self_s("steiner.contract"),
        "steiner.tree_s": t.self_s("steiner.tree"),
        "rsm.stages": t.count("rsm.stage"),
        "rsm.stage_s": t.self_s("rsm.stage"),
        "rsm.run_s": t.self_s("rsm.run"),
        "welfare.tables": t.count("welfare.recurrence"),
        "welfare.recurrence_s": t.self_s("welfare.recurrence"),
        "cvm.run_s": t.self_s("cvm.run"),
        "baselines.prim_s": t.self_s("baselines.prim"),
        "baselines.run_s": t.self_s("baselines.run"),
        "model.induced_graphs": t.count("model.induced_graph"),
        "model.induced_graph_s": t.self_s("model.induced_graph"),
        "model.profiles": t.count("model.profile"),
        "model.profile_s": t.self_s("model.profile"),
        "properties.runs": runs,
        "properties.runs_rejected": rejected,
        "properties.self_s": t.self_s("properties.check"),
        "allocation.to_json_s": t.self_s("allocation.to_json"),
        "documents.load_s": t.self_s("documents.load"),
        "cli.self_s": t.self_s("cli.main"),
        "trace.unexplained_s": traced_wall - t.total_self_s(),
    }
    metrics = {name: (value // passes if isinstance(value, int) and value % passes == 0
                      else value / passes)
               for name, value in totals.items()}
    metrics["steiner.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    metrics["properties.useful_ratio"] = (runs - rejected) / runs if runs else 0.0
    metrics["trace.overhead"] = traced_wall / untraced_wall
    return metrics


def traced_run(workload, ops, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced passes over one op order for --seconds,
    so drift of the machine hits both sides of the overhead alike."""
    from tracer import Tracer

    order = list(ops)
    random.Random(seed).shuffle(order)
    records = [run_op(workload, order[0])]  # warm-up, so neither side pays first-use costs
    tracer = Tracer()
    passes, untraced_wall, traced_wall = 0, 0.0, 0.0
    while passes == 0 or untraced_wall + traced_wall < seconds:
        t0 = time.perf_counter()
        records.extend(run_op(workload, op) for op in order)
        untraced_wall += time.perf_counter() - t0
        tracer.install()
        t0 = time.perf_counter()
        for k, op in enumerate(order):
            tracer.op_id = passes * len(order) + k
            records.append(run_op(workload, op))
        traced_wall += time.perf_counter() - t0
        tracer.uninstall()
        passes += 1

    silent = sorted(layer for layer in REQUIRED_LAYERS[workload.name]
                    if tracer.count(layer) == 0)
    if silent:
        raise SystemExit(f"traced layers recorded no calls on {workload.name}: {silent}")
    metrics = layer_metrics(tracer, traced_wall, untraced_wall, passes)
    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"{workload.name}-seed{seed}.spans.gz"
    tracer.write(spans_path)
    failed, failures = verify_all(workload, records)
    shares = {layer: tracer.self_s(layer) / traced_wall for layer in tracer.layers}
    return {"attempted": len(records), "failed": failed, "failures": failures,
            "metrics": metrics,
            "notes": {"passes": passes, "spans": len(tracer.name),
                      "spans_file": str(spans_path.relative_to(ROOT)),
                      "self_share": shares, "traced_s": traced_wall,
                      "untraced_s": untraced_wall}}


def capture_golden(path: Path) -> int:
    """Write the sha256 of every solve-cap output at full scale. Run once on
    a commit whose outputs are trusted; the other checks still apply."""
    workload = SolveCap("full", golden_path=path)
    ops = workload.setup()
    digests, bad = {}, 0
    for op in ops:
        _, _, out, error = run_op(workload, op)
        error = error or workload.verify(op, out, golden=False)
        if error:
            print(f"{op.key}: {error}", file=sys.stderr)
            bad += 1
        digests[op.key] = hashlib.sha256(out[1].encode()).hexdigest() if out else None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if bad else 0


def main(argv=None) -> int:
    global lib
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--golden", type=Path, default=GOLDEN)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--capture-golden", action="store_true")
    args = p.parse_args(argv)

    lib = Lib()
    if args.capture_golden:
        return capture_golden(args.golden)
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "solve-cap":
        workload = SolveCap(args.scale, args.golden)
    else:
        workload = WORKLOADS[args.workload](args.scale)
    ops = workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.trace:
        result = traced_run(workload, ops, args.seed, args.seconds)
    else:
        result = timed_run(workload, ops, args.seed, args.seconds)
    result["ready"] = ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
