"""Boundary mutation probe: which comparisons could move without a test noticing.

    python tests/mutation_probe.py [MODULE ...]

For every comparison operator in the named modules of ``src/costshare``
(default: properties rsm welfare cvm steiner documents) the probe writes one
mutant into a copy of the repository and runs the tier-1 suite there with
``-x``. The mutant moves an order or equality test's boundary (``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``) or inverts an identity or
membership test (``is`` and ``is not``, ``in`` and ``not in``). A mutant is
killed when the suite fails or runs past the timeout (a loop that no longer
ends), and survives when the suite passes.

A survivor listed in ALLOWED is an equivalent mutant, or one only speed can
show; its entry says why. Any other survivor is a comparison no test holds.
The probe prints one line per mutant, then the counts, and exits 1 when a
survivor is not on the list. Before the mutants it runs the suite once on
each selected module as re-printed by ``ast.unparse``, so a failure there is
the probe's, not a mutant's. The timeout is four times the slowest of those
runs.

It runs two suites at a time (one on a single-core machine), uses only the
standard library and is not collected by pytest. A full run over the default
modules took about 17 minutes on two cores when it made 108 mutants; with
identity and membership tests it makes about 150.
"""

from __future__ import annotations

import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "costshare"
DEFAULT_MODULES = ("properties", "rsm", "welfare", "cvm", "steiner", "documents")
JOBS = min(2, os.cpu_count() or 1)
FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
        ast.In: ast.NotIn, ast.NotIn: ast.In}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
          ast.In: "in", ast.NotIn: "not in"}
IGNORE = shutil.ignore_patterns(".git", "_work", "__pycache__", ".pytest_cache",
                                ".hypothesis", ".benchmarks", "*.egg-info")

# (module, function, comparison as written, mutated operator) -> why no test
# can tell the mutant apart. A comparison that appears twice in one function
# is one entry; both sites must then be equivalent.
ALLOWED = {
    ("steiner", "SteinerSolver._superset_min", "out[p] < best", "<="):
        "keeps the same value on a tie",
    ("steiner", "SteinerSolver._node_set_rows", "a < b", "<="):
        "the root-free merge keeps the smaller of two ints; on a tie both are equal",
    ("steiner", "SteinerSolver._spanning_costs", "base >= best", ">"):
        "at base == best no candidate base + c is below best: speed only",
    ("steiner", "SteinerSolver._spanning_costs", "base + c < best", "<="):
        "the recurrence keeps the smaller of two ints; on a tie both are equal",
    ("steiner", "_node_sets_pay", "3 ** k * n > NODE_SET_STEP * (1 << (n - 1)) * edges", ">="):
        "picks between two witness sources with the same dp values: speed only",
    ("steiner", "SteinerSolver._dreyfus_wagner", "c < merged[v]", "<="):
        "the DP keeps only values; on a tie the kept value is the same",
    ("steiner", "SteinerSolver._dreyfus_wagner", "c < best", "<="):
        "the DP keeps only values; on a tie the kept value is the same",
    ("steiner", "SteinerSolver._shortest_paths", "dik >= inf", ">"):
        "no distance exceeds inf, and at dik == inf no alternative beats di[j]",
    ("steiner", "SteinerSolver._path_edges", "hops > self._n", ">="):
        "a shortest path has at most n - 1 hops; both forms raise only on a cycle",
    ("steiner", "SteinerSolver._positions", "i > root", ">="):
        "only the root's entry differs, and the next line overwrites it",
    ("steiner", "brute_force_steiner_oracle", "len(tset) <= 1", "<"):
        "one terminal's own mask comes first and costs 0 with no edges, as the shortcut",
    ("welfare", "compute_delta_table", "sw_delta[pred] > best", ">="):
        "the pass keeps only the largest value, not which predecessor holds it",
    ("model", "edge_key", "u < v", "<="):
        "u == v raises on the line before, so both forms order every pair alike",
    ("properties", "generate_instance", "rng.random() < edge_probability", "<="):
        "a float draw equals the probability with chance about 2**-53",
    ("properties", "make_twin_instance", "rng.random() < 0.6", "<="):
        "a float draw equals 0.6 with chance about 2**-53",
    ("properties", "make_twin_instance", "rng.random() < 0.5", "<="):
        "a float draw equals 0.5 with chance about 2**-53",
}


class _Sites(ast.NodeVisitor):
    """Every (comparison node, operator index) in source order, with the
    qualified name of the function around it."""

    def __init__(self):
        self.found: list[tuple[ast.Compare, int, str]] = []
        self._scope: list[str] = []

    def _enter(self, node):
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Compare(self, node: ast.Compare):
        for k, op in enumerate(node.ops):
            if type(op) in FLIP:
                self.found.append((node, k, ".".join(self._scope) or "<module>"))
        self.generic_visit(node)


def _sites(tree: ast.AST) -> list[tuple[ast.Compare, int, str]]:
    visitor = _Sites()
    visitor.visit(tree)
    return visitor.found


def mutants(module: str) -> list[dict]:
    """One record per comparison operator of the module."""
    source = (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    out = []
    for index, (node, k, scope) in enumerate(_sites(ast.parse(source))):
        text = " ".join((ast.get_source_segment(source, node) or "").split())
        if len(node.ops) > 1:
            text += f" [op {k + 1}]"
        op = type(node.ops[k])
        out.append({"module": module, "index": index, "line": node.lineno,
                    "scope": scope, "text": text, "from": SYMBOL[op],
                    "to": SYMBOL[FLIP[op]]})
    return out


def mutated_source(module: str, index: int | None) -> str:
    """The module re-printed by ast.unparse, with site ``index`` flipped
    (none when index is None)."""
    source = (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    if index is not None:
        node, k, _ = _sites(tree)[index]
        node.ops[k] = FLIP[type(node.ops[k])]()
    return ast.unparse(tree) + "\n"


def run_suite(copy: Path, timeout: float | None) -> str:
    """'passed', 'failed' or 'timeout' for the tier-1 suite in one copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def main(modules: list[str]) -> int:
    modules = modules or list(DEFAULT_MODULES)
    for m in modules:
        if not (ROOT / PACKAGE / f"{m}.py").is_file():
            print(f"no module {m!r} in {PACKAGE}")
            return 2
    todo = [rec for m in modules for rec in mutants(m)]
    keys = {(rec["module"], rec["scope"], rec["text"], rec["to"]) for rec in todo}
    for key in ALLOWED:
        if key[0] in modules and key not in keys:
            print(f"allowlist entry matches no mutant: {key}")

    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as work:
        copies: queue.Queue = queue.Queue()
        for j in range(JOBS):
            copy = Path(work) / f"copy{j}"
            shutil.copytree(ROOT, copy, ignore=IGNORE)
            copies.put(copy)

        def probe(module: str, index: int | None, timeout: float | None) -> tuple:
            """(outcome, seconds) of the suite with one mutant in place."""
            copy = copies.get()
            target = copy / PACKAGE / f"{module}.py"
            original = target.read_text(encoding="utf-8")
            try:
                target.write_text(mutated_source(module, index), encoding="utf-8")
                t = time.monotonic()
                return run_suite(copy, timeout), time.monotonic() - t
            finally:
                target.write_text(original, encoding="utf-8")
                copies.put(copy)

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            baseline = list(pool.map(lambda m: probe(m, None, None), modules))
            for m, (outcome, _) in zip(modules, baseline):
                if outcome != "passed":
                    print(f"{m}.py re-printed by ast.unparse does not pass the suite "
                          f"({outcome}); no mutant was run")
                    return 2
            timeout = 4 * max(seconds for _, seconds in baseline)
            t0 = time.monotonic()
            outcomes = pool.map(
                lambda rec: probe(rec["module"], rec["index"], timeout)[0], todo)
            counts = {"killed": 0, "timeout": 0, "allowed": 0, "survived": 0}
            for rec, outcome in zip(todo, outcomes):
                key = (rec["module"], rec["scope"], rec["text"], rec["to"])
                if outcome == "passed":
                    status = "allowed" if key in ALLOWED else "survived"
                else:
                    status = "timeout" if outcome == "timeout" else "killed"
                counts[status] += 1
                print(f"{status:8} {rec['module']}.py:{rec['line']} {rec['scope']}: "
                      f"{rec['text']!r} {rec['from']} -> {rec['to']}", flush=True)
    print(f"{len(todo)} mutants in {time.monotonic() - t0:.0f} s "
          f"(timeout {timeout:.0f} s): "
          + ", ".join(f"{n} {k}" for k, n in counts.items()))
    print(f"survivors outside the allowlist: {counts['survived']}")
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
