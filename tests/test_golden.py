"""`costshare solve --trace` stays byte-identical on the golden corpus.

The digests in golden_solve.json were captured before the Steiner solver
moved to scaled ints and re-derived witness choices; see golden_solve.py
for the corpus and how to recapture it. Witness trees read their dp values
from a Dreyfus-Wagner run or from node-set costs, chosen by size; the corpus
must exercise both, so the digests pin both.

The benchmark's own solve goldens, perfbench/golden/solve_cap.json, are
replayed here too: the benchmark's self-test runs only the first of its
six 11-agent documents.
"""

import contextlib
import hashlib
import io
import json
import time
from collections import Counter
from pathlib import Path

from golden_solve import GOLDEN, MECHANISMS, digests

from costshare import serialize_instance
from costshare.cli import main
from costshare.properties import generate_instance
from costshare.steiner import SteinerSolver

SOLVE_CAP = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "solve_cap.json"


def _count_calls(monkeypatch, counts: Counter, name: str) -> None:
    build = getattr(SteinerSolver, name)

    def counted(self, *args):
        counts[name] += 1
        return build(self, *args)

    monkeypatch.setattr(SteinerSolver, name, counted)


def test_solve_trace_outputs_match_golden_digests(monkeypatch):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    sources = Counter()
    for name in ("_dreyfus_wagner", "_node_set_rows"):
        _count_calls(monkeypatch, sources, name)
    t0 = time.perf_counter()
    got = digests()
    elapsed = time.perf_counter() - t0
    assert len(want) == 600
    changed = sorted(k for k in want if got.get(k) != want[k])
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"
    assert got.keys() == want.keys()
    assert sources["_dreyfus_wagner"] and sources["_node_set_rows"], sources
    assert elapsed < 60, f"golden corpus took {elapsed:.1f}s"


def test_benchmark_solve_outputs_match_its_golden_digests(tmp_path):
    """Each 11-agent benchmark document, solved by every mechanism with
    --trace, prints what the benchmark's golden file records: the sha256
    of stdout followed by stderr, keyed "agents/seed/mechanism"."""
    want = json.loads(SOLVE_CAP.read_text(encoding="utf-8"))
    got = {}
    for seed in range(6):
        inst = generate_instance(agents=11, edge_probability=0.4, seed=seed)
        path = tmp_path / f"agents11-seed{seed}.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        for mech in MECHANISMS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["solve", "--input", str(path), "--mechanism", mech, "--trace"])
            assert rc == 0, (seed, mech, err.getvalue())
            text = out.getvalue() + err.getvalue()
            got[f"11/{seed}/{mech}"] = hashlib.sha256(text.encode()).hexdigest()
    assert len(want) == 18
    changed = sorted(k for k in want if got.get(k) != want[k])
    assert not changed, f"{len(changed)} outputs changed: {changed}"
    assert got.keys() == want.keys()
