"""`costshare solve --trace` stays byte-identical on the golden corpus.

The digests in golden_solve.json were captured before the Steiner solver
moved to scaled ints and re-derived witness choices; see golden_solve.py
for the corpus and how to recapture it. Witness trees read their dp values
from a Dreyfus-Wagner run or from node-set costs, chosen by size; the corpus
must exercise both, so the digests pin both.
"""

import json
import time
from collections import Counter

from golden_solve import GOLDEN, digests

from costshare.steiner import SteinerSolver


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
