"""`costshare solve --trace` stays byte-identical on the golden corpus.

The digests in golden_solve.json were captured before the Steiner solver
moved to scaled ints and re-derived witness choices; see golden_solve.py
for the corpus and how to recapture it.
"""

import json
import time

from golden_solve import GOLDEN, digests


def test_solve_trace_outputs_match_golden_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    got = digests()
    elapsed = time.perf_counter() - t0
    assert len(want) == 600
    changed = sorted(k for k in want if got.get(k) != want[k])
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"
    assert got.keys() == want.keys()
    assert elapsed < 60, f"golden corpus took {elapsed:.1f}s"
