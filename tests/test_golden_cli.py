"""`costshare check`, `demo` and `gen` stay byte-identical on a fixed
command list.

The digests in golden_cli.json were captured before the command line's
property dispatch moved into `properties.PROPERTIES`, and held through that
move. Seven were recaptured afterwards, when `check` began to validate
`--step`, `--count` and `--ir-samples` before any property runs: a bad or
nonpositive step with symmetry, bbr or an empty corpus, and a negative count
or sample budget, now exit 2 instead of printing a report. See
golden_cli.py for the commands and how to recapture them.
"""

import json
import time

from golden_cli import GOLDEN, commands, digests


def test_cli_outputs_match_golden_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    got = digests()
    elapsed = time.perf_counter() - t0
    assert len(want) == len(commands()) == 390
    changed = sorted(k for k in want if got.get(k) != want[k])
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"
    assert got.keys() == want.keys()
    assert elapsed < 60, f"golden command list took {elapsed:.1f}s"
