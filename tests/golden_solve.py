"""Golden corpus of `costshare solve --trace` outputs.

The corpus is 200 seeded instances with 1-8 agents and edge probability
0.4, 0.5 or 0.6; every fourth one has its integer costs divided by small
mixed denominators, so exact-rational costs are covered too. Each instance
is solved by cvm, rsm and bird through the command line, and the sha256 of
the printed JSON is recorded.

    PYTHONPATH=src python tests/golden_solve.py   # rewrites golden_solve.json

Only rewrite the file on a commit whose outputs are trusted; the test in
test_golden.py diffs every later commit against it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from costshare import Instance, serialize_instance
from costshare.cli import main
from costshare.properties import generate_instance

GOLDEN = Path(__file__).resolve().parent / "golden_solve.json"
MECHANISMS = ("cvm", "rsm", "bird")
SIZE = 200
DENOMINATORS = (1, 2, 3, 5, 7)


def corpus():
    """(seed, instance) pairs of the golden corpus, in seed order."""
    for seed in range(SIZE):
        agents = 1 + seed % 8
        p = (4, 5, 6)[seed // 8 % 3] / 10
        inst = generate_instance(agents=agents, edge_probability=p, seed=seed)
        if seed % 4 == 3:
            edges = {e: Fraction(c, DENOMINATORS[k % len(DENOMINATORS)])
                     for k, (e, c) in enumerate(sorted(inst.graph.edges().items()))}
            inst = Instance(inst.source, sorted(inst.agents), edges, inst.valuations)
        yield seed, inst


def digests() -> dict[str, str]:
    """sha256 of the `solve --trace` output per "seed/mechanism" key."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed, inst in corpus():
            path = os.path.join(tmp, f"{seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_instance(inst))
            for mech in MECHANISMS:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = main(["solve", "--input", path, "--mechanism", mech, "--trace"])
                if rc != 0:
                    raise RuntimeError(f"solve exited {rc} on {seed}/{mech}")
                out[f"{seed}/{mech}"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
