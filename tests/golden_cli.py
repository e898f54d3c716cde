"""Golden outputs of `costshare check`, `demo` and `gen` commands.

The command list covers every property plus `all` for each mechanism, on a
generated corpus and on instance documents written from the fixtures
(including a document that carries a non-truthful profile and constructed
symmetric and ranked twins), `all` above the efficiency cap, an empty
corpus, bad option values, every demo, `gen` and an unknown property. For
each command the sha256 of its exit code, stdout and stderr is recorded;
the temporary directory holding the documents is written as `<tmp>`.

    PYTHONPATH=src python tests/golden_cli.py   # rewrites golden_cli.json

Only rewrite the file on a commit whose outputs are trusted; the test in
test_golden_cli.py diffs every later commit against it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from costshare import apply_deviation, serialize_instance, truthful_profile
from costshare.cli import main
from costshare.fixtures import (corpus_inefficiency, fig_bird_square, fig_line,
                                fig_relay_recharge, fig_staged_network,
                                fig_triangle, fig_zero_bridge,
                                relay_recharge_deviation)
from costshare.properties import make_twin_instance

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
MECHANISMS = ("cvm", "rsm", "bird")
PROPERTIES = ("truthfulness", "feasibility", "individual-rationality",
              "budget-balance", "positiveness", "efficiency",
              "utility-monotonicity", "symmetry", "ranking", "bbr",
              "welfare-ratio", "all")


def _relay_lie() -> str:
    inst = fig_relay_recharge()
    agent, rep = relay_recharge_deviation()
    return serialize_instance(inst, apply_deviation(truthful_profile(inst), agent, rep))


def documents() -> dict[str, str]:
    """Document name -> document text."""
    return {
        "line.json": serialize_instance(fig_line()),
        "square.json": serialize_instance(fig_bird_square()),
        "triangle.json": serialize_instance(fig_triangle()),
        "zero-bridge.json": serialize_instance(fig_zero_bridge(5)),
        "staged.json": serialize_instance(fig_staged_network()),
        "inefficiency.json": serialize_instance(corpus_inefficiency()),
        "relay-lie.json": _relay_lie(),
        "twin-symmetric.json": serialize_instance(make_twin_instance(3)[0]),
        "twin-ranked.json": serialize_instance(make_twin_instance(5, ranked=True)[0]),
    }


def commands() -> list[list[str]]:
    """Every command, with input documents named as `<tmp>/<name>`."""
    out = []
    for mech in MECHANISMS:
        for prop in PROPERTIES:
            base = ["check", "--property", prop, "--mechanism", mech]
            out.append(base + ["--count", "2", "--seed", "4", "--ir-samples", "8"])
            for name in documents():
                out.append(base + ["--input", f"<tmp>/{name}", "--ir-samples", "10"])
        # efficiency is refused by name above the cap, and skipped under `all`
        # (whose 9-agent sweeps cost about a second for cvm, so rsm is left out)
        for prop in ("all", "efficiency") if mech != "rsm" else ("efficiency",):
            out.append(["check", "--property", prop, "--mechanism", mech,
                        "--agents", "9", "--count", "1", "--seed", "3",
                        "--edge-probability", "0.25", "--max-valuation", "3",
                        "--step", "4", "--ir-samples", "1"])
    # violated twin checks on generated twins carry the instance
    for prop in ("symmetry", "ranking"):
        out.append(["check", "--property", prop, "--mechanism", "bird", "--count", "10"])
    for prop in ("truthfulness", "symmetry", "bbr", "all"):
        out.append(["check", "--property", prop, "--mechanism", "rsm", "--count", "0"])
    # option values: a bad or nonpositive step, negative counts
    for prop, extra in (("symmetry", "--step x"), ("bbr", "--step x"),
                        ("symmetry", "--step 0"), ("truthfulness", "--step x"),
                        ("truthfulness", "--step 0"), ("truthfulness", "--step=-1/2"),
                        ("feasibility", "--count 0 --step x"),
                        ("budget-balance", "--count -1"), ("symmetry", "--count -1"),
                        ("individual-rationality", "--count 1 --ir-samples -1")):
        out.append(["check", "--property", prop, "--mechanism", "cvm", *extra.split()])
    out.append(["check", "--property", "feasibility", "--mechanism", "cvm",
                "--input", "<tmp>/missing.json"])
    out.append(["check", "--property", "nope", "--mechanism", "cvm"])
    for name in ("bird-manipulation", "impossibility-bb", "impossibility-bbr",
                 "welfare-ratio-collapse"):
        out.append(["demo", "--name", name])
    out.append(["gen", "--agents", "5", "--seed", "7"])
    out.append(["gen", "--agents", "3", "--seed", "1", "--edge-probability", "0.9"])
    out.append(["gen", "--edge-probability", "1.5"])
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def digests() -> dict[str, str]:
    """sha256 of exit code, stdout and stderr per command line."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in documents().items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for argv in commands():
            rc, out, err = run([a.replace("<tmp>", tmp) for a in argv])
            blob = json.dumps([rc, out.replace(tmp, "<tmp>"), err.replace(tmp, "<tmp>")])
            got[" ".join(argv)] = hashlib.sha256(blob.encode()).hexdigest()
    return got


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
