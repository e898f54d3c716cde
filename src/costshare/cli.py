"""Command line interface.

Subcommands:
  solve   run a mechanism on an instance document and print the allocation
  check   run property checks and print machine-readable reports
  demo    walk through a named phenomenon on built-in instances
  gen     write a deterministic random instance document

Exit codes: 0 success (and every checked property holds), 1 at least one
property violated, 2 usage or input error, 3 size cap exceeded.

The parser is built on the first ``main`` call and reused; it holds no
per-call state, since each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .baselines import run_bird
from .cvm import run_cvm
from .documents import load_document, parse_number, serialize_instance
from .fixtures import (corpus_inefficiency, fig_bird_square, fig_line,
                       fig_welfare_gap, fig_zero_bridge)
from .model import SizeCapError, ValidationError, value_to_json
from .properties import (MECHANISMS, PROPERTIES, PropertyReport,
                         budget_balance_ratio, check_budget_balance,
                         check_efficiency, check_feasibility,
                         check_truthfulness, generate_instance,
                         make_twin_instance, twin_pair,
                         welfare_ratio_of_selection)
from .steiner import SteinerCache


def _choices(dest: str) -> tuple[str, ...]:
    """The values of --mechanism, --property and --name. ``main`` checks
    them, not argparse, whose error text differs between Python releases."""
    return {"mechanism": tuple(sorted(MECHANISMS)), "property": (*PROPERTIES, "all"),
            "name": tuple(DEMOS)}[dest]


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costshare",
        description="Truthful cost sharing on networks: solve, check, demo, gen.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a mechanism on an instance document")
    p_solve.add_argument("--input", required=True, help="instance document path")
    p_solve.add_argument("--mechanism", required=True, help=", ".join(_choices("mechanism")))
    p_solve.add_argument("--trace", action="store_true",
                         help="include the stage trace in the output")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="check mechanism properties")
    p_check.add_argument("--mechanism", required=True, help=", ".join(_choices("mechanism")))
    p_check.add_argument("--property", required=True, help=", ".join(_choices("property")))
    p_check.add_argument("--input", help="check one instance document")
    p_check.add_argument("--count", type=int, default=10,
                         help="corpus size when no input is given")
    p_check.add_argument("--agents", type=int, default=4)
    p_check.add_argument("--edge-probability", type=float, default=0.5)
    p_check.add_argument("--max-cost", type=int, default=5)
    p_check.add_argument("--max-valuation", type=int, default=8)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--step", default="1/2",
                         help="deviation grid step (exact number)")
    p_check.add_argument("--ir-samples", type=int, default=200)
    p_check.set_defaults(func=cmd_check)

    p_demo = sub.add_parser("demo", help="walk through a named phenomenon")
    p_demo.add_argument("--name", required=True, help=", ".join(_choices("name")))
    p_demo.set_defaults(func=cmd_demo)

    p_gen = sub.add_parser("gen", help="write a deterministic random instance")
    p_gen.add_argument("--agents", type=int, default=4)
    p_gen.add_argument("--edge-probability", type=float, default=0.5)
    p_gen.add_argument("--max-cost", type=int, default=5)
    p_gen.add_argument("--max-valuation", type=int, default=8)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", help="output path (stdout when omitted)")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def cmd_solve(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        instance, profile = load_document(fh.read())
    alloc = MECHANISMS[args.mechanism](instance, profile)
    print(json.dumps(alloc.to_json(with_stages=args.trace), indent=2, sort_keys=True))
    return 0


def _instances(prop, args, document):
    """(seed, instance, targets) per checked instance. The seed is None for
    a document, whose twin checks cover every qualifying pair and whose
    pointwise checks run at the profile it carries."""
    if document is not None:
        instance, carried = document
        agents = instance.agent_order()
        if prop.kind == "twin":
            targets = [(instance, i, j) for i in agents for j in agents
                       if i != j and (prop.ranked or i < j)
                       and twin_pair(instance, i, j, prop.ranked)]
        else:
            targets = [carried if prop.kind == "pointwise" else instance]
        yield None, instance, targets
        return
    for seed in range(args.seed, args.seed + args.count):
        if prop.kind == "twin":
            twins = make_twin_instance(seed, ranked=prop.ranked)
            yield seed, twins[0], [twins]
        else:
            instance = _generate(args, seed)
            yield seed, instance, [instance]


def _generate(args, seed: int):
    return generate_instance(args.agents, args.edge_probability, args.max_cost,
                             args.max_valuation, seed)


def cmd_check(args) -> int:
    args.step = parse_number(args.step, "--step")
    if args.step <= 0:
        raise ValidationError("grid step must be positive")
    for flag, value in (("--count", args.count), ("--ir-samples", args.ir_samples)):
        if value < 0:
            raise ValidationError(f"{flag} must be nonnegative")
    document = None
    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            document = load_document(fh.read())
    names = ([args.property] if args.property != "all" else
             [n for n, p in PROPERTIES.items() if p.kind in ("instance", "pointwise")])

    reports = []
    for name in names:
        prop = PROPERTIES[name]
        checked, witness, values = 0, None, []
        for seed, instance, targets in _instances(prop, args, document):
            if (args.property == "all" and prop.cap is not None
                    and len(instance.agents) > prop.cap):
                continue
            # Each instance gets its own solver cache: generated instances
            # never share a graph, so a cache kept across the corpus only grows.
            cache = SteinerCache()
            for target in targets:
                result = prop.run(target, args.mechanism, args, cache)
                if prop.kind == "measurement":
                    entry = {"value": None if result is None else value_to_json(result)}
                    values.append(entry if seed is None else {**entry, "seed": seed})
                    checked += 1
                    continue
                checked += result.instances_checked
                if not result.holds and witness is None:
                    witness = dict(result.witness)
                    if seed is not None:
                        witness["instance"] = json.loads(serialize_instance(instance))
        verdict = "holds" if witness is None else "violated"
        if prop.kind == "measurement":
            witness = {"values": values}
        reports.append(PropertyReport(name, args.mechanism, verdict, witness,
                                      checked, args.seed))
    print(json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True))
    return 1 if any(not r.holds for r in reports) else 0


def _fmt(value) -> str:
    return str(value_to_json(value))


def _demo_bird_manipulation() -> int:
    inst = fig_bird_square()
    truthful = run_bird(inst)
    print("Attachment rule manipulation")
    print("============================")
    print("Graph: (s,a)=1  (a,b)=3  (a,c)=4  (b,c)=2; everyone truthful.")
    print(f"Tree grown from s: {sorted(truthful.tree_edges)}")
    print("Shares:", {i: value_to_json(x) for i, x in sorted(truthful.shares.items())})
    rep = check_truthfulness(inst, "bird")
    assert rep.verdict == "violated"
    w = rep.witness
    agent = w["agent"]
    declared = [tuple(e) for e in w["report"]["edges"]]
    print(f"\nThe deviation search finds that {agent!r} profits by declaring "
          f"only {declared}.")
    doc = json.loads(serialize_instance(inst))
    doc["reports"] = {agent: w["report"]}
    after = run_bird(*load_document(json.dumps(doc)))
    print(f"Tree after the cut: {sorted(after.tree_edges)}")
    print("Shares:", {i: value_to_json(x) for i, x in sorted(after.shares.items())})
    print(f"\n{agent!r} pays {_fmt(truthful.shares[agent])} when honest and "
          f"{_fmt(after.shares[agent])} after hiding an edge: cutting a cheap")
    print("attachment reroutes the tree and shifts cost onto the others, so the")
    print("rule is budget-balanced but not truthful.")
    return 0


def _demo_impossibility_bb() -> int:
    print("Truthfulness, feasibility, efficiency, budget balance: pick three")
    print("=================================================================")
    line = fig_line()
    cache = SteinerCache()
    cvm = run_cvm(line, cache=cache)
    print("\nLine instance s -(2)- a -(3)- b with values (4, 10), critical-value")
    print("mechanism:")
    for prop, rep in (("truthfulness", check_truthfulness(line, "cvm", cache=cache)),
                      ("feasibility", check_feasibility(line, "cvm", cache=cache)),
                      ("efficiency", check_efficiency(line, "cvm", cache))):
        print(f"  {prop:15s} {rep.verdict}")
    print(f"  collected {_fmt(cvm.total_shares())} against a tree costing "
          f"{_fmt(cvm.total_cost)}: budget balance fails.")
    rep = check_budget_balance(line, "cvm", cache=cache)
    assert rep.verdict == "violated"

    ineff = corpus_inefficiency()
    cache2 = SteinerCache()
    print("\nFrozen random instance (4 agents, generator seed 11), repeated")
    print("selection mechanism:")
    for prop, rep in (("truthfulness", check_truthfulness(ineff, "rsm", cache=cache2)),
                      ("feasibility", check_feasibility(ineff, "rsm", cache=cache2)),
                      ("budget-balance", check_budget_balance(ineff, "rsm", cache=cache2))):
        print(f"  {prop:15s} {rep.verdict}")
    rep = check_efficiency(ineff, "rsm", cache2)
    assert rep.verdict == "violated"
    w = rep.witness
    print(f"  efficiency      violated: serves {w['selected']} for welfare "
          f"{w['welfare']}, while {w['optimal_set']} reaches {w['optimal_welfare']}.")
    print("\nEach mechanism gives up exactly one of the four axioms; no mechanism")
    print("on these graphs can keep them all.")
    return 0


def _demo_impossibility_bbr() -> int:
    print("No guaranteed fraction of the cost is ever collected")
    print("====================================================")
    for m in (5, 7):
        inst = fig_zero_bridge(m)
        alloc = run_cvm(inst)
        ratio = budget_balance_ratio(inst, "cvm")
        print(f"\nBridge instance with m={m}: (s,a)=(s,b)={m}, (a,b)=0, both "
              f"values {m}.")
        print(f"  selected {sorted(alloc.selected)}, tree {sorted(alloc.tree_edges)} "
              f"costing {_fmt(alloc.total_cost)}")
        print(f"  shares {{'a': {_fmt(alloc.shares['a'])}, 'b': "
              f"{_fmt(alloc.shares['b'])}}}, cost recovery ratio {_fmt(ratio)}")
    print("\nEither agent could replace the other at no extra cost, so neither")
    print("has a positive critical value: the efficient truthful mechanism")
    print("collects nothing, and scaling m shows no fraction of the cost can be")
    print("guaranteed by any mechanism that keeps truthfulness, feasibility and")
    print("efficiency.")
    return 0


def _demo_welfare_ratio_collapse() -> int:
    print("Budget balance costs any constant share of the optimal welfare")
    print("==============================================================")
    print("\nFamily: s -(2)- a -(3)- b with v_a = 4 and v_b = 3 + p. The whole")
    print("surplus sits on the far agent, but a truthful budget-balanced rule")
    print("can be forced to stop at the near one; serving only 'a' is the")
    print("binding outcome, worth (v_a - m) / (v_a - m + p) of the optimum.")
    print(f"\n{'p':>8s}  {'ratio serving only a':>22s}")
    previous = None
    for p in (Fraction(1, 2), 1, 10, 100):
        inst = fig_welfare_gap(p)
        ratio = welfare_ratio_of_selection(inst, {"a"})
        print(f"{str(p):>8s}  {_fmt(ratio):>22s}")
        assert previous is None or ratio < previous
        previous = ratio
    print("\nThe ratio falls toward 0 as p grows: no approximation factor for")
    print("the optimal welfare survives insisting on exact cost recovery.")
    return 0


DEMOS = {
    "bird-manipulation": _demo_bird_manipulation,
    "impossibility-bb": _demo_impossibility_bb,
    "impossibility-bbr": _demo_impossibility_bbr,
    "welfare-ratio-collapse": _demo_welfare_ratio_collapse,
}


def cmd_demo(args) -> int:
    return DEMOS[args.name]()


def cmd_gen(args) -> int:
    text = serialize_instance(_generate(args, args.seed))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        for dest in ("mechanism", "property", "name"):
            value = getattr(args, dest, None)
            if value is not None and value not in _choices(dest):
                names = ", ".join(_choices(dest))
                raise ValidationError(f"--{dest} must be one of: {names}; got {value!r}")
        return args.func(args)
    except (ValidationError, SizeCapError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SizeCapError) else 2


if __name__ == "__main__":
    sys.exit(main())
