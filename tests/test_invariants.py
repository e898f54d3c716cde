"""Metamorphic invariants of the mechanisms.

Scaling every edge cost and every valuation by the same positive k is a
change of currency: it must scale every share, utility, the welfare, the
total cost and each stage share by exactly k, and leave the selection, the
witness tree and the stage structure alone. k = 1/7 turns integer costs into
sevenths and mixed denominators into larger ones, so the solver's lcm
scaling is exercised on every instance.

Renaming every node, the source included, by a map that preserves label
order must leave the outcome the same under that map: every tie rule breaks
on label order, and graph memos key on agents in sorted order.

Adding an agent that values service at 0 and hangs off the graph by one
edge dearer than every other edge together must change nothing: no
mechanism can afford to serve it, so every selection and every other
agent's share stay, and it pays 0 (Chen, Cheung & Yiu, HKUST-CS98-01,
1998). Its label sorts after every node. With a label that sorts between
the agents instead, cvm's drop-the-largest-label tie rule can pick another
selection of equal welfare, so that case is not asserted.
"""

import random
from fractions import Fraction

import pytest

from costshare import MECHANISMS, Instance, generate_instance

DENOMINATORS = (1, 2, 3, 5)


def _corpus():
    for seed in range(100):
        inst = generate_instance(agents=1 + seed % 6, edge_probability=0.5, seed=seed)
        if seed % 2:
            edges = {e: Fraction(c, DENOMINATORS[k % len(DENOMINATORS)])
                     for k, (e, c) in enumerate(sorted(inst.graph.edges().items()))}
            inst = Instance(inst.source, sorted(inst.agents), edges, inst.valuations)
        yield seed, inst


def _scaled(inst: Instance, k) -> Instance:
    return Instance(inst.source, sorted(inst.agents),
                    {e: c * k for e, c in inst.graph.edges().items()},
                    {a: v * k for a, v in inst.valuations.items()})


def _scaled_view(alloc, k) -> dict:
    """Every number of the allocation multiplied by k; structure as is."""
    view = {
        "selected": alloc.selected,
        "shares": {i: x * k for i, x in alloc.shares.items()},
        "utilities": {i: u * k for i, u in alloc.utilities.items()},
        "social_welfare": alloc.social_welfare * k,
        "total_cost": alloc.total_cost * k,
        "edges": alloc.tree_edges,
    }
    if alloc.stage_trace is not None:
        view["stages"] = [(r.selected, r.share * k, r.excluded, r.remaining, r.tree_edges)
                          for r in alloc.stage_trace]
    return view


@pytest.mark.parametrize("k", [3, Fraction(1, 7)], ids=["k=3", "k=1/7"])
@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
def test_scaling_costs_and_values_scales_every_outcome(mechanism, k):
    run = MECHANISMS[mechanism]
    for seed, inst in _corpus():
        base = run(inst)
        scaled = run(_scaled(inst, k))
        assert _scaled_view(scaled, 1) == _scaled_view(base, k), (seed, mechanism)


def _relabeling(inst: Instance, seed: int) -> dict:
    """A random order-preserving map from the instance's labels, the
    source's included, to new ones."""
    labels = sorted(inst.agents | {inst.source})
    rng = random.Random(seed)
    fresh = sorted(f"n{k:03d}" for k in rng.sample(range(1000), len(labels)))
    return dict(zip(labels, fresh))


def _renamed(inst: Instance, m: dict) -> Instance:
    return Instance(m[inst.source], [m[a] for a in sorted(inst.agents)],
                    {(m[u], m[v]): c for (u, v), c in inst.graph.edges().items()},
                    {m[a]: v for a, v in inst.valuations.items()})


def _renamed_view(alloc, m: dict) -> dict:
    """The allocation with every label passed through m."""
    def nodes(xs):
        return frozenset(m[x] for x in xs)

    def edges(es):
        return frozenset(tuple(sorted((m[u], m[v]))) for u, v in es)

    view = {
        "selected": nodes(alloc.selected),
        "shares": {m[i]: x for i, x in alloc.shares.items()},
        "utilities": {m[i]: u for i, u in alloc.utilities.items()},
        "social_welfare": alloc.social_welfare,
        "total_cost": alloc.total_cost,
        "edges": edges(alloc.tree_edges),
    }
    if alloc.stage_trace is not None:
        view["stages"] = [(nodes(r.selected), r.share, nodes(r.excluded),
                           nodes(r.remaining), edges(r.tree_edges))
                          for r in alloc.stage_trace]
    return view


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
def test_order_preserving_relabeling_keeps_every_outcome(mechanism):
    run = MECHANISMS[mechanism]
    for seed, inst in _corpus():
        if seed % 2:
            # The generated source "s" sorts after every agent; here it
            # sorts first instead.
            inst = _renamed(inst, {x: x for x in inst.agents} | {inst.source: "0"})
        m = _relabeling(inst, seed)
        same = {x: x for x in m.values()}
        assert _renamed_view(run(_renamed(inst, m)), same) == _renamed_view(run(inst), m), \
            (seed, mechanism)


def _with_pendant(inst: Instance, seed: int) -> Instance:
    """inst plus agent "z", valued 0, with one edge to a seeded node that
    costs the graph's total cost + 1."""
    costs = inst.graph.edges()
    anchor = random.Random(seed).choice(sorted(inst.graph.nodes))
    edges = dict(costs)
    edges[(anchor, "z")] = sum(costs.values()) + 1
    return Instance(inst.source, sorted(inst.agents) + ["z"], edges,
                    inst.valuations | {"z": 0})


@pytest.mark.parametrize("mechanism", ["cvm", "rsm"])
def test_an_unaffordable_pendant_agent_changes_nothing(mechanism):
    run = MECHANISMS[mechanism]
    for seed in range(300):
        inst = generate_instance(agents=1 + seed % 7, edge_probability=0.5, seed=seed)
        base, grown = run(inst), run(_with_pendant(inst, seed))
        assert grown.selected == base.selected, (seed, mechanism)
        assert grown.shares == base.shares | {"z": 0}, (seed, mechanism)
