"""The attachment-cost baseline and its manipulability."""

import pytest

from costshare import (AgentReport, ValidationError, apply_deviation,
                       check_truthfulness, run_bird, truthful_profile)
from costshare.baselines import prim_shares
from costshare.model import WeightedGraph, induced_graph
from costshare.fixtures import fig_bird_square, fig_service_tree


def test_square_truthful_shares_frozen():
    """The spanning tree grows s-a, a-b, b-c; each node pays the edge that
    attached it."""
    inst = fig_bird_square()
    shares, tree = prim_shares(inst.graph, "s")
    assert shares == {"a": 1, "b": 3, "c": 2}
    assert tree == frozenset({("a", "s"), ("a", "b"), ("b", "c")})


def test_square_edge_cut_lowers_bs_payment():
    """Hiding (a,b) reroutes the tree through c: b attaches for 2 instead
    of 3, at the expense of c, who now pays 4."""
    inst = fig_bird_square()
    prof = apply_deviation(truthful_profile(inst), "b",
                           AgentReport(frozenset({("b", "c")}), 10))
    shares, tree = prim_shares(induced_graph(prof), "s")
    assert shares == {"a": 1, "b": 2, "c": 4}
    assert tree == frozenset({("a", "s"), ("a", "c"), ("b", "c")})


def test_square_manipulation_is_caught_by_the_harness():
    rep = check_truthfulness(fig_bird_square(), "bird")
    assert not rep.holds
    assert rep.witness["agent"] == "b"
    assert rep.witness["report"]["edges"] == [["b", "c"]]
    assert rep.witness["truthful_utility"] == 7
    assert rep.witness["deviation_utility"] == 8


def test_run_bird_is_budget_balanced_by_construction():
    alloc = run_bird(fig_service_tree())
    assert alloc.selected == frozenset({"a", "b", "c", "d"})
    assert alloc.shares == {"a": 8, "b": 7, "c": 6, "d": 5}
    assert alloc.total_shares() == alloc.total_cost == 26
    assert alloc.utilities == {"a": 0, "b": 2, "c": 0, "d": 2}


def test_prim_tie_breaks_on_edge_labels():
    g = WeightedGraph(["s", "a", "b"],
                      {("s", "a"): 1, ("s", "b"): 1, ("a", "b"): 1})
    shares, tree = prim_shares(g, "s")
    # (a,b) sorts before (b,s), so b attaches through a
    assert tree == frozenset({("a", "s"), ("a", "b")})
    assert shares == {"a": 1, "b": 1}


def test_disconnected_declaration_is_an_error():
    inst = fig_bird_square()
    prof = apply_deviation(truthful_profile(inst), "b", AgentReport(frozenset(), 10))
    with pytest.raises(ValidationError):
        run_bird(inst, prof)


def test_bird_welfare_matches_the_oracle():
    """Everyone is served, so the welfare is the reported value of everyone
    minus the cheapest tree over all nodes, which the oracle prices without
    the solver or Prim's rule."""
    import random

    from costshare import generate_instance
    from costshare.steiner import brute_force_steiner_oracle

    checked = 0
    for seed in range(40):
        inst = generate_instance(agents=1 + seed % 8, edge_probability=0.6, seed=seed)
        rng = random.Random(seed)
        profiles = [truthful_profile(inst)]
        i = rng.choice(sorted(inst.agents))
        edges = sorted(inst.true_edges_of(i))
        kept = frozenset(e for e in edges if rng.random() < 0.7)
        profiles.append(apply_deviation(profiles[0], i, AgentReport(kept, rng.randint(0, 9))))
        for prof in profiles:
            graph = induced_graph(prof)
            best = brute_force_steiner_oracle(graph, graph.nodes)
            if best is None:
                continue  # the rule needs a connected declaration
            alloc = run_bird(inst, prof)
            want = sum(prof.valuation(a) for a in inst.agents) - best.cost
            assert alloc.social_welfare == want, seed
            checked += 1
    assert checked >= 60


def test_prim_shares_needs_the_source_in_the_graph():
    with pytest.raises(ValidationError, match="source 'z' is not a node of the graph"):
        prim_shares(fig_bird_square().graph, "z")
