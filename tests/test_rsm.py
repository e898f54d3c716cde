"""The staged equal-share mechanism."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from costshare import (AgentReport, Instance, apply_deviation,
                       check_budget_balance, check_efficiency,
                       check_truthfulness, generate_instance, run_rsm,
                       truthful_profile)
from costshare.model import WeightedGraph, induced_graph
from costshare.rsm import stage_solve
from costshare.steiner import SteinerCache, contract_into_source
from costshare.fixtures import (fig_line, fig_relay_recharge,
                                fig_staged_network, fig_steiner_detour,
                                fig_triangle, relay_recharge_deviation)


def test_triangle_trace_frozen():
    alloc = run_rsm(fig_triangle())
    assert alloc.shares == {"a": 2, "b": 3}
    assert alloc.total_cost == 5
    trace = alloc.stage_trace
    assert [(sorted(r.selected), r.share) for r in trace] == [(["a"], 2), (["b"], 3)]
    assert trace[0].tree_edges == frozenset({("a", "s")})
    # b's stage tree maps back to the original (a,b) edge after contraction
    assert trace[1].tree_edges == frozenset({("a", "b")})


def test_line_trace_frozen():
    alloc = run_rsm(fig_line())
    assert alloc.shares == {"a": 2, "b": 3}
    assert [(sorted(r.selected), r.share) for r in alloc.stage_trace] == [
        (["a"], 2), (["b"], 3)]


def test_staged_network_three_rounds_frozen():
    """b joins alone at 3, a rides b's paid connection at 4, then c, d, e
    split a 15-cost extension at 5 each; f (value 1) is priced out in round
    one. Collected shares equal the union tree cost exactly."""
    alloc = run_rsm(fig_staged_network())
    assert alloc.shares == {"a": 4, "b": 3, "c": 5, "d": 5, "e": 5, "f": 0}
    assert alloc.social_welfare == 3
    trace = alloc.stage_trace
    assert [(sorted(r.selected), r.share) for r in trace] == [
        (["b"], 3), (["a"], 4), (["c", "d", "e"], 5)]
    assert sorted(trace[0].excluded) == ["f"]
    assert sorted(trace[0].remaining) == ["a", "c", "d", "e"]
    assert trace[2].tree_edges == frozenset({("a", "d"), ("b", "e"), ("c", "d")})
    assert alloc.total_shares() == alloc.total_cost == 22


def test_share_ladder_boundary_is_inclusive():
    # b's value equals the stage share exactly: still selected
    inst = Instance("s", ["a", "b"], {("s", "a"): 2, ("s", "b"): 4},
                    {"a": 4, "b": 4})
    alloc = run_rsm(inst)
    assert alloc.selected == frozenset({"a", "b"})
    assert alloc.shares == {"a": 2, "b": 4}
    assert alloc.stage_trace[0].excluded == frozenset()


def test_equal_share_tie_prefers_the_larger_set():
    inst = Instance("s", ["a", "b"], {("s", "a"): 2, ("s", "b"): 2},
                    {"a": 2, "b": 2})
    alloc = run_rsm(inst)
    assert [(sorted(r.selected), r.share) for r in alloc.stage_trace] == [
        (["a", "b"], 2)]


def test_detour_serves_through_an_unpaid_relay():
    """Only b is worth its price; a sits on the tree for free. Shares still
    cover the tree exactly, but welfare 10 misses the optimum 11."""
    inst = fig_steiner_detour()
    alloc = run_rsm(inst)
    assert alloc.selected == frozenset({"b"})
    assert alloc.shares == {"a": 0, "b": 10}
    assert alloc.tree_edges == frozenset({("a", "s"), ("a", "b")})
    assert alloc.total_shares() == alloc.total_cost == 10
    assert alloc.social_welfare == 10
    assert not check_efficiency(inst, "rsm").holds
    assert check_budget_balance(inst, "rsm").holds


def test_stage_solve_units():
    g = WeightedGraph(["s", "a"], {("s", "a"): 5})
    # nobody can afford any feasible share
    assert stage_solve(g, "s", {"a"}, {"a": 1}, 0) is None
    # the share ladder only climbs: a set below x_prev is not feasible
    assert stage_solve(g, "s", {"a"}, {"a": 9}, 6) is None
    assert stage_solve(g, "s", {"a"}, {"a": 9}, 5) == (frozenset({"a"}), 5)
    assert stage_solve(g, "s", {"a"}, {"a": 9}, 0) == (frozenset({"a"}), 5)
    g2 = WeightedGraph(["s", "a", "b"], {("s", "a"): 2, ("s", "b"): 6})
    assert stage_solve(g2, "s", {"a", "b"}, {"a": 9, "b": 9}, 3) == (
        frozenset({"a", "b"}), 4)
    # {a, e} and {b, c} both cost 5, a share of 5/2 that no larger set
    # beats. a is the smallest label only one of them holds, so {a, e}
    # wins, though {b, c} comes first in mask order.
    g3 = WeightedGraph("sabcdef", {
        ("a", "c"): 3, ("a", "d"): 2, ("a", "e"): 2, ("b", "d"): 3, ("b", "e"): 4,
        ("c", "d"): 4, ("d", "e"): 3, ("e", "f"): 0, ("c", "s"): 1, ("d", "s"): 1})
    reported = {"a": 6, "b": 6, "c": 3, "d": 4, "e": 6, "f": 4}
    assert stage_solve(g3, "s", set(reported), reported, Fraction(5, 2)) == (
        frozenset({"a", "e"}), Fraction(5, 2))


def test_stage_winner_at_the_largest_reported_valuation():
    """The walk stops only at a share above every reported valuation: a
    winner whose share equals the largest one is still found."""
    g = WeightedGraph(["s", "a", "b"], {("s", "a"): 5, ("s", "b"): 8})
    assert stage_solve(g, "s", {"a", "b"}, {"a": 5, "b": 3}, 0) == (frozenset({"a"}), 5)
    g2 = WeightedGraph(["s", "a", "b"], {("s", "a"): 3, ("a", "b"): 2})
    vals = {"a": Fraction(5, 2), "b": Fraction(5, 2)}
    assert stage_solve(g2, "s", {"a", "b"}, vals, 0) == (frozenset({"a", "b"}), Fraction(5, 2))


def test_stage_empty_and_unaffordable_pools():
    g = WeightedGraph(["s", "a", "b", "c"], {("s", "a"): 5, ("s", "b"): 6, ("b", "c"): 1})
    assert stage_solve(g, "s", set(), {}, 0) is None
    assert stage_solve(g, "s", frozenset(), {"a": 9}, 0) is None
    # every set's share is above every member's valuation, read three times
    # so the cached order is built once and walked again
    cache = SteinerCache()
    for _ in range(3):
        assert stage_solve(g, "s", {"a", "b", "c"}, {"a": 2, "b": 3, "c": 3}, 0, cache) is None


@pytest.mark.parametrize("seed, ladder", [
    (781, "acde 3/4 | bf 1"),
    (845, "c 0 | abf 2/3 | g 1 | e 2"),
    (1510, "adef 7/4 | cg 5/2"),
    (1532, "abcdg 3/5 | eh 1 | f 2"),
    (1623, "bfh 7/3 | ae 3"),
    (2092, "ach 0 | e 2 | bdg 8/3 | f 3"),
])
def test_stage_ladders_where_a_later_set_ties_the_best_share(seed, ladder):
    """At some stage of each run a set later in mask order ties the best
    share, so letting every tie replace the best set changes the ladder."""
    inst = generate_instance(2 + seed % 7, (0.3, 0.5, 0.7)[seed % 3], seed=seed)
    got = " | ".join(f"{''.join(sorted(r.selected))} {r.share}"
                     for r in run_rsm(inst).stage_trace)
    assert got == ladder


def test_relay_recharge_truthful_run_is_balanced():
    inst = fig_relay_recharge()
    alloc = run_rsm(inst)
    assert alloc.shares == {"a": 0, "b": 1, "c": Fraction(3, 2),
                            "d": Fraction(3, 2), "e": 0}
    assert alloc.total_shares() == alloc.total_cost == 4
    assert check_budget_balance(inst, "rsm").holds


def test_relay_recharge_lie_double_buys_an_edge():
    """The recorded corner: after b's lie, stage 2 routes through a, which
    is priced out without being merged, and stage 3 buys (a,d) a second
    time. Stage costs sum to 6 while the union tree costs 5."""
    inst = fig_relay_recharge()
    agent, rep = relay_recharge_deviation()
    prof = apply_deviation(truthful_profile(inst), agent, rep)
    alloc = run_rsm(inst, prof)

    trace = alloc.stage_trace
    assert [(sorted(r.selected), r.share) for r in trace] == [
        (["e"], 0), (["c", "d"], Fraction(3, 2)), (["b"], 3)]
    assert sorted(trace[1].excluded) == ["a"]
    assert ("a", "d") in trace[1].tree_edges
    assert ("a", "d") in trace[2].tree_edges

    stage_total = sum(r.share * len(r.selected) for r in trace)
    assert alloc.total_shares() == stage_total == 6
    assert alloc.total_cost == 5

    report = check_budget_balance(prof, "rsm")
    assert not report.holds
    assert report.witness["collected"] == 6
    assert report.witness["tree_cost"] == 5
    assert report.witness["reports"] == {
        "b": {"edges": [["a", "b"]], "valuation": 3}}


def test_relay_recharge_lie_is_self_harming():
    """On this instance the double buy only opens off the truthful profile:
    b's lie raises b's own payment from 1 to 3."""
    inst = fig_relay_recharge()
    agent, rep = relay_recharge_deviation()
    truthful = run_rsm(inst)
    lied = run_rsm(inst, apply_deviation(truthful_profile(inst), agent, rep))
    assert truthful.utilities[agent] == 5
    assert lied.utilities[agent] == 3
    # integer grid covers the firing report (valuation 3, edges {(a,b)})
    assert check_truthfulness(inst, "rsm", step=1).holds


def test_a_truthful_profile_can_over_collect():
    """Today's documented violation, pinned until the rule is settled: at
    the truthful profile, stage 1 prices c out without merging it, stage 2
    routes through c and stage 3 buys (c,d) a second time. The shares
    collect 14 against a union tree of 13."""
    inst = generate_instance(5, 0.3, seed=17)
    trace = run_rsm(inst).stage_trace
    assert [(sorted(r.selected), r.share) for r in trace] == [
        (["a"], 2), (["d", "e"], 3), (["b"], 6)]
    assert trace[0].excluded == frozenset({"c"})
    assert ("c", "d") in trace[1].tree_edges and ("c", "d") in trace[2].tree_edges
    report = check_budget_balance(inst, "rsm")
    assert not report.holds
    assert (report.witness["collected"], report.witness["tree_cost"]) == (14, 13)


@given(seed=st.integers(min_value=0, max_value=3_000))
@settings(max_examples=50, deadline=None)
def test_shares_climb_and_cover_stage_costs(seed):
    inst = generate_instance(agents=5, edge_probability=0.55, max_cost=5,
                             max_valuation=8, seed=seed)
    alloc = run_rsm(inst)
    trace = alloc.stage_trace
    shares = [r.share for r in trace]
    assert shares == sorted(shares)
    assert alloc.total_shares() == sum(
        r.share * len(r.selected) for r in trace)
    for i in inst.agents:
        assert alloc.shares[i] >= 0
        assert alloc.shares[i] <= inst.valuations[i]


def test_hiding_edges_disconnects_cleanly():
    """A report profile that strands an agent just leaves it unserved."""
    inst = fig_line()
    prof = apply_deviation(truthful_profile(inst), "b",
                           AgentReport(frozenset(), 10))
    assert not induced_graph(prof).has_edge("a", "b")
    alloc = run_rsm(inst, prof)
    assert alloc.selected == frozenset({"a"})
    assert alloc.shares == {"a": 2, "b": 0}


def test_stage_share_tie_then_a_cheaper_share():
    """{a} and {a, b} tie at share 2, so the larger set becomes the best;
    {b, c} at 3/2 must then beat it. Comparing against the tie's new size
    with the old cost would see a best share of 1 and keep {a, b}."""
    g = WeightedGraph({"s", "a", "b", "c"}, {("s", "a"): 2, ("s", "b"): 2, ("b", "c"): 1})
    vals = {"a": 10, "b": 10, "c": 10}
    assert stage_solve(g, "s", {"a", "b", "c"}, vals, 0) == (frozenset({"b", "c"}),
                                                             Fraction(3, 2))
    # without {b, c} available the tie stands: the larger set wins at 2
    assert stage_solve(g, "s", {"a", "b"}, vals, 0) == (frozenset({"a", "b"}), 2)


def test_rsm_welfare_matches_the_oracle():
    """Welfare of the final selection is the reported value of the selected
    agents minus the oracle's cheapest tree over them and the source, on the
    induced graph, at truthful and deviated profiles."""
    import random

    from costshare.steiner import brute_force_steiner_oracle

    served = 0
    for seed in range(60):
        inst = generate_instance(agents=1 + seed % 7, edge_probability=0.5, seed=seed)
        rng = random.Random(seed)
        prof = truthful_profile(inst)
        profiles = [prof]
        for _ in range(2):
            i = rng.choice(sorted(inst.agents))
            kept = frozenset(e for e in inst.true_edges_of(i) if rng.random() < 0.7)
            profiles.append(apply_deviation(prof, i, AgentReport(
                kept, Fraction(rng.randint(0, 18), 2))))
        for p in profiles:
            alloc = run_rsm(inst, p)
            if not alloc.selected:
                assert alloc.social_welfare == 0
                continue
            best = brute_force_steiner_oracle(induced_graph(p), alloc.selected | {"s"})
            want = sum(p.valuation(i) for i in alloc.selected) - best.cost
            assert alloc.social_welfare == want, seed
            served += 1
    assert served >= 100


def test_shared_cache_takes_origins_from_each_run_graph():
    """Two instances whose stage-2 graphs are equal in content but map back
    to different original edges share one solver through the cache. Each
    run's trace must still name its own instance's edges."""
    relay = Instance("s", ["a", "b"], {("s", "a"): 1, ("a", "b"): 3}, {"a": 10, "b": 3})
    direct = Instance("s", ["a", "b"], {("s", "a"): 1, ("s", "b"): 3}, {"a": 10, "b": 3})
    cache = SteinerCache()
    for inst, stage2 in ((relay, ("a", "b")), (direct, ("b", "s"))):
        shared = run_rsm(inst, cache=cache)
        fresh = run_rsm(inst)
        assert [r.tree_edges for r in shared.stage_trace] == [
            frozenset({("a", "s")}), frozenset({stage2})]
        assert shared.to_json(with_stages=True) == fresh.to_json(with_stages=True)
    contracted = [contract_into_source(inst.graph, {"s", "a"}, "s") for inst in (relay, direct)]
    assert cache.solver(contracted[0]) is cache.solver(contracted[1])


def test_stage_graphs_from_the_memo_give_the_fresh_trace(monkeypatch):
    """A second profile that differs only in a priced-out agent's value
    reuses every stage graph from the cache; its trace matches a run on a
    fresh cache."""
    import costshare.steiner as steiner_module

    inst = fig_staged_network()
    cache = SteinerCache()
    first = run_rsm(inst, cache=cache)
    assert len(first.stage_trace) == 3
    calls = []
    original = steiner_module.contract_into_source
    monkeypatch.setattr(steiner_module, "contract_into_source",
                        lambda *args: calls.append(args) or original(*args))
    f = truthful_profile(inst).reports["f"]
    prof = apply_deviation(truthful_profile(inst), "f", AgentReport(f.edges, 2))
    memo = run_rsm(inst, prof, cache)
    assert calls == []
    monkeypatch.undo()
    fresh = run_rsm(inst, prof)
    assert memo.to_json(with_stages=True) == fresh.to_json(with_stages=True)
    assert [r.tree_edges for r in memo.stage_trace] == [
        r.tree_edges for r in first.stage_trace]
