"""Acceptance suite: one test per headline claim, each with a pinned exact
outcome and, where promised, a wall-clock budget. The summary printed after
a run lists every criterion with its verdict; the assertions themselves are
exact (integer / Fraction comparisons), never approximate.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

from costshare import (SteinerCache, SteinerSolver, WeightedGraph,
                       brute_force_steiner_oracle, budget_balance_ratio,
                       check_budget_balance, check_efficiency,
                       check_feasibility, check_individual_rationality,
                       check_positiveness, check_ranking, check_symmetry,
                       check_truthfulness, check_utility_monotonicity,
                       compute_delta_table, edge_key, exact_div,
                       generate_instance, load_document, make_twin_instance,
                       run_bird, run_cvm, run_rsm, serialize_instance,
                       truthful_profile, welfare_ratio_of_selection)
from costshare.fixtures import (corpus_inefficiency, fig_bird_square,
                                fig_line, fig_service_tree,
                                fig_staged_network, fig_triangle,
                                fig_welfare_gap, fig_zero_bridge)
from test_welfare import delta_of


def test_criterion_01_delta_table_worked_example():
    """criterion 1: welfare recurrence on the triangle gives d({a})={a}, d({b})={}, d({a,b})={a,b} in < 1 s"""
    start = time.perf_counter()
    table = compute_delta_table(truthful_profile(fig_triangle()))
    elapsed = time.perf_counter() - start
    assert delta_of(table, frozenset({"a"}))[0] == frozenset({"a"})
    assert delta_of(table, frozenset({"b"}))[0] == frozenset()
    assert delta_of(table, frozenset({"a", "b"}))[0] == frozenset({"a", "b"})
    assert elapsed < 1.0


def test_criterion_02_critical_value_arithmetic():
    """criterion 2: critical value of 'a' on the service tree is (9-7) - (9+6+7-26) = 6"""
    inst = fig_service_tree()
    cache = SteinerCache()
    table = compute_delta_table(truthful_profile(inst), cache)
    others = frozenset({"b", "c", "d"})
    # the pieces of the quoted computation, each checked on its own
    assert delta_of(table, others)[0] == frozenset({"b"})
    assert delta_of(table, others)[1] == 9 - 7
    assert sum(inst.valuations[j] for j in others) == 9 + 6 + 7
    alloc = run_cvm(inst, cache=cache)
    assert alloc.total_cost == 26
    assert alloc.shares["a"] == (9 - 7) - (9 + 6 + 7 - 26) == 6


def test_criterion_03_free_riders_by_substitution():
    """criterion 3: interchangeable bridge twins are served at price (0, 0) against cost 5; ratio 0"""
    inst = fig_zero_bridge(5)
    alloc = run_cvm(inst)
    assert alloc.selected == frozenset({"a", "b"})
    assert alloc.shares == {"a": 0, "b": 0}
    assert alloc.total_cost == 5
    assert budget_balance_ratio(inst, "cvm") == 0


def test_criterion_04_each_mechanism_gives_up_one_axiom():
    """criterion 4: on the line CVM keeps all axioms but budget balance (3 vs 5); RSM keeps budget balance but misses the optimum on a frozen instance"""
    line = fig_line()
    cache = SteinerCache()
    assert check_truthfulness(line, "cvm", cache=cache).holds
    assert check_feasibility(line, "cvm", cache).holds
    assert check_efficiency(line, "cvm", cache).holds
    bb = check_budget_balance(line, "cvm", cache)
    assert bb.verdict == "violated"
    assert bb.witness["collected"] == 3
    assert bb.witness["tree_cost"] == 5

    assert check_truthfulness(line, "rsm", cache=cache).holds
    assert check_feasibility(line, "rsm", cache).holds
    assert check_budget_balance(line, "rsm", cache).holds
    rep = check_efficiency(corpus_inefficiency(), "rsm")
    assert rep.verdict == "violated"
    assert rep.witness == {"selected": ["b", "c"], "welfare": 3,
                           "optimal_set": ["b", "c", "d"], "optimal_welfare": 5}


def test_criterion_05_welfare_share_of_bounded_selection():
    """criterion 5: stopping at the near agent is worth exactly (v_a-m)/(v_a-m+p), falling toward 0"""
    previous = None
    for p in (Fraction(1, 2), Fraction(1), Fraction(10), Fraction(100)):
        inst = fig_welfare_gap(p)
        ratio = welfare_ratio_of_selection(inst, {"a"})
        v_a = inst.valuations["a"]
        m = inst.graph.cost("s", "a")
        assert ratio == exact_div(v_a - m, v_a - m + p) == exact_div(2, 2 + p)
        assert previous is None or ratio < previous
        previous = ratio
    assert previous == Fraction(1, 51)


def test_criterion_06_attachment_rule_edge_cut():
    """criterion 6: cutting one declared edge drops b's attachment payment from 3 to 2, and the deviation search returns exactly that witness"""
    inst = fig_bird_square()
    truthful = run_bird(inst)
    assert truthful.shares["b"] == 3
    rep = check_truthfulness(inst, "bird")
    assert rep.verdict == "violated"
    assert rep.witness["agent"] == "b"
    assert rep.witness["report"]["edges"] == [["b", "c"]]
    assert rep.witness["truthful_utility"] == 7
    assert rep.witness["deviation_utility"] == 8
    # replay: the witness report goes into a document's reports field
    doc = json.loads(serialize_instance(inst))
    doc["reports"] = {"b": rep.witness["report"]}
    replayed, deviated = load_document(json.dumps(doc))
    assert run_bird(replayed, deviated).shares["b"] == 2


def test_criterion_07_three_stage_trace():
    """criterion 7: the staged network runs three rounds with shares (3, 4, 5, 5, 5), one node unserved, and exact budget balance"""
    alloc = run_rsm(fig_staged_network())
    trace = alloc.stage_trace
    assert [rec.stage for rec in trace] == [1, 2, 3]
    assert sorted(alloc.shares[i] for i in alloc.selected) == [3, 4, 5, 5, 5]
    unselected = set(alloc.shares) - alloc.selected
    assert unselected == {"f"}
    assert alloc.shares["f"] == 0
    assert alloc.total_shares() == alloc.total_cost == 22
    assert check_budget_balance(fig_staged_network(), "rsm").holds


def _random_graph(seed: int) -> WeightedGraph:
    """Plain weighted graph, possibly disconnected, up to 9 nodes."""
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    nodes = [f"n{k}" for k in range(n)]
    costs = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.45:
                costs[edge_key(nodes[a], nodes[b])] = rng.randint(0, 6)
    return WeightedGraph(nodes, costs)


def test_criterion_08_steiner_solver_matches_oracle():
    """criterion 8: the connection-cost solver agrees with the brute-force oracle on 200 seeded graphs (terminal sets up to size 4) in < 60 s"""
    start = time.perf_counter()
    checked = 0
    for seed in range(200):
        g = _random_graph(seed)
        solver = SteinerSolver(g)
        nodes = sorted(g.nodes)
        # One table per root, over every other node; a terminal set is
        # read at its smallest label.
        tables = {}
        for root in nodes:
            others = tuple(v for v in nodes if v != root)
            tables[root] = others, solver.cost_table(root, others)
        for size in range(1, 5):
            for terms in combinations(nodes, size):
                others, table = tables[terms[0]]
                got = table[sum(1 << others.index(t) for t in terms[1:])]
                ref = brute_force_steiner_oracle(g, frozenset(terms))
                want = None if ref is None else ref.cost * solver.scale
                assert got == want, (seed, terms)
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 10_000
    assert elapsed < 60.0


CVM_SWEEP = ("truthfulness", "feasibility", "individual-rationality",
             "efficiency", "positiveness", "utility-monotonicity")
RSM_SWEEP = ("truthfulness", "feasibility", "individual-rationality",
             "budget-balance", "positiveness", "utility-monotonicity")


def _run_check(prop: str, inst, mech: str, cache: SteinerCache):
    if prop == "truthfulness":
        return check_truthfulness(inst, mech, step=Fraction(1, 2), cache=cache)
    if prop == "feasibility":
        return check_feasibility(inst, mech, cache)
    if prop == "individual-rationality":
        return check_individual_rationality(inst, mech, samples=200, seed=0,
                                            cache=cache)
    if prop == "efficiency":
        return check_efficiency(inst, mech, cache)
    if prop == "positiveness":
        return check_positiveness(inst, mech, cache)
    return check_utility_monotonicity(inst, mech, cache)


def test_criterion_09_property_sweep_on_seeded_corpus():
    """criterion 9: 50 seeded instances (2..6 agents, costs <= 5, values <= 8) pass every promised axiom for both mechanisms in < 10 min"""
    start = time.perf_counter()
    for seed in range(1, 51):
        inst = generate_instance(agents=2 + (seed - 1) % 5,
                                 edge_probability=0.55, max_cost=5,
                                 max_valuation=8, seed=seed)
        cache = SteinerCache()
        for mech, props in (("cvm", CVM_SWEEP), ("rsm", RSM_SWEEP)):
            for prop in props:
                rep = _run_check(prop, inst, mech, cache)
                assert rep.holds, (seed, mech, prop, rep.witness)
    assert time.perf_counter() - start < 600.0


def test_criterion_10_twin_agents():
    """criterion 10: symmetric twins tie and dominating twins weakly win, on 20 constructed instances per hypothesis, both mechanisms"""
    for ranked in (False, True):
        checker = check_ranking if ranked else check_symmetry
        for seed in range(20):
            inst, i, j = make_twin_instance(seed, ranked=ranked)
            cache = SteinerCache()
            for mech in ("cvm", "rsm"):
                rep = checker(inst, mech, i, j, cache)
                assert rep.holds, (ranked, seed, mech, rep.witness)
