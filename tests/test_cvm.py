"""The critical-value mechanism."""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from costshare import (AgentReport, Instance, SteinerCache, apply_deviation,
                       check_budget_balance, check_efficiency,
                       check_truthfulness, generate_instance, run_cvm,
                       truthful_profile)
from costshare.welfare import compute_delta_table
from costshare.fixtures import (fig_line, fig_service_tree, fig_triangle,
                                fig_zero_bridge)
from golden_solve import corpus
from test_welfare import delta_of


def test_triangle_allocation_frozen():
    """Hand run: g = {a,b}, tree {(a,s),(a,b)} costing 5. a's critical value
    is 2 (below it, serving b alone is better done without a) and b's is 3
    (b must cover its own attachment)."""
    alloc = run_cvm(fig_triangle())
    assert alloc.selected == frozenset({"a", "b"})
    assert alloc.shares == {"a": 2, "b": 3}
    assert alloc.utilities == {"a": 1, "b": 0}
    assert alloc.social_welfare == 1
    assert alloc.total_cost == 5
    assert alloc.tree_edges == frozenset({("a", "s"), ("a", "b")})


def test_service_tree_shares_frozen():
    alloc = run_cvm(fig_service_tree())
    assert alloc.shares == {"a": 6, "b": 5, "c": 6, "d": 5}
    assert alloc.social_welfare == 4
    assert alloc.total_cost == 26


def test_critical_value_identity_on_the_hub():
    """Removing the hub a leaves {b,c,d}, of which only {b} is worth serving
    (welfare 9-7=2). a's charge is that alternative welfare minus what the
    others contribute on the full tree: (9-7) - (9+6+7-26) = 6."""
    table = compute_delta_table(truthful_profile(fig_service_tree()))
    rest = {"b", "c", "d"}
    assert delta_of(table, rest)[0] == frozenset({"b"})
    assert delta_of(table, rest)[1] == 2
    assert run_cvm(fig_service_tree()).shares["a"] == (9 - 7) - (9 + 6 + 7 - 26) == 6


def test_line_runs_a_deficit():
    alloc = run_cvm(fig_line())
    assert alloc.shares == {"a": 0, "b": 3}
    assert alloc.total_cost == 5
    rep = check_budget_balance(fig_line(), "cvm")
    assert not rep.holds
    assert rep.witness["collected"] == 3
    assert rep.witness["tree_cost"] == 5


def test_zero_bridge_collapses_all_charges():
    alloc = run_cvm(fig_zero_bridge(5))
    assert alloc.shares == {"a": 0, "b": 0}
    assert alloc.total_cost == 5


def test_empty_selection_is_legal():
    inst = Instance("s", ["a"], {("s", "a"): 3}, {"a": 0})
    alloc = run_cvm(inst)
    assert alloc.selected == frozenset()
    assert alloc.social_welfare == 0
    assert alloc.total_cost == 0
    assert alloc.tree_edges == frozenset()
    assert alloc.total_shares() == 0


def test_unselected_agents_get_zero_rows():
    inst = fig_line(m=2, n=30, v_a=4, v_b=10)  # b is too expensive to serve
    alloc = run_cvm(inst)
    assert alloc.selected == frozenset({"a"})
    # alone, a's critical value is its own connection cost
    assert alloc.shares == {"a": 2, "b": 0}
    assert alloc.utilities == {"a": 2, "b": 0}


def test_truthfulness_on_the_triangle():
    rep = check_truthfulness(fig_triangle(), "cvm")
    assert rep.holds


@given(seed=st.integers(min_value=0, max_value=3_000))
@settings(max_examples=50, deadline=None)
def test_charges_stay_within_reports_and_welfare_is_optimal(seed):
    """Selected agents pay at most their reported value and never a negative
    amount; the chosen set maximizes welfare (checked by brute force)."""
    inst = generate_instance(agents=4, edge_probability=0.55, max_cost=5,
                             max_valuation=8, seed=seed)
    alloc = run_cvm(inst)
    for i in inst.agents:
        assert 0 <= alloc.shares[i]
        assert alloc.shares[i] <= inst.valuations[i]
        if i not in alloc.selected:
            assert alloc.shares[i] == 0
    assert check_efficiency(inst, "cvm").holds


def test_shares_are_critical_values_by_definition():
    """Each selected agent's share x is the least valuation at which it is
    still selected, all else truthful: reporting x + 1/L keeps it selected,
    and x - 1/L drops it when x > 0, where 1/L is the finest unit among the
    instance's costs and valuations. At exactly x a welfare tie may go
    either way, so x itself is not asserted."""
    for seed, inst in corpus():
        unit = Fraction(1, lcm(*(Fraction(x).denominator for x in (
            *inst.graph.edges().values(), *inst.valuations.values()))))
        cache = SteinerCache()
        truthful = truthful_profile(inst)
        alloc = run_cvm(inst, cache=cache)

        def selected_at(i, v):
            report = AgentReport(inst.true_edges_of(i), v)
            return i in run_cvm(inst, apply_deviation(truthful, i, report), cache).selected

        for i in sorted(alloc.selected):
            x = alloc.shares[i]
            assert selected_at(i, x + unit), (seed, i)
            if x > 0:
                assert not selected_at(i, x - unit), (seed, i)
