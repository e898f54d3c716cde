"""The outcome record shared by every mechanism: its referee, its laziness,
and the profile it accepts."""

import random
from fractions import Fraction

import pytest

from costshare import (AgentReport, SteinerCache, ValidationError, apply_deviation,
                       check_budget_balance, check_individual_rationality,
                       check_truthfulness, generate_instance, run_bird, run_cvm,
                       run_rsm, truthful_profile, welfare_ratio_of_selection)
from costshare import rsm
from costshare.fixtures import fig_line, fig_staged_network, fig_triangle, fig_welfare_gap
from costshare.model import induced_graph
from costshare.steiner import SteinerSolver, brute_force_steiner_oracle

RUNNERS = {"cvm": run_cvm, "rsm": run_rsm, "bird": run_bird}


def _profiles(inst, seed):
    """The truthful profile and one seeded single-agent deviation."""
    rng = random.Random(seed)
    prof = truthful_profile(inst)
    i = rng.choice(inst.agent_order())
    kept = frozenset(e for e in inst.true_edges_of(i) if rng.random() < 0.7)
    return [prof, apply_deviation(prof, i, AgentReport(kept, Fraction(rng.randint(0, 18), 2)))]


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_record_agrees_with_the_oracle_and_the_instance(name):
    """Welfare is the reported value of the selection minus the oracle's
    cheapest tree over it on the induced graph; the total cost prices the
    returned tree on the instance; utilities are true value minus share
    for the selected and 0 for everyone else."""
    runs = 0
    for seed in range(60):
        inst = generate_instance(agents=1 + seed % 6, edge_probability=0.5, seed=seed)
        for prof in _profiles(inst, seed):
            try:
                alloc = RUNNERS[name](inst, prof)
            except ValidationError:  # the attachment rule on a disconnected declaration
                continue
            runs += 1
            best = brute_force_steiner_oracle(induced_graph(prof), alloc.selected | {"s"})
            assert alloc.social_welfare == (
                sum(prof.valuation(i) for i in alloc.selected) - best.cost), seed
            assert alloc.total_cost == inst.graph.total_cost(alloc.tree_edges), seed
            assert alloc.utilities == {
                i: inst.valuations[i] - alloc.shares[i] if i in alloc.selected else 0
                for i in inst.agents}, seed
            assert alloc.shares.keys() == inst.agents
            assert all(alloc.shares[i] == 0 for i in inst.agents - alloc.selected)
    assert runs >= 100


def test_rsm_union_tree_can_cost_more_than_the_selection():
    """RSM's tree is the union of its stage trees. Here it costs 6 while
    the cheapest tree over the same selection costs 5, and the welfare
    uses the 5."""
    inst = generate_instance(4, 0.5, seed=283)
    alloc = run_rsm(inst)
    best = brute_force_steiner_oracle(inst.graph, alloc.selected | {"s"})
    assert best.cost == 5
    assert alloc.total_cost == 6 == alloc.total_shares()
    assert alloc.social_welfare == sum(inst.valuations[i] for i in alloc.selected) - 5


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_runners_reject_a_profile_of_another_instance(name):
    with pytest.raises(ValidationError, match="belongs to another instance"):
        RUNNERS[name](fig_line(), truthful_profile(fig_triangle()))
    with pytest.raises(ValidationError, match="belongs to another instance"):
        RUNNERS[name](fig_line(), truthful_profile(fig_line()))


@pytest.fixture
def tree_calls(monkeypatch):
    """Every SteinerSolver.tree_for_mask call, as (terminals, mask)."""
    calls = []
    original = SteinerSolver.tree_for_mask

    def counted(self, root, terms, mask):
        calls.append((tuple(terms), mask))
        return original(self, root, terms, mask)

    monkeypatch.setattr(SteinerSolver, "tree_for_mask", counted)
    return calls


@pytest.mark.parametrize("name", ["cvm", "rsm"])
def test_truthfulness_sweep_builds_no_tree(name, tree_calls):
    assert check_truthfulness(fig_triangle(), name).holds
    assert tree_calls == []


@pytest.mark.parametrize("name", ["cvm", "bird"])
def test_balanced_budget_check_builds_no_tree(name, tree_calls):
    assert check_budget_balance(fig_triangle(), name).holds
    assert tree_calls == []


def test_staged_trace_builds_each_stage_tree_once(tree_calls):
    alloc = run_rsm(fig_staged_network())
    doc = alloc.to_json(with_stages=True)
    assert len(doc["stages"]) == 3
    assert len(tree_calls) == 3
    assert len(set(tree_calls)) == 3
    alloc.to_json(with_stages=True)
    assert len(tree_calls) == 3


@pytest.fixture
def cost_calls(monkeypatch):
    """Every call run_rsm's allocations make to connection_cost."""
    calls = []
    original = rsm.connection_cost
    monkeypatch.setattr(rsm, "connection_cost",
                        lambda *args: calls.append(args) or original(*args))
    return calls


def test_rsm_deviation_checks_never_price_the_selection(cost_calls):
    """The verdicts read one agent's utility, so no run looks up its
    selection's connection cost."""
    inst = fig_staged_network()
    assert check_truthfulness(inst, "rsm").instances_checked > 0
    assert check_individual_rationality(inst, "rsm", samples=20).instances_checked > 0
    assert cost_calls == []


def test_rsm_record_prices_the_selection_once(cost_calls):
    alloc = run_rsm(fig_staged_network())
    assert cost_calls == []
    doc = alloc.to_json()
    assert len(cost_calls) == 1
    assert alloc.to_json() == doc
    assert len(cost_calls) == 1


def test_welfare_ratio_of_selection_runs_one_dp(monkeypatch):
    """The selection's welfare and the optimum read the same cost table,
    built from one subset-MST table under the source: one pass of subset
    spanning-tree costs."""
    builds = []
    original = SteinerSolver._spanning_costs
    monkeypatch.setattr(SteinerSolver, "_spanning_costs",
                        lambda self, *args: builds.append(args) or original(self, *args))
    welfare_ratio_of_selection(fig_welfare_gap(10), {"a"}, SteinerCache())
    assert len(builds) == 1
