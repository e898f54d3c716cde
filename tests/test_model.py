"""Value handling, graphs, instances, and report profiles."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from costshare import (AgentReport, Instance, ReportProfile, ValidationError,
                       apply_deviation, as_value, edge_key, exact_div,
                       induced_graph, truthful_profile, value_to_json)
from costshare.documents import lies_to_json
from costshare.model import WeightedGraph


def test_as_value_accepts_exact_forms():
    assert as_value(3) == 3
    assert as_value("3") == 3
    assert as_value("3/2") == Fraction(3, 2)
    assert as_value("0.5") == Fraction(1, 2)
    assert as_value(Fraction(6, 2)) == 3
    assert isinstance(as_value(Fraction(6, 2)), int)
    assert as_value(-2) == -2


@pytest.mark.parametrize("bad", [1.5, float("nan"), True, False, None, [1], "x"])
def test_as_value_rejects_inexact_forms(bad):
    with pytest.raises(ValidationError):
        as_value(bad)


def test_value_to_json_normalizes():
    assert value_to_json(7) == 7
    assert value_to_json(Fraction(3, 2)) == "3/2"
    # sums of shares can produce whole-number Fractions; they must render
    # as plain integers, not "6/1"
    assert value_to_json(Fraction(12, 2)) == 6


def test_exact_div():
    assert exact_div(7, 2) == Fraction(7, 2)
    assert exact_div(6, 2) == 3
    assert isinstance(exact_div(6, 2), int)


def test_edge_key_orders_and_rejects_loops():
    assert edge_key("b", "a") == ("a", "b")
    assert edge_key("a", "b") == ("a", "b")
    with pytest.raises(ValidationError):
        edge_key("a", "a")


def test_weighted_graph_basics():
    g = WeightedGraph(["s", "a", "b"], {("s", "a"): 2, ("a", "b"): Fraction(1, 2)})
    assert g.cost("a", "s") == 2
    assert g.cost("b", "a") == Fraction(1, 2)
    assert g.has_edge("s", "a") and g.has_edge("a", "s")
    assert not g.has_edge("s", "b")
    assert g.adjacent("a") == {"s": 2, "b": Fraction(1, 2)}
    assert g.total_cost([("a", "s")]) == 2
    assert g.is_connected()


def test_weighted_graph_equality_is_structural():
    g1 = WeightedGraph(["s", "a"], {("s", "a"): 2})
    g2 = WeightedGraph(["a", "s"], {("a", "s"): 2})
    g3 = WeightedGraph(["s", "a"], {("s", "a"): 3})
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != g3
    # Content is the node set and the cost map: an isolated node counts,
    # and a cost compares by value, whatever its exact form.
    assert WeightedGraph(["s", "a", "x"], {("s", "a"): 2}) != g1
    halves = WeightedGraph(["s", "a"], {("s", "a"): Fraction(4, 2)})
    assert halves == g1 and hash(halves) == hash(g1)


def test_weighted_graph_rejects_an_edge_given_in_both_directions():
    with pytest.raises(ValidationError, match=r"duplicate edge \('a', 'b'\)"):
        WeightedGraph(["a", "b"], {("a", "b"): 1, ("b", "a"): 2})


@pytest.mark.parametrize("agents,edges,valuations,fragment", [
    (["a", "a"], {("s", "a"): 1}, {"a": 1}, "duplicate"),
    (["s", "a"], {("s", "a"): 1}, {"s": 1, "a": 1}, "source"),
    (["a"], {("s", "a"): -1}, {"a": 1}, "negative cost"),
    (["a", "b"], {("s", "a"): 1, ("a", "b"): 1}, {"a": 1}, "missing valuation"),
    (["a"], {("s", "a"): 1}, {"a": 1, "b": 2}, "unknown agent"),
    (["a", "b"], {("s", "a"): 1}, {"a": 1, "b": 1}, "connected"),
    (["a"], {("s", "a"): 1.5}, {"a": 1}, "malformed"),
])
def test_instance_validation(agents, edges, valuations, fragment):
    with pytest.raises(ValidationError, match=fragment):
        Instance("s", agents, edges, valuations)


def test_instance_accessors():
    inst = Instance("s", ["b", "a"], {("s", "a"): 2, ("a", "b"): 3}, {"a": 1, "b": 2})
    assert inst.agent_order() == ("a", "b")
    assert inst.true_edges_of("a") == frozenset({("a", "s"), ("a", "b")})
    assert inst.true_edges_of("b") == frozenset({("a", "b")})


def test_agent_report_canonicalizes():
    rep = AgentReport(edges=frozenset({("b", "a")}), valuation="3/2")
    assert rep.edges == frozenset({("a", "b")})
    assert rep.valuation == Fraction(3, 2)
    with pytest.raises(ValidationError, match="nonnegative"):
        AgentReport(frozenset(), -1)


def test_report_profile_must_cover_every_agent():
    inst = Instance("s", ["a", "b"], {("s", "a"): 1, ("s", "b"): 1}, {"a": 1, "b": 1})
    with pytest.raises(ValidationError, match="profile must cover exactly the agent set"):
        ReportProfile(inst, {"a": AgentReport(frozenset(), 1)})


def test_report_profile_rejects_undeclarable_edges():
    inst = Instance("s", ["a"], {("s", "a"): 1}, {"a": 1})
    with pytest.raises(ValidationError, match="declares edges it does not have"):
        ReportProfile(inst, {"a": AgentReport(frozenset({("a", "b")}), 1)})


def test_induced_graph_needs_mutual_declaration():
    inst = Instance("s", ["a", "b"],
                    {("s", "a"): 2, ("s", "b"): 4, ("a", "b"): 3},
                    {"a": 3, "b": 3})
    prof = truthful_profile(inst)
    assert lies_to_json(prof) == {}
    assert induced_graph(prof).edges() == inst.graph.edges()

    # b hides everything: (a,b) needs both endpoints, (s,b) needs only b
    hidden = apply_deviation(prof, "b", AgentReport(frozenset(), 3))
    assert lies_to_json(hidden) == {"b": {"edges": [], "valuation": 3}}
    assert set(induced_graph(hidden).edges()) == {("a", "s")}

    # the source declares implicitly, so (s,b) survives when b declares it
    partial = apply_deviation(prof, "b", AgentReport(frozenset({("b", "s")}), 3))
    assert set(induced_graph(partial).edges()) == {("a", "s"), ("b", "s")}


def test_apply_deviation_replaces_one_report():
    inst = Instance("s", ["a", "b"],
                    {("s", "a"): 2, ("a", "b"): 3}, {"a": 3, "b": 3})
    prof = truthful_profile(inst)
    dev = apply_deviation(prof, "b", AgentReport(frozenset({("a", "b")}), 0))
    assert dev.reports["a"] == prof.reports["a"]
    assert dev.valuation("b") == 0
    # the original profile is untouched
    assert prof.valuation("b") == 3


def test_apply_deviation_checks_the_replaced_report():
    """Only the new report is validated, and both of its errors still fire."""
    inst = Instance("s", ["a", "b"],
                    {("s", "a"): 2, ("a", "b"): 3}, {"a": 3, "b": 3})
    prof = truthful_profile(inst)
    with pytest.raises(ValidationError, match="unknown agent 'x'"):
        apply_deviation(prof, "x", AgentReport(frozenset(), 1))
    with pytest.raises(ValidationError, match="'b' declares edges it does not have"):
        apply_deviation(prof, "b", AgentReport(frozenset({("b", "s")}), 1))
    dev = apply_deviation(prof, "a", AgentReport(frozenset({("a", "s")}), 1))
    assert type(dev) is ReportProfile and dev.instance is inst
    assert dev.reports == {"a": AgentReport(frozenset({("a", "s")}), 1),
                           "b": prof.reports["b"]}
    assert apply_deviation(dev, "b", AgentReport(frozenset(), 0)).valuation("a") == 1


@given(st.integers(min_value=0, max_value=500))
def test_truthful_induced_graph_is_true_graph(seed):
    """With everyone truthful, mutual declaration reconstructs the instance
    graph exactly."""
    from costshare import generate_instance

    inst = generate_instance(agents=4, edge_probability=0.5, seed=seed)
    prof = truthful_profile(inst)
    assert induced_graph(prof) == inst.graph
