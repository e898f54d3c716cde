"""The welfare recurrence and its table.

The reference implementation in this file recomputes delta by the literal
recursive definition, pricing subsets with the brute-force Steiner oracle,
so the production table (bitmask dynamic program over a shared solver) is
held to something independent end to end.

A table is a view of a split at one agent, memoized per deviating agent and
declared edge set. The split referee below asks truthful, single-deviator
and two-deviator profiles on one shared cache, in shuffled order, and holds
every mask to a cold-cache table and to the rational reference.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from costshare import (AgentReport, Instance, SizeCapError, ValidationError,
                       apply_deviation, generate_instance, run_cvm, run_rsm,
                       social_welfare, truthful_profile)
from costshare.model import MAX_AGENTS, induced_graph, unscale
from costshare.steiner import SteinerCache, brute_force_steiner_oracle
from costshare.welfare import compute_delta_table
from costshare.fixtures import fig_line, fig_triangle, fig_zero_bridge


def members(agents, mask):
    """The labels of agents whose bits are set in mask."""
    return frozenset(a for b, a in enumerate(agents) if mask >> b & 1)


def delta_of(table, S):
    """delta of the agent set S and its welfare, read off the table's
    masks and scaled ints."""
    mask = sum(1 << table.agents.index(a) for a in S)
    return (members(table.agents, table.delta(mask)),
            unscale(table.sw(mask), table.scale))


def _reference_delta(profile):
    """delta by the definition: best predecessor unless the set itself ties
    or beats it; predecessors scanned dropping the largest label first with
    strict improvement, so equal predecessors resolve to the smallest
    sorted label list. Costs come from the oracle, not the solver."""
    inst = profile.instance
    graph = induced_graph(profile)
    memo = {}

    def raw(S):
        if not S:
            return 0
        res = brute_force_steiner_oracle(graph, frozenset(S) | {inst.source})
        if res is None:
            return None
        return sum(profile.valuation(i) for i in S) - res.cost

    def rec(S):
        S = frozenset(S)
        if S in memo:
            return memo[S]
        if not S:
            memo[S] = (0, frozenset())
            return memo[S]
        best_w = None
        best_set = None
        for x in sorted(S, reverse=True):
            w, d = rec(S - {x})
            if best_w is None or w > best_w:
                best_w, best_set = w, d
        own = raw(S)
        if own is not None and own >= best_w:
            memo[S] = (own, S)
        else:
            memo[S] = (best_w, best_set)
        return memo[S]

    return rec


def test_triangle_table_frozen():
    """Both agents value the service at 3; serving a alone nets 1, b alone
    loses 1, and the pair nets 1 through the shared tree. Hand-enumerated."""
    table = compute_delta_table(truthful_profile(fig_triangle()))
    assert table.agents == ("a", "b")
    assert delta_of(table, {"a"})[0] == frozenset({"a"})
    assert delta_of(table, {"b"})[0] == frozenset()
    assert delta_of(table, {"a", "b"})[0] == frozenset({"a", "b"})
    assert delta_of(table, set())[1] == 0
    assert delta_of(table, {"a"})[1] == 1
    assert delta_of(table, {"b"})[1] == 0
    assert delta_of(table, {"a", "b"})[1] == 1
    assert table.scale == 1
    assert [table.cost(m) for m in range(4)] == [0, 2, 4, 5]
    assert [table.value(m) for m in range(4)] == [0, 3, 3, 6]
    prof = truthful_profile(fig_triangle())
    assert [social_welfare(prof, members(table.agents, m)) for m in range(4)] == [0, 1, -1, 1]


def test_delta_helper_reads_table():
    table = compute_delta_table(truthful_profile(fig_triangle()))
    assert delta_of(table, frozenset({"b"}))[0] == frozenset()
    assert delta_of(table, frozenset({"a", "b"}))[0] == frozenset({"a", "b"})


def test_tie_keeps_the_set_itself():
    # zero bridge: serving {a} nets exactly 0, the same as serving nobody
    table = compute_delta_table(truthful_profile(fig_zero_bridge(5)))
    assert delta_of(table, {"a"})[0] == frozenset({"a"})
    assert delta_of(table, {"a"})[1] == 0
    # line tuned so the pair ties the near agent alone: tie goes to the pair
    tied = fig_line(m=2, n=3, v_a=4, v_b=3)
    table = compute_delta_table(truthful_profile(tied))
    assert delta_of(table, {"a", "b"})[0] == frozenset({"a", "b"})
    assert delta_of(table, {"a", "b"})[1] == 2


def test_social_welfare_values():
    prof = truthful_profile(fig_triangle())
    assert social_welfare(prof, set()) == 0
    assert social_welfare(prof, {"a"}) == 1
    assert social_welfare(prof, {"b"}) == -1
    assert social_welfare(prof, {"a", "b"}) == 1
    with pytest.raises(ValidationError, match="agent subsets"):
        social_welfare(prof, {"zz"})


def test_social_welfare_none_when_unreachable():
    from costshare import AgentReport, apply_deviation

    inst = fig_line()
    prof = truthful_profile(inst)
    # b hides its only edge, so {b} cannot be connected on the induced graph;
    # its report of 10**6 is above every cost, so only an unreachable set
    # that never wins keeps b out of delta.
    hidden = apply_deviation(prof, "b", AgentReport(frozenset(), 10**6))
    assert social_welfare(hidden, {"b"}) is None
    assert social_welfare(hidden, {"a"}) == 2
    table = compute_delta_table(hidden)
    for mask in range(1 << len(table.agents)):
        assert "b" not in members(table.agents, table.delta(mask)), mask
    alloc = run_cvm(inst, hidden)
    assert "b" not in alloc.selected and alloc.shares["b"] == 0


@given(seed=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=60, deadline=None)
def test_table_matches_reference_recursion(seed):
    inst = generate_instance(agents=4, edge_probability=0.6, max_cost=5,
                             max_valuation=8, seed=seed)
    prof = truthful_profile(inst)
    table = compute_delta_table(prof)
    rec = _reference_delta(prof)
    agents = table.agents
    for mask in range(1 << len(agents)):
        S = members(agents, mask)
        want_w, want_set = rec(S)
        assert delta_of(table, S)[1] == want_w, (seed, sorted(S))
        assert members(agents, table.delta(mask)) == want_set, (seed, sorted(S))


@given(seed=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=40, deadline=None)
def test_delta_welfare_is_monotone_in_the_ground_set(seed):
    inst = generate_instance(agents=5, edge_probability=0.5, max_valuation=8,
                             seed=seed)
    table = compute_delta_table(truthful_profile(inst))
    agents = sorted(inst.agents)
    grow: set = set()
    last = delta_of(table, grow)[1]
    for a in agents:
        grow.add(a)
        nxt = delta_of(table, grow)[1]
        assert nxt >= last
        last = nxt


def test_welfare_cap_is_enforced():
    n = MAX_AGENTS + 1
    inst = Instance("s", [f"a{i:02d}" for i in range(n)],
                    {("s", f"a{i:02d}"): 1 for i in range(n)},
                    {f"a{i:02d}": 2 for i in range(n)})
    with pytest.raises(SizeCapError, match="welfare cap"):
        compute_delta_table(truthful_profile(inst))


def test_an_instance_at_the_welfare_cap_runs():
    """Exactly MAX_AGENTS agents are accepted, under both mechanisms that
    build a welfare table."""
    inst = generate_instance(MAX_AGENTS, 0.4, seed=3)
    assert len(inst.agents) == MAX_AGENTS
    assert run_cvm(inst).selected and run_rsm(inst).selected


def _split_corpus(seed: int):
    """An instance with edge costs over denominators 1 and 2, and its
    profiles: the truthful one; per agent, up to three declared edge sets
    (all, none and one drawn at random), each with two valuations whose
    denominators differ and include 3, 5 or 7, which no cost scale holds, so
    the second of the two reads the first one's split at a new scale; the
    agent hiding every edge at its true value; and three profiles where two
    agents deviate."""
    rng = random.Random(seed)
    base = generate_instance(agents=1 + seed % 4, edge_probability=0.6,
                             max_cost=6, max_valuation=9, seed=seed)
    inst = Instance(base.source, sorted(base.agents),
                    {e: Fraction(c, rng.choice((1, 2)))
                     for e, c in sorted(base.graph.edges().items())},
                    base.valuations)
    truthful = truthful_profile(inst)
    order = sorted(inst.agents)
    profiles = [truthful]
    for i in order:
        edges = sorted(inst.true_edges_of(i))
        drawn = frozenset(e for e in edges if rng.random() < 0.5)
        for declared in {frozenset(edges), frozenset(), drawn}:
            for d in rng.sample((1, 3, 5, 7), 2):
                # d * n + 1 keeps d as the reduced denominator.
                report = AgentReport(declared, Fraction(d * rng.randint(0, 8) + 1, d))
                profiles.append(apply_deviation(truthful, i, report))
        profiles.append(apply_deviation(truthful, i, AgentReport(frozenset(), inst.valuations[i])))
    for _ in range(3 if len(order) > 1 else 0):
        prof = truthful
        for i in rng.sample(order, 2):
            kept = frozenset(e for e in sorted(inst.true_edges_of(i)) if rng.random() < 0.7)
            prof = apply_deviation(prof, i, AgentReport(kept, Fraction(rng.randint(1, 40), 3)))
        profiles.append(prof)
    rng.shuffle(profiles)
    return inst, profiles


def _expected_split_key(prof):
    """The memo key a profile's split is kept under, or None: the lone
    deviating agent's, else the last agent's when nobody deviates."""
    inst = prof.instance
    truth = truthful_profile(inst).reports
    lies = [a for a in sorted(inst.agents) if prof.reports[a] != truth[a]]
    if len(lies) > 1:
        return None
    k = lies[0] if lies else max(inst.agents)
    return (inst, k, prof.reports[k].edges)


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=25, deadline=None)
def test_split_tables_match_cold_tables_and_the_rational_reference(seed):
    inst, profiles = _split_corpus(seed)
    cache = SteinerCache()
    builds: dict = {}
    hits_with_a_new_denominator = 0
    for prof in profiles:
        key = _expected_split_key(prof)
        hit = key in cache.welfare_splits
        table = compute_delta_table(prof, cache)
        if hit:
            assert cache.welfare_splits[key] is builds[key][0]
            k = key[1]
            hits_with_a_new_denominator += (
                Fraction(prof.valuation(k)).denominator != builds[key][1])
        elif key is not None:
            builds[key] = (cache.welfare_splits[key], Fraction(prof.valuation(key[1])).denominator)
        cold = compute_delta_table(prof, SteinerCache())
        rec = _reference_delta(prof)
        graph = induced_graph(prof)
        scale = lcm(*(Fraction(c).denominator for c in graph.edges().values()),
                    *(Fraction(prof.valuation(a)).denominator for a in inst.agents))
        assert table.scale == cold.scale == scale, seed
        for mask in range(1 << len(table.agents)):
            S = members(table.agents, mask)
            want_w, want_set = rec(S)
            value = sum((prof.valuation(a) for a in S), Fraction(0))
            res = brute_force_steiner_oracle(graph, S | {inst.source}) if S else None
            cost = 0 if not S else None if res is None else res.cost
            got = (table.sw(mask), table.value(mask), table.cost(mask), table.delta(mask))
            assert got == (cold.sw(mask), cold.value(mask), cold.cost(mask),
                           cold.delta(mask)), (seed, sorted(S))
            assert table.sw(mask) == want_w * scale, (seed, sorted(S))
            assert table.value(mask) == value * scale
            assert table.cost(mask) == (None if cost is None else cost * scale)
            assert members(table.agents, table.delta(mask)) == want_set, (seed, sorted(S))
    # Splits are kept for the truthful and single-deviator profiles only.
    assert set(cache.welfare_splits) == {k for k in map(_expected_split_key, profiles) if k}
    assert hits_with_a_new_denominator, seed


def test_a_table_without_agents_holds_the_empty_set():
    table = compute_delta_table(truthful_profile(Instance("s", [], {}, {})))
    assert (table.agents, table.scale) == ((), 1)
    assert (table.sw(0), table.value(0), table.cost(0), table.delta(0)) == (0, 0, 0, 0)
