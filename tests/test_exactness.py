"""Exactness referees for the scaled-int arithmetic.

The welfare recurrence and the stage scan run on ints scaled by the lcm of
the cost and valuation denominators. Here they get costs and valuations over
mixed denominators and are held to references that compute on exact
rationals throughout: the recursive definition of delta priced by the
brute-force oracle, and a plain Fraction scan of every stage candidate with
the same tie rules. The truthful profile and single-agent deviations of one
instance share one cache, as they do in a deviation sweep.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from costshare import (AgentReport, Instance, ValidationError, apply_deviation,
                       generate_instance, run_bird, run_cvm, run_rsm, truthful_profile)
from costshare.model import induced_graph
from costshare.rsm import stage_solve
from costshare.steiner import SteinerCache, brute_force_steiner_oracle
from costshare.welfare import compute_delta_table, connection_cost, social_welfare

from test_welfare import _reference_delta, delta_of, members

DENOMINATORS = (1, 2, 3, 7)


def _exact_type(value):
    return int if Fraction(value).denominator == 1 else Fraction


def _mixed_profiles(seed: int):
    """An instance whose costs and valuations have denominators drawn from
    DENOMINATORS, its truthful profile, and three single-agent deviations
    (a random subset of the agent's edges and a mixed-denominator value)."""
    rng = random.Random(seed)
    base = generate_instance(agents=2 + seed % 4, edge_probability=0.6,
                             max_cost=6, max_valuation=9, seed=seed)
    inst = Instance(
        base.source, sorted(base.agents),
        {e: Fraction(c, rng.choice(DENOMINATORS))
         for e, c in sorted(base.graph.edges().items())},
        {a: Fraction(v, rng.choice(DENOMINATORS))
         for a, v in sorted(base.valuations.items())})
    truthful = truthful_profile(inst)
    profiles = [truthful]
    for _ in range(3):
        i = rng.choice(sorted(inst.agents))
        kept = frozenset(e for e in sorted(inst.true_edges_of(i)) if rng.random() < 0.7)
        value = Fraction(rng.randint(0, 30), rng.choice(DENOMINATORS))
        profiles.append(apply_deviation(truthful, i, AgentReport(kept, value)))
    return inst, profiles, rng


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=60, deadline=None)
def test_delta_table_matches_the_rational_reference(seed):
    inst, profiles, _ = _mixed_profiles(seed)
    cache = SteinerCache()
    for prof in profiles:
        table = compute_delta_table(prof, cache)
        rec = _reference_delta(prof)
        graph = induced_graph(prof)
        for mask in range(1 << len(table.agents)):
            S = members(table.agents, mask)
            want_w, want_set = rec(S)
            assert delta_of(table, S)[1] == want_w, (seed, sorted(S))
            assert type(delta_of(table, S)[1]) is _exact_type(want_w)
            assert members(table.agents, table.delta(mask)) == want_set, (seed, sorted(S))
            value = sum((prof.valuation(a) for a in S), Fraction(0))
            assert table.scaled_value_sums[mask] == value * table.scale
            res = brute_force_steiner_oracle(graph, S | {inst.source})
            cost = connection_cost(prof, S, cache)
            if res is None:
                assert table.scaled_costs[mask] is None and cost is None
                assert social_welfare(prof, S, cache) is None
            else:
                assert table.scaled_costs[mask] == res.cost * table.scale
                assert cost == res.cost and type(cost) is _exact_type(res.cost)
                welfare = social_welfare(prof, S, cache)
                assert welfare == value - res.cost
                assert type(welfare) is _exact_type(value - res.cost)


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=30, deadline=None)
def test_one_agents_utility_is_its_entry_of_utilities(seed):
    """utility(i) gives the value and the exact type utilities[i] holds,
    asked before and after the whole dict is built: the true valuation
    minus the share for a selected agent and 0 for the rest, an int
    whenever it is whole."""
    inst, profiles, _ = _mixed_profiles(seed)
    cache = SteinerCache()
    agents = sorted(inst.agents)
    for prof in profiles:
        for runner in (run_cvm, run_rsm, run_bird):
            try:
                alloc = runner(inst, prof, cache)
            except ValidationError:  # the attachment rule on a disconnected declaration
                continue
            first = [alloc.utility(i) for i in agents]
            want = [inst.valuations[i] - alloc.shares[i] if i in alloc.selected else 0
                    for i in agents]
            assert first == want, (seed, runner.__name__)
            assert [type(u) for u in first] == [_exact_type(u) for u in want]
            assert first == [alloc.utilities[i] for i in agents], (seed, runner.__name__)
            assert [type(u) for u in first] == [type(alloc.utilities[i]) for i in agents]
            assert [type(alloc.utility(i)) for i in agents] == [type(u) for u in first]


def _stage_candidates(graph, source, remaining):
    """Every candidate set priced by the oracle, its share a Fraction, as
    (share, -size, sorted labels): the least such key wins a stage."""
    pool = sorted(remaining)
    out = []
    for mask in range(1, 1 << len(pool)):
        S = tuple(a for b, a in enumerate(pool) if mask >> b & 1)
        res = brute_force_steiner_oracle(graph, frozenset(S) | {source})
        if res is not None:
            out.append((Fraction(res.cost) / len(S), -len(S), S))
    return out


def _reference_stage(candidates, reported, x_prev):
    """The least share at or above x_prev that every member can pay, then
    the larger set, then the smaller label list."""
    feasible = [key for key in candidates
                if key[0] >= x_prev and min(reported[a] for a in key[2]) >= key[0]]
    if not feasible:
        return None
    share, _, S = min(feasible)
    return frozenset(S), share


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=60, deadline=None)
def test_stage_solve_matches_a_fraction_scan(seed):
    """Each (graph, pool) is asked four times on one cache, with the
    profile's valuations and three more vectors, so its memoized share order
    is built once and walked again. The extra valuations have denominators
    5 and 11, which no cost scale holds, or sit exactly on candidate shares;
    so do some x_prev values."""
    inst, profiles, rng = _mixed_profiles(seed)
    cache = SteinerCache()
    agents = sorted(inst.agents)
    for prof in profiles:
        base = cache.induced(prof)
        for _ in range(3):
            # Some agents were merged by earlier stages, some priced out;
            # the rest are still in the pool.
            merged = {a for a in agents if rng.random() < 0.3}
            out = {a for a in agents if a not in merged and rng.random() < 0.2}
            remaining = frozenset(agents) - merged - out
            graph = cache.contracted(base, merged | {inst.source}, inst.source)
            candidates = _stage_candidates(graph, inst.source, remaining)
            shares = [key[0] for key in candidates] or [0]
            vectors = [
                prof.reported_valuations(),
                {a: Fraction(rng.randint(0, 40), rng.choice((5, 11))) for a in agents},
                {a: rng.choice(shares) for a in agents},
                {a: Fraction(rng.randint(0, 40), rng.choice((1, 5, 11))) for a in agents},
            ]
            for reported in vectors:
                x_prev = rng.choice((0, rng.choice(shares), Fraction(
                    rng.randint(0, 12), rng.choice(DENOMINATORS + (5,)))))
                got = stage_solve(graph, inst.source, remaining, reported, x_prev, cache)
                want = _reference_stage(candidates, reported, x_prev)
                assert got == want, (seed, sorted(merged), sorted(remaining), x_prev)
                if want is not None:
                    assert type(got[1]) is _exact_type(want[1])
