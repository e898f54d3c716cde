"""Repeated selection mechanism.

Stages select the agent set with the cheapest feasible equal share. At
stage t the pool is whatever survived stage t-1, the graph has every
previously selected node merged into the source (their connections are
already paid for), and a candidate set S is feasible when its equal share
X = C(S) / |S| is at least the previous stage's share and no member values
the service below X. Everyone outside the winning set who values below X is
priced out of the pool for good. The run stops when no feasible set exists.

Winners pay the share of their stage, so payments add up exactly to the sum
of stage tree costs; the final tree is the union of the stage trees mapped
back to original edges. Equal shares trade efficiency away for that exact
budget balance. The two totals can drift apart in one rare corner: a stage
tree may pass through a priced-out node for free, and because that node was
never merged into the source, a later stage needing the same corridor pays
for one of its edges a second time. The union tree then costs less than the
payments collected; see the relay recharge fixture for a worked example.

Ties on the minimal share prefer the larger set, then the lexicographically
smallest sorted label list. A stage scans on ints: its cost table and the
pool's reported valuations are scaled by one common factor, shares are
compared by cross-multiplying costs and set sizes, and only the winning
share is built as an exact value.

A run reads its induced graph and every stage's contracted graph from the
SteinerCache, so runs that differ only in reported valuations share them.

The welfare of the final selection is read from stage 1's cost table: stage
1 runs on the uncontracted graph over the whole agent pool, so its table
already holds the cheapest tree for every agent subset.
"""

from __future__ import annotations

from .allocation import Allocation, StageRecord
from .model import (Instance, ReportProfile, Value, WeightedGraph, as_value,
                    truthful_profile, unscale)
from .steiner import SteinerCache, scaled_to_ints


def stage_solve(graph: WeightedGraph, source: str, remaining, reported,
                x_prev: Value, cache: SteinerCache | None = None):
    """Pick the stage's selection on an already contracted graph.

    Returns (selected set, equal share) or None when no nonempty subset of
    the remaining pool is feasible.
    """
    cache = cache or SteinerCache()
    solver = cache.solver(graph)
    agents = tuple(sorted(remaining))
    n = len(agents)
    scale, costs, vals = scaled_to_ints(
        solver, solver.cost_table(source, agents), [reported[a] for a in agents])
    min_val = [None]
    for v in vals:
        min_val += [v if m is None or v < m else m for m in min_val]
    # With X = c / size and everything scaled: X >= x_prev is
    # c * x_den >= x_num * scale * size, and no member below X is
    # min_val * size >= c.
    x_den = x_prev.denominator
    x_num = x_prev.numerator * scale
    best_c = None
    best_size = 0
    best_mask = 0
    for mask in range(1, 1 << n):
        c = costs[mask]
        if c is None:
            continue
        size = mask.bit_count()
        if c * x_den < x_num * size or min_val[mask] * size < c:
            continue
        if best_c is None:
            best_c, best_size, best_mask = c, size, mask
            continue
        lhs, rhs = c * best_size, best_c * size
        if lhs < rhs:
            best_c, best_size, best_mask = c, size, mask
        elif lhs == rhs:
            # A larger set at the same share replaces cost and size
            # together, so later comparisons see the same ratio.
            if size > best_size:
                best_c, best_size, best_mask = c, size, mask
            elif size == best_size:
                # Of two sets of one size, the smaller sorted label list
                # holds the smallest label that only one of them has.
                diff = mask ^ best_mask
                if mask & diff & -diff:
                    best_mask = mask
    if best_c is None:
        return None
    return frozenset(_labels(agents, best_mask)), unscale(best_c, scale * best_size)


def _labels(agents: tuple[str, ...], mask: int) -> tuple[str, ...]:
    return tuple(a for b, a in enumerate(agents) if mask >> b & 1)


def run_rsm(instance: Instance, profile: ReportProfile | None = None,
            cache: SteinerCache | None = None) -> Allocation:
    """Run the mechanism on a report profile (truthful by default)."""
    profile = profile if profile is not None else truthful_profile(instance)
    cache = cache or SteinerCache()
    base = cache.induced(profile)
    source = instance.source
    reported = profile.reported_valuations()

    remaining = frozenset(instance.agents)
    merged = frozenset({source})
    x_prev: Value = 0
    stages = []  # (selected, share, excluded, remaining after, graph, pool order)
    while remaining:
        graph = cache.contracted(base, merged, source)
        pool = tuple(sorted(remaining))
        picked = stage_solve(graph, source, remaining, reported, x_prev, cache)
        if picked is None:
            break
        selected_t, x_t = picked
        excluded_t = frozenset(i for i in remaining - selected_t if reported[i] < x_t)
        remaining = remaining - selected_t - excluded_t
        stages.append((selected_t, x_t, excluded_t, remaining, graph, pool))
        merged = merged | selected_t
        x_prev = x_t

    selected = frozenset().union(*(s for s, *_ in stages)) if stages else frozenset()
    shares: dict[str, Value] = {i: 0 for i in instance.agents}
    utilities: dict[str, Value] = {i: 0 for i in instance.agents}
    for selected_t, x_t, *_ in stages:
        for i in selected_t:
            shares[i] = x_t
            utilities[i] = as_value(instance.valuations[i] - x_t)

    if stages:
        # Contracting only the source leaves the graph as it is, so stage
        # 1's cost table, over every agent, prices the final selection.
        *_, graph_1, pool_1 = stages[0]
        costs = cache.solver(graph_1).cost_table(source, pool_1)
        c_min = costs[sum(1 << b for b, a in enumerate(pool_1) if a in selected)]
        sw = as_value(sum(reported[i] for i in selected) - c_min)
    else:
        sw = 0

    def stage_trees() -> list[frozenset]:
        out = []
        for selected_t, _, _, _, graph, pool in stages:
            solver = cache.solver(graph)
            mask = 0
            for b, a in enumerate(pool):
                if a in selected_t:
                    mask |= 1 << b
            edges = solver.tree_for_mask(source, pool, mask)
            out.append(frozenset(graph.origin_of(e) for e in edges))
        return out

    def tree_thunk():
        edges = frozenset().union(*stage_trees()) if stages else frozenset()
        return edges, instance.graph.total_cost(edges)

    def stage_thunk():
        records = []
        for t, ((selected_t, x_t, excluded_t, remaining_t, _, _), edges) in enumerate(
                zip(stages, stage_trees()), start=1):
            records.append(StageRecord(t, selected_t, x_t, excluded_t,
                                       remaining_t, edges))
        return tuple(records)

    return Allocation(
        mechanism="rsm",
        selected=selected,
        shares=shares,
        utilities=utilities,
        social_welfare=sw,
        tree_thunk=tree_thunk,
        stage_thunk=stage_thunk,
    )
