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
payments collected, at 6 of 6,000 generated truthful profiles (e.g.
``generate_instance(5, 0.3, seed=17)``: 14 against 13; README gives the
scan) and after some lies (see the relay recharge fixture).

Ties on the minimal share prefer the larger set, then the lexicographically
smallest sorted label list. A stage scans on ints: its cost table and the
pool's reported valuations are scaled by one common factor, shares are
compared by cross-multiplying costs and set sizes, and only the winning
share is built as an exact value.

A run reads its induced graph and every stage's contracted graph from the
SteinerCache, so runs that differ only in reported valuations share them.

The welfare of the final selection uses its cheapest connection cost,
not the union tree's. ``welfare.connection_cost`` reads it from stage 1's
own cost table (the uncontracted graph over the whole pool), so it builds
no table of its own, and only when the cost or welfare is first read: a
deviation check that reads utilities never looks it up. Each stage tree
is built once, when the trace or tree is first read.
"""

from __future__ import annotations

from .allocation import Allocation, StageRecord
from .model import Instance, ReportProfile, Value, WeightedGraph, run_profile, unscale
from .steiner import SteinerCache, attachment_edge, scaled_to_ints
from .welfare import check_welfare_cap, connection_cost


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
    # A share of 1/0 that every feasible set beats.
    best_c, best_size, best_mask = 1, 0, 0
    for mask in range(1, 1 << n):
        c = costs[mask]
        if c is None:
            continue
        size = mask.bit_count()
        if c * x_den < x_num * size or min_val[mask] * size < c:
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
    if not best_size:
        return None
    return frozenset(_labels(agents, best_mask)), unscale(best_c, scale * best_size)


def _labels(agents: tuple[str, ...], mask: int) -> tuple[str, ...]:
    return tuple(a for b, a in enumerate(agents) if mask >> b & 1)


def run_rsm(instance: Instance, profile: ReportProfile | None = None,
            cache: SteinerCache | None = None) -> Allocation:
    """Run the mechanism on a report profile (truthful by default)."""
    profile = run_profile(instance, profile)
    check_welfare_cap(len(instance.agents))
    cache = cache or SteinerCache()
    base = cache.induced(profile)
    source = instance.source
    reported = profile.reported_valuations()

    remaining = frozenset(instance.agents)
    merged = frozenset({source})
    x_prev: Value = 0
    shares: dict[str, Value] = {}
    stages = []  # (selected, share, excluded, remaining after, merged, pool order)
    while remaining:
        graph = cache.contracted(base, merged, source)
        pool = tuple(sorted(remaining))
        picked = stage_solve(graph, source, remaining, reported, x_prev, cache)
        if picked is None:
            break
        selected_t, x_t = picked
        excluded_t = frozenset(i for i in remaining - selected_t if reported[i] < x_t)
        remaining = remaining - selected_t - excluded_t
        stages.append((selected_t, x_t, excluded_t, remaining, merged, pool))
        shares.update(dict.fromkeys(selected_t, x_t))
        merged = merged | selected_t
        x_prev = x_t

    def stage_records():
        records = []
        for t, (selected_t, x_t, excluded_t, remaining_t, merged_t, pool) in enumerate(
                stages, start=1):
            graph = cache.contracted(base, merged_t, source)
            mask = sum(1 << b for b, a in enumerate(pool) if a in selected_t)
            tree = cache.solver(graph).tree_for_mask(source, pool, mask)
            edges = frozenset(attachment_edge(base, merged_t, source, e) for e in tree)
            records.append(StageRecord(t, selected_t, x_t, excluded_t, remaining_t, edges))
        return tuple(records)

    return Allocation("rsm", profile, shares,
                      lambda: connection_cost(profile, shares, cache), stages=stage_records)
