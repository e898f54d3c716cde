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
smallest sorted label list. A stage does not scan every subset of its pool.
Share, then size, then label list is one total order that depends only on
the stage's cost table, so the pool's sets are kept in that order, as
exact int keys, and a stage walks it: it skips sets below the previous
share, takes the first set whose members all report at least its share,
and stops at the first share above every reported valuation. The walk
compares ints on one scale (the cost table's scale times lcm(1..n) for a
pool of n), and only the winning share is built as an exact value.

A run reads its induced graph, every stage's contracted graph and every
stage's share order from the SteinerCache, so runs that differ only in
reported valuations share them. A deviation sweep thus walks each order
many times and visits a few sets per stage; building an order costs one
sort of its sets' keys (see ``_ShareOrder``).

The welfare of the final selection uses its cheapest connection cost,
not the union tree's. ``welfare.connection_cost`` reads it from stage 1's
own cost table (the uncontracted graph over the whole pool), so it builds
no table of its own, and only when the cost or welfare is first read: a
deviation check that reads utilities never looks it up. Each stage tree
is built once, when the trace or tree is first read.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .allocation import Allocation, StageRecord
from .model import Instance, ReportProfile, Value, WeightedGraph, run_profile, unscale
from .steiner import SteinerCache, attachment_edge
from .welfare import check_welfare_cap, connection_cost


def stage_solve(graph: WeightedGraph, source: str, remaining, reported,
                x_prev: Value, cache: SteinerCache | None = None):
    """Pick the stage's selection on an already contracted graph.

    Returns (selected set, equal share) or None when no nonempty subset of
    the remaining pool is feasible. Walks the pool's share order (see
    ``_ShareOrder``) from the cache: it skips sets whose share is below
    ``x_prev``, returns the first set whose members all report at least its
    share, and stops at the first share above every reported valuation.
    """
    cache = cache or SteinerCache()
    key = (graph, source, frozenset(remaining))
    order = cache.share_orders.get(key)
    if order is None:
        solver = cache.solver(graph)
        agents = tuple(sorted(remaining))
        order = cache.share_orders[key] = _ShareOrder(
            agents, solver.cost_table(source, agents), solver.scale)
    agents = order.agents
    # Shares and valuations on the order's int scale: a member reports at
    # least share k / unit when the floor of its scaled valuation is at
    # least k, and k is at least x_prev when it is at least the ceiling.
    unit = order.unit
    worth = [v.numerator * unit // v.denominator for v in map(reported.__getitem__, agents)]
    top = max(worth, default=0)
    floor = -(-x_prev.numerator * unit // x_prev.denominator)
    for share, mask in order:
        if share > top:
            break
        if share < floor:
            continue
        for b, w in enumerate(worth):
            if w < share and mask >> b & 1:
                break
        else:
            selected = frozenset([a for b, a in enumerate(agents) if mask >> b & 1])
            return selected, unscale(share, unit)
    return None


@lru_cache(maxsize=None)
def _order_bits(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """For a pool of n agents: lcm(1..n), and per mask S the share factor
    (lcm // |S|) << (2n + 1), the tie bits (n - |S|) << n | flip[S], and
    flip[S], which is S bit-reversed within n bits and complemented, and is
    its own inverse."""
    full = (1 << n) - 1
    rev = [0] * (1 << n)
    for m in range(1, 1 << n):
        rev[m] = rev[m >> 1] >> 1 | (m & 1) << (n - 1)
    flip = tuple([full ^ r for r in rev])
    top = lcm(*range(1, n + 1))
    lead = (0, *[top // m.bit_count() << 2 * n + 1 for m in range(1, 1 << n)])
    tie = tuple([(n - m.bit_count()) << n | f for m, f in enumerate(flip)])
    return top, lead, tie, flip


class _ShareOrder:
    """A pool's connectable nonempty sets in the stage's order: share
    ascending, then the larger set, then the smaller sorted label list.

    A set S of cost c has the int key ``c * lead[S] | tie[S]`` (see
    ``_order_bits``): its share scaled by ``unit``, the cost table's scale
    times lcm(1..n), so that it is exact, above its tie bits. Of two sets
    of one size, flip[S] is smaller for the one holding the smallest label
    that only one of them has, which is the one with the smaller sorted
    label list. The keys are sorted once and kept as masks, and a walk
    scales each share from the cost table. The order depends only on the
    cost table, so a cache keeps one per (graph, source, pool).
    """

    __slots__ = ("agents", "costs", "unit", "lead", "masks")

    def __init__(self, agents: tuple[str, ...], costs: list, scale: int):
        top, lead, tie, flip = _order_bits(len(agents))
        self.agents = agents
        self.costs = costs
        self.unit = scale * top
        self.lead = lead
        keys = [c * f | t for c, f, t in zip(costs, lead, tie) if c is not None]
        del keys[0]  # the empty set
        keys.sort()
        full = len(flip) - 1
        self.masks = [flip[k & full] for k in keys]

    def __iter__(self):
        """Yield (scaled share, mask) in order."""
        costs, lead = self.costs, self.lead
        shift = 2 * len(self.agents) + 1
        for m in self.masks:
            yield costs[m] * lead[m] >> shift, m


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
