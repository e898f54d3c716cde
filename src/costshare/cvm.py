"""Critical value based mechanism.

Selection is the welfare-maximizing set delta over all agents; the tree is
an exact minimum Steiner tree of the selected set plus the source on the
induced graph. Each selected agent pays its critical value: the welfare the
rest of the selection could reach without it, minus the welfare the rest
actually contributes alongside it,

    x_i = sw(delta(g minus i)) - (value(g minus i) - C(g)).

That price never depends on i's own reported valuation, which is what makes
overstating or understating pointless. Unselected agents pay nothing. The
payments cover at most the tree cost; they are not meant to balance it.

A run reads one welfare table, a view of the split at the lone deviating
agent that the cache keeps across a deviation sweep (see ``welfare``). It
reads delta of all agents, C(g), and sw and value of g less each member:
a handful of entries, each lifted from the split's scale to the table's.
"""

from __future__ import annotations

from .allocation import Allocation
from .model import Instance, ReportProfile, run_profile, unscale
from .steiner import SteinerCache
from .welfare import WelfareTable, compute_delta_table


def _scaled_critical_value(table: WelfareTable, rest: int, cost: int) -> int:
    """sw(delta(g - i)) - (value(g - i) - C(g)) for rest = g - i and cost = C(g)."""
    return table.sw(rest) - (table.value(rest) - cost)


def run_cvm(instance: Instance, profile: ReportProfile | None = None,
            cache: SteinerCache | None = None) -> Allocation:
    """Run the mechanism on a report profile (truthful by default).

    Prices come off the welfare table's scaled ints; each share is turned
    into an exact value once. The selection's cost is the table's entry,
    unscaled when first read.
    """
    profile = run_profile(instance, profile)
    cache = cache or SteinerCache()
    table = compute_delta_table(profile, cache=cache)
    g_mask = table.delta((1 << len(table.agents)) - 1)  # delta of the whole agent set
    cost = table.cost(g_mask)
    shares = {i: unscale(_scaled_critical_value(table, g_mask ^ 1 << b, cost), table.scale)
              for b, i in enumerate(table.agents) if g_mask >> b & 1}

    def tree():
        solver = cache.solver(cache.induced(profile))
        return solver.tree_for_mask(instance.source, table.agents, g_mask)

    return Allocation("cvm", profile, shares,
                      lambda: unscale(cost, table.scale), tree=tree)
