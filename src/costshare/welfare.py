"""Welfare maximization over agent subsets.

The social welfare of a set S under a report profile is the reported value
of S minus the exact cost of connecting S to the source on the induced
graph; ``connection_cost`` reads that cost from the table over every
agent that the recurrence and RSM's first stage build. The table below
follows the bottom-up recurrence over subsets in ascending cardinality:
delta(S) is the best predecessor's delta unless S itself matches or beats
it, in which case delta(S) = S (ties favor the larger, current set).
Predecessor ties go to the lexicographically smallest sorted label list,
which for equal welfare means dropping the largest label.

Because the recurrence for S only ever reads entries of subsets of S, the
entry of S agrees with a fresh run over the agents of S alone; mechanisms
rely on this to read delta over reduced agent pools from one table.

The recurrence runs on ints. The solver's cost table is already scaled
ints; ``scaled_to_ints`` lifts it and the reported valuations to one common
factor (the lcm of their denominators), and a table keeps those ints with
the factor. Values become exact ints or Fractions only where they leave:
``connection_cost`` is the one place an entry of the solver's table is
unscaled, while the mechanisms unscale what they read or compute from a
welfare table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .model import (MAX_AGENTS, ReportProfile, SizeCapError, ValidationError,
                    as_value, unscale)
from .steiner import SteinerCache, scaled_to_ints

WELFARE_CAP = MAX_AGENTS


@dataclass(frozen=True)
class WelfareTable:
    """Full welfare recurrence output over every agent of one profile.

    Masks index subsets of ``agents`` (sorted order, bit b is agents[b]).
    The ``scaled_*`` tuples hold the table as ints, every value multiplied
    by ``scale``: ``scaled_sw_delta[m]`` is the welfare of delta of the
    subset, ``scaled_costs[m]`` its connection cost (None when it cannot be
    connected) and ``scaled_value_sums[m]`` its reported value.
    """

    agents: tuple[str, ...]
    delta_masks: tuple[int, ...]
    scale: int
    scaled_sw_delta: tuple[int, ...]
    scaled_costs: tuple
    scaled_value_sums: tuple[int, ...]


def check_welfare_cap(agents: int) -> None:
    """Refuse a welfare computation over more agents than the cap."""
    if agents > WELFARE_CAP:
        raise SizeCapError(f"{agents} agents exceed the welfare cap of {WELFARE_CAP}")


def connection_cost(profile: ReportProfile, S, cache: SteinerCache | None = None):
    """Cheapest cost of connecting the agent set S to the source on the
    induced graph, exact; None when S cannot be connected. The one place an
    entry of a solver's cost table is unscaled.

    Every query reads the table over all agents: a memo hit after a welfare
    table or an RSM run on the same cache. On a cold cache it builds the
    source's subset spanning-tree table, whose cost depends on the graph,
    not on S: 5-8 ms for two agents of ``generate_instance(12, 0.4,
    seed=3)`` (2 vCPUs, CPython 3.11.7).
    """
    inst = profile.instance
    S = frozenset(S)
    if not S <= inst.agents:
        raise ValidationError("welfare is defined over agent subsets only")
    if not S:
        return 0
    cache = cache or SteinerCache()
    agents = inst.agent_order()
    solver = cache.solver(cache.induced(profile))
    mask = sum(1 << b for b, a in enumerate(agents) if a in S)
    c = solver.cost_table(inst.source, agents)[mask]
    return None if c is None else unscale(c, solver.scale)


def social_welfare(profile: ReportProfile, S, cache: SteinerCache | None = None):
    """Reported value of S minus its connection cost; None when S cannot be
    connected to the source."""
    S = frozenset(S)
    c = connection_cost(profile, S, cache)
    if c is None:
        return None
    return as_value(sum(profile.valuation(i) for i in S) - c)


@lru_cache(maxsize=None)
def _predecessors(n: int) -> tuple[tuple[int, ...], ...]:
    """For every mask over n agents, the masks with one member fewer, the
    largest label removed first."""
    return ((),) + tuple(
        tuple(mask ^ (1 << b) for b in range(mask.bit_length() - 1, -1, -1) if mask >> b & 1)
        for mask in range(1, 1 << n))


def compute_delta_table(profile: ReportProfile,
                        cache: SteinerCache | None = None) -> WelfareTable:
    """Run the welfare recurrence over every agent subset of one profile."""
    inst = profile.instance
    agents = inst.agent_order()
    check_welfare_cap(len(agents))
    cache = cache or SteinerCache()
    solver = cache.solver(cache.induced(profile))
    reports = profile.reports
    scale, costs, vals = scaled_to_ints(
        solver, solver.cost_table(inst.source, agents),
        [reports[a].valuation for a in agents])
    size = 1 << len(agents)
    value_sums = [0]
    for v in vals:
        value_sums += [s + v for s in value_sums]
    raw_sw = [None if c is None else s - c for s, c in zip(value_sums, costs)]
    delta_masks = [0] * size
    sw_delta = [0] * size
    preds = _predecessors(len(agents))
    for mask in range(1, size):
        # Removing the largest label first makes the first maximum the
        # lexicographically smallest predecessor set.
        best = None
        for pred in preds[mask]:
            w = sw_delta[pred]
            if best is None or w > best:
                best = w
                best_pred = pred
        own = raw_sw[mask]
        if own is not None and own >= best:
            delta_masks[mask] = mask
            sw_delta[mask] = own
        else:
            delta_masks[mask] = delta_masks[best_pred]
            sw_delta[mask] = best
    return WelfareTable(agents, tuple(delta_masks), scale, tuple(sw_delta),
                        tuple(costs), tuple(value_sums))
