"""Welfare maximization over agent subsets.

The social welfare of a set S under a report profile is the reported value
of S minus the exact cost of connecting S to the source on the induced
graph; ``connection_cost`` reads that cost from the table over every
agent that the recurrence and RSM's first stage build. The table below
holds, per set S, the best welfare of any set inside S: the larger of S's
own welfare and its predecessors' (S less one member), with no tie rule.
``WelfareTable.delta`` walks to delta(S): S itself when its own welfare
reaches that best (ties favor the larger, current set), else delta of the
first predecessor that does, dropping the largest label first (the order
of ``steiner._predecessors``, which the Steiner superset-min also walks), so
equal welfare goes to the lexicographically smallest sorted label list.

The entry of S reads only entries of subsets of S, so it agrees with a run
over S alone; cvm reads delta of all agents, and the best welfare of its
selection less each member, from one table.

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

from .model import (MAX_AGENTS, ReportProfile, SizeCapError, ValidationError,
                    as_value, unscale)
from .steiner import SteinerCache, _predecessors, scaled_to_ints


@dataclass(frozen=True)
class WelfareTable:
    """Full welfare recurrence output over every agent of one profile.

    Masks index subsets of ``agents`` (sorted order, bit b is agents[b]).
    The ``scaled_*`` tuples hold the table as ints, every value multiplied
    by ``scale``: ``scaled_sw_delta[m]`` is the best welfare of any set
    inside the subset, ``scaled_costs[m]`` its connection cost (None when it
    cannot be connected) and ``scaled_value_sums[m]`` its reported value.
    """

    agents: tuple[str, ...]
    scale: int
    scaled_sw_delta: tuple[int, ...]
    scaled_costs: tuple
    scaled_value_sums: tuple[int, ...]

    def delta(self, mask: int) -> int:
        """delta of the subset ``mask``, as a mask: the set itself when its own
        welfare reaches the best, else delta of the first predecessor that does."""
        sw, costs, values = self.scaled_sw_delta, self.scaled_costs, self.scaled_value_sums
        preds = _predecessors(len(self.agents))
        best = sw[mask]
        while costs[mask] is None or values[mask] - costs[mask] != best:
            for pred in preds[mask]:
                if sw[pred] == best:
                    mask = pred
                    break
            else:
                raise RuntimeError("no predecessor reaches the set's best welfare")
        return mask


def check_welfare_cap(agents: int) -> None:
    """Refuse a welfare computation over more agents than the cap."""
    if agents > MAX_AGENTS:
        raise SizeCapError(f"{agents} agents exceed the welfare cap of {MAX_AGENTS}")


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
    value_sums = [0]
    for v in vals:
        value_sums += [s + v for s in value_sums]
    # -1 marks a set that cannot connect: it never wins, as every set reaches 0.
    sw_delta = [-1 if c is None else s - c for s, c in zip(value_sums, costs)]
    preds = _predecessors(len(agents))
    for mask in range(1, len(sw_delta)):
        best = sw_delta[mask]
        for pred in preds[mask]:
            if sw_delta[pred] > best:
                best = sw_delta[pred]
        sw_delta[mask] = best
    return WelfareTable(agents, scale, tuple(sw_delta), tuple(costs), tuple(value_sums))
