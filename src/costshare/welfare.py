"""Welfare maximization over agent subsets.

The social welfare of a set S under a report profile is the reported value
of S minus the exact cost of connecting S to the source on the induced
graph; ``connection_cost`` reads that cost from the solver's table over
every agent in sorted order, which RSM's first stage and every welfare
table split at the last agent build. A welfare table holds, per set S, the
best welfare of any set inside S, sw(S): the larger of S's own welfare and
its predecessors' (S less one member), with no tie rule.
``WelfareTable.delta`` walks to delta(S): S itself when its own welfare
reaches that best (ties favor the larger, current set), else delta of the
first predecessor that does, dropping the largest label first (the order
of ``steiner._predecessors``, which the Steiner superset-min also walks),
so equal welfare goes to the lexicographically smallest sorted label list.

The entry of S reads only entries of subsets of S, so it agrees with a run
over S alone; cvm reads delta of all agents, and the best welfare of its
selection less each member, from one table.

A table is split at one agent k. With every other report fixed, the welfare
of each set is affine in k's reported valuation v_k (Myerson 1981; Archer
and Tardos 2001), so the split leaves v_k out. For each set R of the other
agents it keeps two entries: the best welfare of a set inside R, and the
best welfare less v_k of a set inside R plus k (None when k cannot
connect). Then sw(S) is the first entry when S lacks k, and the larger of
the first and v_k plus the second when S holds k. The split reads the
solver's cost table over the other agents followed by k, whose two halves
are the sets without and with k, and runs the predecessor recurrence over
the other agents' sets on each half. That is the recurrence over all
agents, except that a set holding k never takes the entry of its
predecessor without k. k is the lone agent whose report is not its
truthful one; when no agent or several deviate, k is the last agent.

When at most one agent deviates, every other agent reports truthfully, so
the split depends only on the instance, k and k's declared edges. It is
kept in the cache's ``welfare_splits`` under that key. Every later run of a
deviation sweep that varies only k's valuation reads it, with no induced
graph, solver or cost-table lookup. Under joint deviations the split is
built the same way and nothing is kept.

The recurrence runs on ints. The solver's cost table is already scaled
ints; ``scaled_to_ints`` lifts it and the other agents' valuations to one
common factor s0 (the lcm of their denominators), and a split keeps those
ints with s0. A ``WelfareTable`` reads them lifted to its ``scale``, the
lcm of s0 and v_k's denominator. Values become exact ints or Fractions only
where they leave: ``connection_cost`` is the one place an entry of the
solver's table is unscaled, while the mechanisms unscale what they read or
compute from a welfare table.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .model import (MAX_AGENTS, ReportProfile, SizeCapError, ValidationError,
                    Value, as_value, unscale)
from .steiner import SteinerCache, _predecessors, scaled_to_ints


class WelfareSplit(NamedTuple):
    """A welfare table split at agent k, on ints scaled by ``s0``.

    Every list is indexed by the sets R of the other agents, R's bits in
    agent order with k's squeezed out. ``costs`` is the solver's cost table
    over the other agents and then k: ``costs[R]`` is R's cost and
    ``costs[top + R]`` that of R plus k, for ``top = len(values)`` (None when
    the set cannot connect). ``values[R]`` is R's reported value,
    ``without[R]`` the best welfare of a set inside R, and ``with_k[R]`` the
    best welfare less v_k of a set inside R plus k; ``with_k`` is None when k
    cannot connect.
    """

    s0: int
    costs: list
    values: list[int]
    without: list[int]
    with_k: list[int] | None


class WelfareTable:
    """The welfare table of one profile over every agent, read through the
    split at agent k and k's reported valuation.

    Masks index subsets of ``agents`` (sorted order, bit b is agents[b]).
    ``sw``, ``value`` and ``cost`` return ints multiplied by ``scale``: the
    best welfare of any set inside the subset, its reported value and its
    connection cost (None when it cannot be connected).
    """

    __slots__ = ("agents", "scale", "_bit", "_low", "_high", "_top", "_lift", "_v",
                 "_costs", "_values", "_without", "_with")

    def __init__(self, agents: tuple[str, ...], split: WelfareSplit, bit: int,
                 valuation: Value):
        s0, self._costs, self._values, self._without, self._with = split
        scale = lcm(s0, valuation.denominator)
        self.agents = agents
        self.scale = scale
        self._bit = bit
        self._low = bit - 1  # a mask's bits below k's; those above move down one
        self._high = ~self._low
        self._top = len(self._values)
        self._lift = scale // s0
        self._v = valuation.numerator * (scale // valuation.denominator)

    def sw(self, mask: int) -> int:
        """Best welfare of any set inside the subset ``mask``."""
        r = mask & self._low | mask >> 1 & self._high
        best = self._without[r] * self._lift
        if mask & self._bit and self._with is not None:
            return max(best, self._v + self._with[r] * self._lift)
        return best

    def value(self, mask: int) -> int:
        """Reported value of the subset ``mask``."""
        v = self._values[mask & self._low | mask >> 1 & self._high] * self._lift
        return v + self._v if mask & self._bit else v

    def cost(self, mask: int) -> int | None:
        """Connection cost of the subset ``mask``; None when it cannot connect."""
        r = mask & self._low | mask >> 1 & self._high
        c = self._costs[r | self._top if mask & self._bit else r]
        return None if c is None else c * self._lift

    def delta(self, mask: int) -> int:
        """delta of the subset ``mask``, as a mask: the set itself when its own
        welfare reaches the best, else delta of the first predecessor that does.

        The walk reads ``sw`` of every predecessor it passes and the own
        welfare of every set it visits, so it reads the split inline."""
        preds = _predecessors(len(self.agents))
        low, high, bit, top, lift, v = (self._low, self._high, self._bit, self._top,
                                        self._lift, self._v)
        costs, values, without, with_k = self._costs, self._values, self._without, self._with
        best = self.sw(mask)
        while True:
            r = mask & low | mask >> 1 & high
            held = mask & bit
            c = costs[r | top if held else r]
            if c is not None and (values[r] - c) * lift + (v if held else 0) == best:
                return mask
            for pred in preds[mask]:
                r = pred & low | pred >> 1 & high
                w = without[r] * lift
                if pred & bit and with_k is not None:
                    w = max(w, v + with_k[r] * lift)
                if w == best:
                    mask = pred
                    break
            else:
                raise RuntimeError("no predecessor reaches the set's best welfare")


def check_welfare_cap(agents: int) -> None:
    """Refuse a welfare computation over more agents than the cap."""
    if agents > MAX_AGENTS:
        raise SizeCapError(f"{agents} agents exceed the welfare cap of {MAX_AGENTS}")


def connection_cost(profile: ReportProfile, S, cache: SteinerCache | None = None):
    """Cheapest cost of connecting the agent set S to the source on the
    induced graph, exact; None when S cannot be connected. The one place an
    entry of a solver's cost table is unscaled.

    Every query reads the table over all agents in sorted order: a memo hit
    after an RSM run or a welfare table split at the last agent on the same
    induced graph. On a cold cache it builds the source's subset
    spanning-tree table, whose cost depends on the graph, not on S: 5-8 ms
    for two agents of ``generate_instance(12, 0.4, seed=3)`` (2 vCPUs,
    CPython 3.11.7).
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


def _split_agent(profile: ReportProfile) -> tuple[int, bool]:
    """The bit index of the agent k to split the table at, and whether the
    split may be kept: the lone agent whose report is not its truthful one,
    kept; else the last agent, kept only when no agent deviates."""
    inst = profile.instance
    reports = profile.reports
    order = inst.agent_order()
    lone = None
    for b, a in enumerate(order):
        r, edges = reports[a], inst.true_edges_of(a)
        # A truthful profile's reports hold the instance's own edge sets.
        if r.edges is not edges and r.edges != edges or r.valuation != inst.valuations[a]:
            if lone is not None:
                return len(order) - 1, False
            lone = b
    return (len(order) - 1 if lone is None else lone), True


def _best_inside(values: list[int], costs, preds) -> list[int]:
    """The predecessor recurrence over one half of a split: entry R is the
    best of values[S] - costs[S] over the sets S inside R. A set that cannot
    connect takes the entry of the half's first set, which can connect and
    which every set holds."""
    base = -costs[0]
    best = [base if c is None else v - c for v, c in zip(values, costs)]
    for r in range(1, len(best)):
        top = best[r]
        for pred in preds[r]:
            if best[pred] > top:
                top = best[pred]
        best[r] = top
    return best


def _build_split(profile: ReportProfile, b: int, cache: SteinerCache) -> WelfareSplit:
    """The split of the profile's welfare table at the agent with bit index b."""
    inst = profile.instance
    agents = inst.agent_order()
    others = agents[:b] + agents[b + 1:]
    solver = cache.solver(cache.induced(profile))
    s0, costs, vals = scaled_to_ints(
        solver, solver.cost_table(inst.source, others + agents[b:b + 1]),
        [profile.reports[a].valuation for a in others])
    values = [0]
    for v in vals:
        values += [s + v for s in values]
    preds = _predecessors(len(others))
    top = len(values)
    return WelfareSplit(s0, costs, values, _best_inside(values, costs, preds),
                        None if costs[top] is None
                        else _best_inside(values, costs[top:], preds))


def compute_delta_table(profile: ReportProfile,
                        cache: SteinerCache | None = None) -> WelfareTable:
    """The welfare table over every agent subset of one profile: a view of
    its split, read from the cache's ``welfare_splits`` when at most one
    agent deviates and it was built before."""
    inst = profile.instance
    agents = inst.agent_order()
    check_welfare_cap(len(agents))
    if not agents:  # one set, the empty one, on a graph without edges
        return WelfareTable(agents, WelfareSplit(1, [0], [0], [0], None), 0, 0)
    cache = cache or SteinerCache()
    b, keep = _split_agent(profile)
    k = profile.reports[agents[b]]
    key = (inst, agents[b], k.edges)
    split = cache.welfare_splits.get(key) if keep else None
    if split is None:
        split = _build_split(profile, b, cache)
        if keep:
            cache.welfare_splits[key] = split
    return WelfareTable(agents, split, 1 << b, k.valuation)
