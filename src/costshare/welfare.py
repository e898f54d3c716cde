"""Welfare maximization over agent subsets.

The social welfare of a set S under a report profile is the reported value
of S minus the exact cost of connecting S to the source on the induced
graph. The table below follows the bottom-up recurrence over subsets in
ascending cardinality: delta(S) is the best predecessor's delta unless S
itself matches or beats it, in which case delta(S) = S (ties favor the
larger, current set). Predecessor ties go to the lexicographically smallest
sorted label list, which for equal welfare means dropping the largest label.

Because the recurrence for S only ever reads entries of subsets of S, the
table restricted to any ground set agrees with a fresh run on that ground
set; mechanisms rely on this to read delta over reduced agent pools from
one full table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import SizeCapError, ValidationError, Value, as_value
from .model import ReportProfile, induced_graph
from .steiner import SteinerCache

WELFARE_CAP = 12


@dataclass(frozen=True)
class WelfareTable:
    """Full welfare recurrence output over one ground set of agents.

    Masks index subsets of ``agents`` (sorted order, bit b is agents[b]).
    ``sw_delta[m]`` is the welfare of delta of the subset, ``raw_sw[m]`` the
    subset's own welfare (None when it cannot be connected).
    """

    agents: tuple[str, ...]
    source: str
    delta_masks: tuple[int, ...]
    sw_delta: tuple[Value, ...]
    raw_sw: tuple
    costs: tuple
    value_sums: tuple[Value, ...]

    def mask_of(self, S) -> int:
        idx = {a: b for b, a in enumerate(self.agents)}
        m = 0
        for a in S:
            if a not in idx:
                raise ValidationError(f"{a!r} is not in the table's ground set")
            m |= 1 << idx[a]
        return m

    def set_of(self, mask: int) -> frozenset[str]:
        return frozenset(a for b, a in enumerate(self.agents) if mask >> b & 1)

    def delta_of(self, S) -> frozenset[str]:
        return self.set_of(self.delta_masks[self.mask_of(S)])

    def sw_delta_of(self, S) -> Value:
        return self.sw_delta[self.mask_of(S)]

    @property
    def full_mask(self) -> int:
        return (1 << len(self.agents)) - 1


def social_welfare(profile: ReportProfile, S, cache: SteinerCache | None = None):
    """Reported value of S minus the exact connection cost of S on the
    induced graph; None when S cannot be connected to the source."""
    inst = profile.instance
    S = frozenset(S)
    if not S <= inst.agents:
        raise ValidationError("welfare is defined over agent subsets only")
    if not S:
        return 0
    cache = cache or SteinerCache()
    solver = cache.solver(induced_graph(profile))
    c = solver.cost(S | {inst.source})
    if c is None:
        return None
    return as_value(sum(profile.valuation(i) for i in S) - c)


def compute_delta_table(profile: ReportProfile, cache: SteinerCache | None = None,
                        ground=None, cap: int = WELFARE_CAP) -> WelfareTable:
    """Run the welfare recurrence over all subsets of the ground set
    (default: every agent) for one report profile."""
    inst = profile.instance
    agents = tuple(sorted(ground)) if ground is not None else tuple(sorted(inst.agents))
    if not frozenset(agents) <= inst.agents:
        raise ValidationError("ground set must consist of agents")
    if len(agents) > cap:
        raise SizeCapError(f"{len(agents)} agents exceed the welfare cap of {cap}")
    cache = cache or SteinerCache()
    solver = cache.solver(induced_graph(profile))
    costs = solver.cost_table(inst.source, agents)
    vals = [profile.valuation(a) for a in agents]
    n = len(agents)
    size = 1 << n
    value_sums = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        value_sums[mask] = value_sums[mask ^ low] + vals[low.bit_length() - 1]
    delta_masks = [0] * size
    sw_delta: list[Value] = [0] * size
    raw_sw: list = [0] * size
    for mask in range(1, size):
        best = None
        best_pred = 0
        # Removing the largest label first makes the first maximum the
        # lexicographically smallest predecessor set.
        for b in range(n - 1, -1, -1):
            if mask >> b & 1:
                pred = mask ^ (1 << b)
                if best is None or sw_delta[pred] > best:
                    best = sw_delta[pred]
                    best_pred = pred
        c = costs[mask]
        if c is None:
            own = None
        else:
            own = value_sums[mask] - c
            if not isinstance(own, int):
                own = as_value(own)
        raw_sw[mask] = own
        if own is not None and own >= best:
            delta_masks[mask] = mask
            sw_delta[mask] = own
        else:
            delta_masks[mask] = delta_masks[best_pred]
            sw_delta[mask] = best
    return WelfareTable(agents, inst.source, tuple(delta_masks), tuple(sw_delta),
                        tuple(raw_sw), tuple(costs), tuple(value_sums))


def delta(table: WelfareTable, S) -> frozenset[str]:
    """The welfare-maximizing subset the recurrence assigns to S."""
    return table.delta_of(S)
