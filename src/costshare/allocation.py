"""Mechanism outcomes.

An allocation is the one record of a run: the selected agents with their
payments, plus thunks for the cheapest cost of connecting the selection to
the source and for the tree. Everything else is derived on first access,
so a caller that reads only utilities never prices the selection or builds
a tree, and ``utility(i)`` gives one agent's utility without the others'.
``social_welfare`` uses the selection's cheapest cost and ``total_cost``
the built tree's; they differ only for a staged run whose union of stage
trees is not a cheapest tree of the selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .model import Edge, ReportProfile, Value, as_value, value_to_json


@dataclass(frozen=True)
class StageRecord:
    """One round of a staged mechanism: who was selected at which equal
    share, who was priced out, who stayed in the pool, and which edges the
    round's tree used (expressed as original instance edges)."""

    stage: int
    selected: frozenset[str]
    share: Value
    excluded: frozenset[str]
    remaining: frozenset[str]
    tree_edges: frozenset[Edge]

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "selected": sorted(self.selected),
            "share": value_to_json(self.share),
            "excluded": sorted(self.excluded),
            "remaining": sorted(self.remaining),
            "edges": [list(e) for e in sorted(self.tree_edges)],
        }


class Allocation:
    """Outcome of one mechanism run on one report profile.

    ``shares`` maps each selected agent to its payment (the ``shares``
    attribute adds 0 for everyone else) and ``cost`` returns the
    selection's cheapest connection cost on the induced graph. A
    single-tree run passes ``tree``, returning the tree's edges, which cost
    that much. A staged run passes ``stages``, returning its stage records;
    its tree is their union, priced on the instance graph. Each thunk runs
    at most once.
    """

    def __init__(self, mechanism: str, profile: ReportProfile,
                 shares: dict[str, Value], cost, tree=None, stages=None):
        self.mechanism = mechanism
        self.selected = frozenset(shares)
        self.shares = {i: shares.get(i, 0) for i in profile.instance.agent_order()}
        self._profile = profile
        self._cost = cost
        self._tree = tree
        self._stages = stages

    def utility(self, i: str) -> Value:
        """Agent i's true valuation minus its share when selected, else 0."""
        x = self.shares[i]
        if i not in self.selected:
            return 0
        return as_value(self._profile.instance.valuations[i] - x)

    @cached_property
    def utilities(self) -> dict[str, Value]:
        return {i: self.utility(i) for i in self.shares}

    @cached_property
    def cost(self) -> Value:
        return self._cost()

    @cached_property
    def social_welfare(self) -> Value:
        return as_value(sum(self._profile.valuation(i) for i in self.selected) - self.cost)

    @cached_property
    def tree_edges(self) -> frozenset[Edge]:
        if self._stages is None:
            return self._tree()
        return frozenset().union(*(rec.tree_edges for rec in self.stage_trace))

    @cached_property
    def total_cost(self) -> Value:
        if self._stages is None:
            return self.cost
        return self._profile.instance.graph.total_cost(self.tree_edges)

    @cached_property
    def stage_trace(self) -> tuple[StageRecord, ...] | None:
        return None if self._stages is None else self._stages()

    def total_shares(self) -> Value:
        return as_value(sum(self.shares.values()))

    def to_json(self, with_stages: bool = False) -> dict:
        doc = {
            "mechanism": self.mechanism,
            "selected": sorted(self.selected),
            "shares": {i: value_to_json(x) for i, x in sorted(self.shares.items())},
            "utilities": {i: value_to_json(u) for i, u in sorted(self.utilities.items())},
            "social_welfare": value_to_json(self.social_welfare),
            "total_cost": value_to_json(self.total_cost),
            "edges": [list(e) for e in sorted(self.tree_edges)],
        }
        if with_stages and self.stage_trace is not None:
            doc["stages"] = [rec.to_json() for rec in self.stage_trace]
        return doc
