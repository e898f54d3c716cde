"""Mechanism outcomes.

An allocation names the selected agents, gives a full payment and utility
vector (zero for unselected agents), the welfare of the selected set under
the submitted reports, and a witness tree. Witness trees can be expensive
to reconstruct, so they are built on first access; quantities that only
need costs stay eager.
"""

from __future__ import annotations

from functools import cached_property

from .model import Edge, Value, as_value, value_to_json


class StageRecord:
    """One round of a staged mechanism: who was selected at which equal
    share, who was priced out, who stayed in the pool, and which edges the
    round's tree used (expressed as original instance edges)."""

    __slots__ = ("stage", "selected", "share", "excluded", "remaining", "tree_edges")

    def __init__(self, stage: int, selected: frozenset[str], share: Value,
                 excluded: frozenset[str], remaining: frozenset[str],
                 tree_edges: frozenset[Edge]):
        self.stage = stage
        self.selected = selected
        self.share = share
        self.excluded = excluded
        self.remaining = remaining
        self.tree_edges = tree_edges

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

    ``tree_thunk`` must return the pair (tree edges, their total cost); it
    runs at most once. When the total cost is already known from the solve
    it can be passed eagerly so cost-only consumers never build a witness.
    """

    def __init__(self, mechanism: str, selected: frozenset[str],
                 shares: dict[str, Value], utilities: dict[str, Value],
                 social_welfare: Value, tree_thunk,
                 total_cost: Value | None = None, stage_thunk=None):
        self.mechanism = mechanism
        self.selected = selected
        self.shares = shares
        self.utilities = utilities
        self.social_welfare = social_welfare
        self._tree_thunk = tree_thunk
        self._eager_cost = total_cost
        self._stage_thunk = stage_thunk

    @cached_property
    def _tree(self) -> tuple[frozenset[Edge], Value]:
        return self._tree_thunk()

    @property
    def tree_edges(self) -> frozenset[Edge]:
        return self._tree[0]

    @property
    def total_cost(self) -> Value:
        if self._eager_cost is not None:
            return self._eager_cost
        return self._tree[1]

    @cached_property
    def stage_trace(self) -> tuple[StageRecord, ...] | None:
        if self._stage_thunk is None:
            return None
        return self._stage_thunk()

    def total_shares(self) -> Value:
        total = 0
        for x in self.shares.values():
            total += x
        return as_value(total)

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
