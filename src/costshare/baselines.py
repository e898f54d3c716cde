"""Bird rule baseline.

Grow a spanning tree from the source, cheapest frontier edge first; every
node pays the cost of the edge that attached it. Payments add up to the
tree cost by construction, but the rule takes no valuations into account
and agents can lower their payment by hiding edges, which is exactly the
failure the truthful mechanisms avoid. Frontier ties go to the smaller
(cost, edge key) pair, so runs are deterministic.

Everyone is served, so the selection's cost needs no Steiner solve: the
cheapest tree spanning every node is a minimum spanning tree, and Prim's
tree is one. Its total is both the welfare's cost and the total cost.
"""

from __future__ import annotations

import heapq

from .allocation import Allocation
from .model import (Edge, Instance, ReportProfile, ValidationError, Value,
                    WeightedGraph, edge_key, run_profile)
from .steiner import SteinerCache


def prim_shares(graph: WeightedGraph, source: str) -> tuple[dict[str, Value], frozenset[Edge]]:
    """Attachment cost per non-source node plus the spanning tree itself.

    Errors when the graph is disconnected; the rule must connect everyone.
    """
    if source not in graph.nodes:
        raise ValidationError(f"source {source!r} is not a node of the graph")
    shares: dict[str, Value] = {}
    tree: set[Edge] = set()
    reached = {source}
    frontier: list[tuple[Value, Edge, str]] = []

    def push_edges(v: str):
        for w, c in graph.adjacent(v).items():
            if w not in reached:
                heapq.heappush(frontier, (c, edge_key(v, w), w))

    push_edges(source)
    while frontier:
        cost, e, node = heapq.heappop(frontier)
        if node in reached:
            continue
        reached.add(node)
        shares[node] = cost
        tree.add(e)
        push_edges(node)
    if reached != graph.nodes:
        raise ValidationError("the graph must be connected to apply the attachment rule")
    return shares, frozenset(tree)


def run_bird(instance: Instance, profile: ReportProfile | None = None,
             cache: SteinerCache | None = None) -> Allocation:
    """Run the rule on the induced graph of a profile (truthful by default).

    Every agent is selected and pays its attachment cost regardless of any
    reported valuation; ``cache`` only supplies the induced graph.
    """
    profile = run_profile(instance, profile)
    graph = (cache or SteinerCache()).induced(profile)
    shares, tree = prim_shares(graph, instance.source)
    return Allocation("bird", profile, shares, lambda: graph.total_cost(tree),
                      tree=lambda: tree)
