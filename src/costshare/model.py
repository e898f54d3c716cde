"""Core data model: weighted graphs, instances, and report profiles.

An instance is a connected undirected graph over a set of agent nodes plus a
distinguished source node, with nonnegative edge costs and one private
valuation per agent. Agents report a subset of their incident edges and a
valuation; the source implicitly reports all of its true edges. An edge is
present in the induced graph only when both endpoints declare it.

All costs and valuations are exact rationals (int or fractions.Fraction);
floats are rejected at the boundary. Every type here is immutable after
construction, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

Value = Union[int, Fraction]
Edge = tuple[str, str]
# The most agents the mechanisms and the generator accept; welfare and Steiner
# tables grow as 2^n, and every cap on agents, terminals and nodes derives
# from this one.
MAX_AGENTS = 12


class ValidationError(ValueError):
    """Raised when an instance, profile, or document violates an invariant."""


class SizeCapError(RuntimeError):
    """Raised when an operation is asked to exceed its configured size cap."""


def as_value(x) -> Value:
    """Normalize an exact number: Fractions with denominator 1 become ints.

    Accepts int, Fraction, or a string like "3", "3/2", "0.5". Floats are
    rejected so no binary rounding can leak into the arithmetic.
    """
    if isinstance(x, bool):
        raise ValidationError(f"malformed number: {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, str):
        try:
            if "_" in x:  # Fraction reads "1_000" only from Python 3.11 on
                raise ValueError(x)
            f = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed number: {x!r}") from exc
        return int(f) if f.denominator == 1 else f
    if isinstance(x, float):
        raise ValidationError(f"malformed number: {x!r} (floats are not accepted)")
    raise ValidationError(f"malformed number: {x!r}")


def value_to_json(v: Value):
    """Render a value for JSON output: ints stay ints, proper fractions
    become "p/q" strings so round-trips stay exact. Fractions that have
    collapsed to whole numbers (sums do that) are rendered as ints."""
    v = as_value(v)
    if isinstance(v, int):
        return v
    return f"{v.numerator}/{v.denominator}"


def exact_div(a: Value, b: Value) -> Value:
    return as_value(Fraction(a) / Fraction(b))


def unscale(n: int, scale: int) -> Value:
    """The exact value ``n / scale`` of an int scaled by a positive int,
    normalized like ``as_value``: an int when the division is exact."""
    if scale == 1:
        return n
    q, r = divmod(n, scale)
    return Fraction(n, scale) if r else q


def edge_key(u: str, v: str) -> Edge:
    """Canonical undirected edge key: endpoints in label order."""
    if u == v:
        raise ValidationError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


class WeightedGraph:
    """Immutable undirected graph with exact edge costs.

    A graph is its node set and its cost map: two graphs are equal when
    both are equal, so solvers can be memoized per graph. The hash is
    computed once, since graphs serve as dict keys on every cache lookup.
    """

    __slots__ = ("nodes", "_costs", "_adj", "_hash")

    def __init__(self, nodes: Iterable[str], costs: Mapping[Edge, Value]):
        self.nodes = frozenset(nodes)
        cleaned = {}
        adj: dict[str, dict[str, Value]] = {v: {} for v in self.nodes}
        for (u, v), c in costs.items():
            k = edge_key(u, v)
            if u not in self.nodes or v not in self.nodes:
                raise ValidationError(f"edge {k} has an undeclared endpoint")
            if k in cleaned:
                raise ValidationError(f"duplicate edge {k}")
            c = as_value(c)
            if c < 0:
                raise ValidationError(f"negative cost on edge {k}")
            cleaned[k] = c
            adj[k[0]][k[1]] = c
            adj[k[1]][k[0]] = c
        self._costs = cleaned
        self._adj = adj
        self._hash = hash((self.nodes, frozenset(cleaned.items())))

    def cost(self, u: str, v: str) -> Value:
        return self._costs[edge_key(u, v)]

    def has_edge(self, u: str, v: str) -> bool:
        return edge_key(u, v) in self._costs

    def edges(self) -> dict[Edge, Value]:
        return dict(self._costs)

    def adjacent(self, v: str) -> dict[str, Value]:
        """Neighbors of v with the cost of the connecting edge."""
        return dict(self._adj[v])

    def total_cost(self, edges: Iterable[Edge]) -> Value:
        return as_value(sum(self._costs[edge_key(*e)] for e in edges))

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        start = next(iter(self.nodes))
        seen = {start}
        stack = [start]
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.nodes)

    def __eq__(self, other):
        return (isinstance(other, WeightedGraph) and self.nodes == other.nodes
                and self._costs == other._costs)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WeightedGraph({sorted(self.nodes)}, {len(self._costs)} edges)"


class Instance:
    """The true world: source label, agent set, edge costs, true valuations.

    The full graph must be connected and the source must not be an agent.
    Immutable after construction. Equality and hashing are by identity, so
    an instance can key memos of its own derived graphs.
    """

    __slots__ = ("source", "agents", "graph", "valuations", "_order", "_true_edges")

    def __init__(self, source: str, agents: Iterable[str],
                 edges: Mapping[Edge, Value], valuations: Mapping[str, Value]):
        agents = list(agents)
        if len(agents) != len(set(agents)):
            raise ValidationError("duplicate node label in agent list")
        if source in agents:
            raise ValidationError("source label also appears in the agent set")
        self.source = source
        self.agents = frozenset(agents)
        self.graph = WeightedGraph(self.agents | {source}, edges)
        vals = {}
        for a, v in valuations.items():
            if a not in self.agents:
                raise ValidationError(f"valuation for unknown agent {a!r}")
            v = as_value(v)
            if v < 0:
                raise ValidationError(f"negative valuation for agent {a!r}")
            vals[a] = v
        missing = self.agents - vals.keys()
        if missing:
            raise ValidationError(f"missing valuation for {sorted(missing)}")
        self.valuations = vals
        if not self.graph.is_connected():
            raise ValidationError("the true graph must be connected")
        self._order = tuple(sorted(self.agents))
        # Every profile validation reads these, once per agent.
        self._true_edges = {v: frozenset(edge_key(v, w) for w in self.graph.adjacent(v))
                            for v in self.graph.nodes}

    def agent_order(self) -> tuple[str, ...]:
        return self._order

    def true_edges_of(self, i: str) -> frozenset[Edge]:
        """Canonical keys of the edges truly incident to node i."""
        return self._true_edges[i]

    def __repr__(self):
        return (f"Instance(source={self.source!r}, agents={sorted(self.agents)}, "
                f"{len(self.graph.edges())} edges)")


@dataclass(frozen=True)
class AgentReport:
    """One agent's declaration: a subset of its incident edges plus a value."""

    edges: frozenset[Edge]
    valuation: Value

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(edge_key(*e) for e in self.edges))
        v = as_value(self.valuation)
        if v < 0:
            raise ValidationError("reported valuation must be nonnegative")
        object.__setattr__(self, "valuation", v)


@dataclass(frozen=True)
class ReportProfile:
    """A full profile of agent reports for one instance.

    ``reports`` covers exactly the agent set. The source is not part of the
    profile; it always declares all of its true edges.
    """

    instance: Instance
    reports: Mapping[str, AgentReport]

    def __post_init__(self):
        reports = dict(self.reports)
        if reports.keys() != self.instance.agents:
            raise ValidationError("profile must cover exactly the agent set")
        for i, rep in reports.items():
            _check_declaration(self.instance, i, rep)
        object.__setattr__(self, "reports", reports)

    def valuation(self, i: str) -> Value:
        return self.reports[i].valuation

    def reported_valuations(self) -> dict[str, Value]:
        return {i: r.valuation for i, r in self.reports.items()}


def _check_declaration(instance: Instance, i: str, report: AgentReport) -> None:
    if not report.edges <= instance.true_edges_of(i):
        extra = report.edges - instance.true_edges_of(i)
        raise ValidationError(f"agent {i!r} declares edges it does not have: {sorted(extra)}")


def truthful_profile(instance: Instance) -> ReportProfile:
    """The profile where every agent declares all true edges and its true value.
    Each report holds the instance's own edge set and value objects."""
    return ReportProfile(instance, {
        i: _unchecked_report(instance.true_edges_of(i), instance.valuations[i])
        for i in instance.agents
    })


def run_profile(instance: Instance, profile: ReportProfile | None) -> ReportProfile:
    """The given profile, or the truthful one when none is given. Errors
    when the profile was made for another instance."""
    if profile is None:
        return truthful_profile(instance)
    if profile.instance is not instance:
        raise ValidationError("the report profile belongs to another instance")
    return profile


def induced_graph(profile: ReportProfile) -> WeightedGraph:
    """Graph induced by a profile: an edge survives only if both endpoints
    declare it. The source declares all its true edges, so a source edge
    survives whenever the agent endpoint declares it. The node set is kept
    whole; nodes may end up isolated."""
    inst = profile.instance
    declared = {i: r.edges for i, r in profile.reports.items()}
    costs = {}
    for e, c in inst.graph.edges().items():
        u, v = e
        u_ok = u == inst.source or e in declared[u]
        v_ok = v == inst.source or e in declared[v]
        if u_ok and v_ok:
            costs[e] = c
    return WeightedGraph(inst.graph.nodes, costs)


def apply_deviation(profile: ReportProfile, i: str, report: AgentReport) -> ReportProfile:
    """A copy of the profile where agent i reports ``report`` instead.

    Errors if the deviation declares an edge i does not truly have. Only the
    replaced report is checked: every other one comes from a profile that
    was validated when it was built.
    """
    inst = profile.instance
    if i not in inst.agents:
        raise ValidationError(f"unknown agent {i!r}")
    _check_declaration(inst, i, report)
    return _unchecked_profile(inst, {**profile.reports, i: report})


def _unchecked_profile(instance: Instance, reports: dict[str, AgentReport]) -> ReportProfile:
    """A profile over known-valid reports, kept as given: no copy, no checks."""
    out = object.__new__(ReportProfile)
    object.__setattr__(out, "instance", instance)
    object.__setattr__(out, "reports", reports)
    return out


def _unchecked_report(edges: frozenset[Edge], valuation: Value) -> AgentReport:
    """A report kept as given: ``edges`` must already be canonical edge keys
    and ``valuation`` a normalized nonnegative value."""
    out = object.__new__(AgentReport)
    object.__setattr__(out, "edges", edges)
    object.__setattr__(out, "valuation", valuation)
    return out
