"""Exact minimum Steiner trees on small weighted graphs.

Cost tables come from subset minimum spanning trees. A minimum Steiner tree
is a minimum spanning tree of its own node set (Hakimi 1971), so for a root
r the cheapest tree joining r to a node set S costs the least m[T] over the
supersets T of S, where m[T] is the spanning-tree cost of the subgraph
induced by T and r. A solver computes m for every set of non-root nodes,
relays included, once per root, in one pass over the sets in ascending
order: m[T] is the least m[T - v] plus v's cheapest edge into T - v + r over
the nodes v of T, because a minimum spanning tree has a leaf other than r
and dropping that leaf leaves a minimum spanning tree of the rest. Only the
sets inside the root's component, found by a flood over the edges, take
any work; a set with a node outside it has no tree. One superset-min (zeta)
transform over the component's node bits then turns m into the cost of
every set at once. The transform takes each bit in whole-slice passes,
contiguous runs or strided ones, whichever needs fewer slice assignments. A
terminal list's table is a projection of that array, which is what makes
whole welfare tables cheap. A subset whose nodes cannot reach the root is
infeasible, reported as None rather than a sentinel cost.

Inside a solver everything is a plain int: edge costs are scaled once by
the lcm of their denominators, ``solver.scale``, and an int sentinel above every real
cost stands for "no tree". ``cost_table`` hands out those scaled ints (None
for an infeasible subset), memoized per query; ``scaled_to_ints`` lifts one
and a list of valuations to a common int scale. A table entry becomes an
exact value only in ``welfare.connection_cost`` and in ``tree_for_mask``'s
check of its witness's cost; callers that lift a table unscale only what
they compute from the lifted copy.

Witness trees are reconstructed from the values of the Dreyfus-Wagner
terminal-subset DP over shortest-path distances, taken over only the
terminals a witness selects: dp[mask][v] is the cheapest tree spanning the
terminals in ``mask`` plus node v. The reconstruction re-derives, for each
mask on the backtracking path, the merge and grow choices from those values
under a fixed scan order with a strict-< rule, so equal-cost ties resolve
deterministically. The values come from one of two sources:

- a Dreyfus-Wagner run, about 3^k * n steps for k selected terminals on n
  nodes, for small selections;
- node-set costs, for large ones. dp[mask][v] is the cost of the cheapest
  tree spanning the node set terms(mask) + v, built per witness in one list
  over node sets whose root bit is set when the set holds the root. Such a
  set costs its root-table entry; one without the root, the cheaper of that
  entry and a second superset-min transform over the spanning-tree costs
  of the root-free node sets, about 2^(n-1) * E steps for E edges.

``_node_sets_pay`` compares the two step counts with one measured constant.
The sources agree on every value below the sentinel, and the reconstruction
follows only those, so both build the same tree. A separate brute-force
oracle (every node superset, cheapest spanning tree) exists only to
cross-check the solver; its ``_induced_mst_table`` shares only the
``_DisjointSet`` union-find with the solver's ``_canonical_tree``.

Solvers are pure after construction; a SteinerCache may be shared freely
within a thread. It matches graphs by content, which is all a graph is.

The cache also memoizes the graphs a run derives from its reports, because a
deviation sweep varies one agent's valuation far more often than its edges:

- ``induced`` is keyed by the instance object and each agent's declared edge
  set in sorted agent order, which is everything the induced graph depends
  on. Instances compare by identity and the key holds the instance, so it
  stays alive while the entry exists; an ``id()`` key could instead be
  reused by a later object once the first is collected and return a stale
  graph.
- ``contracted`` is keyed by the graph, the merged set and the source.
  Merging the source alone is the identity and returns the graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .model import (MAX_AGENTS, Edge, ReportProfile, SizeCapError, ValidationError,
                    Value, WeightedGraph, as_value, edge_key, induced_graph, unscale)

# An instance at the agent cap plus its source is MAX_TERMINALS nodes, all
# terminals; the node cap, one above, bounds the exponential subset tables.
MAX_TERMINALS = MAX_AGENTS + 1
MAX_NODES = MAX_TERMINALS + 1
ORACLE_MAX_NODES = 12


@dataclass(frozen=True)
class SteinerResult:
    """A minimum Steiner tree: the terminals, the exact cost, and a witness
    edge set forming a tree that spans the terminals."""

    terminals: frozenset[str]
    cost: Value
    tree_edges: frozenset[Edge]


class _DisjointSet:
    def __init__(self, items):
        self._parent = {x: x for x in items}

    def find(self, x):
        p = self._parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[rb] = ra
        return True


class SteinerSolver:
    """Per-graph exact Steiner solver with memoized cost tables.

    Edge costs are scaled once to ints by the lcm of their denominators,
    ``scale``; cost tables, shortest paths and the witness DP stay on those
    ints. ``_inf`` is one more than the sum of all costs, so any value at or
    above it marks an infeasible subset.

    The subset-MST table of a root answers the cost of connecting it to any
    set of the other nodes, so one table serves every terminal list under
    that root. The same table plus a root-free half gives the cost of
    every node set, which a large witness builds instead of running the DP.
    Shortest paths are computed on the first witness only.
    """

    def __init__(self, graph: WeightedGraph):
        if len(graph.nodes) > MAX_NODES:
            raise SizeCapError(f"graph has {len(graph.nodes)} nodes, cap is {MAX_NODES}")
        self.graph = graph
        self._labels = sorted(graph.nodes)
        self._idx = {lab: i for i, lab in enumerate(self._labels)}
        self._n = len(self._labels)
        costs = graph.edges()
        scale = 1
        for c in costs.values():
            if not isinstance(c, int):
                scale = lcm(scale, c.denominator)
        self.scale = scale
        if scale != 1:
            costs = {e: int(c * scale) for e, c in costs.items()}
        self._inf = sum(costs.values()) + 1
        self._edges = sorted((c, self._idx[u], self._idx[v]) for (u, v), c in costs.items())
        self._paths = None
        self._roots: dict[int, list[int]] = {}
        self._tables: dict[tuple[str, tuple[str, ...]], list] = {}

    def _shortest_paths(self) -> tuple[list[list[int]], list[list[int]]]:
        """All-pairs shortest distances and next hops, (dist, nxt); computed
        on first use and kept."""
        if self._paths is not None:
            return self._paths
        n, inf = self._n, self._inf
        dist = [[inf] * n for _ in range(n)]
        nxt = [[None] * n for _ in range(n)]
        for i in range(n):
            dist[i][i] = 0
            nxt[i][i] = i
        for c, i, j in self._edges:
            dist[i][j] = dist[j][i] = c
            nxt[i][j] = j
            nxt[j][i] = i
        for k in range(n):
            dk = dist[k]
            for i in range(n):
                dik = dist[i][k]
                if dik >= inf:
                    continue
                di = dist[i]
                ni = nxt[i]
                for j in range(n):
                    alt = dik + dk[j]
                    if alt < di[j]:
                        di[j] = alt
                        ni[j] = ni[k]
        self._paths = dist, nxt
        return self._paths

    def _path_edges(self, i: int, j: int) -> list[Edge]:
        nxt = self._shortest_paths()[1]
        edges = []
        hops = 0
        while i != j:
            k = nxt[i][j]
            edges.append(edge_key(self._labels[i], self._labels[k]))
            i = k
            hops += 1
            if hops > self._n:
                raise AssertionError("shortest path reconstruction cycled")
        return edges

    def _term_indices(self, terminals) -> list[int]:
        out = []
        for t in terminals:
            if t not in self._idx:
                raise ValidationError(f"terminal {t!r} is not a node of the graph")
            out.append(self._idx[t])
        return out

    def _positions(self, root: int) -> list[int]:
        """Bit of each node in a node set under ``root``: node v takes bit v
        below the root and bit v - 1 above it, and the root takes the top
        bit, n - 1, so T | top is T with the root."""
        pos = [i - (i > root) for i in range(self._n)]
        pos[root] = self._n - 1
        return pos

    def _root_edges(self, root: int) -> list[tuple[int, int, int, int]]:
        """(cost, bit u, bit v, both bits) per edge in ascending order, in
        the bits of ``_positions``."""
        pos = self._positions(root)
        return [(c, pos[i], pos[j], 1 << pos[i] | 1 << pos[j]) for c, i, j in self._edges]

    def _spanning_costs(self, edges, fixed: int, reach: int) -> list[int]:
        """m[T] for every set T of non-root node bits that lies in
        ``reach``: the cost of a minimum spanning tree of the subgraph
        induced by the node bits T | fixed, ``_inf`` when that subgraph is
        disconnected. Every other entry stays ``_inf``.

        One pass in ascending T, by leaf removal: m[T] = 0 when T | fixed
        has at most one node, else the least m[T - v] plus v's cheapest edge
        into (T - v) | fixed over the bits v of T. A minimum spanning tree
        on two or more nodes has a leaf in T, and dropping it leaves a
        minimum spanning tree of the rest, so the least candidate is exact.
        Each node lists its neighbours in the ascending edge order, so the
        first one inside the set is the cheapest. Costs are nonnegative, so
        a v with m[T - v] at or above the best candidate so far cannot
        win."""
        inf = self._inf
        near: list[list[tuple[int, int]]] = [[] for _ in range(self._n)]
        for c, u, v, _ in edges:
            near[u].append((c, 1 << v))
            near[v].append((c, 1 << u))
        m = [inf] * (1 << (self._n - 1))
        T = 0
        while True:
            if (T | fixed).bit_count() <= 1:
                m[T] = 0
            else:
                best = inf
                bits = T
                while bits:
                    b = bits & -bits
                    bits ^= b
                    base = m[T ^ b]
                    if base >= best:
                        continue
                    rest = T ^ b | fixed
                    for c, nb in near[b.bit_length() - 1]:
                        if nb & rest:
                            if base + c < best:
                                best = base + c
                            break
                m[T] = best
            if T == reach:
                return m
            T = (T - reach) & reach

    @staticmethod
    def _superset_min(m: list[int], bits: int) -> list[int]:
        """Replace each m[T] by the least m over the supersets of T that
        differ from it only in ``bits``, in place, and return m, whose
        length L is a power of two above ``bits``: one pass per bit of
        ``bits`` (the zeta transform over min). When every entry with a bit
        outside ``bits`` is the sentinel, that is the least m over all
        supersets, since a pass over an outside bit would pair each entry
        with a sentinel.

        The pass for bit s pairs every T without s with T | s. Over a table
        of length L those pairs form L/2s contiguous runs, m[lo:lo+s]
        against m[lo+s:lo+2s], or s strided runs, m[r::2s] against
        m[r+s::2s]; the pass takes whichever needs fewer slice assignments,
        min(s, L/2s), and computes each run with one comparison per pair."""
        top = len(m)
        while bits:
            step = bits & -bits
            bits ^= step
            span = step << 1
            if step < top // span:
                for lo in range(step):
                    hi = lo + step
                    m[lo::span] = [a if a < b else b for a, b in zip(m[lo::span], m[hi::span])]
            else:
                for lo in range(0, top, span):
                    hi = lo + step
                    m[lo:hi] = [a if a < b else b for a, b in zip(m[lo:hi], m[hi:hi + step])]
        return m

    def _root_table(self, root: int) -> list[int]:
        """best[T], built on first use, for every set T of non-root nodes:
        the cheapest tree joining the root to T, ``_inf`` when no tree does.
        Node bits are those of ``_positions``, without the root's.

        First a flood over the edges finds ``reach``, the bits that can
        reach the root; a set with any other bit has no tree and stays
        ``_inf`` with no work. Then m[T] is the cost of a minimum spanning
        tree of G[T + root] for every T inside ``reach``. A minimum Steiner
        tree spans its own node set, so best[T] is the least m over the
        supersets of T: one superset-min (zeta) transform over the bits of
        ``reach``."""
        best = self._roots.get(root)
        if best is None:
            top = 1 << (self._n - 1)
            edges = self._root_edges(root)
            reach = top
            while True:
                grown = reach
                for _, _, _, bits in edges:
                    if bits & reach:
                        reach |= bits
                if reach == grown:
                    break
            reach ^= top
            m = self._spanning_costs(edges, top, reach)
            best = self._roots[root] = self._superset_min(m, reach)
        return best

    def _node_set_rows(self, root: int, terms: tuple[int, ...]) -> list[list[int]]:
        """The dp rows of a Dreyfus-Wagner run over ``terms``, read from
        node-set costs: dp[mask][v] spans the node set terms(mask) + v.

        cost[S], built for this witness alone, is the cheapest tree spanning
        the node set S in the bits of ``_positions``, ``_inf`` when none
        does. A set T | top with the root costs best[T]; a root-free set U
        the cheaper of best[U] and a tree avoiding the root, whose cost is a
        second superset-min transform over root-free spanning-tree costs."""
        best = self._root_table(root)
        top = len(best)
        edges = [e for e in self._root_edges(root) if not e[3] & top]
        free = self._superset_min(self._spanning_costs(edges, 0, top - 1), top - 1)
        cost = [a if a < b else b for a, b in zip(free, best)] + best
        bits = [1 << b for b in self._positions(root)]
        sets = [0]
        for t in terms:
            sets += [s | bits[t] for s in sets]
        return [[cost[s | b] for b in bits] for s in sets]

    def _dreyfus_wagner(self, terms: tuple[int, ...]) -> list:
        """dp[mask][v] for every nonempty terminal mask; mask 0 is handled
        by callers (cost 0, empty tree). Only values are kept: merging
        splits in any order gives the same minimum, and _collect_edges
        re-derives the choices of the few masks a witness needs."""
        n, dist = self._n, self._shortest_paths()[0]
        nodes = range(n)
        size = 1 << len(terms)
        dp: list = [None] * size
        for b, t in enumerate(terms):
            dp[1 << b] = dist[t]
        for mask in range(3, size):
            if mask & (mask - 1) == 0:
                continue
            # Every split pairs a part holding the lowest terminal with the
            # rest of the mask; the part without it is the other side.
            low = mask & -mask
            rest = mask ^ low
            a, b = dp[low], dp[rest]
            merged = [a[v] + b[v] for v in nodes]
            sub = (rest - 1) & rest
            while sub:
                a, b = dp[sub | low], dp[rest ^ sub]
                for v in nodes:
                    c = a[v] + b[v]
                    if c < merged[v]:
                        merged[v] = c
                sub = (sub - 1) & rest
            row = []
            for dv in dist:
                best = merged[0] + dv[0]
                for u in nodes:
                    c = merged[u] + dv[u]
                    if c < best:
                        best = c
                row.append(best)
            dp[mask] = row
        return dp

    def cost_table(self, root_label: str, terminal_labels: tuple[str, ...]):
        """Connection cost of {root} plus every subset of the terminal list,
        scaled by ``self.scale`` and indexed by subset bitmask over the
        given order. None marks an infeasible (disconnected) subset. The
        list is memoized per query and shared between callers, so it must
        not be modified."""
        key = (root_label, tuple(terminal_labels))
        table = self._tables.get(key)
        if table is None:
            root = self._term_indices([root_label])[0]
            terms = self._term_indices(terminal_labels)
            _check_terminal_count(len(terms))
            best = self._root_table(root)
            pos = self._positions(root)
            masks = [0]
            for t in terms:
                bit = 0 if t == root else 1 << pos[t]
                masks += [s | bit for s in masks]
            inf = self._inf
            table = [c if c < inf else None for c in map(best.__getitem__, masks)]
            self._tables[key] = table
        return table

    def _collect_edges(self, dp, terms, mask: int, v: int, acc: set):
        """Add the witness edges of dp[mask][v] to acc. The merge and grow
        choices are re-derived from the values by the same scan order and
        strict-< rule that picks the first optimum, so ties always resolve
        to the same witness."""
        if mask & (mask - 1) == 0:
            t = terms[mask.bit_length() - 1]
            acc.update(self._path_edges(t, v))
            return
        n = self._n
        low = mask & -mask
        rest = mask ^ low
        merged: list = [None] * n
        split: list = [0] * n
        sub = (rest - 1) & rest
        while True:
            part = sub | low
            a, b = dp[part], dp[mask ^ part]
            for w in range(n):
                c = a[w] + b[w]
                if merged[w] is None or c < merged[w]:
                    merged[w] = c
                    split[w] = part
            if not sub:
                break
            sub = (sub - 1) & rest
        dv = self._shortest_paths()[0][v]
        u = min(range(n), key=lambda w: merged[w] + dv[w])
        acc.update(self._path_edges(u, v))
        part = split[u]
        self._collect_edges(dp, terms, part, u, acc)
        self._collect_edges(dp, terms, mask ^ part, u, acc)

    def _canonical_tree(self, edges: set[Edge], keep: frozenset[str]) -> frozenset[Edge]:
        """Reduce a connected witness edge set to a tree and drop degree-one
        non-terminals. Both steps can only shed zero-cost redundancy, which
        the caller asserts by comparing costs.

        Kruskal scans the solver's edges by (scaled cost, i, j). The scale
        is a positive int and node indices follow label order, so that is
        the order of (exact cost, edge key)."""
        labels = self._labels
        ds = _DisjointSet(range(self._n))
        picked = set()
        for _, i, j in self._edges:
            e = (labels[i], labels[j])
            if e in edges and ds.union(i, j):
                picked.add(e)
        while True:
            degree: dict[str, int] = {}
            for a, b in picked:
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
            drop = [e for e in picked
                    if any(degree[x] == 1 and x not in keep for x in e)]
            if not drop:
                return frozenset(picked)
            picked.difference_update(drop)

    def tree_for_mask(self, root_label: str, terminal_labels: tuple[str, ...],
                      mask: int) -> frozenset[Edge]:
        """Witness tree for one subset of a cost_table query. The subset
        must be feasible.

        The dp values cover the selected terminals alone, in list order.
        Dropping the other bits keeps every dp value of a submask and the
        order in which submasks are scanned, so the tree is the one a run
        over the whole list would reconstruct. ``_node_sets_pay`` picks
        where the values come from: a Dreyfus-Wagner run, or node-set costs
        built for this witness. Both give the same values wherever they are
        below ``_inf``, and the reconstruction follows only those, so both
        give the same tree."""
        root = self._term_indices([root_label])[0]
        terms = self._term_indices(terminal_labels)
        if not 0 <= mask < 1 << len(terms):
            raise ValidationError(
                f"mask {mask} does not select from {len(terms)} terminals")
        if mask == 0:
            return frozenset()
        chosen = tuple(t for b, t in enumerate(terms) if mask >> b & 1)
        _check_terminal_count(len(chosen))
        if _node_sets_pay(len(chosen), self._n, len(self._edges)):
            dp = self._node_set_rows(root, chosen)
        else:
            dp = self._dreyfus_wagner(chosen)
        full = len(dp) - 1
        want = dp[full][root]
        if want >= self._inf:
            raise ValidationError("no tree exists for an infeasible subset")
        acc: set[Edge] = set()
        self._collect_edges(dp, chosen, full, root, acc)
        keep = frozenset({root_label} | {self._labels[t] for t in chosen})
        tree = self._canonical_tree(acc, keep)
        got, want = self.graph.total_cost(tree), unscale(want, self.scale)
        if got != want:
            raise AssertionError(f"witness cost {got} disagrees with dp value {want}")
        return tree


# A Dreyfus-Wagner run over k terminals costs about 3^k * n steps (n nodes);
# the root-free half of the node-set costs, with its transform, costs about
# 2^(n-1) * E (E edges). Timed on CPython 3.11.7 on a 2.1 GHz Xeon vCPU over
# graphs of 6 to 13 nodes and 9 to 49 edges, one step of the second took
# 1.4 to 5.6 times one step of the first, 2.6 at the median, when that half
# ran one Kruskal per node set. Re-checked after the leaf-removal recurrence
# replaced it, on the 27 witness builds of the six 11-agent benchmark
# documents (CPython 3.11.7, 2-vCPU Xeon, best of five, root table built),
# the rule still picked the faster source each time: at 12 nodes, node sets
# took 3.3-7.8 ms, against at most 2.3 ms of DP up to k = 7, 13.2-14.3 ms at
# k = 9 and 106-114 ms at k = 11.
NODE_SET_STEP = 2.6


def _node_sets_pay(k: int, n: int, edges: int) -> bool:
    """Whether a witness over k selected terminals of a graph with n nodes
    and ``edges`` edges reads node-set costs rather than running the DP."""
    return 3 ** k * n > NODE_SET_STEP * (1 << (n - 1)) * edges


def _check_terminal_count(count: int) -> None:
    if count + 1 > MAX_TERMINALS:
        raise SizeCapError(f"{count + 1} terminals requested, cap is {MAX_TERMINALS}")


def scaled_to_ints(solver: SteinerSolver, table: list, values) -> tuple[int, list, list[int]]:
    """Lift a cost table of ``solver`` and a list of exact values to ints on
    one common factor: the lcm of the solver's scale and the values'
    denominators. Returns (factor, int table, int values); infeasible table
    entries stay None. ``model.unscale`` turns a result back into an exact
    value."""
    scale = solver.scale
    for v in values:
        if not isinstance(v, int):
            scale = lcm(scale, v.denominator)
    ints = [v.numerator * (scale // v.denominator) for v in values]
    lift = scale // solver.scale
    if lift != 1:
        table = [None if c is None else c * lift for c in table]
    return scale, table, ints


class SteinerCache:
    """Caller-owned memo of solvers keyed by graph content, so repeated
    queries against the same induced graph reuse one DP, and of the induced
    and contracted graphs that runs derive (see the module docstring)."""

    def __init__(self):
        self._solvers: dict = {}
        self._induced: dict = {}
        self._contracted: dict = {}

    def solver(self, graph: WeightedGraph) -> SteinerSolver:
        s = self._solvers.get(graph)
        if s is None:
            s = self._solvers[graph] = SteinerSolver(graph)
        return s

    def induced(self, profile: ReportProfile) -> WeightedGraph:
        """``induced_graph(profile)``, shared by every profile of the same
        instance whose agents declare the same edges."""
        inst = profile.instance
        reports = profile.reports
        key = (inst, tuple([reports[a].edges for a in inst.agent_order()]))
        g = self._induced.get(key)
        if g is None:
            g = self._induced[key] = induced_graph(profile)
        return g

    def contracted(self, graph: WeightedGraph, merged, source: str) -> WeightedGraph:
        """``contract_into_source(graph, merged, source)``, memoized; the
        graph itself when only the source is merged."""
        merged = frozenset(merged)
        if merged == frozenset((source,)) and source in graph.nodes:
            return graph
        key = (graph, merged, source)
        g = self._contracted.get(key)
        if g is None:
            g = self._contracted[key] = contract_into_source(graph, merged, source)
        return g


@lru_cache(maxsize=128)
def _induced_mst_table(graph: WeightedGraph):
    """For every node-subset mask (over sorted nodes): (cost, tree edges) of
    the spanning tree of the induced subgraph, or None when disconnected."""
    nodes = sorted(graph.nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    edges = [(e, c, 1 << idx[e[0]] | 1 << idx[e[1]])
             for e, c in sorted(graph.edges().items(),
                                key=lambda item: (item[1], item[0]))]
    table = [None] * (1 << len(nodes))
    table[0] = (0, ())
    for mask in range(1, 1 << len(nodes)):
        members = [v for i, v in enumerate(nodes) if mask >> i & 1]
        ds = _DisjointSet(members)
        picked = []
        total = 0
        for e, c, ebits in edges:
            if ebits & mask == ebits and ds.union(*e):
                picked.append(e)
                total += c
        if len(picked) == len(members) - 1:
            table[mask] = (as_value(total), tuple(picked))
    return table


def brute_force_steiner_oracle(graph: WeightedGraph, terminals) -> SteinerResult | None:
    """Reference answer by exhaustion: minimize the induced spanning tree
    over every node superset of the terminals.

    Ascending mask enumeration with strict improvement means the winning
    superset is subset-minimal among optima, so its tree carries no
    removable non-terminal leaves. Intentionally independent of the DP
    solver; only meant for graphs of at most 12 nodes.
    """
    if len(graph.nodes) > ORACLE_MAX_NODES:
        raise SizeCapError(
            f"oracle accepts at most {ORACLE_MAX_NODES} nodes, got {len(graph.nodes)}")
    tset = frozenset(terminals)
    nodes = sorted(graph.nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    for t in tset:
        if t not in idx:
            raise ValidationError(f"terminal {t!r} is not a node of the graph")
    if len(tset) <= 1:
        return SteinerResult(tset, 0, frozenset())
    tmask = 0
    for t in tset:
        tmask |= 1 << idx[t]
    table = _induced_mst_table(graph)
    best = None
    best_entry = None
    for mask in range(1 << len(nodes)):
        if mask & tmask != tmask:
            continue
        entry = table[mask]
        if entry is None:
            continue
        if best is None or entry[0] < best:
            best = entry[0]
            best_entry = entry
    if best is None:
        return None
    return SteinerResult(tset, best, frozenset(best_entry[1]))


def contract_into_source(graph: WeightedGraph, merged, source: str) -> WeightedGraph:
    """Merge a node set containing the source into a single source node.

    Parallel attachment edges collapse to one edge at the cheapest of their
    costs; edges inside the merged set vanish. ``attachment_edge`` names the
    edge of ``graph`` that a surviving source edge stands for.
    """
    merged = frozenset(merged)
    if source not in merged:
        raise ValidationError("the merged set must contain the source")
    if not merged <= graph.nodes:
        raise ValidationError("merged nodes must belong to the graph")
    costs: dict[Edge, Value] = {}
    for (u, v), c in graph.edges().items():
        um, vm = u in merged, v in merged
        if not (um or vm):
            costs[u, v] = c
        elif not (um and vm):
            k = edge_key(v if um else u, source)
            costs[k] = min(c, costs.get(k, c))
    return WeightedGraph((graph.nodes - merged) | {source}, costs)


def attachment_edge(graph: WeightedGraph, merged, source: str, e: Edge) -> Edge:
    """The edge of ``graph`` that edge ``e`` of its contraction stands for:
    ``e`` itself unless it ends at the source, else the cheapest edge from
    its other end into ``merged``, ties going to the smallest edge key."""
    if source not in e:
        return e
    out = e[0] if e[1] == source else e[1]
    return min((c, edge_key(out, w)) for w, c in graph.adjacent(out).items()
               if w in merged)[1]
