"""Exact Steiner connection costs.

The brute-force oracle (minimum spanning trees of every induced node
subset) is the ground truth here: it is checked first on hand-sized graphs
where the answer is obvious, and the solver is then held to it on seeded
random graphs. The acceptance module repeats that comparison at a larger
scale. The solver's tables rest on the same identity as the oracle, so they
are also diffed against the Dreyfus-Wagner dynamic program, which builds
the witness trees, and their two steps, the spanning-tree costs and the
superset-min transform, against a Kruskal per node set and a direct minimum
over supersets.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from costshare import (Instance, SizeCapError, ValidationError,
                       generate_instance, truthful_profile)
from costshare import steiner
from costshare.fixtures import fig_line
from costshare.model import WeightedGraph
from costshare.steiner import (MAX_NODES, MAX_TERMINALS, ORACLE_MAX_NODES,
                               SteinerCache, SteinerSolver, attachment_edge,
                               brute_force_steiner_oracle, contract_into_source)
from costshare.welfare import connection_cost


def _graph(costs, extra_nodes=()):
    nodes = sorted({x for e in costs for x in e} | set(extra_nodes))
    return WeightedGraph(nodes, costs)


LINE = _graph({("s", "a"): 2, ("a", "b"): 3})
TRIANGLE = _graph({("s", "a"): 2, ("s", "b"): 4, ("a", "b"): 3})
DETOUR = _graph({("s", "a"): 10, ("a", "b"): 0})


def _oracle(g, terms):
    res = brute_force_steiner_oracle(g, terms)
    return None if res is None else res.cost


def test_oracle_on_hand_graphs():
    assert _oracle(LINE, {"s", "a"}) == 2
    assert _oracle(LINE, {"s", "b"}) == 5
    assert _oracle(LINE, {"s", "a", "b"}) == 5
    assert _oracle(LINE, {"a", "b"}) == 3
    # cheapest way to span all three corners skips the expensive side
    assert _oracle(TRIANGLE, {"s", "a", "b"}) == 5
    # a is not a terminal but the only route runs through it
    assert _oracle(DETOUR, {"s", "b"}) == 10
    # the oracle's witness tree prices its own cost
    res = brute_force_steiner_oracle(DETOUR, {"s", "b"})
    assert res.tree_edges == frozenset({("a", "s"), ("a", "b")})
    # Both two-edge routes cost 2; the first cheapest node set in ascending
    # mask order, {s, a, b}, gives the tree.
    square = _graph({("a", "s"): 1, ("a", "b"): 1, ("c", "s"): 1, ("b", "c"): 1})
    res = brute_force_steiner_oracle(square, {"s", "b"})
    assert res.cost == 2 and res.tree_edges == frozenset({("a", "b"), ("a", "s")})


def test_oracle_disconnected_is_none():
    g = _graph({("s", "a"): 1}, extra_nodes=["x"])
    assert brute_force_steiner_oracle(g, {"s", "x"}) is None
    assert _oracle(g, {"s", "a"}) == 1


def test_solver_matches_hand_values():
    solver = SteinerSolver(TRIANGLE)
    assert solver.scale == 1
    # {s}, {s, a}, {s, b}, {s, a, b}
    assert solver.cost_table("s", ("a", "b")) == [0, 2, 4, 5]
    assert solver.tree_for_mask("s", ("a", "b"), 0b11) == frozenset({("a", "s"), ("a", "b")})
    assert solver.tree_for_mask("s", ("a", "b"), 0) == frozenset()


def test_solver_uses_steiner_relays():
    solver = SteinerSolver(DETOUR)
    assert solver.cost_table("s", ("b",)) == [0, 10]
    assert solver.tree_for_mask("s", ("b",), 1) == frozenset({("a", "s"), ("a", "b")})


def test_solver_disconnected_is_none():
    g = _graph({("s", "a"): 1}, extra_nodes=["x"])
    solver = SteinerSolver(g)
    assert solver.cost_table("s", ("a", "x")) == [0, 1, None, None]
    with pytest.raises(ValidationError, match="infeasible"):
        solver.tree_for_mask("s", ("a", "x"), 0b10)


def test_tree_for_mask_rejects_masks_outside_its_terminals():
    """A mask may select only from the terminal list it comes with: a bit
    past its end is not silently dropped, and a negative mask is not read
    as an infinite set."""
    solver = SteinerSolver(fig_line().graph)
    for mask in (0b100, 0b101, -1):
        with pytest.raises(ValidationError, match="does not select"):
            solver.tree_for_mask("s", ("a", "b"), mask)
    assert solver.tree_for_mask("s", ("a", "b"), 0b01) == frozenset({("a", "s")})


def test_fractional_costs_stay_exact():
    """The table holds ints on the solver's scale; the connection cost
    comes out as the exact Fraction."""
    costs = {("s", "a"): Fraction(1, 3), ("a", "b"): Fraction(1, 6)}
    solver = SteinerSolver(_graph(costs))
    assert solver.scale == 6
    assert solver.cost_table("s", ("b",)) == [0, 3]
    profile = truthful_profile(Instance("s", ["a", "b"], costs, {"a": 1, "b": 1}))
    assert connection_cost(profile, {"b"}) == Fraction(1, 2)
    assert type(connection_cost(profile, {"b"})) is Fraction
    assert connection_cost(profile, {"a", "b"}) == Fraction(1, 2)


def test_cost_table_indexes_subsets():
    solver = SteinerSolver(LINE)
    table = solver.cost_table("s", ("a", "b"))
    assert table[0] == 0
    assert table[0b01] == 2   # {a}
    assert table[0b10] == 5   # {b}, reached through a
    assert table[0b11] == 5


def _brute_superset_min(m):
    top = len(m)
    out = []
    for T in range(top):
        rest = (top - 1) & ~T
        best, sub = m[T], rest
        while sub:
            best = min(best, m[T | sub])
            sub = (sub - 1) & rest
        out.append(best)
    return out


def test_superset_min_is_the_least_value_over_supersets():
    """The transform against a direct minimum over supersets, for every
    table length from 2^0 to 2^11: from 2^2 on, the early bits run as
    strided slices and the late ones as contiguous runs. The values tie
    often and include the solver's sentinel. The transform works in place
    and returns its argument, which the root and node-set tables rely
    on."""
    import random

    inf = SteinerSolver(TRIANGLE)._inf
    rng = random.Random(0)
    for bits in range(12):
        m = [rng.choice((0, 1, 1, 2, 3, inf, inf)) for _ in range(1 << bits)]
        want = _brute_superset_min(m)
        got = SteinerSolver._superset_min(m, len(m) - 1)
        assert got is m
        assert got == want, bits


def test_superset_min_over_some_bits_is_the_full_transform():
    """Restricted to a bit set, the transform gives the least value over
    all supersets wherever every entry with a bit outside the set is the
    sentinel: root tables rely on it for the bits that cannot reach the
    root."""
    import random

    inf = SteinerSolver(TRIANGLE)._inf
    rng = random.Random(1)
    checked = 0
    for bits in range(12):
        top = 1 << bits
        for _ in range(4):
            keep = rng.randrange(top)
            m = [rng.choice((0, 1, 1, 2, 3, inf)) if T & ~keep == 0 else inf
                 for T in range(top)]
            want = _brute_superset_min(m)
            assert SteinerSolver._superset_min(m, keep) == want, (bits, keep)
            checked += keep != top - 1
    assert checked >= 40


def _seeded_split_graphs():
    """(seed, graph) pairs of 40 seeded graphs with three parts: a main
    component, a second component with internal edges and an isolated
    node. Costs mix denominators and include zero."""
    import random

    for seed in range(40):
        rng = random.Random(seed)
        labels = rng.sample([f"v{i}" for i in range(11)], rng.randint(4, 11))
        cut = rng.randint(2, len(labels) - 2)
        pairs = set()
        for part in (labels[:cut], labels[cut:-1]):
            for i, u in enumerate(part[1:], 1):
                # a tree through the part first, then extra edges
                pairs.add(tuple(sorted((u, rng.choice(part[:i])))))
                pairs.update(tuple(sorted((u, w))) for w in part[:i] if rng.random() < 0.3)
        costs = {e: Fraction(rng.choice((0, 0, 1, 2, 3, 5)), rng.choice((1, 1, 2, 3)))
                 for e in sorted(pairs)}
        yield seed, _graph(costs, labels)


def _kruskal_costs(solver):
    """The spanning-tree cost of every node set, by mask over sorted labels,
    as a scaled int; the solver's sentinel where the set is disconnected."""
    g = solver.graph
    labels = sorted(g.nodes)
    at = {v: i for i, v in enumerate(labels)}
    edges = sorted((int(c * solver.scale), at[u], at[v]) for (u, v), c in g.edges().items())
    out = []
    for mask in range(1 << len(labels)):
        parent = list(range(len(labels)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        total, joined = 0, 0
        for c, u, v in edges:
            if mask >> u & 1 and mask >> v & 1 and find(u) != find(v):
                parent[find(u)] = find(v)
                total += c
                joined += 1
        out.append(total if joined == mask.bit_count() - 1 else solver._inf)
    out[0] = 0
    return out


def _under_root(table, root):
    """A table over node masks, split by ``root`` into the solver's bits:
    (entries of the sets with the root, entries of the sets without it),
    each indexed by the other nodes' bits in label order."""
    n = len(table).bit_length() - 1
    low = (1 << root) - 1

    def mask(T):
        return (T & low) | (T & ~low) << 1

    sets = [mask(T) for T in range(1 << (n - 1))]
    return [table[s | 1 << root] for s in sets], [table[s] for s in sets]


def _reach(graph, root_label):
    """Label-order indices of the nodes joined to the root."""
    seen, todo = {root_label}, [root_label]
    while todo:
        for w in graph.adjacent(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return [i for i, v in enumerate(sorted(graph.nodes)) if v in seen]


def test_spanning_costs_match_a_kruskal_per_node_set():
    """The leaf-removal recurrence gives the spanning-tree cost of every
    node set, with the root (over the bits that can reach it) and without
    it (over every bit), as a Kruskal per set does, for every root of
    graphs with a second component and an isolated node."""
    seen = {"roots": 0, "scaled": 0, "zero": 0}
    for seed, g in _seeded_split_graphs():
        solver = SteinerSolver(g)
        want = _kruskal_costs(solver)
        seen["scaled"] += solver.scale > 1
        seen["zero"] += 0 in g.edges().values()
        for root, label in enumerate(sorted(g.nodes)):
            edges = solver._root_edges(root)
            top = 1 << (solver._n - 1)
            reach = sum(1 << (i - (i > root)) for i in _reach(g, label) if i != root)
            with_root, without = _under_root(want, root)
            assert solver._spanning_costs(edges, top, reach) == with_root, (seed, root)
            free = [e for e in edges if not e[3] & top]
            assert solver._spanning_costs(free, 0, top - 1) == without, (seed, root)
            seen["roots"] += 1
    assert seen["roots"] >= 200 and min(seen.values()) >= 20, seen


def test_root_tables_and_node_set_costs_match_a_kruskal_per_node_set():
    """Each root table, and the node-set costs a large witness reads, equal
    the least Kruskal cost over the supersets of each set, for every root
    of graphs with a second component and an isolated node: a set outside
    the root's component has no tree with the root, but can still have
    one without it."""
    seen = {"finite_apart": 0}
    for seed, g in _seeded_split_graphs():
        solver = SteinerSolver(g)
        best = _brute_superset_min(_kruskal_costs(solver))
        inf = solver._inf
        for root in range(solver._n):
            with_root, without = _under_root(best, root)
            assert solver._root_table(root) == with_root, (seed, root)
            terms = tuple(i for i in range(solver._n) if i != root)
            rows = solver._node_set_rows(root, terms)
            assert [row[root] for row in rows] == with_root, (seed, root)
            for T in range(1, len(rows)):
                v = terms[(T & -T).bit_length() - 1]
                assert rows[T][v] == without[T], (seed, root, T)
                seen["finite_apart"] += with_root[T] >= inf > without[T]
    assert min(seen.values()) >= 100, seen


def test_solver_vs_oracle_on_seeded_graphs():
    """Every terminal subset of size <= 3 on 40 seeded graphs; the oracle is
    the referee."""
    from itertools import combinations

    for seed in range(40):
        inst = generate_instance(agents=4 + seed % 3, edge_probability=0.5,
                                 max_cost=5, seed=seed)
        g = inst.graph
        nodes = sorted(g.nodes)
        solver = SteinerSolver(g)
        for size in (1, 2, 3):
            for terms in combinations(nodes, size):
                # The smallest label is the root; the rest index a table
                # over every other node.
                others = tuple(v for v in nodes if v != terms[0])
                table = solver.cost_table(terms[0], others)
                got = table[sum(1 << others.index(t) for t in terms[1:])]
                want = _oracle(g, frozenset(terms))
                assert got == want * solver.scale, (seed, terms)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_witness_tree_prices_its_own_cost(seed):
    """The witness edge set exists in the graph, its priced total equals the
    reported cost, and it connects the terminals."""
    inst = generate_instance(agents=4, edge_probability=0.6, max_cost=5,
                             seed=seed)
    g = inst.graph
    nodes = sorted(g.nodes)
    root, rest = nodes[0], (nodes[len(nodes) // 2], nodes[-1])
    terms = frozenset({root, *rest})
    solver = SteinerSolver(g)
    cost = solver.cost_table(root, rest)[0b11]
    if cost is None:
        return
    tree = solver.tree_for_mask(root, rest, 0b11)
    assert g.total_cost(tree) * solver.scale == cost
    # the edges form a connected subgraph containing every terminal
    reach = {next(iter(terms))}
    frontier = [next(iter(terms))]
    adj: dict[str, set[str]] = {}
    for u, v in tree:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    while frontier:
        x = frontier.pop()
        for y in adj.get(x, ()):
            if y not in reach:
                reach.add(y)
                frontier.append(y)
    assert terms <= reach | terms  # singleton terminal sets have no edges
    if len(terms) > 1:
        assert terms <= reach


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_cost_is_monotone_and_subadditive(seed):
    inst = generate_instance(agents=5, edge_probability=0.5, max_cost=5,
                             seed=seed)
    solver = SteinerSolver(inst.graph)
    nodes = sorted(inst.graph.nodes)
    a, b, c = nodes[0], nodes[1], nodes[2]
    table = solver.cost_table(a, (b, c))
    small = table[0b01]  # {a, b}
    grown = table[0b11]  # {a, b, c}
    assert small is not None and grown is not None
    assert small <= grown
    # joining two terminal sets that share a node never costs more than
    # building both separately
    left, right, joint = table[0b01], table[0b10], table[0b11]
    assert joint <= left + right


def test_steiner_cost_convenience_and_cache():
    cache = SteinerCache()
    solver = cache.solver(TRIANGLE)
    assert solver.cost_table("s", ("a", "b"))[0b11] == 5
    assert solver.tree_for_mask("s", ("a", "b"), 0b11) == frozenset({("a", "s"), ("a", "b")})
    # a graph equal in content reuses the solver
    assert cache.solver(TRIANGLE) is cache.solver(_graph(
        {("s", "a"): 2, ("s", "b"): 4, ("a", "b"): 3}))


def test_contraction_collapses_parallel_attachments():
    g = _graph({("s", "a"): 5, ("a", "b"): 0, ("b", "s"): 1, ("a", "c"): 4})
    c = contract_into_source(g, frozenset({"s", "b"}), "s")
    assert c == _graph({("a", "s"): 0, ("a", "c"): 4})
    assert attachment_edge(g, {"s", "b"}, "s", ("a", "s")) == ("a", "b")
    assert attachment_edge(g, {"s", "b"}, "s", ("a", "c")) == ("a", "c")
    cache = SteinerCache()
    assert cache.contracted(g, {"s"}, "s") is g
    assert cache.contracted(g, {"b", "s"}, "s") is cache.contracted(g, frozenset({"s", "b"}), "s")


def test_contraction_tie_keeps_smallest_original_edge():
    g = _graph({("s", "a"): 2, ("a", "b"): 2, ("b", "s"): 0})
    c = contract_into_source(g, frozenset({"s", "b"}), "s")
    # both routes cost 2; the lexicographically smaller original wins
    assert c.cost("a", "s") == 2
    assert attachment_edge(g, {"s", "b"}, "s", ("a", "s")) == ("a", "b")


def test_size_caps():
    wide = _graph({("s", f"a{i:02d}"): 1 for i in range(MAX_NODES)})
    with pytest.raises(SizeCapError, match="nodes"):
        SteinerSolver(wide)
    g13 = _graph({("s", f"a{i:02d}"): 1 for i in range(ORACLE_MAX_NODES + 1)})
    with pytest.raises(SizeCapError, match="oracle"):
        brute_force_steiner_oracle(g13, frozenset({"s"}))
    tall = _graph({("s", f"a{i:02d}"): 1 for i in range(13)})
    with pytest.raises(SizeCapError, match="terminals"):
        SteinerSolver(tall).cost_table("s", tuple(f"a{i:02d}" for i in range(13)))


def test_size_caps_admit_their_boundary():
    """Each cap admits the size it names: a MAX_NODES graph answers a table
    over MAX_TERMINALS terminals, the root included, and the oracle takes
    an ORACLE_MAX_NODES graph."""
    tall = _graph({("s", f"a{i:02d}"): 1 for i in range(MAX_NODES - 1)})
    assert len(tall.nodes) == MAX_NODES
    terms = tuple(f"a{i:02d}" for i in range(MAX_TERMINALS - 1))
    table = SteinerSolver(tall).cost_table("s", terms)
    assert table[0] == 0 and table[-1] == MAX_TERMINALS - 1
    g12 = _graph({("s", f"a{i:02d}"): 1 for i in range(ORACLE_MAX_NODES - 1)})
    assert len(g12.nodes) == ORACLE_MAX_NODES
    assert brute_force_steiner_oracle(g12, {"s", "a00", "a01"}).cost == 2


def test_unknown_terminal_is_rejected():
    with pytest.raises(ValidationError, match="not a node"):
        SteinerSolver(LINE).cost_table("s", ("zz",))
    with pytest.raises(ValidationError, match="terminal 'zz' is not a node of the graph"):
        brute_force_steiner_oracle(LINE, {"s", "zz"})


def test_contraction_checks_the_merged_set():
    with pytest.raises(ValidationError, match="the merged set must contain the source"):
        contract_into_source(LINE, {"a"}, "s")
    with pytest.raises(ValidationError, match="merged nodes must belong to the graph"):
        contract_into_source(LINE, {"s", "zz"}, "s")


def test_solver_vs_oracle_on_mixed_denominator_costs():
    """Costs with pairwise different denominators make the solver scale by
    their lcm. Every cost table entry is an int on that scale, and it and
    every witness must still match the oracle exactly; the connection cost
    comes out as an exact value of the oracle's type."""
    import random
    from itertools import combinations

    dens = (1, 2, 3, 4, 6, 7, 9)
    for seed in range(30):
        rng = random.Random(seed)
        inst = generate_instance(agents=4 + seed % 3, edge_probability=0.5,
                                 max_cost=9, seed=seed)
        inst = Instance(inst.source, sorted(inst.agents),
                        {e: Fraction(c, rng.choice(dens))
                         for e, c in inst.graph.edges().items()},
                        inst.valuations)
        g = inst.graph
        solver = SteinerSolver(g)
        nodes = sorted(g.nodes)
        root, rest = nodes[0], tuple(nodes[1:])
        table = solver.cost_table(root, rest)
        assert all(c is None or type(c) is int for c in table)
        for mask in range(1, 1 << len(rest)):
            terms = frozenset({root} | {rest[b] for b in range(len(rest)) if mask >> b & 1})
            want = _oracle(g, terms)
            assert table[mask] == want * solver.scale, (seed, sorted(terms))
            tree = solver.tree_for_mask(root, rest, mask)
            assert g.total_cost(tree) == want
        for u, v in combinations(nodes, 2):
            assert solver.cost_table(u, (v,))[1] == _oracle(g, {u, v}) * solver.scale
        profile, cache = truthful_profile(inst), SteinerCache()
        agents = inst.agent_order()
        for mask in range(1 << len(agents)):
            S = {a for b, a in enumerate(agents) if mask >> b & 1}
            want = _oracle(g, S | {inst.source})
            got = connection_cost(profile, S, cache)
            assert got == want, (seed, sorted(S))
            assert type(got) is (int if want.denominator == 1 else Fraction)


def test_cost_table_is_memoized_per_query():
    solver = SteinerSolver(TRIANGLE)
    table = solver.cost_table("s", ("a", "b"))
    assert solver.cost_table("s", ("a", "b")) is table
    assert solver.cost_table("a", ("b", "s")) is not table


def test_induced_memo_keys_on_the_instance_not_its_labels():
    """Two instances with the same labels and declarations but different
    costs share a cache; each gets its own induced graph."""
    from costshare import Instance, ReportProfile, truthful_profile

    cheap = Instance("s", ["a", "b"], {("s", "a"): 1, ("a", "b"): 2}, {"a": 3, "b": 3})
    dear = Instance("s", ["a", "b"], {("s", "a"): 5, ("a", "b"): 2}, {"a": 3, "b": 3})
    cache = SteinerCache()
    g_cheap = cache.induced(truthful_profile(cheap))
    g_dear = cache.induced(truthful_profile(dear))
    assert g_cheap == cheap.graph and g_dear == dear.graph and g_cheap != g_dear
    assert cache.induced(truthful_profile(cheap)) is g_cheap
    # the key lists declarations in sorted agent order, not report order
    reordered = ReportProfile(cheap, dict(reversed(truthful_profile(cheap).reports.items())))
    assert cache.induced(reordered) is g_cheap
    assert cache.solver(g_cheap).cost_table("s", ("a", "b"))[0b11] == 3
    assert cache.solver(g_dear).cost_table("s", ("a", "b"))[0b11] == 7


def _dw_table(solver, root, terms):
    """The cost table a Dreyfus-Wagner run over the whole terminal list
    gives: each mask's dp value at the root."""
    dp = solver._dreyfus_wagner(tuple(solver._idx[t] for t in terms))
    r = solver._idx[root]
    return [0] + [row[r] if row[r] < solver._inf else None for row in dp[1:]]


def _seeded_stage_graphs():
    """(seed, rng, source, graph, contracted) for the graphs of 60 seeded
    runs: each instance's induced graph, then the contracted stage graphs of
    its RSM run. Costs have mixed denominators and zero-cost edges, and
    agents hide edges, which can disconnect subsets. The rng continues from
    building the graph, so callers draw from it in the same order."""
    import random

    from costshare import ReportProfile, AgentReport, run_rsm

    for seed in range(60):
        rng = random.Random(seed)
        base = generate_instance(agents=4 + seed % 5, edge_probability=0.5,
                                 max_cost=6, seed=seed)
        inst = Instance(base.source, sorted(base.agents),
                        {e: Fraction(c, rng.choice((1, 1, 2, 3, 4, 6)))
                         for e, c in base.graph.edges().items()},
                        base.valuations)
        profile = ReportProfile(inst, {
            a: AgentReport(frozenset(e for e in sorted(inst.true_edges_of(a))
                                     if rng.random() < 0.8), inst.valuations[a])
            for a in inst.agent_order()})
        cache = SteinerCache()
        graph = cache.induced(profile)
        graphs = [graph]
        merged = {inst.source}
        for record in run_rsm(inst, profile, cache).stage_trace:
            merged |= record.selected
            graphs.append(cache.contracted(graph, merged, inst.source))
        for g in graphs:
            yield seed, rng, inst.source, g, g is not graph


def test_subset_mst_table_matches_the_dreyfus_wagner_table():
    """The table from subset spanning trees and a superset-min transform
    equals the terminal-subset DP's on seeded graphs with relays (terminal
    lists that leave nodes out, in shuffled order), mixed denominators,
    zero-cost edges, hidden edges that disconnect subsets, and the
    contracted stage graphs of RSM runs."""
    seen = {"relay": 0, "scaled": 0, "zero": 0, "infeasible": 0, "contracted": 0}
    for seed, rng, source, g, contracted in _seeded_stage_graphs():
        seen["contracted"] += contracted
        seen["zero"] += 0 in g.edges().values()
        solver = SteinerSolver(g)
        seen["scaled"] += solver.scale > 1
        nodes = sorted(g.nodes)
        if len(nodes) < 2:
            continue
        for root in dict.fromkeys((source, rng.choice(nodes))):
            others = [v for v in nodes if v != root]
            picked = rng.sample(others, rng.randint(1, len(others)))
            for terms in (tuple(others), tuple(picked)):
                table = solver.cost_table(root, terms)
                assert table == _dw_table(solver, root, terms), (seed, root, terms)
                seen["relay"] += len(terms) < len(others)
                seen["infeasible"] += None in table
    assert min(seen.values()) >= 50, seen


def test_witness_over_selected_terminals_matches_the_full_run(monkeypatch):
    """tree_for_mask reads dp values over the selected terminals only; its
    tree is the one the whole terminal list's run reconstructs, on 330
    seeded cvm selections at 4, 6 and 8 agents and on the six 11-agent
    benchmark documents, whose large selections read node-set costs."""
    from costshare import run_cvm

    node_set_witnesses = []
    build = SteinerSolver._node_set_rows

    def counted(self, root, terms):
        node_set_witnesses.append(len(terms))
        return build(self, root, terms)

    monkeypatch.setattr(SteinerSolver, "_node_set_rows", counted)
    cases = [(agents, 0.5, seed) for agents in (4, 6, 8) for seed in range(110)]
    cases += [(11, 0.4, seed) for seed in range(6)]
    compared = 0
    for agents, p, seed in cases:
        inst = generate_instance(agents=agents, edge_probability=p, seed=seed)
        order = inst.agent_order()
        selected = run_cvm(inst).selected
        mask = sum(1 << b for b, a in enumerate(order) if a in selected)
        solver = SteinerSolver(inst.graph)
        terms = tuple(solver._idx[a] for a in order)
        acc = set()
        solver._collect_edges(solver._dreyfus_wagner(terms), terms, mask,
                              solver._idx[inst.source], acc)
        full_run = solver._canonical_tree(acc, frozenset(selected | {inst.source}))
        assert solver.tree_for_mask(inst.source, order, mask) == full_run, (agents, seed)
        compared += bool(mask)
    assert compared >= 306
    # seeds 1 and 4 select all 11 agents, seeds 0 and 5 select nine
    assert node_set_witnesses.count(11) == 2 and node_set_witnesses.count(9) == 2


def test_node_set_values_match_the_dreyfus_wagner_values(monkeypatch):
    """Every dp value read from node-set costs equals the Dreyfus-Wagner
    run's, clamped at the solver's sentinel, for every mask and node. The
    graphs have relays, mixed denominators, zero-cost edges, hidden edges
    that disconnect subsets, roots other than the source, and the
    contracted stage graphs of RSM runs. Forcing either source builds the
    same witness tree."""
    seen = {"relay": 0, "scaled": 0, "zero": 0, "infeasible": 0,
            "other_root": 0, "contracted": 0, "forced": 0}
    for seed, rng, source, g, contracted in _seeded_stage_graphs():
        nodes = sorted(g.nodes)
        if len(nodes) < 2:
            continue
        seen["contracted"] += contracted
        seen["zero"] += 0 in g.edges().values()
        for root_label in dict.fromkeys((source, rng.choice(nodes))):
            solver = SteinerSolver(g)
            seen["scaled"] += solver.scale > 1
            seen["other_root"] += root_label != source
            labels = tuple(rng.sample(nodes, rng.randint(1, len(nodes))))
            seen["relay"] += not g.nodes <= {root_label, *labels}
            terms = tuple(solver._idx[t] for t in labels)
            root, inf = solver._idx[root_label], solver._inf
            dw = solver._dreyfus_wagner(terms)
            rows = solver._node_set_rows(root, terms)
            assert len(rows) == len(dw)
            for mask in range(1, len(dw)):
                want = [min(c, inf) for c in dw[mask]]
                assert rows[mask] == want, (seed, root_label, labels, mask)
            seen["infeasible"] += any(c >= inf for row in dw[1:] for c in row)
            table = solver.cost_table(root_label, labels)
            for mask in rng.sample(range(1, len(dw)), min(len(dw) - 1, 4)):
                if table[mask] is None:
                    continue
                trees = set()
                for force in (False, True):
                    monkeypatch.setattr(steiner, "_node_sets_pay",
                                        lambda k, n, e, force=force: force)
                    trees.add(SteinerSolver(g).tree_for_mask(root_label, labels, mask))
                monkeypatch.undo()
                assert len(trees) == 1, (seed, root_label, labels, mask)
                seen["forced"] += 1
    assert min(seen.values()) >= 50, seen


def _reference_canonical_tree(graph, edges, keep):
    """Kruskal by (exact cost, edge key) over the witness edges, then one
    non-kept leaf removed at a time until none is left."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    picked = set()
    for u, v in sorted(edges, key=lambda e: (graph.cost(*e), e)):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            picked.add((u, v))
    while True:
        degree = {}
        for e in picked:
            for x in e:
                degree[x] = degree.get(x, 0) + 1
        leaf = next((e for e in sorted(picked)
                     if any(degree[x] == 1 and x not in keep for x in e)), None)
        if leaf is None:
            return frozenset(picked)
        picked.discard(leaf)


def test_canonical_tree_matches_a_kruskal_by_exact_cost_and_edge_key():
    """_canonical_tree scans the solver's scaled int edges; its tree is the
    one Kruskal over (exact cost, edge key) plus leaf pruning gives, on
    connected edge sets full of equal-cost cycles, zero-cost edges and
    mixed denominators, with labels whose order is not their creation
    order."""
    import random

    costs = [Fraction(c) for c in (0, 0, 1, 1, 1, 2)] + [Fraction(1, 2), Fraction(2, 3)]
    seen = {"tie_dropped": 0, "zero": 0, "scaled": 0, "pruned": 0}
    for seed in range(300):
        rng = random.Random(seed)
        labels = rng.sample(["s", "a", "b", "c", "d", "e", "f", "g", "h", "k10", "k9"],
                            rng.randint(4, 9))
        pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
        g = _graph({p: rng.choice(costs) for p in rng.sample(pairs, len(pairs) * 2 // 3)},
                   labels)
        solver = SteinerSolver(g)
        picked = {e for e in g.edges() if rng.random() < 0.7}
        start = rng.choice(labels)
        reach, edges, grew = {start}, set(), True
        while grew:
            grew = False
            for e in sorted(picked - edges):
                if reach & set(e):
                    reach |= set(e)
                    edges.add(e)
                    grew = True
        keep = frozenset(rng.sample(sorted(reach), rng.randint(1, len(reach))))
        want = _reference_canonical_tree(g, edges, keep)
        assert solver._canonical_tree(edges, keep) == want, seed
        cycle_costs = [g.cost(*e) for e in edges]
        seen["tie_dropped"] += (len(set(cycle_costs)) < len(cycle_costs)
                                and len(edges) > len(reach) - 1)
        seen["zero"] += 0 in cycle_costs
        seen["scaled"] += solver.scale > 1
        seen["pruned"] += len(want) < len(reach) - 1
    assert min(seen.values()) >= 50, seen
