"""Empirical checks of the mechanism axioms on desk-scale instances.

Every check returns a PropertyReport: a verdict plus, on failure, a witness
with enough detail to replay the violation by hand. Checks never weaken a
predicate to pass; a mechanism that does not have a property is expected to
produce a violated report with a concrete witness.

Deviation sets are exhaustive at a grid resolution: an agent may hide any
subset of its incident edges and report any valuation on the step grid up
to one past the instance's largest valuation (its true value is always in
the set). The attachment-rule baseline ignores valuations, so only its edge
declarations are varied. Checks that quantify over other agents' behavior
(individual rationality) sample joint deviations with a seeded generator
instead of exhausting the product space.

PROPERTIES names every property with its kind and how to run it. The
strategic checks (truthfulness, individual rationality) sweep those
deviation sets. The pointwise checks (feasibility, positiveness, budget
balance) evaluate the allocation produced for one profile: the truthful one
when handed an instance, or exactly the reports handed in as a profile, so
a suspect profile can be replayed through the same predicate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .baselines import run_bird
from .cvm import run_cvm
from .documents import lies_to_json, report_to_json
from .model import (MAX_AGENTS, AgentReport, Instance, ReportProfile, SizeCapError,
                    ValidationError, Value, _unchecked_profile, as_value,
                    exact_div, truthful_profile, value_to_json)
from .rsm import run_rsm
from .steiner import SteinerCache
from .welfare import social_welfare

MECHANISMS = {"cvm": run_cvm, "rsm": run_rsm, "bird": run_bird}

HALF = Fraction(1, 2)
TWIN_EXTRA_AGENTS = 2
EFFICIENCY_CAP = 8
# Valuations per agent a deviation grid may hold. Every edge subset of an
# agent is paired with every grid point, so the grid is counted before it
# is built; a tiny step or a huge valuation ends in SizeCapError instead.
MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check."""

    property_name: str
    mechanism: str
    verdict: str  # "holds" | "violated"
    witness: dict | None
    instances_checked: int
    seed: int | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_json(self) -> dict:
        return {
            "property": self.property_name,
            "mechanism": self.mechanism,
            "verdict": self.verdict,
            "witness": self.witness,
            "instances_checked": self.instances_checked,
            "seed": self.seed,
        }


def _resolve(mechanism):
    if mechanism not in MECHANISMS:
        raise ValidationError(f"unknown mechanism {mechanism!r}")
    return mechanism, MECHANISMS[mechanism]


def valuation_grid(instance: Instance, i: str, step: Value = HALF) -> list[Value]:
    """Grid of candidate reported valuations for one agent: multiples of the
    step from 0 to one past the largest true valuation, plus the agent's own
    true value."""
    step = as_value(step)
    if step <= 0:
        raise ValidationError("grid step must be positive")
    vmax = max(instance.valuations.values(), default=0)
    points = (vmax + 1) // step + 1
    if points > MAX_GRID_POINTS:
        raise SizeCapError(
            f"grid step {value_to_json(step)} gives {points} valuations per agent, "
            f"cap is {MAX_GRID_POINTS}")
    values = {as_value(k * step) for k in range(points)}
    values.add(instance.valuations[i])
    return sorted(values)


def _menu(instance: Instance, i: str, step: Value, edges_only: bool):
    """Agent i's reports as (edges, grid): its sorted true edges and the
    valuations it may report. Report k declares _subset(edges, k // len(grid))
    and values grid[k % len(grid)]. Every menu report declares only true
    edges."""
    grid = ([instance.valuations[i]] if edges_only
            else valuation_grid(instance, i, step))
    return sorted(instance.true_edges_of(i)), grid


def _subset(edges, mask: int) -> frozenset:
    return frozenset(e for b, e in enumerate(edges) if mask >> b & 1)


def enumerate_deviations(instance: Instance, i: str, step: Value = HALF,
                         edges_only: bool = False) -> list[AgentReport]:
    """Every report agent i could submit: each subset of its true incident
    edges paired with each grid valuation (just the true valuation when
    edges_only is set). The truthful report is always included."""
    edges, grid = _menu(instance, i, step, edges_only)
    subsets = [_subset(edges, mask) for mask in range(1 << len(edges))]
    return [AgentReport(declared, v) for declared in subsets for v in grid]


def _runs(name: str, runner, instance: Instance, cases, cache: SteinerCache):
    """Run the mechanism on each (agent, reports) case and yield (agent,
    reports, allocation). Each report is truthful or from a menu, so its
    profile is built without checks. The attachment rule's failure on a
    disconnected declaration skips the case; any other failure propagates."""
    for i, reports in cases:
        try:
            alloc = runner(instance, _unchecked_profile(instance, reports), cache)
        except ValidationError:
            if name != "bird":
                raise
            continue
        yield i, reports, alloc


def _report(prop: str, name: str, witness: dict | None, checked: int,
            seed: int | None = None) -> PropertyReport:
    """Report that holds when there is no witness and is violated otherwise."""
    verdict = "holds" if witness is None else "violated"
    return PropertyReport(prop, name, verdict, witness, checked, seed)


def _outcome(mechanism, target, cache: SteinerCache | None):
    """(mechanism name, profile, allocation) of one run on the target: an
    instance at its truthful profile, or a report profile as submitted."""
    name, runner = _resolve(mechanism)
    profile = target if isinstance(target, ReportProfile) else truthful_profile(target)
    return name, profile, runner(profile.instance, profile, cache or SteinerCache())


def check_truthfulness(instance: Instance, mechanism, step: Value = HALF,
                       cache: SteinerCache | None = None) -> PropertyReport:
    """No single agent can raise its utility by misreporting, over the full
    deviation grid."""
    name, runner = _resolve(mechanism)
    cache = cache or SteinerCache()
    profile = truthful_profile(instance)
    base = profile.reports
    truthful = runner(instance, profile, cache)
    truthful_u = {i: truthful.utility(i) for i in instance.agent_order()}
    edges_only = name == "bird"
    cases = ((i, {**base, i: rep}) for i in instance.agent_order()
             for rep in enumerate_deviations(instance, i, step, edges_only)
             if rep != base[i])
    checked = 0
    for i, reports, alloc in _runs(name, runner, instance, cases, cache):
        checked += 1
        u = alloc.utility(i)
        if u > truthful_u[i]:
            witness = {"agent": i, "report": report_to_json(reports[i]),
                       "truthful_utility": value_to_json(truthful_u[i]),
                       "deviation_utility": value_to_json(u)}
            return _report("truthfulness", name, witness, checked)
    return _report("truthfulness", name, None, checked)


def _pointwise(prop: str, find_witness, target, mechanism,
               cache: SteinerCache | None) -> PropertyReport:
    """Run the mechanism once on the target and report the witness
    find_witness(profile, allocation) gives, if any."""
    name, profile, alloc = _outcome(mechanism, target, cache)
    witness = find_witness(profile, alloc)
    if witness is not None:
        # Name any non-truthful reports, so the witness alone replays it.
        lies = lies_to_json(profile)
        if lies:
            witness["reports"] = lies
    return _report(prop, name, witness, 1)


def _charged_above_valuation(profile: ReportProfile, alloc) -> dict | None:
    for i in profile.instance.agent_order():
        if alloc.shares[i] > profile.valuation(i):
            return {"agent": i, "share": value_to_json(alloc.shares[i]),
                    "reported_valuation": value_to_json(profile.valuation(i))}
    return None


def _negative_share(profile: ReportProfile, alloc) -> dict | None:
    for i in profile.instance.agent_order():
        if alloc.shares[i] < 0:
            return {"agent": i, "share": value_to_json(alloc.shares[i])}
    return None


def _unbalanced(profile: ReportProfile, alloc) -> dict | None:
    collected = alloc.total_shares()
    if collected == alloc.total_cost:
        return None
    return {"collected": value_to_json(collected),
            "tree_cost": value_to_json(alloc.total_cost),
            "edges": [list(e) for e in sorted(alloc.tree_edges)]}


def check_feasibility(target, mechanism,
                      cache: SteinerCache | None = None) -> PropertyReport:
    """Nobody is charged above its reported valuation in the allocation
    produced for the given instance or profile."""
    return _pointwise("feasibility", _charged_above_valuation, target, mechanism, cache)


def check_positiveness(target, mechanism,
                       cache: SteinerCache | None = None) -> PropertyReport:
    """Shares are never negative: the mechanism never pays an agent."""
    return _pointwise("positiveness", _negative_share, target, mechanism, cache)


def check_budget_balance(target, mechanism,
                         cache: SteinerCache | None = None) -> PropertyReport:
    """Collected shares equal the cost of the produced tree, compared as
    exact rationals, in the allocation for the given instance or profile."""
    return _pointwise("budget-balance", _unbalanced, target, mechanism, cache)


def check_individual_rationality(instance: Instance, mechanism, samples: int = 200,
                                 seed: int = 0, step: Value = HALF,
                                 cache: SteinerCache | None = None) -> PropertyReport:
    """A truthful agent never ends up below zero, against sampled joint
    deviations of everyone else (the product space is too large to exhaust,
    so each agent gets a seeded sample budget)."""
    name, runner = _resolve(mechanism)
    cache = cache or SteinerCache()
    base = truthful_profile(instance).reports
    edges_only = name == "bird"
    order = instance.agent_order()
    menus = {j: _menu(instance, j, step, edges_only) for j in order}
    rng = random.Random(seed)

    def draw(j: str) -> AgentReport:
        # Report k of j's menu; only the drawn subset is built.
        edges, grid = menus[j]
        mask, g = divmod(rng.randrange(len(grid) << len(edges)), len(grid))
        return AgentReport(_subset(edges, mask), grid[g])

    # Draw in sorted order: frozenset order varies with the hash seed.
    cases = ((i, {j: base[j] if j == i else draw(j) for j in order})
             for i in order for _ in range(samples))
    checked = 0
    for i, reports, alloc in _runs(name, runner, instance, cases, cache):
        checked += 1
        u = alloc.utility(i)
        if u < 0:
            others = {j: report_to_json(r) for j, r in reports.items() if j != i}
            witness = {"agent": i, "others": others, "utility": value_to_json(u)}
            return _report("individual-rationality", name, witness, checked, seed)
    return _report("individual-rationality", name, None, checked, seed)


def _welfare_optimum(instance: Instance, profile: ReportProfile,
                     cache: SteinerCache) -> tuple[Value, frozenset[str]]:
    """Best reachable welfare and its first witness set, by direct scan over
    agent subsets (kept independent of the recurrence used by selection)."""
    agents = instance.agent_order()
    best, best_set = 0, frozenset()
    for mask in range(1, 1 << len(agents)):
        S = frozenset(a for b, a in enumerate(agents) if mask >> b & 1)
        sw = social_welfare(profile, S, cache)
        if sw is not None and sw > best:
            best, best_set = sw, S
    return best, best_set


def check_efficiency(instance: Instance, mechanism,
                     cache: SteinerCache | None = None) -> PropertyReport:
    """The truthful outcome reaches the maximum social welfare, verified by
    brute force over every agent subset."""
    if len(instance.agents) > EFFICIENCY_CAP:
        raise SizeCapError(
            f"efficiency check exhausts subsets, cap is {EFFICIENCY_CAP} agents")
    cache = cache or SteinerCache()
    name, profile, alloc = _outcome(mechanism, instance, cache)
    best, best_set = _welfare_optimum(instance, profile, cache)
    witness = None
    if alloc.social_welfare != best:
        witness = {"selected": sorted(alloc.selected),
                   "welfare": value_to_json(alloc.social_welfare),
                   "optimal_set": sorted(best_set), "optimal_welfare": value_to_json(best)}
    return _report("efficiency", name, witness, 1)


def twin_pair(instance: Instance, i: str, j: str, ranked: bool) -> bool:
    """Whether agents i and j have the same neighbors, each other aside, and
    either the same costs to them and the same valuation (symmetric twins)
    or, when ranked, connections no dearer and a valuation no lower for i
    (i dominates j)."""
    adj_i = {k: c for k, c in instance.graph.adjacent(i).items() if k != j}
    adj_j = {k: c for k, c in instance.graph.adjacent(j).items() if k != i}
    if ranked:
        return (adj_i.keys() == adj_j.keys()
                and all(adj_i[k] <= adj_j[k] for k in adj_i)
                and instance.valuations[i] >= instance.valuations[j])
    return adj_i == adj_j and instance.valuations[i] == instance.valuations[j]


def _check_twins(ranked: bool, instance: Instance, mechanism, i: str, j: str,
                 cache: SteinerCache | None) -> PropertyReport:
    if not twin_pair(instance, i, j, ranked):
        raise ValidationError(f"agent {i!r} does not dominate {j!r}" if ranked
                              else f"agents {i!r} and {j!r} are not symmetric twins")
    name, _, alloc = _outcome(mechanism, instance, cache)
    u_i, u_j = alloc.utility(i), alloc.utility(j)
    witness = None
    if (u_i < u_j) if ranked else (u_i != u_j):
        witness = {"agents": [i, j], "utilities": [value_to_json(u_i), value_to_json(u_j)]}
    return _report("ranking" if ranked else "symmetry", name, witness, 1)


def check_symmetry(instance: Instance, mechanism, i: str, j: str,
                   cache: SteinerCache | None = None) -> PropertyReport:
    """Two agents with the same valuation and interchangeable positions (the
    same neighbors at the same costs, each other aside) end up with the same
    utility. Errors when the pair does not satisfy that hypothesis."""
    return _check_twins(False, instance, mechanism, i, j, cache)


def check_ranking(instance: Instance, mechanism, i: str, j: str,
                  cache: SteinerCache | None = None) -> PropertyReport:
    """Of two agents with the same neighbors, the one with cheaper
    connections and a valuation at least as high ends up at least as well
    off. Errors when the pair does not satisfy that hypothesis."""
    return _check_twins(True, instance, mechanism, i, j, cache)


def check_utility_monotonicity(instance: Instance, mechanism,
                               cache: SteinerCache | None = None) -> PropertyReport:
    """Raising the cost of an edge by 1 never helps the agents at its
    endpoints, comparing truthful runs before and after, over every edge."""
    cache = cache or SteinerCache()
    name, _, base = _outcome(mechanism, instance, cache)
    checked = 0
    for e in sorted(instance.graph.edges()):
        costs = instance.graph.edges()
        costs[e] += 1
        raised = Instance(instance.source, instance.agents, costs, instance.valuations)
        _, _, alloc = _outcome(mechanism, raised, cache)
        for i in e:
            if i == instance.source:
                continue
            checked += 1
            before, after = base.utility(i), alloc.utility(i)
            if after > before:
                witness = {"edge": list(e), "delta": 1, "agent": i,
                           "utility_before": value_to_json(before),
                           "utility_after": value_to_json(after)}
                return _report("utility-monotonicity", name, witness, checked)
    return _report("utility-monotonicity", name, None, checked)


def budget_balance_ratio(instance: Instance, mechanism,
                         cache: SteinerCache | None = None) -> Value | None:
    """Collected shares divided by the tree cost at the truthful profile;
    None when nothing is selected or the tree costs nothing."""
    _, _, alloc = _outcome(mechanism, instance, cache)
    if not alloc.selected or alloc.total_cost == 0:
        return None
    return exact_div(alloc.total_shares(), alloc.total_cost)


def welfare_ratio(instance: Instance, mechanism,
                  cache: SteinerCache | None = None) -> Value | None:
    """Welfare of the truthful outcome relative to the best reachable
    welfare; None when the optimum is not positive (no instance-wide
    surplus to compare against)."""
    cache = cache or SteinerCache()
    _, profile, alloc = _outcome(mechanism, instance, cache)
    best, _ = _welfare_optimum(instance, profile, cache)
    if best <= 0:
        return None
    return exact_div(alloc.social_welfare, best)


class Property(NamedTuple):
    """kind is "instance", "pointwise", "twin" (the target is (instance, i,
    j) with twin_pair(instance, i, j, ranked)) or "measurement". run(target,
    mechanism, options, cache) reads step, ir_samples and seed from the
    parsed options. A sweep over every property skips instances with more
    agents than cap."""

    kind: str
    run: Callable
    cap: int | None = None
    ranked: bool = False


# In the order a sweep over all of them runs. Each run looks its checker up
# at call time, so a checker rebound on this module (say, traced) is used.
PROPERTIES = {
    "truthfulness": Property(
        "instance", lambda t, m, o, c: check_truthfulness(t, m, o.step, c)),
    "feasibility": Property(
        "pointwise", lambda t, m, o, c: check_feasibility(t, m, c)),
    "individual-rationality": Property(
        "instance", lambda t, m, o, c: check_individual_rationality(
            t, m, o.ir_samples, o.seed, o.step, c)),
    "budget-balance": Property(
        "pointwise", lambda t, m, o, c: check_budget_balance(t, m, c)),
    "positiveness": Property(
        "pointwise", lambda t, m, o, c: check_positiveness(t, m, c)),
    "efficiency": Property(
        "instance", lambda t, m, o, c: check_efficiency(t, m, c), cap=EFFICIENCY_CAP),
    "utility-monotonicity": Property(
        "instance", lambda t, m, o, c: check_utility_monotonicity(t, m, c)),
    "symmetry": Property(
        "twin", lambda t, m, o, c: check_symmetry(t[0], m, t[1], t[2], c)),
    "ranking": Property(
        "twin", lambda t, m, o, c: check_ranking(t[0], m, t[1], t[2], c), ranked=True),
    "bbr": Property(
        "measurement", lambda t, m, o, c: budget_balance_ratio(t, m, c)),
    "welfare-ratio": Property(
        "measurement", lambda t, m, o, c: welfare_ratio(t, m, c)),
}


def welfare_ratio_of_selection(instance: Instance, selection,
                               cache: SteinerCache | None = None) -> Value:
    """Welfare share a mechanism would reach by selecting a fixed set,
    relative to the optimum; used to study selection rules abstractly. The
    true graph is connected, so every set of agents can be connected."""
    cache = cache or SteinerCache()
    profile = truthful_profile(instance)
    sw = social_welfare(profile, selection, cache)
    best, _ = _welfare_optimum(instance, profile, cache)
    if best <= 0:
        raise ValidationError("the optimal welfare is not positive")
    return exact_div(sw, best)


# Spelled out: importing `string` would add about 1 ms to every process start.
_LABELS = "abcdefghijklmnopqrstuvwxyz"[:MAX_AGENTS]


def generate_instance(agents: int = 4, edge_probability: float = 0.5,
                      max_cost: int = 5, max_valuation: int = 8,
                      seed: int = 0) -> Instance:
    """Deterministic random instance: each possible edge appears with the
    given probability, integer costs and valuations are uniform up to their
    bounds, and sampling repeats until the graph is connected."""
    if not 0 <= edge_probability <= 1:
        raise ValidationError("edge probability must lie in [0, 1]")
    if not 0 <= agents <= MAX_AGENTS:
        raise ValidationError(f"agent count must lie in [0, {MAX_AGENTS}]")
    if max_cost < 0 or max_valuation < 0:
        raise ValidationError("cost and valuation bounds must be nonnegative")
    labels = list(_LABELS[:agents])
    nodes = ["s"] + labels
    rng = random.Random(seed)
    for _ in range(1000):
        edges = {}
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                if rng.random() < edge_probability:
                    edges[(nodes[a], nodes[b])] = rng.randint(0, max_cost)
        valuations = {a: rng.randint(0, max_valuation) for a in labels}
        try:
            return Instance("s", labels, edges, valuations)
        except ValidationError:
            continue
    raise ValidationError("could not sample a connected instance; raise the "
                          "edge probability")


def make_twin_instance(seed: int = 0, ranked: bool = False) -> tuple[Instance, str, str]:
    """Instance containing a designated agent pair ('b', 'c') built to
    satisfy the symmetry hypothesis, or the ranking hypothesis when ranked
    is set (b dominates c). Returns (instance, better agent, other agent)."""
    extras = [x for x in _LABELS if x not in ("b", "c")][:TWIN_EXTRA_AGENTS]
    others = ["s"] + extras
    rng = random.Random(seed)
    for _ in range(1000):
        edges = {}
        for k in others:
            if rng.random() < 0.6:
                base = rng.randint(0, 5)
                edges[("b", k)] = base
                edges[("c", k)] = base + (rng.randint(0, 2) if ranked else 0)
        if rng.random() < 0.5:
            edges[("b", "c")] = rng.randint(0, 5)
        for a in range(len(others)):
            for b in range(a + 1, len(others)):
                if rng.random() < 0.5:
                    edges[(others[a], others[b])] = rng.randint(0, 5)
        v_c = rng.randint(0, 8)
        v_b = v_c + (rng.randint(0, 3) if ranked else 0)
        valuations = {"b": v_b, "c": v_c}
        valuations.update({a: rng.randint(0, 8) for a in extras})
        try:
            return Instance("s", ["b", "c"] + extras, edges, valuations), "b", "c"
        except ValidationError:
            continue
    raise ValidationError("could not sample a connected twin instance")

