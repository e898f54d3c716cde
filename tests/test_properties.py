"""The axiom-checking harness itself."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from costshare import (Instance, SizeCapError, ValidationError,
                       apply_deviation, budget_balance_ratio,
                       check_budget_balance, check_efficiency,
                       check_individual_rationality, check_positiveness,
                       check_ranking, check_symmetry, check_truthfulness,
                       check_utility_monotonicity, enumerate_deviations,
                       generate_instance, load_document, make_twin_instance,
                       run_cvm, serialize_instance, truthful_profile,
                       welfare_ratio, welfare_ratio_of_selection)
from costshare.allocation import Allocation
from costshare.model import MAX_AGENTS, AgentReport
from costshare.properties import (EFFICIENCY_CAP, MAX_GRID_POINTS, MECHANISMS,
                                  valuation_grid)
from costshare.fixtures import (corpus_inefficiency, fig_line, fig_triangle,
                                fig_welfare_gap, fig_zero_bridge)


def test_valuation_grid_frozen():
    inst = Instance("s", ["a"], {("s", "a"): 1}, {"a": 3})
    grid = valuation_grid(inst, "a", step=Fraction(1, 2))
    assert grid == [0, Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2),
                    3, Fraction(7, 2), 4]
    assert 3 in grid  # the true value is always present
    coarse = valuation_grid(inst, "a", step=5)
    assert coarse == [0, 3]
    with pytest.raises(ValidationError, match="positive"):
        valuation_grid(inst, "a", step=0)


def test_a_grid_of_exactly_the_cap_is_built_and_one_more_point_is_refused():
    inst = Instance("s", ["a"], {("s", "a"): 1}, {"a": 0})  # the grid spans [0, 1]
    grid = valuation_grid(inst, "a", step=Fraction(1, MAX_GRID_POINTS - 1))
    assert len(grid) == MAX_GRID_POINTS
    with pytest.raises(SizeCapError, match=f"gives {MAX_GRID_POINTS + 1} valuations"):
        valuation_grid(inst, "a", step=Fraction(1, MAX_GRID_POINTS))


def test_enumerate_deviations_counts():
    inst = fig_triangle()
    devs = enumerate_deviations(inst, "a", step=1)
    grid = valuation_grid(inst, "a", step=1)
    assert len(devs) == 4 * len(grid)  # two true edges -> four subsets
    truthful = [d for d in devs
                if d.edges == inst.true_edges_of("a") and d.valuation == 3]
    assert len(truthful) == 1
    edges_only = enumerate_deviations(inst, "a", edges_only=True)
    assert len(edges_only) == 4
    assert all(d.valuation == 3 for d in edges_only)
    # Menu reports are built unchecked: each must already hold what a
    # checked report would, down to the valuation's type.
    for d in enumerate_deviations(inst, "a") + edges_only:
        checked = AgentReport(d.edges, d.valuation)
        assert (d, hash(d), type(d.valuation)) == (checked, hash(checked),
                                                   type(checked.valuation))


def test_report_json_round_trip():
    inst = fig_triangle()
    for d in enumerate_deviations(inst, "a", step=1)[:8]:
        text = serialize_instance(inst, apply_deviation(truthful_profile(inst), "a", d))
        assert load_document(text)[1].reports["a"] == d


def test_truthfulness_verdicts_on_fixtures():
    assert check_truthfulness(fig_line(), "cvm").holds
    assert check_truthfulness(fig_line(), "rsm").holds
    report = check_truthfulness(fig_triangle(), "bird")
    assert report.holds  # no profitable cut exists on the triangle


def test_library_checks_refuse_an_unknown_mechanism():
    with pytest.raises(ValidationError, match="unknown mechanism 'vcg'"):
        check_truthfulness(fig_triangle(), "vcg")


@pytest.mark.parametrize("check", [check_truthfulness, check_individual_rationality])
@pytest.mark.parametrize("name", ["cvm", "rsm"])
def test_a_failed_run_on_a_deviated_profile_is_not_skipped(monkeypatch, check, name):
    """Only the attachment rule's failure on a disconnected declaration is
    no outcome. cvm and rsm accept every declaration, so a failure of
    theirs propagates instead of shrinking the deviation set."""
    run = MECHANISMS[name]
    inst = fig_triangle()
    truthful = truthful_profile(inst).reports

    def failing(instance, profile, cache):
        if profile.reports != truthful:
            raise ValidationError("injected fault")
        return run(instance, profile, cache)

    monkeypatch.setitem(MECHANISMS, name, failing)
    with pytest.raises(ValidationError, match="injected fault"):
        check(inst, name)


def test_individual_rationality_is_seeded_and_reproducible():
    inst = fig_triangle()
    one = check_individual_rationality(inst, "rsm", samples=25, seed=7)
    two = check_individual_rationality(inst, "rsm", samples=25, seed=7)
    assert one.to_json() == two.to_json()
    assert one.seed == 7
    assert one.holds


def test_efficiency_verdicts():
    assert check_efficiency(fig_triangle(), "cvm").holds
    rep = check_efficiency(corpus_inefficiency(), "rsm")
    assert not rep.holds
    assert rep.witness == {"selected": ["b", "c"], "welfare": 3,
                           "optimal_set": ["b", "c", "d"],
                           "optimal_welfare": 5}
    at_cap = generate_instance(agents=EFFICIENCY_CAP, edge_probability=0.6, seed=0)
    assert check_efficiency(at_cap, "cvm").holds
    big = generate_instance(agents=EFFICIENCY_CAP + 1, edge_probability=0.6, seed=0)
    with pytest.raises(SizeCapError, match="efficiency"):
        check_efficiency(big, "cvm")


def test_pointwise_checks_accept_profiles():
    """Feasibility, positiveness, and budget balance evaluate whatever
    profile they are handed; the instance shorthand means truthful."""
    from costshare import AgentReport

    inst = fig_line()
    prof = apply_deviation(truthful_profile(inst), "b",
                           AgentReport(frozenset({("a", "b")}), 20))
    rep = check_budget_balance(prof, "rsm")
    assert rep.holds  # the lie changes nothing here; shares still cover cost
    assert check_budget_balance(inst, "cvm").witness["collected"] == 3


def test_positiveness_names_an_agent_the_mechanism_pays(monkeypatch):
    def paying(instance, profile, cache):
        return Allocation("cvm", profile, {"b": -1}, lambda: 0, tree=lambda: frozenset())

    monkeypatch.setitem(MECHANISMS, "cvm", paying)
    rep = check_positiveness(fig_triangle(), "cvm")
    assert rep.verdict == "violated"
    assert rep.witness == {"agent": "b", "share": -1}


def test_symmetry_and_ranking_on_mirror_twins():
    tw = Instance("s", ["a", "b"], {("s", "a"): 3, ("s", "b"): 3},
                  {"a": 5, "b": 5})
    for mech in ("cvm", "rsm"):
        assert check_symmetry(tw, mech, "a", "b").holds
    ranked = Instance("s", ["a", "b"], {("s", "a"): 2, ("s", "b"): 3},
                      {"a": 5, "b": 5})
    for mech in ("cvm", "rsm"):
        assert check_ranking(ranked, mech, "a", "b").holds
    with pytest.raises(ValidationError, match="symmetric twins"):
        check_symmetry(ranked, "cvm", "a", "b")
    with pytest.raises(ValidationError, match="dominate"):
        check_ranking(ranked, "cvm", "b", "a")


def test_twin_generator_builds_valid_pairs():
    for seed in range(5):
        inst, i, j = make_twin_instance(seed=seed)
        assert check_symmetry(inst, "cvm", i, j).holds
        assert check_symmetry(inst, "rsm", i, j).holds
        rinst, ri, rj = make_twin_instance(seed=seed, ranked=True)
        assert check_ranking(rinst, "cvm", ri, rj).holds
        assert check_ranking(rinst, "rsm", ri, rj).holds


def test_utility_monotonicity():
    assert check_utility_monotonicity(fig_line(), "rsm").holds
    assert check_utility_monotonicity(fig_line(), "cvm").holds


def test_raising_an_unused_edge_changes_nothing():
    inst = Instance("s", ["a", "b", "c"],
                    {("s", "a"): 2, ("s", "b"): 4, ("a", "b"): 3,
                     ("s", "c"): 50},
                    {"a": 3, "b": 3, "c": 1})
    before = run_cvm(inst)
    assert "c" not in before.selected
    costs = inst.graph.edges()
    costs[("c", "s")] += 1
    raised = Instance(inst.source, inst.agents, costs, inst.valuations)
    assert run_cvm(raised).utilities == before.utilities


def test_budget_balance_ratio_values():
    assert budget_balance_ratio(fig_zero_bridge(5), "cvm") == 0
    assert budget_balance_ratio(fig_line(), "cvm") == Fraction(3, 5)
    for seed in range(4):
        inst = generate_instance(agents=4, edge_probability=0.6, seed=seed)
        ratio = budget_balance_ratio(inst, "rsm")
        assert ratio in (None, 1)
    nothing = Instance("s", ["a"], {("s", "a"): 3}, {"a": 0})
    assert budget_balance_ratio(nothing, "cvm") is None
    free = Instance("s", ["a"], {("s", "a"): 0}, {"a": 1})
    assert budget_balance_ratio(free, "cvm") is None


def test_welfare_ratio_collapse_family():
    """Forcing the budget-covering selection {a} on the tuned line keeps
    welfare 2 while the optimum grows with p: the ratio 2/(2+p) falls."""
    ratios = [welfare_ratio_of_selection(fig_welfare_gap(p), {"a"})
              for p in (Fraction(1, 2), 1, 10, 100)]
    assert ratios == [Fraction(4, 5), Fraction(2, 3), Fraction(1, 6),
                      Fraction(1, 51)]
    assert all(x > y for x, y in zip(ratios, ratios[1:]))


def test_welfare_ratio_edge_cases():
    assert welfare_ratio(fig_line(), "cvm") == 1
    nothing = Instance("s", ["a"], {("s", "a"): 3}, {"a": 0})
    assert welfare_ratio(nothing, "cvm") is None
    assert welfare_ratio_of_selection(fig_line(), {"a", "b"}) == 1
    with pytest.raises(ValidationError, match="the optimal welfare is not positive"):
        welfare_ratio_of_selection(nothing, {"a"})  # the optimum is exactly 0


def test_generator_is_deterministic_and_bounded():
    one = generate_instance(agents=5, edge_probability=0.5, max_cost=4,
                            max_valuation=6, seed=42)
    two = generate_instance(agents=5, edge_probability=0.5, max_cost=4,
                            max_valuation=6, seed=42)
    assert one.graph == two.graph
    assert one.valuations == two.valuations
    assert all(0 <= c <= 4 for c in one.graph.edges().values())
    assert all(0 <= v <= 6 for v in one.valuations.values())
    assert one.graph.is_connected()


def test_generator_accepts_its_boundaries():
    assert generate_instance(agents=0, edge_probability=0).agents == frozenset()
    full = generate_instance(agents=MAX_AGENTS, edge_probability=1)
    assert len(full.agents) == MAX_AGENTS
    assert len(full.graph.edges()) == (MAX_AGENTS + 1) * MAX_AGENTS // 2
    flat = generate_instance(agents=3, edge_probability=1, max_cost=0, max_valuation=0)
    assert set(flat.graph.edges().values()) == set(flat.valuations.values()) == {0}


@pytest.mark.parametrize("kwargs, message", [
    ({"agents": -1}, r"agent count must lie in \[0, 12\]"),
    ({"agents": MAX_AGENTS + 1}, r"agent count must lie in \[0, 12\]"),
    ({"edge_probability": -0.1}, r"edge probability must lie in \[0, 1\]"),
    ({"edge_probability": 1.5}, r"edge probability must lie in \[0, 1\]"),
    ({"max_cost": -1}, "cost and valuation bounds must be nonnegative"),
    ({"max_valuation": -1}, "cost and valuation bounds must be nonnegative"),
    ({"agents": 1, "edge_probability": 0}, "could not sample a connected instance"),
])
def test_generator_refuses_arguments_past_its_boundaries(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        generate_instance(**kwargs)


def test_inefficiency_scan_reproduces_the_frozen_seed():
    """The shipped counterexample is the first seed, scanning upward from
    0, whose 4-agent instance makes rsm miss the welfare optimum."""
    for seed in range(12):
        inst = generate_instance(4, 0.6, seed=seed)
        assert check_efficiency(inst, "rsm").holds == (seed != 11), seed
    assert inst.graph == corpus_inefficiency().graph


@given(seed=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=30, deadline=None)
def test_reports_serialize_for_any_generated_instance(seed):
    inst = generate_instance(agents=3, edge_probability=0.6, seed=seed)
    rep = check_budget_balance(inst, "rsm")
    doc = rep.to_json()
    assert doc["property"] == "budget-balance"
    assert doc["verdict"] in ("holds", "violated")
    assert isinstance(doc["instances_checked"], int)


def test_induced_memo_agrees_with_induced_graph_across_a_sweep(monkeypatch):
    """A truthfulness sweep builds one induced graph per distinct edge
    declaration, and every deviated profile's memoized graph equals a
    fresh induced_graph."""
    import costshare.steiner as steiner_module
    from costshare import apply_deviation, truthful_profile
    from costshare.model import induced_graph
    from costshare.steiner import SteinerCache

    built = []

    def counting(profile):
        built.append(profile)
        return induced_graph(profile)

    monkeypatch.setattr(steiner_module, "induced_graph", counting)
    inst = generate_instance(agents=4, edge_probability=0.6, seed=5)
    cache = SteinerCache()
    assert check_truthfulness(inst, "rsm", cache=cache).holds
    declarations = 1 + sum((1 << len(inst.true_edges_of(i))) - 1 for i in inst.agents)
    assert len(built) == declarations
    base = truthful_profile(inst)
    checked = 0
    for i in sorted(inst.agents):
        for rep in enumerate_deviations(inst, i):
            p = apply_deviation(base, i, rep)
            got, want = cache.induced(p), induced_graph(p)
            assert got == want and got.edges() == want.edges()
            checked += 1
    assert len(built) == declarations and checked > 100


def test_individual_rationality_validates_each_declaration_at_most_once(monkeypatch):
    """Deviations and sampled reports come from each agent's own true edges,
    so their profiles are built without re-validating them: a truthfulness
    or IR check checks each agent's declaration at most once, for the
    truthful profile."""
    from collections import Counter

    from costshare import model

    checked = Counter()
    check = model._check_declaration

    def counted(instance, i, report):
        checked[i] += 1
        check(instance, i, report)

    monkeypatch.setattr(model, "_check_declaration", counted)
    inst = generate_instance(agents=4, edge_probability=0.6, seed=5)
    checks = (lambda m: check_individual_rationality(inst, m, samples=20, seed=3),
              lambda m: check_truthfulness(inst, m))
    for mechanism in ("cvm", "rsm", "bird"):
        for check_one in checks:
            checked.clear()
            assert check_one(mechanism).instances_checked > 0
            assert checked and max(checked.values()) == 1, (mechanism, checked)


def test_individual_rationality_samples_do_not_depend_on_the_hash_seed():
    """Joint deviations are drawn in sorted agent order, so the same seed
    gives the same report in processes with different string hashing."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = ("import json\n"
              "from costshare.fixtures import fig_bird_square\n"
              "from costshare.properties import check_individual_rationality\n"
              "r = check_individual_rationality(fig_bird_square(), 'bird', "
              "samples=20, seed=0)\n"
              "print(json.dumps(r.to_json(), sort_keys=True))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for hash_seed in ("0", "1", "123"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1] == outs[2]


def _reference_ir_draws(instance, name, samples, seed, step):
    """The profiles the IR check runs, drawn by indexing each agent's full
    enumerate_deviations list, stopping where the check stops."""
    import random

    from costshare import ReportProfile, truthful_profile
    from costshare.properties import MECHANISMS

    base = truthful_profile(instance)
    lists = {j: enumerate_deviations(instance, j, step, name == "bird")
             for j in instance.agent_order()}
    rng = random.Random(seed)
    drawn = []
    for i in instance.agent_order():
        for _ in range(samples):
            reports = {j: base.reports[j] if j == i else lists[j][rng.randrange(len(lists[j]))]
                       for j in instance.agent_order()}
            drawn.append(reports)
            try:
                alloc = MECHANISMS[name](instance, ReportProfile(instance, reports))
            except ValidationError:
                continue
            if alloc.utilities[i] < 0:
                return drawn
    return drawn


@pytest.mark.parametrize("name", ["cvm", "rsm", "bird"])
@pytest.mark.parametrize("step", [Fraction(1, 2), Fraction(1, 3)])
def test_individual_rationality_draws_match_the_deviation_lists(monkeypatch, name, step):
    from costshare.properties import MECHANISMS

    run = MECHANISMS[name]
    for seed in (0, 5, 17):
        inst = generate_instance(4, 0.5, seed=seed)
        seen = []

        def recorder(instance, profile, cache):
            seen.append(dict(profile.reports))
            return run(instance, profile, cache)

        with monkeypatch.context() as patch:
            patch.setitem(MECHANISMS, name, recorder)
            rep = check_individual_rationality(inst, name, samples=6, seed=seed, step=step)
        assert seen == _reference_ir_draws(inst, name, 6, seed, step)
        assert rep.to_json() == check_individual_rationality(
            inst, name, samples=6, seed=seed, step=step).to_json()


def test_individual_rationality_never_builds_deviation_lists(monkeypatch):
    import costshare.properties as properties_module

    def refuse(*args, **kwargs):
        raise AssertionError("the full deviation list was built")

    monkeypatch.setattr(properties_module, "enumerate_deviations", refuse)
    rep = check_individual_rationality(generate_instance(4, 0.5, seed=1), "cvm",
                                       samples=5, step=Fraction(1, 200))
    assert rep.holds and rep.instances_checked > 0
