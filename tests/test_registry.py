"""The property registry: one table that the command line reads.

The benchmark's tracer rebinds checkers as attributes of
`costshare.properties`, so a registry entry must look its checker up at
call time; these tests pin that, the table's order and the twin hypothesis.
"""

import json

import pytest

import costshare.properties as properties
from costshare.cli import main
from costshare.fixtures import fig_line, fig_zero_bridge
from costshare.properties import (PROPERTIES, check_ranking, check_symmetry,
                                  make_twin_instance, twin_pair)


def test_cli_property_choices_are_the_registry_in_order(capsys):
    assert main(["check", "--property", "nope", "--mechanism", "cvm"]) == 2
    names = ", ".join((*PROPERTIES, "all"))
    assert capsys.readouterr().err == (
        f"error: --property must be one of: {names}; got 'nope'\n")


def test_all_runs_the_instance_and_pointwise_kinds_in_registry_order(capsys):
    assert main(["check", "--property", "all", "--mechanism", "rsm", "--count", "1"]) == 0
    names = [r["property"] for r in json.loads(capsys.readouterr().out)]
    assert names == ["truthfulness", "feasibility", "individual-rationality",
                     "budget-balance", "positiveness", "efficiency",
                     "utility-monotonicity"]
    assert {p.kind for n, p in PROPERTIES.items() if n not in names} == {
        "twin", "measurement"}


@pytest.mark.parametrize("prop, attr", [
    ("truthfulness", "check_truthfulness"),
    ("individual-rationality", "check_individual_rationality"),
    ("budget-balance", "check_budget_balance"),
])
def test_cli_reaches_checkers_through_the_module_attribute(monkeypatch, capsys,
                                                           prop, attr):
    original = getattr(properties, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(properties, attr, counting)
    assert main(["check", "--property", prop, "--mechanism", "rsm", "--count", "2",
                 "--agents", "3", "--ir-samples", "2"]) == 0
    capsys.readouterr()
    assert len(calls) == 2


def test_twin_pair_is_the_hypothesis_both_checks_enforce():
    for seed in range(10):
        inst, i, j = make_twin_instance(seed)
        assert twin_pair(inst, i, j, ranked=False)
        assert twin_pair(inst, i, j, ranked=True)  # twins weakly dominate
        inst, i, j = make_twin_instance(seed, ranked=True)
        assert twin_pair(inst, i, j, ranked=True)
    line = fig_line()  # a sits between s and b; b values service more
    assert not twin_pair(line, "a", "b", ranked=False)
    assert not twin_pair(line, "a", "b", ranked=True)
    with pytest.raises(ValueError, match="agents 'a' and 'b' are not symmetric twins"):
        check_symmetry(line, "cvm", "a", "b")
    with pytest.raises(ValueError, match="agent 'a' does not dominate 'b'"):
        check_ranking(line, "cvm", "a", "b")
    bridge = fig_zero_bridge(5)
    assert twin_pair(bridge, "a", "b", ranked=False)
    assert check_symmetry(bridge, "rsm", "a", "b").holds
