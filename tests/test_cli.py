"""Command-line behavior: documents in, documents out, stable exit codes."""

import argparse
import json

import pytest

from costshare import serialize_instance, truthful_profile, apply_deviation
from costshare.cli import main
from costshare.fixtures import (fig_bird_square, fig_line, fig_zero_bridge,
                                fig_relay_recharge, relay_recharge_deviation)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _solve(capsys, path, mechanism, *extra):
    code = main(["solve", "--input", path, "--mechanism", mechanism, *extra])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_cvm_zero_bridge(tmp_path, capsys):
    path = _write(tmp_path, "zb.json", serialize_instance(fig_zero_bridge(5)))
    code, doc = _solve(capsys, path, "cvm")
    assert code == 0
    assert doc["shares"] == {"a": 0, "b": 0}
    assert doc["total_cost"] == 5


def test_solve_rsm_trace(tmp_path, capsys):
    path = _write(tmp_path, "line.json", serialize_instance(fig_line()))
    code, doc = _solve(capsys, path, "rsm", "--trace")
    assert code == 0
    assert doc["shares"] == {"a": 2, "b": 3}
    assert [s["share"] for s in doc["stages"]] == [2, 3]
    assert [s["selected"] for s in doc["stages"]] == [["a"], ["b"]]


def test_solve_bird_square(tmp_path, capsys):
    path = _write(tmp_path, "sq.json", serialize_instance(fig_bird_square()))
    code, doc = _solve(capsys, path, "bird")
    assert code == 0
    assert doc["shares"] == {"a": 1, "b": 3, "c": 2}


def test_solve_respects_submitted_reports(tmp_path, capsys):
    inst = fig_relay_recharge()
    agent, rep = relay_recharge_deviation()
    prof = apply_deviation(truthful_profile(inst), agent, rep)
    path = _write(tmp_path, "lie.json", serialize_instance(inst, prof))
    code, doc = _solve(capsys, path, "rsm")
    assert code == 0
    assert doc["shares"]["b"] == 3


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", "{nope")
    assert main(["solve", "--input", bad, "--mechanism", "cvm"]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert main(["solve", "--input", str(tmp_path / "missing.json"),
                 "--mechanism", "cvm"]) == 2


@pytest.mark.parametrize("patch, message", [
    ({"source": 5}, "source must be a string label"),
    ({"edges": [{"u": "s", "v": 7, "cost": 1}]}, "edge endpoint must be a string label"),
    ({"valuations": {"a": None}}, "malformed number for valuation of 'a': None"),
    ({"valuations": {"a": "1e99999"}}, "out of range"),
    ({"edges": [{"u": "s", "v": "a", "cost": 1}, {"u": "a", "v": "s", "cost": 2}]},
     "duplicate edge ('a', 's')"),
    ({"valuations": [2]}, "valuations must be an object"),
    ({"reports": [["a", 2]]}, "reports must be an object"),
    ({"reports": {"z": {"edges": [], "valuation": 1}}}, "report for unknown agent 'z'"),
    ({"reports": {"a": {"edges": []}}}, "malformed report for agent 'a'"),
    ({"edges": [{"u": "s", "v": "a", "cost": 1}, {"u": "a", "v": "x", "cost": 1}]},
     "edge ('a', 'x') has an undeclared endpoint"),
    ({"valuations": {"a": -1}}, "negative valuation for agent 'a'"),
    # json keeps the last of repeated keys; a document may not repeat one
    pytest.param('{"source": "s", "agents": ["a"], "valuations": {"a": 2}, '
                 '"edges": [{"u": "s", "v": "a", "cost": 2, "cost": 9}]}',
                 "the key 'cost' is repeated in one JSON object", id="repeated-cost"),
    pytest.param('{"source": "s", "agents": ["a"], "valuations": {"a": 1, "a": 7}, '
                 '"edges": [{"u": "s", "v": "a", "cost": 1}]}',
                 "the key 'a' is repeated in one JSON object", id="repeated-valuation"),
    pytest.param('{"source": "a", "source": "s", "agents": ["a"], "valuations": {"a": 2}, '
                 '"edges": [{"u": "s", "v": "a", "cost": 1}]}',
                 "the key 'source' is repeated in one JSON object", id="repeated-source"),
])
def test_malformed_input_exits_2_with_a_true_message(tmp_path, capsys, patch, message):
    """A patch is a dict of fields to replace or, where the JSON cannot be
    written from a dict, the whole document text."""
    doc = {"source": "s", "agents": ["a"], "edges": [{"u": "s", "v": "a", "cost": 1}],
           "valuations": {"a": 2}}
    text = patch if isinstance(patch, str) else json.dumps({**doc, **patch})
    path = _write(tmp_path, "bad.json", text)
    assert main(["solve", "--input", path, "--mechanism", "cvm"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "float" not in err and "Traceback" not in err


def test_undecodable_input_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00garbage")
    assert main(["solve", "--input", str(path), "--mechanism", "cvm"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_argparse_exits_are_returned(capsys):
    assert main(["solve"]) == 2
    assert "--input" in capsys.readouterr().err
    assert main(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: costshare")


def test_a_second_main_call_builds_no_parser(monkeypatch, capsys):
    """The parser is built once per process: a later call reuses it."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["-h"]) == 0
    first = len(built)
    assert main(["solve"]) == 2
    capsys.readouterr()
    assert len(built) == first, built


def test_main_calls_share_no_state(tmp_path, capsys):
    """Usage errors, help, a parsed-and-converted --step, a refused choice,
    a demo and a solve give the same exit code, stdout and stderr in
    either order within one process. The demo follows the refused choice,
    so a value kept from one call to the next would fail it."""
    path = _write(tmp_path, "line.json", serialize_instance(fig_line()))
    check = ["check", "--property", "truthfulness", "--mechanism", "cvm",
             "--agents", "2", "--count", "1"]
    argvs = [["solve"], ["-h"], [*check, "--step", "1/4"], check,
             ["check", "--property", "truthfulness", "--mechanism", "nope"],
             ["demo", "--name", "impossibility-bbr"],
             ["solve", "--input", path, "--mechanism", "rsm"]]

    def run(order):
        seen = {}
        for argv in order:
            code = main(argv)
            captured = capsys.readouterr()
            seen[tuple(argv)] = code, captured.out, captured.err
        return seen

    forward = run(argvs)
    assert [forward[tuple(a)][0] for a in argvs] == [2, 0, 0, 0, 2, 0, 0]
    assert run(argvs[::-1]) == forward


def _star(tmp_path, agents: int) -> str:
    """A document of ``agents`` agents, each joined to the source alone."""
    labels = [f"a{i:02d}" for i in range(agents)]
    doc = {
        "source": "s",
        "agents": labels,
        "edges": [{"u": "s", "v": a, "cost": 1} for a in labels],
        "valuations": dict.fromkeys(labels, 2),
    }
    return _write(tmp_path, "big.json", json.dumps(doc))


def test_size_cap_exits_3(tmp_path, capsys):
    assert main(["solve", "--input", _star(tmp_path, 13), "--mechanism", "cvm"]) == 3
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("mechanism", ["cvm", "rsm"])
@pytest.mark.parametrize("agents", [13, 14])
def test_size_cap_message_names_the_agent_count(tmp_path, capsys, mechanism, agents):
    """Above 12 agents both welfare-based mechanisms refuse with the agent
    count, not with a node or terminal count of a graph built inside."""
    assert main(["solve", "--input", _star(tmp_path, agents), "--mechanism", mechanism]) == 3
    assert capsys.readouterr().err == f"error: {agents} agents exceed the welfare cap of 12\n"


def test_oversized_deviation_grid_exits_3_before_it_is_built(tmp_path, capsys):
    """The grid is counted first: a tiny step, or a huge valuation at the
    default step, is refused with the step and the count in the message."""
    from costshare.properties import MAX_GRID_POINTS

    path = _write(tmp_path, "line.json", serialize_instance(fig_line()))  # vmax 10
    for step, count in (("1/1000000", 11_000_001), ("1/20000", 220_001)):
        assert main(["check", "--property", "truthfulness", "--mechanism", "cvm",
                     "--input", path, "--step", step]) == 3
        err = capsys.readouterr().err
        assert f"grid step {step} gives {count} valuations" in err
        assert str(MAX_GRID_POINTS) in err
    doc = json.loads(serialize_instance(fig_line()))
    doc["valuations"]["b"] = "9" * 30
    path = _write(tmp_path, "huge.json", json.dumps(doc))
    assert main(["check", "--property", "individual-rationality", "--mechanism", "rsm",
                 "--input", path]) == 3
    assert f"gives {2 * 10 ** 30 + 1} valuations" in capsys.readouterr().err


def test_check_violation_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "sq.json", serialize_instance(fig_bird_square()))
    code = main(["check", "--property", "truthfulness", "--mechanism", "bird",
                 "--input", path])
    reports = json.loads(capsys.readouterr().out)
    assert code == 1
    assert reports[0]["verdict"] == "violated"
    assert reports[0]["witness"]["agent"] == "b"


def test_check_replays_a_carried_profile(tmp_path, capsys):
    """A document with explicit reports is checked at those reports, which
    is how a recorded budget-balance violation is replayed."""
    inst = fig_relay_recharge()
    agent, rep = relay_recharge_deviation()
    prof = apply_deviation(truthful_profile(inst), agent, rep)
    path = _write(tmp_path, "lie.json", serialize_instance(inst, prof))
    code = main(["check", "--property", "budget-balance", "--mechanism", "rsm",
                 "--input", path])
    reports = json.loads(capsys.readouterr().out)
    assert code == 1
    assert reports[0]["witness"]["collected"] == 6
    assert reports[0]["witness"]["tree_cost"] == 5
    # truthful document on the same instance: balanced
    clean = _write(tmp_path, "clean.json", serialize_instance(inst))
    assert main(["check", "--property", "budget-balance", "--mechanism", "rsm",
                 "--input", clean]) == 0
    capsys.readouterr()


def test_check_generated_corpus_exits_0(capsys):
    code = main(["check", "--property", "budget-balance", "--mechanism", "rsm",
                 "--count", "5", "--seed", "3"])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["instances_checked"] == 5


def test_welfare_ratio_sweep_records_null_for_no_positive_optimum(capsys):
    """An instance whose optimal welfare is not positive has no welfare
    ratio: the sweep records null for it, as bbr does, and keeps going."""
    code = main(["check", "--property", "welfare-ratio", "--mechanism", "rsm",
                 "--agents", "2", "--max-valuation", "3", "--count", "200"])
    assert code == 0
    [report] = json.loads(capsys.readouterr().out)
    values = report["witness"]["values"]
    assert report["verdict"] == "holds"
    assert report["instances_checked"] == len(values) == 200
    assert {"seed": 0, "value": None} in values
    assert any(v["value"] is not None for v in values)


def test_unknown_property_exits_2(capsys):
    assert main(["check", "--property", "nope", "--mechanism", "cvm"]) == 2
    assert main(["demo", "--name", "nope"]) == 2
    capsys.readouterr()


def test_gen_is_deterministic(tmp_path, capsys):
    a = str(tmp_path / "one.json")
    b = str(tmp_path / "two.json")
    assert main(["gen", "--agents", "5", "--seed", "7", "--out", a]) == 0
    assert main(["gen", "--agents", "5", "--seed", "7", "--out", b]) == 0
    capsys.readouterr()
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    from costshare.documents import load_document

    inst = load_document((tmp_path / "one.json").read_text(encoding="utf-8"))[0]
    assert len(inst.agents) == 5


def test_gen_rejects_bad_probability(capsys):
    assert main(["gen", "--edge-probability", "1.5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name", ["bird-manipulation", "impossibility-bb",
                                  "impossibility-bbr", "welfare-ratio-collapse"])
def test_demos_run_clean(name, capsys):
    assert main(["demo", "--name", name]) == 0
    out = capsys.readouterr().out
    assert out.strip()


def test_demo_content_spot_checks(capsys):
    main(["demo", "--name", "bird-manipulation"])
    out = capsys.readouterr().out
    assert "3" in out and "2" in out
    main(["demo", "--name", "impossibility-bbr"])
    out = capsys.readouterr().out
    assert "0" in out


@pytest.mark.parametrize("extra, message", [
    (["--property", "symmetry", "--step", "x"], "malformed number for --step: 'x'"),
    (["--property", "bbr", "--step", "x"], "malformed number for --step: 'x'"),
    (["--property", "symmetry", "--step", "0"], "grid step must be positive"),
    (["--property", "feasibility", "--step=-1/2"], "grid step must be positive"),
    (["--property", "truthfulness", "--count", "0", "--step", "x"],
     "malformed number for --step: 'x'"),
    (["--property", "budget-balance", "--count", "-1"], "--count must be nonnegative"),
    (["--property", "symmetry", "--count", "-1"], "--count must be nonnegative"),
    (["--property", "individual-rationality", "--ir-samples", "-1"],
     "--ir-samples must be nonnegative"),
])
def test_check_options_are_validated_before_any_property_runs(capsys, extra, message):
    """Every property and an empty corpus see the same option rules."""
    assert main(["check", "--mechanism", "cvm", "--count", "1", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
