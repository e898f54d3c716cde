"""Instance document parsing and serialization."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from costshare import (AgentReport, ValidationError, apply_deviation,
                       serialize_instance, truthful_profile)
from costshare.cli import main
from costshare.documents import (MAX_EXPONENT, MAX_NUMBER_DIGITS, MAX_NUMBER_TEXT,
                                 load_document)
from costshare.fixtures import fig_line, fig_triangle


def _doc(**overrides):
    base = {
        "source": "s",
        "agents": ["a", "b"],
        "edges": [
            {"u": "s", "v": "a", "cost": 2},
            {"u": "s", "v": "b", "cost": 4},
            {"u": "a", "v": "b", "cost": "3/2"},
        ],
        "valuations": {"a": 3, "b": "1/2"},
    }
    base.update(overrides)
    return json.dumps(base)


def test_parse_instance_reads_exact_numbers():
    inst = load_document(_doc())[0]
    assert inst.graph.cost("a", "b") == Fraction(3, 2)
    assert inst.valuations["b"] == Fraction(1, 2)


def test_parse_rejects_floats_with_guidance():
    bad = _doc(edges=[{"u": "s", "v": "a", "cost": 1.5},
                      {"u": "s", "v": "b", "cost": 1}])
    with pytest.raises(ValidationError, match='use an int or a string like "3/2"'):
        load_document(bad)


def test_parse_rejects_garbage_and_missing_fields():
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_document("{nope")
    with pytest.raises(ValidationError, match="missing the 'source' field"):
        load_document(json.dumps({"agents": [], "edges": [], "valuations": {}}))


def test_load_document_defaults_missing_reports_to_truthful():
    doc = json.loads(_doc())
    doc["reports"] = {"b": {"edges": [["a", "b"]], "valuation": 0}}
    inst, prof = load_document(json.dumps(doc))
    assert prof.reports["a"].edges == inst.true_edges_of("a")
    assert prof.valuation("b") == 0
    assert prof.reports["b"].edges == frozenset({("a", "b")})


def test_serialize_round_trips_and_is_deterministic():
    inst = fig_triangle()
    text = serialize_instance(inst)
    again = load_document(text)[0]
    assert again.graph == inst.graph
    assert again.valuations == inst.valuations
    assert serialize_instance(again) == text
    assert text.endswith("\n")


def test_serialize_carries_reports():
    inst = fig_triangle()
    prof = truthful_profile(inst)
    text = serialize_instance(inst, prof)
    inst2, prof2 = load_document(text)
    assert prof2.reports == prof.reports
    assert inst2.graph == inst.graph


def test_serialize_rejects_a_profile_of_another_instance():
    """A foreign profile would write its reports into this instance's
    document, where they read as a different, valid profile."""
    triangle = fig_triangle()
    hidden = apply_deviation(truthful_profile(triangle), "b", AgentReport(frozenset(), 3))
    with pytest.raises(ValidationError, match="belongs to another instance"):
        serialize_instance(fig_line(), hidden)


def test_non_string_labels_are_rejected():
    with pytest.raises(ValidationError, match="source must be a string label"):
        load_document(_doc(source=5))
    with pytest.raises(ValidationError, match="edge endpoint must be a string label"):
        load_document(_doc(edges=[{"u": "s", "v": 1, "cost": 2}]))
    doc = json.loads(_doc())
    for bad in ([["a", 1]], ["sa"], [["s", "a", "b"]], "sa", [{"u": "s"}]):
        doc["reports"] = {"a": {"edges": bad, "valuation": 1}}
        with pytest.raises(ValidationError, match="expected pairs of labels"):
            load_document(json.dumps(doc))


@pytest.mark.parametrize("bad", [None, [1], {"n": 1}, True])
def test_non_numbers_are_not_called_floats(bad):
    with pytest.raises(ValidationError, match="malformed number") as info:
        load_document(_doc(valuations={"a": bad, "b": 1}))
    assert "float" not in str(info.value)


@pytest.mark.parametrize("bad", ["1_000", "1_0/3", "1_0e1_0"])
def test_digit_group_underscores_are_malformed_on_every_python(bad):
    with pytest.raises(ValidationError, match="malformed number for valuation"):
        load_document(_doc(valuations={"a": bad, "b": 1}))


def test_number_size_is_capped_before_it_is_built():
    big = "9" * (MAX_NUMBER_DIGITS + 1)
    for bad in ("1e99999", "0e99999", "1e-99999", "1" + "e" + "9" * 60,
                big, f"1/{big}", int(big), "1" * 5000):
        t0 = time.perf_counter()
        with pytest.raises(ValidationError, match="too large|out of range|characters long"):
            load_document(_doc(valuations={"a": bad, "b": 1}))
        assert time.perf_counter() - t0 < 0.5
    edge = "9" * MAX_NUMBER_DIGITS
    inst = load_document(_doc(valuations={"a": edge, "b": f"1/{edge}"}))[0]
    assert inst.valuations["a"] == int(edge)
    assert load_document(_doc(valuations={"a": "25e-1", "b": 0}))[0].valuations["a"] == 2.5


def test_number_text_length_cap_is_inclusive():
    at_cap = "0" * (MAX_NUMBER_TEXT - 1) + "7"
    assert load_document(_doc(valuations={"a": at_cap, "b": 1}))[0].valuations["a"] == 7
    with pytest.raises(ValidationError, match=f"{MAX_NUMBER_TEXT + 1} characters long"):
        load_document(_doc(valuations={"a": "0" + at_cap, "b": 1}))


def test_exponent_cap_is_inclusive():
    """An exponent at the cap passes its own check and is then refused for
    the value's size; one more is refused for its range."""
    with pytest.raises(ValidationError, match="too large"):
        load_document(_doc(valuations={"a": f"1e{MAX_EXPONENT}", "b": 1}))
    with pytest.raises(ValidationError, match="out of range"):
        load_document(_doc(valuations={"a": f"1e{MAX_EXPONENT + 1}", "b": 1}))


def test_numerator_and_denominator_caps_are_exclusive():
    limit = 10 ** MAX_NUMBER_DIGITS
    for ok, want in ((limit - 1, limit - 1), (str(limit - 1), limit - 1),
                     (f"1/{limit - 1}", Fraction(1, limit - 1))):
        assert load_document(_doc(valuations={"a": ok, "b": 1}))[0].valuations["a"] == want
    for bad in (limit, str(limit), f"1/{limit}"):
        with pytest.raises(ValidationError, match="too large"):
            load_document(_doc(valuations={"a": bad, "b": 1}))


@pytest.mark.parametrize("entry", [["s", "a", 2], {"u": "s", "v": "a"}])
def test_malformed_edge_entry_exits_2(tmp_path, capsys, entry):
    path = tmp_path / "bad.json"
    path.write_text(_doc(edges=[entry]), encoding="utf-8")
    assert main(["solve", "--input", str(path), "--mechanism", "cvm"]) == 2
    err = capsys.readouterr().err
    assert "malformed edge entry" in err and "Traceback" not in err


def test_oversized_json_ints_are_a_validation_error():
    text = _doc().replace('"a": 3', '"a": ' + "7" * 5000)
    with pytest.raises(ValidationError):
        load_document(text)
    with pytest.raises(ValidationError):
        load_document("[" * 100000)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8) | st.sampled_from(["s", "a", "b", "3/2", "1e999", "-1", "0.5"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["s", "a", "b", "u", "v", "cost", "edges",
                                       "valuation"]) | st.text(max_size=4),
                      inner, max_size=4),
    max_leaves=12)
_label = st.sampled_from(["s", "a", "b", "c"]) | _json
_edge = st.fixed_dictionaries({"u": _label, "v": _label, "cost": _json})
_report = st.fixed_dictionaries({"edges": st.lists(st.lists(_label, max_size=3), max_size=3)
                                 | _json, "valuation": _json})
_near_valid = st.fixed_dictionaries(
    {"source": _label,
     "agents": st.lists(_label, max_size=3) | _json,
     "edges": st.lists(_edge, max_size=4) | _json,
     "valuations": st.dictionaries(st.sampled_from(["a", "b", "c", "s"]), _json, max_size=3)
     | _json},
    optional={"reports": st.dictionaries(st.sampled_from(["a", "b", "c"]), _report,
                                         max_size=2) | _json})


@settings(max_examples=200, deadline=None)
@given(st.one_of(_near_valid.map(json.dumps), _json.map(json.dumps), st.text(max_size=40)))
def test_load_document_fuzz_raises_only_validation_errors(text):
    try:
        load_document(text)
    except ValidationError:
        pass
