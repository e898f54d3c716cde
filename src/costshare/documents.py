"""JSON instance documents.

Schema::

    {
      "source": "s",
      "agents": ["a", "b"],
      "edges": [{"u": "s", "v": "a", "cost": 2}, ...],
      "valuations": {"a": 3, "b": "3/2"},
      "reports": {"a": {"edges": [["s", "a"]], "valuation": "5/2"}}   # optional
    }

Numbers are integers or exact strings ("3/2", "0.5"); bare JSON floats are
rejected because they cannot represent the intended rational exactly, and
digit-group underscores ("1_000") because only some Python versions read them.
Numbers are also capped: in lowest terms, numerator and denominator may have
at most MAX_NUMBER_DIGITS decimal digits, a number string may be at most
MAX_NUMBER_TEXT characters long, and its decimal exponent at most
MAX_EXPONENT in size. Exact arithmetic slows down without bound as numbers
grow, and the exponent is checked before any value is built, so "1e99999"
is refused at once. Node labels are strings, and no key may repeat within
one JSON object.
Serialization is deterministic (sorted keys and edge lists), so equal
instances produce byte-identical documents. Witnesses write reports in the
reports field's form, so they replay through ``load_document``.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from .model import (AgentReport, Instance, ReportProfile, ValidationError,
                    as_value, edge_key, run_profile, truthful_profile,
                    value_to_json)

MAX_NUMBER_DIGITS = 30
MAX_NUMBER_TEXT = 4 * MAX_NUMBER_DIGITS
MAX_EXPONENT = MAX_NUMBER_TEXT + MAX_NUMBER_DIGITS
_NUMBER_LIMIT = 10 ** MAX_NUMBER_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+)\s*\Z")


def parse_number(x, what: str):
    """An exact document number (int or exact string) within the caps."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValidationError(
            f"malformed number for {what}: {x!r} (use an int or a string like \"3/2\")")
    if isinstance(x, str):
        if len(x) > MAX_NUMBER_TEXT:
            raise ValidationError(
                f"number for {what} is {len(x)} characters long; "
                f"at most {MAX_NUMBER_TEXT} are accepted")
        m = _EXPONENT.search(x)
        if m is not None:
            if abs(int(m.group(1))) > MAX_EXPONENT:
                raise ValidationError(
                    f"exponent of {x!r} for {what} is out of range "
                    f"(at most {MAX_EXPONENT} in size)")
    try:
        v = as_value(x)
    except ValidationError as exc:
        raise ValidationError(f"malformed number for {what}: {x!r}") from exc
    if abs(v.numerator) >= _NUMBER_LIMIT or v.denominator >= _NUMBER_LIMIT:
        raise ValidationError(
            f"number for {what} is too large: numerator and denominator may "
            f"have at most {MAX_NUMBER_DIGITS} digits")
    return v


def _label(x, what: str) -> str:
    if not isinstance(x, str):
        raise ValidationError(f"{what} must be a string label, got {x!r}")
    return x


def _distinct_keys(pairs: list) -> dict:
    """A JSON object, refused when a key repeats: json alone keeps the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValidationError(f"the key {key!r} is repeated in one JSON object")
    return obj


def _parse_document(text: str) -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_distinct_keys)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"document is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"document could not be parsed: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    for field in ("source", "agents", "edges", "valuations"):
        if field not in doc:
            raise ValidationError(f"document is missing the {field!r} field")
    return doc


def _instance_from(doc: dict) -> Instance:
    agents = doc["agents"]
    if not isinstance(agents, list) or not all(isinstance(a, str) for a in agents):
        raise ValidationError("agents must be a list of labels")
    edges = {}
    if not isinstance(doc["edges"], list):
        raise ValidationError("edges must be a list")
    for item in doc["edges"]:
        if not isinstance(item, dict) or not {"u", "v", "cost"} <= item.keys():
            raise ValidationError(f"malformed edge entry: {item!r}")
        k = edge_key(_label(item["u"], "edge endpoint"), _label(item["v"], "edge endpoint"))
        if k in edges:
            raise ValidationError(f"duplicate edge {k}")
        edges[k] = parse_number(item["cost"], f"cost of {k}")
    if not isinstance(doc["valuations"], dict):
        raise ValidationError("valuations must be an object")
    valuations = {a: parse_number(v, f"valuation of {a!r}")
                  for a, v in doc["valuations"].items()}
    return Instance(_label(doc["source"], "source"), agents, edges, valuations)


def load_document(text: str) -> tuple[Instance, ReportProfile]:
    """Parse an instance document together with its report profile.

    When the optional reports field is present it overrides the listed
    agents' reports; agents not mentioned report truthfully. Without the
    field the profile is the truthful one.
    """
    doc = _parse_document(text)
    instance = _instance_from(doc)
    profile = truthful_profile(instance)
    raw = doc.get("reports")
    if raw is None:
        return instance, profile
    if not isinstance(raw, dict):
        raise ValidationError("reports must be an object")
    reports = dict(profile.reports)
    for i, entry in raw.items():
        if i not in instance.agents:
            raise ValidationError(f"report for unknown agent {i!r}")
        if not isinstance(entry, dict) or not {"edges", "valuation"} <= entry.keys():
            raise ValidationError(f"malformed report for agent {i!r}")
        pairs = entry["edges"]
        if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
                for p in pairs):
            raise ValidationError(
                f"malformed edge list in report for {i!r}: expected pairs of labels")
        declared = frozenset(edge_key(u, v) for u, v in pairs)
        reports[i] = AgentReport(declared, parse_number(entry["valuation"],
                                                        f"reported valuation of {i!r}"))
    return instance, ReportProfile(instance, reports)


def report_to_json(report: AgentReport) -> dict:
    """The document form of one agent's report."""
    return {"edges": [list(e) for e in sorted(report.edges)],
            "valuation": value_to_json(report.valuation)}


def lies_to_json(profile: ReportProfile) -> dict:
    """The document form of every report that differs from the truthful
    one, keyed by agent in label order."""
    inst = profile.instance
    return {i: report_to_json(r) for i, r in sorted(profile.reports.items())
            if r.edges != inst.true_edges_of(i) or r.valuation != inst.valuations[i]}


def serialize_instance(instance: Instance, profile: ReportProfile | None = None) -> str:
    """Deterministic JSON text for an instance (optionally with reports).
    Errors when the profile was made for another instance."""
    doc = {
        "source": instance.source,
        "agents": sorted(instance.agents),
        "edges": [{"u": u, "v": v, "cost": value_to_json(c)}
                  for (u, v), c in sorted(instance.graph.edges().items())],
        "valuations": {a: value_to_json(v)
                       for a, v in sorted(instance.valuations.items())},
    }
    lies = {} if profile is None else lies_to_json(run_profile(instance, profile))
    if lies:
        doc["reports"] = lies
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
