"""Outside-in tracing of the costshare public calls.

The tracer wraps public functions and methods from outside the library and
records one span per call: layer name, start, end, parent span and op id.
Spans stay in memory (flat arrays) until the run writes them out. Self time
of a span is its duration minus the time its child spans cover; the tracer
accumulates it per layer as spans close.

A module-level function is rebound in every ``costshare`` module that holds
it, because ``from .model import induced_graph`` copies the binding into the
importing module. Methods are replaced on their class, which also catches
calls the library makes through ``self``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import weakref
from array import array
from collections import Counter

# (layer, owner, attribute). The owner is a module name or "Class@module".
# The entries of properties.MECHANISMS are patched separately under the
# layers named in MECHANISM_LAYERS.
TARGETS = (
    ("steiner.lookup", "SteinerCache@costshare.steiner", "solver"),
    ("steiner.apsp", "SteinerSolver@costshare.steiner", "__init__"),
    ("steiner.cost_table", "SteinerSolver@costshare.steiner", "cost_table"),
    ("steiner.tree", "SteinerSolver@costshare.steiner", "tree_for_mask"),
    ("steiner.contract", "costshare.steiner", "contract_into_source"),
    ("welfare.recurrence", "costshare.welfare", "compute_delta_table"),
    ("rsm.stage", "costshare.rsm", "stage_solve"),
    ("baselines.prim", "costshare.baselines", "prim_shares"),
    ("model.induced_graph", "costshare.model", "induced_graph"),
    ("model.profile", "costshare.model", "apply_deviation"),
    ("model.profile", "costshare.model", "truthful_profile"),
    ("allocation.to_json", "Allocation@costshare.allocation", "to_json"),
    ("documents.load", "costshare.documents", "load_document"),
    ("cli.main", "costshare.cli", "main"),
    ("properties.check", "costshare.properties", "check_truthfulness"),
    ("properties.check", "costshare.properties", "check_individual_rationality"),
    ("properties.check", "costshare.properties", "check_budget_balance"),
)
MECHANISM_LAYERS = {"cvm": "cvm.run", "rsm": "rsm.run", "bird": "baselines.run"}


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_id: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.dp_runs = 0
        # Distinct (root, terminals) DP keys per solver object. Weak keys, so
        # a collected solver can never alias a later one the way id() can.
        self._dp_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._wrapped: dict = {}  # original function -> its wrapper
        self._undo: list = []  # (namespace setter, key, original)
        for layer in [t[0] for t in TARGETS] + list(MECHANISM_LAYERS.values()):
            self.layer_id(layer)

    def layer_id(self, layer: str) -> int:
        lid = self._layer_id.get(layer)
        if lid is None:
            lid = self._layer_id[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    def wrap(self, layer: str, fn, on_call=None):
        lid = self.layer_id(layer)
        clock = time.perf_counter_ns
        name, start, end, parent, op = self.name, self.start, self.end, self.parent, self.op
        stack, child_ns, self_ns, calls = self._stack, self._child_ns, self.self_ns, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(start)
            name.append(lid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0)
            stack.append(idx)
            child_ns.append(0)
            calls[lid] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[lid] += 1
                raise
            finally:
                t = clock()
                end[idx] = t
                dur = t - start[idx]
                stack.pop()
                self_ns[lid] += dur - child_ns.pop()
                if child_ns:
                    child_ns[-1] += dur

        return traced

    def _count_dp(self, solver, root_label, terminal_labels, mask=None):
        if mask == 0:
            return  # tree_for_mask answers the empty subset without a DP run
        keys = self._dp_keys.get(solver)
        if keys is None:
            keys = self._dp_keys[solver] = set()
        key = (root_label, tuple(terminal_labels))
        if key not in keys:
            keys.add(key)
            self.dp_runs += 1

    def install(self) -> None:
        """Patch every target. Must run after costshare is imported; undo
        with uninstall(). Spans and counts survive reinstalling."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "costshare" or n.startswith("costshare.")}
        for layer, owner, attr in TARGETS:
            if "@" in owner:
                cls_name, mod_name = owner.split("@")
                cls = getattr(modules[mod_name], cls_name)
                hook = self._count_dp if attr in ("cost_table", "tree_for_mask") else None
                self._set(cls, attr, self._wrapper(layer, getattr(cls, attr), hook))
                continue
            original = getattr(modules[owner], attr)
            self._rebind(modules, original, self._wrapper(layer, original))
        mechanisms = modules["costshare.properties"].MECHANISMS
        for key, layer in MECHANISM_LAYERS.items():
            original = mechanisms[key]
            wrapped = self._wrapper(layer, original)
            self._undo.append((mechanisms.__setitem__, key, original))
            mechanisms[key] = wrapped
            self._rebind(modules, original, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    def _wrapper(self, layer, fn, on_call=None):
        if fn not in self._wrapped:
            self._wrapped[fn] = self.wrap(layer, fn, on_call)
        return self._wrapped[fn]

    def _set(self, namespace, attr, value) -> None:
        self._undo.append((functools.partial(setattr, namespace), attr,
                           getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def _rebind(self, modules, original, wrapped) -> None:
        hits = 0
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{original.__qualname__} is bound in no costshare module")

    def count(self, layer: str) -> int:
        return self.calls[self._layer_id[layer]]

    def self_s(self, layer: str) -> float:
        return self.self_ns[self._layer_id[layer]] / 1e9

    def rejected(self, layer: str) -> int:
        return self.errors[self._layer_id[layer]]

    def total_self_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def nested_in(self, layer: str, parent_layer: str) -> int:
        """Spans of ``layer`` whose direct parent is a ``parent_layer`` span."""
        lid, pid = self._layer_id[layer], self._layer_id[parent_layer]
        name, parent = self.name, self.parent
        return sum(1 for i in range(len(name))
                   if name[i] == lid and parent[i] >= 0 and name[parent[i]] == pid)

    def write(self, path) -> None:
        """Spans, gzip-compressed: a JSON header naming the layers, then one
        line per span: layer index, start ns, end ns, parent span index (-1
        for none) and op id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"layers": self.layers, "spans": len(self.name)}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.op):
                fh.write("%d %d %d %d %d\n" % row)
