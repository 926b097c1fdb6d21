"""Span tracer for the benchmark's traced runs.

``Tracer.install()`` replaces every public function of the plethys layers
(and the ring products of ``SymFunc`` and ``WreathSymFunc``) with a wrapper
that records one span per call: name, start, end and parent span.  Spans
are kept in flat arrays in memory and written out once, at the end of the
run, by ``Tracer.dump``.  ``layer_metrics`` turns a dumped trace into the
benchmark's per-layer metrics.

Importing this module changes nothing in plethys; only ``install`` does.
No file under ``src/`` is edited: the wrapping happens here, at run time.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("verify", "graphoracle", "series", "symfunc", "wreath", "groups", "cli")

# ring products and serializers are methods, so they are named explicitly;
# __rmul__ is its own class binding even though it aliases __mul__
METHODS = {
    "symfunc": ("SymFunc", ("__mul__", "__rmul__", "to_json_obj")),
    "wreath": ("WreathSymFunc", ("__mul__", "__rmul__", "to_json_obj")),
}

# partitions_of is wrapped in functools.lru_cache
FUNCTION_TYPES = (types.FunctionType, functools._lru_cache_wrapper)

MUL_SPANS = ("symfunc.SymFunc.__mul__", "symfunc.SymFunc.__rmul__")
WREATH_MUL_SPANS = ("wreath.WreathSymFunc.__mul__", "wreath.WreathSymFunc.__rmul__")
SERIALIZE_SPANS = (
    "symfunc.SymFunc.to_json_obj",
    "wreath.WreathSymFunc.to_json_obj",
    "graphoracle.canon_to_json_obj",
)
SUITE_SPANS = {
    "verify.cyclic_s": ("verify.run_cyclic",),
    "verify.necklaces_s": ("verify.run_necklaces",),
    "verify.theorem_s": ("verify.run_theorem",),
    "verify.negative-dih_s": ("verify.run_negative_dih",),
    "verify.closed_suites_s": ("verify.run_bb", "verify.run_generating", "verify.run_deg1"),
}


def _term_count(value) -> int:
    return sum(1 for _ in value.terms())


def plethys_bindings():
    """Every (namespace, key, value) through which plethys code can reach a
    function: module globals, dicts held in module globals (such as the
    suite table in ``verify``) and the dicts of classes defined there."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name != "plethys" and not name.startswith("plethys."):
            continue
        space = vars(mod)
        for key, value in list(space.items()):
            out.append((space, key, value))
            if isinstance(value, dict):
                out.extend((value, k, v) for k, v in list(value.items()))
            elif isinstance(value, type) and value.__module__ == name:
                out.extend((value, k, v) for k, v in list(vars(value).items()))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._paused: list[bool] = []
        self.counts = {
            "symfunc.mul_term_pairs": 0,
            "symfunc.peak_terms": 0,
            "graphoracle.census_reuse_calls": 0,
            "graphoracle.census_classes": 0,
            "groups.closure_elements": 0,
        }
        self._census_keys: set = set()

    # -- recording -----------------------------------------------------

    def _wrap(self, span_name, fn, after=None):
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        paused = self._paused

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if paused:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                # hooks call plethys (terms() sorts by a traced key), so
                # their calls must not be recorded as spans
                paused.append(True)
                try:
                    after(args, result)
                finally:
                    paused.pop()
            return result

        return traced

    def _after_symfunc(self, args, result):
        if isinstance(result, self._symfunc):
            self.counts["symfunc.peak_terms"] = max(
                self.counts["symfunc.peak_terms"], _term_count(result)
            )

    def _after_mul(self, args, result):
        left, right = args
        pairs = _term_count(left)
        if isinstance(right, self._symfunc):
            pairs *= _term_count(right)
        self.counts["symfunc.mul_term_pairs"] += pairs
        self._after_symfunc(args, result)

    def _after_enumerate(self, args, result):
        # the key mirrors the census cache key but is built from the call
        # arguments, so it does not depend on how plethys caches
        from plethys.graphoracle import DEFAULT_BUDGET

        spec, family, n = args[:3]
        budget = args[3] if len(args) > 3 and args[3] is not None else DEFAULT_BUDGET
        key = (json.dumps(spec.to_json_obj(), sort_keys=True), family, n, repr(budget))
        if key in self._census_keys:
            self.counts["graphoracle.census_reuse_calls"] += 1
        else:
            self._census_keys.add(key)
            self.counts["graphoracle.census_classes"] += len(result)

    def _after_closure(self, args, result):
        self.counts["groups.closure_elements"] += len(result)

    def install(self):
        """Wrap the public functions of every layer and rebind each binding
        that refers to one of them."""
        self._symfunc = sys.modules["plethys.symfunc"].SymFunc
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"plethys.{layer}"]
            for key, fn in vars(mod).items():
                if key.startswith("_") or not isinstance(fn, FUNCTION_TYPES):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                after = None
                if layer == "symfunc":
                    after = self._after_symfunc
                if key == "enumerate_decorated":
                    after = self._after_enumerate
                elif key == "closure":
                    after = self._after_closure
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{key}", fn, after))
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(sys.modules[f"plethys.{layer}"], cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                after = self._after_mul if f"{layer}.{cls_name}.{meth}" in MUL_SPANS else None
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn, after))
        for space, key, value in plethys_bindings():
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                if isinstance(space, dict):
                    space[key] = hit[1]
                else:
                    setattr(space, key, hit[1])
        left = [
            key
            for space, key, value in plethys_bindings()
            if id(value) in wrapped and wrapped[id(value)][0] is value
        ]
        if left:
            raise RuntimeError(f"unpatched bindings remain: {sorted(set(left))}")

    def dump(self, path):
        with open(path, "wb") as fh:
            header = json.dumps({"names": self.names, "spans": len(self.start), "counts": self.counts})
            fh.write(header.encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def layer_metrics(path) -> dict:
    """Per-layer metrics of one traced run.

    Times of named functions are inclusive but count only outermost calls,
    so recursion is not counted twice.  A layer's self time is the summed
    duration of its spans minus the time their direct child spans cover.
    """
    header, (name, parent, start, end) = load(path)
    names = header["names"]
    idx = {s: i for i, s in enumerate(names)}
    n_names = len(names)
    calls = [0] * n_names
    outer_s = [0.0] * n_names
    self_s = {layer: 0.0 for layer in LAYERS}
    layer_of = [s.split(".", 1)[0] for s in names]
    child_cover = [0.0] * len(start)
    active = [0] * n_names
    stack: list[int] = []

    def nid(*spans):
        return [idx[s] for s in spans if s in idx]

    tree_id = nid("series.tree_fixed_point")
    enum_id = nid("graphoracle.enumerate_decorated")
    pleth_id = nid("symfunc.plethysm")
    canon_id = nid("graphoracle.canonical_form")
    tree_plethysm = canon_in_enum = 0

    for i in range(len(start)):
        p = parent[i]
        while stack and stack[-1] != p:
            active[name[stack.pop()]] -= 1
        k = name[i]
        dur = end[i] - start[i]
        calls[k] += 1
        if not active[k]:
            outer_s[k] += dur
        if p >= 0:
            child_cover[p] += dur
        if pleth_id and k == pleth_id[0] and tree_id and active[tree_id[0]]:
            tree_plethysm += 1
        if canon_id and k == canon_id[0] and enum_id and active[enum_id[0]]:
            canon_in_enum += 1
        active[k] += 1
        stack.append(i)
    for i in range(len(start)):
        self_s[layer_of[name[i]]] += end[i] - start[i] - child_cover[i]

    def total_s(*spans):
        return sum(outer_s[i] for i in nid(*spans))

    def total_calls(*spans):
        return sum(calls[i] for i in nid(*spans))

    counts = header["counts"]
    m = {key: total_s(*spans) for key, spans in SUITE_SPANS.items()}
    m.update(
        {
            "graphoracle.enumerate_s": total_s("graphoracle.enumerate_decorated"),
            "graphoracle.enumerate_calls": total_calls("graphoracle.enumerate_decorated"),
            "graphoracle.census_reuse_calls": counts["graphoracle.census_reuse_calls"],
            "graphoracle.census_classes": counts["graphoracle.census_classes"],
            "graphoracle.char_s": total_s("graphoracle.char_of_census"),
            "graphoracle.canonical_form_calls": total_calls("graphoracle.canonical_form"),
            "graphoracle.canonical_form_s": total_s("graphoracle.canonical_form"),
            "graphoracle.classes_per_canonical_call": (
                counts["graphoracle.census_classes"] / canon_in_enum if canon_in_enum else 0.0
            ),
            "symfunc.mul_calls": total_calls(*MUL_SPANS),
            "symfunc.mul_s": total_s(*MUL_SPANS),
            "symfunc.mul_term_pairs": counts["symfunc.mul_term_pairs"],
            "symfunc.plethysm_calls": total_calls("symfunc.plethysm"),
            "symfunc.plethysm_s": total_s("symfunc.plethysm"),
            "symfunc.peak_terms": counts["symfunc.peak_terms"],
            "series.tree_fixed_point_s": total_s("series.tree_fixed_point"),
            "series.tree_plethysm_calls": tree_plethysm,
            "series.necklace_series_s": total_s("series.necklace_series"),
            "series.b1_series_s": total_s("series.b1_series"),
            "wreath.specialize_s2_s": total_s("wreath.specialize_s2"),
            "wreath.dih_series_closed_s": total_s("wreath.dih_series_closed"),
            "wreath.mul_calls": total_calls(*WREATH_MUL_SPANS),
            "groups.closure_s": total_s("groups.closure"),
            "groups.closure_elements": counts["groups.closure_elements"],
            "cli.serialize_s": total_s(*SERIALIZE_SPANS),
            "trace.spans": len(start),
        }
    )
    m.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    return m
