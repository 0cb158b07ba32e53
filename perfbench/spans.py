"""Spans around the calls into each `abdyn` layer, recorded from outside.

`Tracer.patch()` wraps the public functions of the layer modules (and two
`IntMatrix` methods) in every `abdyn` module namespace that binds them:
`from .x import f` copies the function into the importer, so patching only
the defining module would miss those call sites.  Each call records a span
(name, start, end, parent, document) in memory; the spans are written out
when the benchmark ends.  Layer metrics are derived from the spans of one
traced pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYER_MODULES = ("toroidal", "orbit", "exactalg", "degrees", "criteria",
                 "catalog", "serialize")
METHODS = (("exactalg", "IntMatrix", "rank"), ("exactalg", "IntMatrix", "det"))
# Per-scalar converters: called once per integer of every document, they
# would add more tracing cost than information.
SKIP = {"serialize.int_to_json", "serialize.int_from_json"}
DOC = "cli"   # name of the root span of each document


def _bits(snf_result):
    U, _, V = snf_result
    return max((abs(x).bit_length() for M in (U, V) for row in M.to_rows()
                for x in row), default=0)


# Counts read from return values at the span boundary.
RESULT_COUNTS = {
    "orbit.lll_reduce": len,                         # rows returned
    "orbit.relation_lattice": len,                   # relations kept
    "exactalg.smith_normal_form": _bits,             # max bit length in U, V
    "serialize.dump_json": lambda s: len(s.encode()),  # bytes out
}


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, doc,
    count]; parent is an index into `spans` (or -1)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.doc = None

    # -- recording ------------------------------------------------------------

    def open(self, name):
        """Open a span; returns the stack depth before it, for unwind()."""
        depth = len(self._stack)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.doc, None])
        self._stack.append(len(self.spans) - 1)
        return depth

    def unwind(self, depth):
        """Close spans left open above the given stack depth."""
        while len(self._stack) > depth:
            self.close()

    def close(self, count=None):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = count

    def wrap(self, name, fn):
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            count = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(result)
                return result
            finally:
                # runs on exceptions and on the deadline's interrupt too
                self.close(count)
        return traced

    # -- patching -------------------------------------------------------------

    def patch(self):
        """Wrap every target in every abdyn namespace that binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "abdyn" or n.startswith("abdyn.")]
        targets = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"abdyn.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_") and name not in SKIP:
                    targets[obj] = name
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._set(mod, attr, obj, self.wrap(targets[obj], obj))
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"abdyn.{short}"], cls_name)
            orig = cls.__dict__[meth]
            self._set(cls, meth, orig, self.wrap(f"{short}.{cls_name}.{meth}", orig))

    def _set(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def unpatch(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, doc, count in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "doc": doc,
                                     "count": count}) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, t0, t1, *_rest) in enumerate(spans):
        covered, reach = 0.0, t0
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            c0, c1 = max(spans[c][1], reach), min(spans[c][2], t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((t1 - t0) - covered)
    return out


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls") or name == "cli.docs_timed_out":
        return "count"
    return {"exactalg.smith_normal_form.max_bits": "bits",
            "serialize.bytes_out": "bytes"}.get(name, "ratio")


def _module(name):
    return name.split(".", 1)[0]


def _has_ancestor(spans, i, pred):
    p = spans[i][3]
    while p >= 0:
        if pred(spans[p][0]):
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans, timed_out_docs):
    """Per-layer metrics from the spans of one pass.

    busy_s counts a span only when no ancestor has the same name (for a
    function) or the same module (for a module), so recursion and calls
    within a layer are not counted twice; self_s sums the self times."""
    selfs = self_times(spans)
    busy, calls, self_mod, counts = {}, {}, {}, {}
    for i, s in enumerate(spans):
        name, t0, t1 = s[0], s[1], s[2]
        mod = _module(name)
        self_mod[mod] = self_mod.get(mod, 0.0) + selfs[i]
        if name == DOC:
            continue
        calls[name] = calls.get(name, 0) + 1
        if s[5] is not None:
            counts.setdefault(name, []).append(s[5])
        if not _has_ancestor(spans, i, lambda n, name=name: n == name):
            busy[name] = busy.get(name, 0.0) + (t1 - t0)
        if not _has_ancestor(spans, i, lambda n, mod=mod: _module(n) == mod):
            busy[mod] = busy.get(mod, 0.0) + (t1 - t0)

    kept = sum(counts.get("orbit.relation_lattice", []))
    returned = sum(counts.get("orbit.lll_reduce", []))
    out = {}
    for mod in ("toroidal", "orbit", "exactalg"):
        out[f"{mod}.busy_s"] = busy.get(mod, 0.0)
        out[f"{mod}.self_s"] = self_mod.get(mod, 0.0)
    for name in ("toroidal.delaunay_fan", "toroidal.validate_fan",
                 "toroidal.section_extends", "toroidal.nakamura_data",
                 "orbit.lll_reduce", "orbit.relation_lattice",
                 "orbit.real_dual_coords", "exactalg.char_poly",
                 "exactalg.smith_normal_form", "exactalg.kernel_lattice",
                 "exactalg.cyclotomic_split", "exactalg.eigenvalue_moduli",
                 "exactalg.IntMatrix.rank", "exactalg.IntMatrix.det",
                 "degrees.semiabelian_degrees",
                 "criteria.split_invariant_subfamily",
                 "criteria.restricted_char_poly",
                 "criteria.decide_regularizable", "catalog.build_case_matrices",
                 "serialize.validate_schema", "serialize.load_json",
                 "serialize.dump_json"):
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
    for name in ("toroidal.canonical_cone", "orbit.lll_reduce",
                 "exactalg.char_poly", "exactalg.smith_normal_form",
                 "exactalg.IntMatrix.rank", "serialize.validate_schema"):
        out[f"{name}.calls"] = calls.get(name, 0)
    out["orbit.relation_yield"] = kept / returned if returned else 0.0
    out["exactalg.smith_normal_form.max_bits"] = max(
        counts.get("exactalg.smith_normal_form", []), default=0)
    out["serialize.bytes_out"] = sum(counts.get("serialize.dump_json", []))
    out["cli.self_s"] = self_mod.get(DOC, 0.0)
    out["cli.docs_timed_out"] = timed_out_docs
    return out
