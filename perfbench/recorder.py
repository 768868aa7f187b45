"""The traced run's recorder: spans around calls into the library's
public functions, recorded from outside the library.

`install(recorder)` wraps each function in LAYERS.  A module-level
function is rebound in every feyngraph module namespace that holds it;
a method is wrapped on the class that defines it.  A span records its
name, start, end, parent span and operation id; spans stay in memory in
flat arrays and `Recorder.write` saves them when the process ends.
`Recorder.metrics()` gives the per-layer metrics of BENCHMARK.json:

- `<layer>.calls`: calls of the layer's function;
- `<layer>.self_s`: span time minus the time of its child spans;
- `<layer>.total_s`: span time, children included;
- counts taken from the results at the boundary (labelings, classes,
  decorations, instances, distinct keys, ...) and ratios of them.

`graphs.refine.calls` and the candidate and matching counts come from
counting wrappers that record no span, so their time stays in the self
time of the span that called them.  A hook whose function no longer
exists is skipped and its metrics read 0.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

# (layer name, module, attribute or (class, method), kind, after-hook)
# kind: "span" records a span; "count" only counts calls.
LAYERS = [
    ("graphs.canonical_labelings", "graphs", "canonical_labelings", "span",
     lambda rec, r, a: rec.add("graphs.canonical_labelings.labelings",
                               len(r[1]))),
    ("graphs.refine", "graphs", "_refine", "count", None),
    ("graphs.canonical_form", "graphs", "canonical_form", "span", None),
    ("graphs.is_isomorphic", "graphs", "is_isomorphic", "span", None),
    ("graphs.FeynmanGraph", "graphs", ("FeynmanGraph", "__init__"), "span",
     None),
    ("substitution.enumerate_x_graphs", "substitution", "enumerate_x_graphs",
     "span", lambda rec, r, a: rec.add(
         "substitution.enumerate_x_graphs.classes", len(r))),
    ("substitution.enumerate_x_graphs.matchings", "substitution",
     "_graph_from_matching", "count", None),
    ("substitution.substitute", "substitution", "substitute", "span", None),
    ("etale.check_etale", "etale", "check_etale", "span", None),
    ("etale.glue_ports", "etale", "glue_ports", "span", None),
    ("species.evaluate_species", "species", "evaluate_species", "span",
     lambda rec, r, a: rec.add("species.evaluate_species.decorations",
                               len(r))),
    ("species.check_circuit_axioms", "species", "check_circuit_axioms",
     "span", lambda rec, r, a: rec.add(
         "species.check_circuit_axioms.instances", r["checked"])),
    ("species.check_modular_axioms", "species", "check_modular_axioms",
     "span", lambda rec, r, a: rec.add(
         "species.check_modular_axioms.instances", r["checked"])),
    ("monads.telem_key", "monads", "telem_key", "span",
     lambda rec, r, a: rec.keys.add(r)),
    ("monads.elements", "monads", ("TSpecies", "elements"), "span",
     lambda rec, r, a: rec.add("monads.elements.kept", len(r))),
    ("monads.elements", "monads", ("LSpecies", "elements"), "span",
     lambda rec, r, a: rec.add("monads.elements.kept", len(r))),
    ("monads.elements", "monads", ("DSpecies", "elements"), "span",
     # D S adds formal units and drops nothing: every candidate is kept
     lambda rec, r, a: (rec.add("monads.elements.kept", len(r)),
                        rec.add("monads.elements.candidates", len(r)))),
    ("monads.elements.candidates", "monads", ("TSpecies", "key"), "count",
     None),
    ("monads.elements.candidates", "monads", ("LSpecies", "key"), "count",
     None),
    ("monads.mu_T", "monads", "mu_T", "span", None),
    ("monads.law_DT", "monads", "law_DT", "span", None),
    ("monads.law_LT", "monads", "law_LT", "span", None),
    ("monads.delete_vertices", "monads", "delete_vertices", "span", None),
    ("monads.hom_etale", "monads", "hom_etale", "span", None),
    ("monads.FreeCircuitAlgebra.box", "monads", ("FreeCircuitAlgebra", "box"),
     "span", None),
    ("monads.FreeCircuitAlgebra.zeta", "monads",
     ("FreeCircuitAlgebra", "zeta"), "span", None),
    ("monads.check_beck", "monads", "check_beck", "span",
     lambda rec, r, a: rec.add("monads.check_beck.instances", r["checked"])),
    ("monads.yang_baxter_sweep", "monads", "yang_baxter_sweep", "span",
     lambda rec, r, a: rec.add("monads.yang_baxter_sweep.instances",
                               r["checked"])),
    ("nerve.nerve", "nerve", "nerve", "span", None),
    ("nerve.make_kleisli", "nerve", "make_kleisli", "span", None),
    ("nerve.restrict_kleisli", "nerve", "restrict_kleisli", "span", None),
    ("nerve.kleisli_deletion_homs", "nerve", "kleisli_deletion_homs", "span",
     None),
    ("nerve.check_segal", "nerve", "check_segal", "span",
     lambda rec, r, a: rec.add("nerve.check_segal.graphs",
                               len(r["per_graph"]))),
    ("nerve.presheaf_maps", "nerve", "presheaf_maps", "span", None),
    ("nerve.algebra_morphisms", "nerve", "algebra_morphisms", "span", None),
    ("io.graph_to_json", "io", "graph_to_json", "span", None),
    ("io.graph_from_json", "io", "graph_from_json", "span", None),
]

# Per-layer metrics, in BENCHMARK.json order.  Each maps to how it is
# derived: (field, layer) gives the calls, self_s or total_s of the
# layer's spans, or else the count "<layer>.<field>"; ("ratio", numerator,
# denominator); ("distinct",) the distinct telem_key results; ("self_sum",
# layers) the summed self time of several layers.
def _metric_specs() -> dict:
    specs = {}
    for layer, fields in [
            ("graphs.canonical_labelings", ("calls", "self_s", "labelings")),
            ("graphs.refine", ("calls",)),
            ("graphs.canonical_form", ("calls", "self_s")),
            ("graphs.is_isomorphic", ("calls", "self_s")),
            ("graphs.FeynmanGraph", ("calls", "self_s")),
            ("substitution.enumerate_x_graphs",
             ("calls", "self_s", "matchings", "classes", "yield")),
            ("substitution.substitute", ("calls", "self_s")),
            ("etale.check_etale", ("calls", "self_s")),
            ("etale.glue_ports", ("calls", "self_s")),
            ("species.evaluate_species", ("calls", "self_s", "decorations")),
            ("species.check_circuit_axioms", ("total_s", "instances")),
            ("species.check_modular_axioms", ("total_s", "instances")),
            ("monads.telem_key",
             ("calls", "self_s", "distinct", "useful_ratio")),
            ("monads.elements", ("calls", "self_s", "candidates", "kept")),
            ("monads.mu_T", ("calls", "self_s")),
            ("monads.law_DT", ("calls", "self_s")),
            ("monads.law_LT", ("calls", "self_s")),
            ("monads.delete_vertices", ("calls", "self_s")),
            ("monads.hom_etale", ("calls", "self_s")),
            ("monads.FreeCircuitAlgebra.box", ("calls", "self_s")),
            ("monads.FreeCircuitAlgebra.zeta", ("calls", "self_s")),
            ("monads.check_beck", ("total_s", "instances")),
            ("monads.yang_baxter_sweep", ("total_s", "instances")),
            ("nerve.nerve", ("total_s",)),
            ("nerve.make_kleisli", ("calls", "self_s")),
            ("nerve.restrict_kleisli", ("calls", "self_s")),
            ("nerve.kleisli_deletion_homs", ("calls", "self_s")),
            ("nerve.check_segal", ("total_s", "graphs")),
            ("nerve.presheaf_maps", ("calls", "self_s")),
            ("nerve.algebra_morphisms", ("calls", "self_s")),
            ("io.graph_to_json", ("calls",)),
            ("io.graph_from_json", ("calls",))]:
        for field in fields:
            specs[f"{layer}.{field}"] = (field, layer)
    specs["substitution.enumerate_x_graphs.yield"] = (
        "ratio", "substitution.enumerate_x_graphs.classes",
        "substitution.enumerate_x_graphs.matchings")
    specs["monads.telem_key.distinct"] = ("distinct",)
    specs["monads.telem_key.useful_ratio"] = (
        "ratio", "monads.telem_key.distinct", "monads.telem_key.calls")
    specs["io.self_s"] = ("self_sum", ["io.graph_to_json",
                                       "io.graph_from_json"])
    return specs


METRICS = _metric_specs()

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "yield": "ratio",
         "useful_ratio": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[1], "count")


class Recorder:
    """Spans and counts of one process."""

    def __init__(self):
        self.t0 = perf_counter()
        self.names: list = []
        self.name_ids: dict = {}
        # one entry per span, in order of entry
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list = []       # open spans: [span id, child time, start]
        self.op = -1
        self.calls: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}
        self.counts: dict = {}
        self.keys: set = set()
        self.generators: list = []  # species whose elements() is running

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, after):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, calls, self_s, total_s = (self.stack, self.calls, self.self_s,
                                         self.total_s)
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        total_s.setdefault(name, 0.0)
        rec = self
        generator = name == "monads.elements"

        def wrapper(*args, **kwargs):
            sid = len(rec.span_name)
            rec.span_name.append(nid)
            rec.span_parent.append(stack[-1][0] if stack else -1)
            rec.span_op.append(rec.op)
            rec.span_end.append(0.0)
            if generator:
                rec.generators.append(args[0])
            frame = [sid, 0.0, perf_counter()]
            rec.span_start.append(frame[2] - rec.t0)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if generator:
                    rec.generators.pop()
                dur = end - frame[2]
                rec.span_end[sid] = end - rec.t0
                calls[name] += 1
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(rec, result, args)
            return result

        return wrapper

    def counter(self, name, fn):
        rec = self

        if name == "monads.elements.candidates":
            # a candidate is a key computed by the species whose elements()
            # is the innermost one running
            def wrapper(*args, **kwargs):
                if rec.generators and rec.generators[-1] is args[0]:
                    rec.add(name)
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                rec.add(name)
                return fn(*args, **kwargs)
        return wrapper

    def metrics(self) -> dict:
        values = {}

        def value(spec):
            kind = spec[0]
            if kind == "calls":
                return self.calls.get(spec[1], self.counts.get(spec[1], 0))
            if kind in ("self_s", "total_s"):
                return getattr(self, kind).get(spec[1], 0.0)
            if kind == "distinct":
                return len(self.keys)
            if kind == "ratio":
                den = values.get(spec[2]) or 0
                return values.get(spec[1], 0) / den if den else 0.0
            if kind == "self_sum":
                return sum(self.self_s.get(n, 0.0) for n in spec[1])
            return self.counts.get(f"{spec[1]}.{kind}", 0)

        for name, spec in METRICS.items():
            if spec[0] != "ratio":
                values[name] = value(spec)
        for name, spec in METRICS.items():
            if spec[0] == "ratio":
                values[name] = value(spec)
        return {name: values[name] for name in METRICS}

    def write(self, path):
        """Save the spans as gzip'd JSON columns (times in s from the
        recorder's creation; parent -1 for a root span)."""
        data = {"names": self.names,
                "columns": ["name", "start", "end", "parent", "op"],
                "name": self.span_name.tolist(),
                "start": [round(x, 7) for x in self.span_start],
                "end": [round(x, 7) for x in self.span_end],
                "parent": self.span_parent.tolist(),
                "op": self.span_op.tolist()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def install(rec: Recorder) -> None:
    """Wrap every hook in LAYERS that exists in this version of the
    library."""
    mods = {m: importlib.import_module(f"feyngraph.{m}")
            for m in ("graphs", "substitution", "etale", "species", "monads",
                      "nerve", "io")}
    namespaces = [m for n, m in sys.modules.items()
                  if n == "feyngraph" or n.startswith("feyngraph.")]
    for name, mod, attr, kind, after in LAYERS:
        module = mods[mod]
        if isinstance(attr, tuple):
            cls = getattr(module, attr[0], None)
            fn = cls.__dict__.get(attr[1]) if cls is not None else None
            if fn is None:
                continue
            wrapped = (rec.span(name, fn, after) if kind == "span"
                       else rec.counter(name, fn))
            setattr(cls, attr[1], wrapped)
            continue
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        wrapped = (rec.span(name, fn, after) if kind == "span"
                   else rec.counter(name, fn))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapped)

