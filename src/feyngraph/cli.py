"""Command-line interface: one entry point wrapping every module.

Exit codes: 0 success / check passed, 1 check failed (report on stdout),
2 input or usage error.  Every report ends with a machine-readable line
``RESULT pass|fail n_checked=<k>``.  Output is byte-deterministic for a
given input.
"""

import argparse
import functools
import json
import os
import sys

from .brauer import (BrauerDiagram, WiringDiagram, cap, compose_brauer, cup,
                     identity_brauer, is_downward, tensor_brauer,
                     wiring_to_graph)
from .errors import FeynGraphError, require_nonnegative
from .etale import glue_ports
from .graphs import idstr, is_isomorphic
from .io import graph_from_json, graph_to_json, id_from_json, parse_graph_arg
from .monads import (check_beck, free_apply, hom_pointed, yang_baxter_sweep)
from .nerve import FinitePresheaf, check_segal, nerve
from .species import (TerminalSpecies, algebra_from_json,
                      check_circuit_axioms, check_modular_axioms,
                      evaluate_species, species_from_json)
from .substitution import (GraphOfGraphs, enumerate_x_graphs, substitute)

SCHEMAS = {
    "graph": ('{"edges": [...], "tau": [[e, e\'], ...], '
              '"half_edges": [...], "s": [[h, e], ...], '
              '"t": [[h, v], ...], "vertices": [...]}, '
              'each id a str, an int, {"t": [id, ...]} (a tuple) or '
              '{"fs": [id, ...]} (a frozenset);  '
              "or a named graph: stick | empty | isolated | corolla:N | "
              "wheel:M | line:K"),
    "gog": ('{"base": <graph>, "pieces": [{"vertex": v, "piece": <graph>, '
            '"boundary": [[port, half], ...]}, ...]}'),
    "brauer": '{"m": int, "n": int, "matching": [[point, point], ...], "loops": int}'
              "  or a named diagram: cap | cup | id:N",
    "wiring": ('{"inner_arities": [...], "outer_arity": int, '
               '"underlying": <brauer>}'),
    "species": ('{"palette": {"colours": [...], "omega": {...}}, '
                '"arity": {"n": [elems]}, "colour_of": {...}, "action": {...}}'
                "  or: terminal | terminal:N"),
    "algebra": ('<species fields> plus {"box": {"a|b": elem}, '
                '"zeta": {"e|i|j": elem}, "eps": {colour: elem}, '
                '"external_unit": elem}  or "nonunital": true in place '
                'of "external_unit"'),
    "presheaf": ('{"corpus": [{"name": ..., "graph": <graph>}], '
                 '"sets": {name: [keys]}, "morphisms": [{"name", "kind", '
                 '"from_graph", "to_graph", "map", ...}]}'),
}


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputProblem(f"cannot read {path}: {exc}")


class InputProblem(Exception):
    """Wraps any input error so main() can map it to exit code 2 and
    show the schema of what could not be read."""

    def __init__(self, message, schema=None):
        super().__init__(message)
        self.schema = schema


def _reads(schema):
    """Decorate a reader of the command's input: any error it raises
    becomes an InputProblem that shows the schema of what it reads."""
    def wrap(read):
        @functools.wraps(read)
        def reader(*args):
            try:
                return read(*args)
            except InputProblem as exc:
                exc.schema = exc.schema or schema
                raise
            except (FeynGraphError, OSError, ValueError) as exc:
                raise InputProblem(f"{type(exc).__name__}: {exc}",
                                   schema) from exc
        return reader
    return wrap


_graph_arg = _reads("graph")(parse_graph_arg)


@_reads("species")
def _species_arg(text):
    if text == "terminal":
        return TerminalSpecies()
    if text.startswith("terminal:"):
        return TerminalSpecies(int(text.split(":", 1)[1]))
    return species_from_json(_load_json(text))


@_reads("algebra")
def _algebra_arg(path):
    return algebra_from_json(_load_json(path))


@_reads("brauer")
def _brauer_arg(text):
    if text == "cap":
        return cap()
    if text == "cup":
        return cup()
    if text.startswith("id:"):
        return identity_brauer(int(text.split(":", 1)[1]))
    return BrauerDiagram.from_json(_load_json(text))


@_reads("wiring")
def _wiring_arg(path):
    return WiringDiagram.from_json(_load_json(path))


@_reads("presheaf")
def _presheaf_arg(path):
    return FinitePresheaf.from_json(_load_json(path))


@_reads("gog")
def _gog_arg(path):
    data = _load_json(path)
    try:
        base = graph_from_json(data["base"])
        pieces = {}
        for rec in data["pieces"]:
            piece = graph_from_json(rec["piece"])
            boundary = {id_from_json(p): id_from_json(h)
                        for p, h in rec["boundary"]}
            pieces[id_from_json(rec["vertex"])] = (piece, boundary)
        return GraphOfGraphs(base, pieces)
    except (KeyError, TypeError) as exc:
        raise InputProblem(f"bad graph-of-graphs: {exc}", "gog")


def _parse_id(token):
    """An edge/half/vertex id given on the command line: JSON if it parses
    (so numbers and {"t": [...]} composites work), raw string otherwise."""
    try:
        return id_from_json(json.loads(token))
    except (json.JSONDecodeError, FeynGraphError):
        return token


def _result(ok: bool, checked: int) -> int:
    print(f"RESULT {'pass' if ok else 'fail'} n_checked={checked}")
    return 0 if ok else 1


def _report_result(report: dict) -> int:
    for v in report.get("violations", []):
        print(f"violation {v!r}")
    return _result(report["ok"], report["checked"])


# -- subcommand handlers ----------------------------------------------------------


def cmd_validate(args):
    g = _graph_arg(args.graph)
    print(f"graph edges={len(g.edges)} vertices={len(g.vertices)} "
          f"ports={len(g.ports)} inner_orbits="
          f"{sum(1 for o in g.orbits() if all(e not in g.ports for e in o))}")
    return _result(True, 1)


def cmd_iso(args):
    g, h = _graph_arg(args.g), _graph_arg(args.h)
    ok = is_isomorphic(g, h)
    print(f"isomorphic {'true' if ok else 'false'}")
    return _result(ok, 1)


def cmd_glue(args):
    g = _graph_arg(args.graph)
    def resolve(tok):
        # match a port by its str/repr first, so "0" finds an int or str port
        hits = [p for p in g.ports if tok in (str(p), repr(p))]
        if len(hits) == 1:
            return hits[0]
        return _parse_id(tok)

    pairs = [(resolve(a), resolve(b)) for a, b in args.pair]
    glued, _ = glue_ports(g, pairs)
    print(_dumps(graph_to_json(glued)))
    return _result(True, 1)


def cmd_substitute(args):
    sub = substitute(_gog_arg(args.file))
    print(_dumps(graph_to_json(sub.colimit)))
    return _result(True, 1)


def cmd_enumerate(args):
    require_nonnegative("enumerate", labels=args.labels)
    labels = [f"x{i}" for i in range(1, args.labels + 1)]
    xs = enumerate_x_graphs(labels, args.max_vertices, args.max_valency,
                            connected_only=not args.disconnected,
                            admissible_only=not args.inadmissible)
    for x in sorted(xs, key=lambda x: x.canonical_key()):
        print(f"class {x.canonical_key()}")
    print(f"count {len(xs)}")
    return _result(True, len(xs))


def cmd_brauer(args):
    if args.action in ("compose", "tensor") and args.b is None:
        raise InputProblem(f"brauer {args.action} needs two diagrams")
    if args.action == "compose":
        d = compose_brauer(_brauer_arg(args.a), _brauer_arg(args.b))
        print(f"loops={d.loops}")
        print(_dumps(d.to_json()))
        return _result(True, 1)
    if args.action == "tensor":
        d = tensor_brauer(_brauer_arg(args.a), _brauer_arg(args.b))
        print(_dumps(d.to_json()))
        return _result(True, 1)
    if args.action == "to-graph":
        wd = _wiring_arg(args.a)
        print(_dumps(graph_to_json(wiring_to_graph(wd))))
        return _result(True, 1)
    if args.action == "downward":
        ok = is_downward(_brauer_arg(args.a))
        print(f"downward {'true' if ok else 'false'}")
        return _result(ok, 1)
    raise InputProblem(f"unknown brauer action {args.action!r}")


def cmd_eval(args):
    S = _species_arg(args.species)
    g = _graph_arg(args.graph)
    decs = evaluate_species(S, g)
    for k in sorted(repr(d.key()) for d in decs):
        print(f"decoration {k}")
    print(f"count {len(decs)}")
    return _result(True, len(decs))


def cmd_check_ca(args):
    return _report_result(check_circuit_axioms(_algebra_arg(args.algebra),
                                               max_arity=args.max_arity))


def cmd_check_mo(args):
    return _report_result(check_modular_axioms(_algebra_arg(args.algebra),
                                               max_arity=args.max_arity))


def cmd_free(args):
    S = _species_arg(args.species)
    elems = free_apply(args.level, S, args.arity,
                       max_vertices=args.max_vertices,
                       max_valency=args.max_valency,
                       max_factors=args.max_factors)
    for e in sorted(el.key for el in elems):
        print(f"element {e}")
    print(f"count {len(elems)}")
    return _result(True, len(elems))


def cmd_law(args):
    S = _species_arg(args.species)
    return _report_result(check_beck(args.which, S,
                                     max_arity=args.max_arity,
                                     max_vertices=args.max_vertices,
                                     max_valency=args.max_valency,
                                     max_factors=args.max_factors))


def cmd_yb_sweep(args):
    S = _species_arg(args.species)
    report = yang_baxter_sweep(S, max_arity=args.max_arity,
                               max_vertices=args.max_base_vertices,
                               max_valency=args.max_valency,
                               max_factors=args.max_factors)
    print(f"instances={report['checked']}")
    return _report_result(report)


def cmd_pointed_hom(args):
    g, h = _graph_arg(args.g), _graph_arg(args.h)
    homs = hom_pointed(g, h)
    lines = sorted(f"morphism deleted={sorted(map(idstr, pm.deleted))}"
                   for pm in homs)
    for line_ in lines:
        print(line_)
    print(f"count {len(homs)}")
    return _result(True, len(homs))


def cmd_nerve(args):
    A = _algebra_arg(args.algebra)
    corpus = {}
    for item in args.corpus:
        if os.path.isdir(item):
            for fn in sorted(os.listdir(item)):
                if fn.endswith(".json"):
                    corpus[fn[:-5]] = _graph_arg(os.path.join(item, fn))
        else:
            name = os.path.basename(item)
            if name.endswith(".json"):
                name = name[:-5]
            corpus[name] = _graph_arg(item)
    if not corpus:
        raise InputProblem("--corpus produced no graphs")
    P = nerve(A, corpus)
    text = _dumps(P.to_json())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return _result(True, len(P.morphisms))


def cmd_segal(args):
    P = _presheaf_arg(args.presheaf)
    report = check_segal(P)
    checked = 0
    for name in sorted(report["per_graph"]):
        entry = report["per_graph"][name]
        checked += 1
        if entry["ok"]:
            tag = "elementary" if entry.get("elementary") else "segal"
            print(f"graph {name} ok {tag} size={entry['size']}")
        else:
            print(f"graph {name} FAIL {entry.get('witness', '')}")
    return _result(report["ok"], checked)


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="feyngraph",
        description="Feynman-graph combinatorics for circuit algebras")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check a graph file or named graph")
    q.add_argument("graph")
    q.set_defaults(func=cmd_validate, schema="graph")

    q = sub.add_parser("iso", help="test two graphs for isomorphism")
    q.add_argument("g")
    q.add_argument("h")
    q.set_defaults(func=cmd_iso, schema="graph")

    q = sub.add_parser("glue", help="glue port pairs of a graph")
    q.add_argument("graph")
    q.add_argument("--pair", action="append", required=True, nargs=2,
                   metavar=("A", "B"), help="two port ids (JSON or raw)")
    q.set_defaults(func=cmd_glue, schema="graph")

    q = sub.add_parser("substitute",
                       help="evaluate a graph-of-graphs colimit")
    q.add_argument("file")
    q.set_defaults(func=cmd_substitute, schema="gog")

    q = sub.add_parser("enumerate",
                       help="canonical X-graphs within bounds")
    q.add_argument("--labels", type=int, required=True)
    q.add_argument("--max-vertices", type=int, required=True)
    q.add_argument("--max-valency", type=int, required=True)
    q.add_argument("--disconnected", action="store_true")
    q.add_argument("--inadmissible", action="store_true")
    q.set_defaults(func=cmd_enumerate, schema=None)

    q = sub.add_parser("brauer", help="Brauer / wiring diagram operations")
    q.add_argument("action",
                   choices=["compose", "tensor", "to-graph", "downward"])
    q.add_argument("a")
    q.add_argument("b", nargs="?")
    q.set_defaults(func=cmd_brauer, schema="brauer")

    q = sub.add_parser("eval", help="decorations of a graph by a species")
    q.add_argument("species")
    q.add_argument("graph")
    q.set_defaults(func=cmd_eval, schema="species")

    q = sub.add_parser("check-ca", help="circuit-algebra axioms")
    q.add_argument("algebra")
    q.add_argument("--max-arity", type=int, default=None)
    q.set_defaults(func=cmd_check_ca, schema="algebra")

    q = sub.add_parser("check-mo", help="modular-operad axioms")
    q.add_argument("algebra")
    q.add_argument("--max-arity", type=int, default=None)
    q.set_defaults(func=cmd_check_mo, schema="algebra")

    q = sub.add_parser("free", help="bounded free construction at one arity")
    q.add_argument("--level", required=True,
                   choices=["T", "D", "L", "Tx", "LDT"])
    q.add_argument("--species", required=True)
    q.add_argument("--arity", type=int, required=True)
    q.add_argument("--max-vertices", type=int, default=2)
    q.add_argument("--max-valency", type=int, default=3)
    q.add_argument("--max-factors", type=int, default=3)
    q.set_defaults(func=cmd_free, schema="species")

    q = sub.add_parser("law", help="distributive-law axioms (Beck)")
    q.add_argument("which", choices=["dt", "lt", "ld"])
    q.add_argument("--species", default="terminal")
    q.add_argument("--max-arity", type=int, default=2)
    q.add_argument("--max-vertices", type=int, default=2)
    q.add_argument("--max-valency", type=int, default=3)
    q.add_argument("--max-factors", type=int, default=2)
    q.set_defaults(func=cmd_law, schema="species")

    q = sub.add_parser("yb-sweep", help="Yang-Baxter sweep over instances")
    q.add_argument("--max-base-vertices", type=int, default=2)
    q.add_argument("--species", default="terminal")
    q.add_argument("--max-arity", type=int, default=2)
    q.add_argument("--max-valency", type=int, default=3)
    q.add_argument("--max-factors", type=int, default=2)
    q.set_defaults(func=cmd_yb_sweep, schema="species")

    q = sub.add_parser("pointed-hom",
                       help="pointed morphisms between two graphs")
    q.add_argument("g")
    q.add_argument("h")
    q.set_defaults(func=cmd_pointed_hom, schema="graph")

    q = sub.add_parser("nerve", help="nerve presheaf of a finite algebra")
    q.add_argument("algebra")
    q.add_argument("--corpus", nargs="+", required=True,
                   help="graph files, named graphs, or a directory")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_nerve, schema="algebra")

    q = sub.add_parser("segal", help="Segal condition on a presheaf file")
    q.add_argument("presheaf")
    q.set_defaults(func=cmd_segal, schema="presheaf")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        schema = exc.schema or getattr(args, "schema", None)
        if schema:
            print(f"expected: {SCHEMAS.get(schema, schema)}", file=sys.stderr)
    except (FeynGraphError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
