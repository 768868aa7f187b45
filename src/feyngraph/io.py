"""JSON codecs for graphs and the CLI's named-graph shorthands.

Graph ids produced by the library are strings, ints, or nested tuples
(and occasionally frozensets, for colimit edge classes), so the codec
tags each id with its shape instead of flattening to strings; a decoded
graph carries exactly the original ids.
"""
from __future__ import annotations

import json

from .errors import BadParameter, FormatError
from .graphs import FeynmanGraph, make_named, sort_ids, validate_graph

__all__ = ["id_to_json", "id_from_json", "graph_to_json",
           "graph_from_json", "parse_graph_arg", "load_graph"]


def id_to_json(x):
    if isinstance(x, bool):
        raise FormatError("boolean ids are not supported")
    if isinstance(x, (str, int)):
        return x
    if isinstance(x, tuple):
        return {"t": [id_to_json(y) for y in x]}
    if isinstance(x, frozenset):
        return {"fs": [id_to_json(y) for y in sort_ids(x)]}
    raise FormatError(f"id {x!r} is not serializable")


def id_from_json(d):
    if isinstance(d, bool):
        raise FormatError("boolean ids are not supported")
    if isinstance(d, (str, int)):
        return d
    if isinstance(d, dict) and "t" in d:
        return tuple(id_from_json(y) for y in d["t"])
    if isinstance(d, dict) and "fs" in d:
        return frozenset(id_from_json(y) for y in d["fs"])
    raise FormatError(f"malformed id {d!r}")


def graph_to_json(g: FeynmanGraph) -> dict:
    return {
        "edges": [id_to_json(e) for e in sort_ids(g.edges)],
        "tau": [[id_to_json(e), id_to_json(g.tau[e])]
                for e in sort_ids(g.edges)],
        "half_edges": [id_to_json(h) for h in sort_ids(g.half_edges)],
        "s": [[id_to_json(h), id_to_json(g.s[h])]
              for h in sort_ids(g.half_edges)],
        "t": [[id_to_json(h), id_to_json(g.t[h])]
              for h in sort_ids(g.half_edges)],
        "vertices": [id_to_json(v) for v in sort_ids(g.vertices)],
    }


def graph_from_json(data: dict) -> FeynmanGraph:
    if "named" in data:
        params = {k: v for k, v in data.items() if k != "named"}
        return make_named(data["named"], **params)
    if isinstance(data.get("tau"), dict):
        # flat string-id format
        return validate_graph(data)
    edges = [id_from_json(e) for e in data["edges"]]
    tau = {id_from_json(a): id_from_json(b) for a, b in data["tau"]}
    halves = [id_from_json(h) for h in data.get("half_edges", [])]
    s = {id_from_json(a): id_from_json(b) for a, b in data.get("s", [])}
    t = {id_from_json(a): id_from_json(b) for a, b in data.get("t", [])}
    vertices = [id_from_json(v) for v in data.get("vertices", [])]
    return FeynmanGraph(edges, tau, halves, s, t, vertices)


def parse_graph_arg(text: str) -> FeynmanGraph:
    """Named shorthands: stick, empty, isolated, wheel:m, line:k,
    corolla:n (n ports labeled 0..n-1); anything else is a JSON path."""
    if text == "stick":
        return make_named("stick")
    if text == "empty":
        return make_named("empty")
    if text in ("isolated", "isolated_vertex"):
        return make_named("isolated_vertex")
    if ":" in text:
        kind, _, arg = text.partition(":")
        if kind == "wheel":
            return make_named("wheel", m=int(arg))
        if kind == "line":
            return make_named("line", k=int(arg))
        if kind == "corolla":
            return make_named("corolla", labels=list(range(int(arg))))
    if text.endswith(".json"):
        return load_graph(text)
    raise BadParameter(f"unknown graph shorthand {text!r}")


def load_graph(path: str) -> FeynmanGraph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))
