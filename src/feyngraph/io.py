"""JSON codecs for graphs and the CLI's named-graph shorthands.

A graph is one JSON object with exactly the keys edges, tau, half_edges,
s, t and vertices: the id lists and the [id, image] pairs of the maps.
Graph ids produced by the library are strings, ints, or nested tuples
(and occasionally frozensets, for colimit edge classes), so the codec
tags each id with its shape instead of flattening to strings: a tuple is
{"t": [...]}, a frozenset {"fs": [...]} with its members in idkey order.
graph_from_json reads exactly what graph_to_json writes, so a decoded
graph carries the original ids; any other form raises FormatError.
"""
from __future__ import annotations

import json

from .errors import BadParameter, FormatError
from .graphs import (FeynmanGraph, corolla, empty_graph, isolated_vertex,
                     line, sort_ids, stick, wheel)

__all__ = ["id_to_json", "id_from_json", "graph_to_json",
           "graph_from_json", "parse_graph_arg", "load_graph"]

_GRAPH_KEYS = ("edges", "tau", "half_edges", "s", "t", "vertices")


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
    if isinstance(d, dict) and len(d) == 1:
        (shape, members), = d.items()
        if type(members) is list and shape == "t":
            return tuple(id_from_json(y) for y in members)
        if type(members) is list and shape == "fs":
            return frozenset(id_from_json(y) for y in members)
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


def _ids(data: dict, key: str) -> list:
    items = data[key]
    if type(items) is not list:
        raise FormatError(f"graph {key!r} must be a list of ids")
    ids = [id_from_json(x) for x in items]
    if len(set(ids)) != len(ids):
        raise FormatError(f"graph {key!r} lists an id twice")
    return ids


def _pairs(data: dict, key: str) -> dict:
    items = data[key]
    if type(items) is not list or not all(
            type(p) is list and len(p) == 2 for p in items):
        raise FormatError(f"graph {key!r} must be a list of [id, id] pairs")
    m = {id_from_json(a): id_from_json(b) for a, b in items}
    if len(m) != len(items):
        raise FormatError(f"graph {key!r} maps an id twice")
    return m


def graph_from_json(data: dict) -> FeynmanGraph:
    """The graph that graph_to_json wrote as data, checking every
    invariant."""
    if type(data) is not dict or set(data) != set(_GRAPH_KEYS):
        raise FormatError("a graph is a JSON object with exactly the keys "
                          + ", ".join(_GRAPH_KEYS))
    return FeynmanGraph(_ids(data, "edges"), _pairs(data, "tau"),
                        _ids(data, "half_edges"), _pairs(data, "s"),
                        _pairs(data, "t"), _ids(data, "vertices"))


_SHORTHANDS = {"stick": stick, "empty": empty_graph,
               "isolated": isolated_vertex, "isolated_vertex": isolated_vertex}
_COUNTED = {"wheel": wheel, "line": line,
            "corolla": lambda n: corolla(range(n))}


def parse_graph_arg(text: str) -> FeynmanGraph:
    """Named shorthands: stick, empty, isolated, wheel:m, line:k,
    corolla:n (n ports labeled 0..n-1); anything else is a JSON path."""
    if text in _SHORTHANDS:
        return _SHORTHANDS[text]()
    kind, colon, arg = text.partition(":")
    if colon and kind in _COUNTED:
        n = int(arg)
        if n < 0:
            raise BadParameter(f"{text}: the count must be >= 0")
        return _COUNTED[kind](n)
    if text.endswith(".json"):
        return load_graph(text)
    raise BadParameter(f"unknown graph shorthand {text!r}")


def load_graph(path: str) -> FeynmanGraph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))
