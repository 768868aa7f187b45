"""Etale morphisms, the category of elements of a graph, and port gluing.

An etale morphism commutes with s, t, tau and restricts to a bijection on
the edges at each vertex (the pullback condition).  el(G) has one
element per vertex and per edge, each with its etale map (elements).
Port gluing computes the colimit that identifies chosen boundary ports
pairwise; a glue pair (e, tau e) names a stick component and acts as the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .errors import NotAPort, NotCommuting, NotLocallyBijective, RepeatedPort
from .graphs import FeynmanGraph, _UF, pairs_text, sort_ids


@dataclass(frozen=True)
class EtaleMorphism:
    source: FeynmanGraph
    target: FeynmanGraph
    edge_map: Mapping[Any, Any]
    half_map: Mapping[Any, Any]
    vertex_map: Mapping[Any, Any]

    def __post_init__(self):
        check_etale(self.edge_map, self.half_map, self.vertex_map,
                    self.source, self.target)

    def key(self) -> tuple:
        return (pairs_text(self.edge_map.items()),
                pairs_text(self.vertex_map.items()))

    def __eq__(self, other):
        return isinstance(other, EtaleMorphism) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def identity_morphism(g: FeynmanGraph) -> EtaleMorphism:
    return EtaleMorphism(g, g, {e: e for e in g.edges},
                         {h: h for h in g.half_edges}, {v: v for v in g.vertices})


def compose(g: EtaleMorphism, f: EtaleMorphism) -> EtaleMorphism:
    """g after f."""
    return EtaleMorphism(f.source, g.target,
                         {e: g.edge_map[f.edge_map[e]] for e in f.source.edges},
                         {h: g.half_map[f.half_map[h]] for h in f.source.half_edges},
                         {v: g.vertex_map[f.vertex_map[v]] for v in f.source.vertices})


def check_etale(edge_map, half_map, vertex_map,
                source: FeynmanGraph, target: FeynmanGraph) -> None:
    for e in source.edges:
        if e not in edge_map or edge_map[e] not in target.edges:
            raise NotCommuting(f"edge_map undefined or dangling at {e!r}")
        if edge_map[source.tau[e]] != target.tau[edge_map[e]]:
            raise NotCommuting(f"tau square fails at edge {e!r}")
    for h in source.half_edges:
        if h not in half_map or half_map[h] not in target.half_edges:
            raise NotCommuting(f"half_map undefined or dangling at {h!r}")
        if target.s[half_map[h]] != edge_map[source.s[h]]:
            raise NotCommuting(f"s square fails at half-edge {h!r}")
        if target.t[half_map[h]] != vertex_map.get(source.t[h]):
            raise NotCommuting(f"t square fails at half-edge {h!r}")
    for v in source.vertices:
        if v not in vertex_map or vertex_map[v] not in target.vertices:
            raise NotCommuting(f"vertex_map undefined or dangling at {v!r}")
        imgs = {half_map[h] for h in source.halves_at(v)}
        if imgs != set(target.halves_at(vertex_map[v])):
            raise NotLocallyBijective(f"edges at {v!r} do not biject onto its image")


def elements(g: FeynmanGraph, elementary) -> list:
    """el(G) as (anchor, etale map) pairs.  First each vertex v in idkey
    order, from the k-corolla elementary(k) on ports 0..k-1: port i goes
    to tau s(h_i), ("in", i) to s(h_i), ("h", i) to h_i and "*" to v, for
    h_i the i-th half of v.  Then each edge e in idkey order, from the
    stick elementary(None): 1 -> e, 2 -> tau e.  A pair is a vertex
    element exactly when its map's source has a vertex."""
    out = []
    for v in sort_ids(g.vertices):
        halves = g.halves_at(v)
        em, hm = {}, {}
        for i, h in enumerate(halves):
            em[i] = g.tau[g.s[h]]
            em[("in", i)] = g.s[h]
            hm[("h", i)] = h
        out.append((v, EtaleMorphism(elementary(len(halves)), g, em, hm,
                                     {"*": v})))
    for e in sort_ids(g.edges):
        out.append((e, EtaleMorphism(elementary(None), g,
                                     {"1": e, "2": g.tau[e]}, {}, {})))
    return out


def glue_ports(g: FeynmanGraph, pairs):
    """G^{e1 ** e1', ...}: identify listed port pairs (e_i ~ tau e_i').

    Returns (glued graph, edge class map).  Edge ids of the result are
    frozensets of identified source edges.  A pair (e, tau e) names a stick
    component and contributes nothing (the component survives unchanged).
    """
    used = set()
    live_pairs = []
    for (a, b) in pairs:
        for x in (a, b):
            if x not in g.edges or x not in g.ports:
                raise NotAPort(repr(x))
        if a == b:
            raise RepeatedPort(repr(a))
        if b == g.tau[a]:
            # both are ports, so {a, b} is a stick component: identity glue
            if a in used or b in used:
                raise RepeatedPort(f"{a!r} used twice")
            used.update((a, b))
            continue
        for x in (a, b):
            if x in used:
                raise RepeatedPort(repr(x))
            used.add(x)
        live_pairs.append((a, b))
    uf = _UF()
    for e in g.edges:
        uf.add(e)
    for (a, b) in live_pairs:
        uf.union(a, g.tau[b])
        uf.union(b, g.tau[a])
    cls = uf.classes()
    edge_of = {e: frozenset(cls[uf.find(e)]) for e in g.edges}
    new_edges = set(edge_of.values())
    new_tau = {}
    for c in new_edges:
        imgs = {edge_of[g.tau[e]] for e in c}
        if len(imgs) != 1:
            raise RepeatedPort("gluing is inconsistent with tau")
        new_tau[c] = imgs.pop()
    s = {h: edge_of[g.s[h]] for h in g.half_edges}
    glued = FeynmanGraph(new_edges, new_tau, g.half_edges, s, g.t, g.vertices)
    return glued, edge_of
