"""Etale morphisms, embeddings, graph elements, and port gluing.

An etale morphism commutes with s, t, tau and restricts to a bijection on
the edges at each vertex (the pullback condition).  Port gluing computes
the colimit that identifies chosen boundary ports pairwise; a glue pair
(e, tau e) names a stick component and acts as the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .errors import (
    NotAPort,
    NotCommuting,
    NotLocallyBijective,
    RepeatedPort,
    UnknownEdge,
    UnknownVertex,
)
from .graphs import FeynmanGraph, _UF, corolla, idstr, sort_ids, stick


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
        return (tuple(sorted(((idstr(k), idstr(v))
                              for k, v in self.edge_map.items()))),
                tuple(sorted(((idstr(k), idstr(v))
                              for k, v in self.vertex_map.items()))))

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


@dataclass(frozen=True)
class Embedding:
    underlying: EtaleMorphism
    glued_pairs: tuple  # port pairs of the source identified by the map
    injective_tail: bool


@dataclass(frozen=True)
class GraphElement:
    """An element of el(G): a stick choosing an edge or a corolla
    neighbourhood of a vertex."""
    shape: str                 # "stick" | "corolla"
    anchor: Any                # the edge (stick) or vertex (corolla)
    map: EtaleMorphism


def ch_edge(g: FeynmanGraph, e) -> EtaleMorphism:
    """ch_e: the stick morphism choosing edge e (1 -> e, 2 -> tau e)."""
    if e not in g.edges:
        raise UnknownEdge(repr(e))
    return EtaleMorphism(stick(), g, {"1": e, "2": g.tau[e]}, {}, {})


def vertex_neighbourhood(g: FeynmanGraph, v) -> Embedding:
    """The embedding of the corolla on E_v into G at vertex v.

    Not edge-injective exactly when v carries a loop; the loop pairs are
    recorded as glued port pairs.
    """
    if v not in g.vertices:
        raise UnknownVertex(repr(v))
    halves = g.halves_at(v)
    labels = [("p", repr(h)) for h in halves]
    c = corolla(labels)
    edge_map = {}
    half_map = {}
    for lab, h in zip(labels, halves):
        edge_map[("in", lab)] = g.s[h]
        edge_map[lab] = g.tau[g.s[h]]
        half_map[("h", lab)] = h
    glued = []
    for i, (lab, h) in enumerate(zip(labels, halves)):
        for lab2, h2 in zip(labels[:i], halves[:i]):
            if g.tau[g.s[h]] == g.s[h2]:
                glued.append((lab, lab2))
    m = EtaleMorphism(c, g, edge_map, half_map, {"*": v})
    return Embedding(m, tuple(glued), injective_tail=not glued)


def elements_category(g: FeynmanGraph):
    """All elements of G plus the connecting morphisms among them.

    Returns (elements, arrows).  Elements: one stick element per edge, one
    corolla element per vertex.  Arrows: for each vertex element and each
    of its ports, the ch morphism from the stick element it restricts to,
    plus the tau automorphisms of stick elements.  (Identities are left
    implicit; no richer morphism structure is needed downstream.)
    """
    elements = []
    by_edge = {}
    for e in sort_ids(g.edges):
        el = GraphElement("stick", e, ch_edge(g, e))
        by_edge[e] = el
        elements.append(el)
    arrows = []
    for e in sort_ids(g.edges):
        # tau: ch_{tau e} = ch_e . tau
        arrows.append(("tau", by_edge[e], by_edge[g.tau[e]]))
    for v in sort_ids(g.vertices):
        emb = vertex_neighbourhood(g, v)
        el = GraphElement("corolla", v, emb.underlying)
        elements.append(el)
        for lab in emb.underlying.source.ports:
            # b_v . ch_lab = ch_{b_v(lab)} in el(G)
            target_edge = emb.underlying.edge_map[lab]
            arrows.append(("ch", by_edge[target_edge], el, lab))
    return elements, arrows


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
