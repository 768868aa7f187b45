"""Graphs of graphs, substitution colimits, X-graphs, and bounded
enumeration of X-graphs up to labeled isomorphism.

A graph of graphs assigns a boundary-matched piece to each vertex of a
base graph (sticks go to sticks).  Its colimit performs substitution:
each base edge is identified with the matching piece port, so base edges
survive and piece inner structure is inserted at the vertices.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import (BadParameter, BoundsTooLarge, InvalidGraphOfGraphs,
                     require_nonnegative)
from .graphs import FeynmanGraph, _UF, _plan, corolla, idkey

DEFAULT_MAX_SEARCH = 10 ** 7


def max_search_cap() -> int:
    """FEYNGRAPH_MAX_SEARCH, else DEFAULT_MAX_SEARCH; a value that is not
    a nonnegative integer raises BadParameter."""
    text = os.environ.get("FEYNGRAPH_MAX_SEARCH", DEFAULT_MAX_SEARCH)
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise BadParameter(f"FEYNGRAPH_MAX_SEARCH={text!r} is not a "
                           "nonnegative integer")
    return cap


class SearchBudget:
    """One search's allowance of FEYNGRAPH_MAX_SEARCH units, read once when
    the search starts.  spend(n) raises BoundsTooLarge, naming the search,
    once more than the cap has been spent."""
    __slots__ = ("search", "cap", "left")

    def __init__(self, search: str):
        self.search = search
        self.cap = self.left = max_search_cap()

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise BoundsTooLarge(f"{self.search} exceed "
                                 f"FEYNGRAPH_MAX_SEARCH={self.cap}")


@dataclass(frozen=True)
class XGraph:
    """A graph with ports bijectively labeled (edge -> label)."""
    graph: FeynmanGraph
    labeling: Mapping[Any, Any]

    def __post_init__(self):
        if set(self.labeling) != set(self.graph.ports):
            raise InvalidGraphOfGraphs("labeling must cover exactly the ports")
        if len(set(self.labeling.values())) != len(self.labeling):
            raise InvalidGraphOfGraphs("labeling must be injective")

    def is_admissible(self) -> bool:
        return not self.graph.stick_components()

    def canonical_key(self) -> str:
        """The certificate text of the graph with its labels as tokens."""
        g = self.graph
        return _plan(g, tuple(map(self.labeling.get, g.sorted_edges)))[2]


class GraphOfGraphs:
    """Substitution rule: base graph + one piece per base vertex.

    pieces[v] = (piece_graph, boundary) where boundary maps each port of
    the piece to a half-edge of the base at v (bijectively).  Stick
    elements implicitly map to the stick.
    """

    def __init__(self, base: FeynmanGraph, pieces: Mapping[Any, tuple]):
        self.base = base
        self.pieces = dict(pieces)
        if set(self.pieces) != set(base.vertices):
            raise InvalidGraphOfGraphs("need exactly one piece per base vertex")
        for v in base.vertices:
            piece, boundary = self.pieces[v]
            halves = set(base.halves_at(v))
            if set(boundary) != set(piece.ports):
                raise InvalidGraphOfGraphs(f"boundary at {v!r} must cover the piece ports")
            if set(boundary.values()) != halves or len(boundary) != len(halves):
                raise InvalidGraphOfGraphs(f"boundary at {v!r} must biject onto H_v")
            if not piece.edges and not piece.vertices and halves:
                raise InvalidGraphOfGraphs("empty piece only allowed at an isolated vertex")

    @classmethod
    def identity(cls, base: FeynmanGraph) -> "GraphOfGraphs":
        """Each vertex maps to its own neighbourhood corolla."""
        return cls(base, {v: identity_piece(base, v) for v in base.vertices})

    def is_nondegenerate(self) -> bool:
        return all(not piece.stick_components() for piece, _ in self.pieces.values())


def identity_piece(g: FeynmanGraph, v) -> tuple:
    """The piece of v in the identity refinement of g, with its boundary:
    the corolla with one port ("p", h) for each half h at v, in
    halves_at order, that goes to h.  Its halves ("h", ("p", h)) sort as
    the halves h do, so the corolla reads its positions in g's order."""
    halves = g.halves_at(v)
    labels = [("p", h) for h in halves]
    return corolla(labels), dict(zip(labels, halves))


def identity_half(v, h):
    """The colimit id of the half of identity_piece(g, v) that goes to the
    half h of g at v."""
    return ("p", v, ("h", ("p", h)))


@dataclass
class Substitution:
    gog: GraphOfGraphs                # the graph of graphs evaluated
    colimit: FeynmanGraph
    edge_class: Mapping[Any, Any]     # base edge -> colimit edge
    piece_edge: Mapping[tuple, Any]   # (vertex, piece edge) -> colimit edge
    # nerve.make_kleisli's frames by deleted set; not part of the value
    frames: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)


def substitute(gog: GraphOfGraphs) -> Substitution:
    """Evaluate the substitution colimit.

    When the graph of graphs is nondegenerate with nonempty pieces, the
    colimit's edges are the base edges plus all piece inner edges, ports
    are the base ports identically, and the vertex set fibers over the
    base vertices.

    The colimit is written down directly.  Each base edge e gives one
    class: ("b", e), the piece edge facing the port whose half lies on e,
    and the port whose half lies on tau e.  A port that faces another
    port of its piece joins two such classes; every other piece edge is a
    class of its own.  The pieces passed GraphOfGraphs, so the classes
    are closed under tau and the graph is built with
    FeynmanGraph._trusted, with the half order of each piece.
    """
    base, pieces = gog.base, gog.pieces
    s, tau = base.s, base.tau
    members = {e: [("b", e)] for e in base.edges}
    home = {}   # piece edge that meets an edge of base -> that edge
    ties = []
    for v, (piece, boundary) in pieces.items():
        for p, h in boundary.items():
            e = s[h]
            for x, f in ((("p", v, piece.tau[p]), e), (("p", v, p), tau[e])):
                if x in home:
                    ties.append((home[x], f))
                else:
                    home[x] = f
                    members[f].append(x)
    edge_class = _edge_classes(members, ties)
    ctau = {c: edge_class[tau[e]] for e, c in edge_class.items()}
    piece_edge, alone, halves, hs, ht, order = {}, [], [], {}, {}, {}
    for v, (piece, _) in pieces.items():
        for pe in piece.edges:
            f = home.get(("p", v, pe))
            if f is None:
                c = piece_edge[(v, pe)] = frozenset({("p", v, pe)})
                alone.append((("p", v, pe), c))
            else:
                piece_edge[(v, pe)] = edge_class[f]
        # a piece edge that meets no base edge faces one that meets none
        for pe in piece.edges:
            if ("p", v, pe) not in home:
                ctau[piece_edge[(v, pe)]] = piece_edge[(v, piece.tau[pe])]
        for h in piece.half_edges:
            hh = ("p", v, h)
            halves.append(hh)
            hs[hh] = piece_edge[(v, piece.s[h])]
            ht[hh] = ("p", v, piece.t[h])
        # ("p", v, h) sort as the halves h of the piece do
        for w in piece.vertices:
            order[("p", v, w)] = tuple([("p", v, h)
                                        for h in piece.halves_at(w)])
    colimit = FeynmanGraph._trusted(frozenset(ctau), ctau, frozenset(halves),
                                    hs, ht, frozenset(order), order)
    # a class of one piece edge sorts after every class with a base edge
    alone.sort(key=lambda xc: idkey(xc[0]))
    colimit._sorted_edges = tuple(dict.fromkeys(
        edge_class[e] for e in base.sorted_edges)) + tuple(
        c for _, c in alone)
    return Substitution(gog, colimit, edge_class, piece_edge)


def _edge_classes(members: dict, ties: list) -> dict:
    """The edge classes of a substitution colimit: each base edge e -> the
    frozenset of members[e], which holds ("b", e) and the piece edges
    that meet it, merged with the class of f for each tie (e, f) through
    one _UF pass.

    A class sorts by its least base edge: ("b", e) sorts before every
    ("p", ...) member, so the classes in the order in which the base's
    sorted edges first meet them are in idkey order."""
    if not ties:
        return {e: frozenset(m) for e, m in members.items()}
    uf = _UF()
    for e in members:
        uf.add(e)
    for e, f in ties:
        uf.union(e, f)
    merged = {r: frozenset(x for e in group for x in members[e])
              for r, group in uf.classes().items()}
    return {e: merged[uf.find(e)] for e in members}


def compose_gogs(outer: GraphOfGraphs, sub: Substitution,
                 inner: GraphOfGraphs) -> GraphOfGraphs:
    """The composite graph of graphs: inner refines the colimit of outer.

    For each vertex v of outer.base, restrict inner to the piece at v
    (through the universal embedding) and substitute, giving the composite
    piece at v.  Substituting the composite equals substituting inner into
    outer's colimit (monad associativity).
    """
    if set(inner.pieces) != set(sub.colimit.vertices):
        raise InvalidGraphOfGraphs("inner must be based on the outer colimit")
    pieces = {}
    for v, (piece, boundary) in outer.pieces.items():
        inner_pieces = {}
        for w in piece.vertices:
            pg, pb = inner.pieces[("p", v, w)]
            # piece half-edges embed as ("p", v, h) in the colimit
            back = {}
            for p_port, h_col in pb.items():
                if h_col[:2] != ("p", v):
                    raise InvalidGraphOfGraphs(
                        f"inner boundary half {h_col!r} is not in the piece "
                        f"at {v!r}")
                back[p_port] = h_col[2]
            inner_pieces[w] = (pg, back)
        restricted = GraphOfGraphs(piece, inner_pieces)
        inner_sub = substitute(restricted)
        new_boundary = {}
        for p_port, h in boundary.items():
            # the port of the new piece is the class containing the old port
            new_boundary[inner_sub.edge_class[p_port]] = h
        pieces[v] = (inner_sub.colimit, new_boundary)
    return GraphOfGraphs(outer.base, pieces)


# -- enumeration ---------------------------------------------------------------

def _matchings(points: list, ports_apart: bool = False):
    """Perfect matchings on an even list of points, one for each orbit of
    the stub permutations at each vertex; with no stub among the points,
    every perfect matching.

    A stub ("s", v, j) is a slot of vertex v, and the stubs of a vertex
    are consecutive and ascending in points.  A point pairs only with the
    lowest unmatched stub of each vertex, and, with ports_apart, a port
    ("x", ...) never pairs with another port.  The first member of an
    orbit in generation order has this form: had it paired a point with a
    stub while a lower stub of that vertex was free, swapping the two
    stubs would give an earlier member."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    seen_vertices = set()
    for i, p in enumerate(rest):
        if p[0] == "s":
            if p[1] in seen_vertices:
                continue
            seen_vertices.add(p[1])
        elif ports_apart and first[0] == "x":
            continue
        for m in _matchings(rest[:i] + rest[i + 1:], ports_apart):
            yield [(first, p)] + m


def _matching_connected(matching, n_vertices: int) -> bool:
    """Whether the graph that _graph_from_matching builds from the
    matching is connected (and not empty)."""
    uf = _UF()
    for vi in range(n_vertices):
        uf.add(("v", vi))
    for a, b in matching:
        uf.add(a)
        uf.add(b)
        uf.union(a, b)
        for p in (a, b):
            if p[0] == "s":
                uf.union(p, ("v", p[1]))
    return len({uf.find(x) for x in uf.parent}) == 1


def enumerate_x_graphs(labels, max_vertices: int, max_valency: int,
                       connected_only: bool = True,
                       admissible_only: bool = True) -> list:
    """One canonical XGraph per labeled isomorphism class within bounds.

    Generates by vertex-valency multisets, then perfect matchings on the
    port set plus vertex stubs, one matching per orbit of the stub
    permutations at each vertex (a point pairs only with the lowest
    unmatched stub of each vertex).  Admissibility (no port-port pair) and
    connectivity are decided on the matching, so only kept matchings
    become graphs; vertices of equal valency are still interchangeable,
    so classes are deduplicated by canonical form.  Each generated
    matching is charged to FEYNGRAPH_MAX_SEARCH.
    """
    require_nonnegative("enumerate_x_graphs", max_vertices=max_vertices,
                        max_valency=max_valency)
    labels = list(labels)
    budget = SearchBudget("enumerated matchings")
    found = {}
    for nv in range(max_vertices + 1):
        for valencies in itertools.combinations_with_replacement(
                range(0, max_valency + 1), nv):
            total = len(labels) + sum(valencies)
            if total % 2:
                continue
            points = [("x", x) for x in labels]
            for vi, d in enumerate(valencies):
                points += [("s", vi, j) for j in range(d)]
            for matching in _matchings(points, admissible_only):
                budget.spend()
                if connected_only and not _matching_connected(matching, nv):
                    continue
                x = XGraph(*_graph_from_matching(labels, valencies, matching))
                key = x.canonical_key()
                if key not in found:
                    found[key] = x
    return [found[k] for k in sorted(found)]


def _graph_from_matching(labels, valencies, matching):
    edges = []
    tau = {}
    halves, s, t, verts = [], {}, {}, []
    for vi, d in enumerate(valencies):
        verts.append(("v", vi))
    for (a, b) in matching:
        edges += [a, b]
        tau[a], tau[b] = b, a
    for p in edges:
        if p[0] == "s":
            _, vi, j = p
            h = ("h", vi, j)
            halves.append(h)
            s[h] = p
            t[h] = ("v", vi)
    g = FeynmanGraph(edges, tau, halves, s, t, verts)
    labeling = {("x", x): x for x in labels}
    return g, labeling
