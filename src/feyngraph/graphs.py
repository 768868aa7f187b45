"""Feynman graphs: the diagram E <-> E <- H -> V with a fixed-point-free
edge involution.

A graph is stored as three id-sets (edges, half_edges, vertices) and three
maps: s (half-edge to edge, injective), t (half-edge to vertex), tau (edge
involution without fixed points).  Ports are the edges outside the image of
s; they form the boundary.  Everything downstream (gluing, substitution,
free monads) is built on this one class.

A graph is an immutable value: its id-sets are frozensets and its maps are
read-only.  So what is derived from it alone (the sorted id orders, the
nerve's Kleisli record, its vertex deletions and connected components)
is computed once and kept on the graph.

Graphs are built by the named constructors (empty_graph, stick,
isolated_vertex, corolla, line, wheel), by tagged_union, the one
disjoint union, and by the gluing and substitution modules; io writes
and reads them as JSON.

Ids are strs, ints, or tuples or frozensets of ids (tuples appear as
tags after disjoint unions and quotients, frozensets as the edge classes
of a colimit).  Canonical labeling maps them to dense integers
deterministically.

Three memos last for the whole process and grow with what it sees: the
sort key and the key text of each distinct id (idkey, idstr), and the
labelling plan of each distinct shape, a graph with its ids replaced by
their sorted positions (_plan, behind canonical_labelings,
XGraph.canonical_key and monads.telem_key).  A fourth, in the nerve
module, does not grow: nerve._pass, an lru_cache of size one,
holds the Kleisli morphisms of the last corpus pass (see
nerve._memo_morphisms); Kleisli frames live on the graph and
substitution they come from, not in a process memo.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Optional, Sequence

from .errors import (
    BadParameter,
    DanglingId,
    FixedPointInTau,
    NonInjectiveS,
    NotCommuting,
    TauNotInvolutive,
    UnknownEdge,
    UnknownVertex,
)

Id = Any  # a str, an int, or a tuple or frozenset of ids

_IDKEYS: dict = {}   # marshal bytes of an id -> its idkey
_IDSTRS: dict = {}   # marshal bytes of a tuple or frozenset id -> its idstr


def _memo_key(x: Id):
    """The key of x in the id memos: its marshal bytes, which carry the
    type of every member, so that 1, True and 1.0 get different keys at
    any depth.  Version 2 writes no back-references, so equal values of
    equal types give equal bytes, except that a frozenset's bytes follow
    its iteration order: such a key can miss, never hit the wrong entry.
    None, which is never stored, for a value marshal cannot write: no
    valid id is one."""
    try:
        return marshal.dumps(x, 2)
    except ValueError:
        return None


def _not_an_id(x: Id) -> BadParameter:
    return BadParameter(f"id {x!r} is not a str, an int, or a tuple or "
                        "frozenset of ids")


def _check_hashable(x: Id) -> None:
    try:
        hash(x)
    except TypeError:
        raise BadParameter(f"id {x!r} is not hashable") from None


def idkey(x: Id) -> tuple:
    """Deterministic sort key for ids, computed once for each id.

    An int is keyed by its value, so ints sort as numbers; a str by its
    repr; a tuple by its members' keys.  A frozenset (the edge ids of a
    colimit) is keyed by the sorted keys of its members: its repr follows
    hash order, which changes from one process to the next.  An atom
    that is not a str or an int raises BadParameter.  A hit on the memo
    builds no repr."""
    m = _memo_key(x)
    hit = _IDKEYS.get(m)
    if hit is not None:
        return hit
    _check_hashable(x)
    t = type(x)
    if t is tuple:
        key = (1, tuple([idkey(y) for y in x]))
    elif t is frozenset:
        key = (0, "frozenset", tuple(sorted([idkey(y) for y in x])))
    elif t is int:
        key = (0, "int", x)
    elif t is str:
        key = (0, "str", repr(x))
    else:
        raise _not_an_id(x)
    _IDKEYS[m] = key
    return key


def sort_ids(ids: Iterable[Id]) -> list:
    return sorted(ids, key=idkey)


def idstr(x: Id) -> str:
    """The text of an id in keys, computed once for each id: its repr,
    except that a frozenset lists its members in idkey order, so that the
    text does not follow hash order.  The text of a str, an int or a
    tuple of them is its repr.  The memo is keyed as idkey's."""
    t = type(x)
    if t is str or t is int:
        return repr(x)
    m = _memo_key(x)
    hit = _IDSTRS.get(m)
    if hit is not None:
        return hit
    _check_hashable(x)
    if t is tuple:
        parts = [idstr(y) for y in x]
        text = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    elif t is frozenset:
        text = ("frozenset({" + ", ".join(map(idstr, sort_ids(x))) + "})"
                if x else "frozenset()")
    else:
        raise _not_an_id(x)
    _IDSTRS[m] = text
    return text


def pairs_text(pairs: Iterable, text=idstr) -> tuple:
    """The sorted (idstr(x), text(y)) pairs of a map given as its (x, y)
    pairs: the text of a map in keys."""
    return tuple(sorted((idstr(x), text(y)) for x, y in pairs))


def _copy(m: Mapping) -> dict:
    """A dict copy of m; a read-only view is copied at dict speed."""
    return m.copy() if type(m) is MappingProxyType else dict(m)


def read_only(m: Mapping) -> MappingProxyType:
    """A read-only view of a private copy of m.

    The maps of a graph and of a T-element are handed out this way:
    callers read them at dict speed and cannot change a value that others
    share.  m.copy() gives a mutable dict."""
    return MappingProxyType(_copy(m))


class _UF:
    """Union-find with path halving, behind every colimit and component
    search.  classes() lists each class's members in the order they were
    added, and the classes in the order of their first members, so no
    result depends on which member is a root."""
    __slots__ = ("parent",)

    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self) -> dict:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


class FeynmanGraph:
    """Immutable Feynman graph.  Construction validates all invariants
    (FeynmanGraph._trusted, for builders that guarantee them, does not)."""

    __slots__ = ("edges", "half_edges", "vertices", "s", "t", "tau",
                 "_s_inv", "_halves_at", "_ports", "_shape",
                 "_sorted_edges", "_sorted_vertices", "_kleisli", "_deletions",
                 "_components")

    def __init__(self, edges: Iterable[Id], tau: Mapping[Id, Id],
                 half_edges: Iterable[Id] = (), s: Optional[Mapping[Id, Id]] = None,
                 t: Optional[Mapping[Id, Id]] = None, vertices: Iterable[Id] = ()):
        self.edges = frozenset(edges)
        self.half_edges = frozenset(half_edges)
        self.vertices = frozenset(vertices)
        # plain dicts while validating, read-only views once valid
        self.s = s = _copy(s or {})
        self.t = t = _copy(t or {})
        self.tau = tau = _copy(tau)
        self._validate()
        self._index(s, t, tau)

    @classmethod
    def _trusted(cls, edges: frozenset, tau: dict, half_edges: frozenset,
                 s: dict, t: dict, vertices: frozenset,
                 halves_at: dict) -> "FeynmanGraph":
        """A graph whose builder guarantees every invariant, taken as
        given: the frozensets and dicts are kept, not copied, nothing is
        validated, and halves_at (vertex -> its halves in idkey order) is
        not sorted again.  Only for constructions that are valid by
        design; the tests check each against the validating constructor.
        A builder that knows the idkey order of the edges sets
        _sorted_edges, which is then not sorted again."""
        g = cls.__new__(cls)
        g.edges, g.half_edges, g.vertices = edges, half_edges, vertices
        g._index(s, t, tau)
        g._halves_at = halves_at
        return g

    def _index(self, s: dict, t: dict, tau: dict) -> None:
        """The derived lookups, then the maps as read-only views."""
        self._s_inv = {e: h for h, e in s.items()}
        self._halves_at = self._shape = None   # filled on first use
        self._ports = frozenset(self.edges - set(self._s_inv))
        self.s, self.t, self.tau = (MappingProxyType(s), MappingProxyType(t),
                                    MappingProxyType(tau))
        self._sorted_edges = self._sorted_vertices = None
        self._kleisli = None   # filled by nerve._kleisli_record
        self._deletions = None   # filled by monads._deletion
        self._components = None   # filled by monads._components

    def _validate(self) -> None:
        if set(self.tau) != self.edges:
            raise DanglingId("tau must be defined on exactly the edge set")
        for e, f in self.tau.items():
            if f not in self.edges:
                raise DanglingId(f"tau({e!r}) = {f!r} is not an edge")
            if f == e:
                raise FixedPointInTau(f"tau fixes edge {e!r}")
            if self.tau.get(f) != e:
                raise TauNotInvolutive(f"tau(tau({e!r})) != {e!r}")
        if set(self.s) != self.half_edges or set(self.t) != self.half_edges:
            raise DanglingId("s and t must be defined on exactly the half-edge set")
        seen: dict = {}
        for h in self.half_edges:
            e = self.s[h]
            if e not in self.edges:
                raise DanglingId(f"s({h!r}) = {e!r} is not an edge")
            if e in seen:
                raise NonInjectiveS(f"s({h!r}) = s({seen[e]!r}) = {e!r}")
            seen[e] = h
            if self.t[h] not in self.vertices:
                raise DanglingId(f"t({h!r}) = {self.t[h]!r} is not a vertex")
        for ids in (self.edges, self.half_edges, self.vertices):
            for x in ids:
                idkey(x)   # raises BadParameter for what is not an id

    # -- structural queries -------------------------------------------------

    @property
    def ports(self) -> frozenset:
        """E0 = edges outside the image of s."""
        return self._ports

    @property
    def sorted_edges(self) -> tuple:
        """The edges in idkey order, sorted once."""
        if self._sorted_edges is None:
            self._sorted_edges = tuple(sort_ids(self.edges))
        return self._sorted_edges

    @property
    def sorted_vertices(self) -> tuple:
        """The vertices in idkey order, sorted once."""
        if self._sorted_vertices is None:
            self._sorted_vertices = tuple(sort_ids(self.vertices))
        return self._sorted_vertices

    def inner_edges(self) -> frozenset:
        """Maximal tau-closed subset of the image of s."""
        im = self.edges - self._ports
        return frozenset(e for e in im if self.tau[e] in im)

    def orbits(self) -> list:
        """tau-orbits as sorted (e, tau e) pairs, deterministic order."""
        out = []
        seen = set()
        for e in self.sorted_edges:
            if e not in seen:
                f = self.tau[e]
                seen.update((e, f))
                out.append((e, f))
        return out

    def halves_at(self, v: Id) -> tuple:
        """The half-edges at v in idkey order: the one half order of v,
        which the graph keeps (the same tuple on every call), sorted on
        first use unless the builder handed it over (_trusted)."""
        if v not in self.vertices:
            raise UnknownVertex(repr(v))
        if self._halves_at is None:
            halves_at: dict = {w: [] for w in self.vertices}
            for h in sort_ids(self.half_edges):
                halves_at[self.t[h]].append(h)
            self._halves_at = {w: tuple(hs) for w, hs in halves_at.items()}
        return self._halves_at[v]

    def edges_at(self, v: Id) -> list:
        """E_v: edges incident to v, in half-edge order."""
        return [self.s[h] for h in self.halves_at(v)]

    def valency(self, v: Id) -> int:
        return len(self.halves_at(v))

    def vertex_of_edge(self, e: Id) -> Optional[Id]:
        """The vertex an edge is attached to, or None for a port."""
        if e not in self.edges:
            raise UnknownEdge(repr(e))
        h = self._s_inv.get(e)
        return None if h is None else self.t[h]

    def half_of_edge(self, e: Id) -> Optional[Id]:
        return self._s_inv.get(e)

    def stick_components(self) -> list:
        return [(e, f) for (e, f) in self.orbits()
                if e in self._ports and f in self._ports]

    def connected_components(self) -> list:
        """The connected subgraphs, in idkey order of their least id."""
        uf = _UF()
        for e in self.edges:
            uf.add(("e", e))
        for v in self.vertices:
            uf.add(("v", v))
        for e in self.edges:
            uf.union(("e", e), ("e", self.tau[e]))
        for h in self.half_edges:
            uf.union(("e", self.s[h]), ("v", self.t[h]))
        comps = []
        for members in sorted(uf.classes().values(),
                              key=lambda xs: idkey(min((x[1] for x in xs),
                                                       key=idkey))):
            es = {x for k, x in members if k == "e"}
            vs = {x for k, x in members if k == "v"}
            hs = {h for h in self.half_edges if self.s[h] in es}
            comps.append(FeynmanGraph(es, {e: self.tau[e] for e in es}, hs,
                                      {h: self.s[h] for h in hs},
                                      {h: self.t[h] for h in hs}, vs))
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    # -- builders ------------------------------------------------------------

    def relabel(self, edge_map: Mapping[Id, Id], half_map: Mapping[Id, Id],
                vertex_map: Mapping[Id, Id]) -> "FeynmanGraph":
        return FeynmanGraph(
            [edge_map[e] for e in self.edges],
            {edge_map[e]: edge_map[f] for e, f in self.tau.items()},
            [half_map[h] for h in self.half_edges],
            {half_map[h]: edge_map[e] for h, e in self.s.items()},
            {half_map[h]: vertex_map[v] for h, v in self.t.items()},
            [vertex_map[v] for v in self.vertices])

    def tagged(self, tag) -> "FeynmanGraph":
        """The graph with every id x written (tag, x): the one-part
        tagged_union."""
        return tagged_union([(tag, self)])

    def __repr__(self) -> str:
        return (f"FeynmanGraph(|E|={len(self.edges)}, |H|={len(self.half_edges)}, "
                f"|V|={len(self.vertices)}, ports={len(self.ports)})")


# -- named constructors -------------------------------------------------------

def empty_graph() -> FeynmanGraph:
    return FeynmanGraph((), {})


def stick() -> FeynmanGraph:
    return FeynmanGraph(["1", "2"], {"1": "2", "2": "1"})


def corolla(labels: Sequence[Id]) -> FeynmanGraph:
    """X-corolla: ports are the labels, each paired with an inner copy at
    the single vertex.  Its halves ("h", x) sort as the labels x do, so
    the corolla is built with that half order, unvalidated."""
    labels = sort_ids(labels)   # raises BadParameter for what is not an id
    inner = [("in", x) for x in labels]
    edges = frozenset(labels + inner)
    if len(edges) != 2 * len(labels):
        raise BadParameter("corolla labels must be distinct, and none the "
                           "inner copy of another")
    halves = tuple(("h", x) for x in labels)
    tau = dict(zip(labels + inner, inner + labels))
    return FeynmanGraph._trusted(edges, tau, frozenset(halves),
                                 dict(zip(halves, inner)),
                                 dict.fromkeys(halves, "*"),
                                 frozenset({"*"}), {"*": halves})


def isolated_vertex() -> FeynmanGraph:
    """C_0: one vertex, nothing else."""
    return FeynmanGraph((), {}, (), {}, {}, ["*"])


def line(k: int) -> FeynmanGraph:
    """L^k: 2k+2 edges l0..l(2k+1), tau(l_{2i}) = l_{2i+1}, k bivalent
    vertices with E_{v_i} = {l_{2i-1}, l_{2i}}; L^0 is the stick."""
    if k < 0:
        raise BadParameter("line(k) needs k >= 0")
    edges = [("l", i) for i in range(2 * k + 2)]
    tau = {}
    for i in range(k + 1):
        a, b = ("l", 2 * i), ("l", 2 * i + 1)
        tau[a], tau[b] = b, a
    halves, s, t, verts = [], {}, {}, []
    for i in range(1, k + 1):
        v = ("v", i)
        verts.append(v)
        for e in (("l", 2 * i - 1), ("l", 2 * i)):
            h = ("h",) + e[1:]
            halves.append(h)
            s[h] = e
            t[h] = v
    return FeynmanGraph(edges, tau, halves, s, t, verts)


def wheel(m: int) -> FeynmanGraph:
    """W^m: 2m edges in a cycle, m bivalent vertices, no ports."""
    if m < 1:
        raise BadParameter("wheel(m) needs m >= 1")
    n = 2 * m
    edges = [("l", i) for i in range(n)]
    tau = {}
    for i in range(m):
        a, b = ("l", 2 * i), ("l", 2 * i + 1)
        tau[a], tau[b] = b, a
    halves, s, t, verts = [], {}, {}, []
    for i in range(m):
        v = ("v", i)
        verts.append(v)
        for e in (("l", (2 * i - 1) % n), ("l", 2 * i)):
            h = ("h",) + e[1:]
            halves.append(h)
            s[h] = e
            t[h] = v
    return FeynmanGraph(edges, tau, halves, s, t, verts)


def tagged_union(parts: Iterable[tuple]) -> FeynmanGraph:
    """The disjoint union of (tag, graph) pairs with distinct tags; every
    id x of a graph becomes (tag, x)."""
    edges, tau, halves, s, t, verts = [], {}, [], {}, {}, []
    for tag, g in parts:
        edges += [(tag, e) for e in g.edges]
        tau.update({(tag, e): (tag, f) for e, f in g.tau.items()})
        halves += [(tag, h) for h in g.half_edges]
        s.update({(tag, h): (tag, e) for h, e in g.s.items()})
        t.update({(tag, h): (tag, v) for h, v in g.t.items()})
        verts += [(tag, v) for v in g.vertices]
    return FeynmanGraph(edges, tau, halves, s, t, verts)


def disjoint_union(g: FeynmanGraph, h: FeynmanGraph) -> FeynmanGraph:
    """The tagged_union of g and h with the tags "L" and "R"."""
    return tagged_union([("L", g), ("R", h)])


# -- canonical labeling -------------------------------------------------------

@dataclass(frozen=True)
class CanonicalForm:
    relabeled_graph: FeynmanGraph
    certificate: str
    edge_index: Mapping[Id, int]
    vertex_index: Mapping[Id, int]


_SHAPES: dict = {}   # (tokens, shape) -> labelling plan, see _plan


def _refine(edges, verts, tau, vert_of, edges_at, col):
    """Iterated colour refinement; returns a stable colouring by ints.

    Each round's colour of x begins with x's previous colour, so each
    round refines the last, and the partition is stable as soon as the
    number of colour classes stops growing."""
    items = edges + verts
    n_classes = len(set(col.values()))
    while True:
        new = {}
        for e in edges:
            w = vert_of.get(e)
            new[e] = (col[e], col[tau[e]], None if w is None else col[w])
        for v in verts:
            new[v] = (col[v], tuple(sorted(col[e] for e in edges_at[v])))
        classes = sorted(set(new.values()), key=repr)
        ranks = {t: i for i, t in enumerate(classes)}
        nxt = {x: ranks[new[x]] for x in items}
        if len(classes) == n_classes:
            return nxt
        n_classes = len(classes)
        col = nxt


def _label_shape(e_vals: Optional[tuple], taus: tuple,
                 vhalves: tuple) -> tuple:
    """The search behind canonical_labelings, on a graph given by shape.

    Edge i has the token e_vals[i] and tau(i) = taus[i]; vertex j is
    item len(taus) + j of the colourings, and vhalves[j] lists its edges.
    Returns the minimal certificate and the labelings that achieve it,
    each a pair of tuples (label of edge i, label of vertex j)."""
    ne = len(taus)
    edges = tuple(range(ne))
    verts = tuple(range(ne, ne + len(vhalves)))
    tau = dict(enumerate(taus))
    edges_at = {ne + j: hp for j, hp in enumerate(vhalves)}
    vert_of = {e: v for v, hp in edges_at.items() for e in hp}
    e_tok = tuple(repr(("e", e not in vert_of, t))
                  for e, t in zip(edges, e_vals or (None,) * ne))
    v_tok = tuple(repr(("v", len(hp), None)) for hp in vhalves)
    tok_rank = {t: i for i, t in enumerate(sorted(set(e_tok) | set(v_tok)))}
    base = {x: tok_rank[t] for x, t in zip(edges + verts, e_tok + v_tok)}

    best: list = [None, []]  # [certificate, labelings]

    def finish(col):
        order_e = sorted(edges, key=lambda e: col[e])
        order_v = sorted(verts, key=lambda v: col[v])
        eidx = {e: i for i, e in enumerate(order_e)}
        vidx = {v: i for i, v in enumerate(order_v)}
        cert = (
            tuple((e_tok[e], eidx[tau[e]],
                   -1 if e not in vert_of else vidx[vert_of[e]])
                  for e in order_e),
            tuple(v_tok[v - ne] for v in order_v),
        )
        lab = (tuple(eidx[e] for e in edges), tuple(vidx[v] for v in verts))
        if best[0] is None or cert < best[0]:
            best[0] = cert
            best[1] = [lab]
        elif cert == best[0] and lab not in best[1]:
            best[1].append(lab)

    def search(col):
        cells: dict = {}
        for x in edges + verts:
            cells.setdefault(col[x], []).append(x)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            finish(col)
            return
        n_colors = max(col.values()) + 1
        for x in target:
            col2 = dict(col)
            col2[x] = n_colors
            search(_refine(edges, verts, tau, vert_of, edges_at, col2))

    search(_refine(edges, verts, tau, vert_of, edges_at, base))
    return best[0], tuple(best[1])


def _plan(g: FeynmanGraph, e_vals: Optional[tuple]) -> tuple:
    """(certificate, labelings by position, the certificate's repr, vertex
    plans) of g with the edge tokens e_vals (in sorted_edges order, or
    None), once per shape: the tokens in marshal form, where 1 and True
    differ (their reprs if marshal cannot write them), and, kept on g, tau
    of each edge and the edges of each vertex's halves in halves_at order,
    by position.  A labelling's vertex plan lists by vertex label each
    vertex's (label, position, permutation that reads its halves in the
    order of their edges' labels)."""
    try:
        # version 2 writes no back-references, so equal tokens of equal
        # types give equal bytes
        token_key = marshal.dumps(e_vals, 2)
    except ValueError:
        token_key = tuple(map(repr, e_vals))
    shape = g._shape
    if shape is None:
        epos = {e: i for i, e in enumerate(g.sorted_edges)}
        shape = g._shape = (
            tuple([epos[g.tau[e]] for e in g.sorted_edges]),
            tuple([tuple([epos[g.s[h]] for h in g.halves_at(v)])
                   for v in g.sorted_vertices]))
    plan = _SHAPES.get((token_key, shape))
    if plan is None:
        cert, labs = _label_shape(e_vals, *shape)
        vplans = tuple(tuple(sorted(
            (vi[j], j, tuple(sorted(range(len(hp)), key=lambda k: ei[hp[k]])))
            for j, hp in enumerate(shape[1]))) for ei, vi in labs)
        plan = _SHAPES[(token_key, shape)] = (cert, labs, repr(cert), vplans)
    return plan


def canonical_labelings(g: FeynmanGraph,
                        edge_tokens: Optional[Mapping[Id, Any]] = None):
    """Individualisation-refinement canonical labeling.

    Returns (certificate, labelings) where labelings is a tuple of pairs
    of read-only dicts (edge -> int, vertex -> int) achieving the minimal
    certificate.  The set of labelings is the canonical map composed with
    every automorphism that preserves the given tokens.

    The search runs on the shape of g: its tokens and its tau and vertex
    maps, with each id replaced by its position in sorted_edges or
    sorted_vertices.  Graphs of one shape share the certificate and,
    position for position, the labelings, so the search runs once for
    each shape in the process (see _plan).
    """
    edges = g.sorted_edges
    e_vals = tuple(map(edge_tokens.get, edges)) if edge_tokens else None
    cert, labs, _, _ = _plan(g, e_vals)
    verts = g.sorted_vertices
    return cert, tuple((MappingProxyType(dict(zip(edges, ei))),
                        MappingProxyType(dict(zip(verts, vi))))
                       for ei, vi in labs)


def canonical_form(g: FeynmanGraph,
                   port_labels: Optional[Mapping[Id, Any]] = None) -> CanonicalForm:
    """Deterministic isomorphism-invariant relabeling onto dense ids.

    If port_labels is given (edge -> label on ports), labels are part of
    the certificate, so two X-graphs get equal forms iff they are
    isomorphic by a label-preserving isomorphism.
    """
    cert, labelings = canonical_labelings(g, edge_tokens=port_labels)
    eidx, vidx = labelings[0]
    edge_map = {e: f"e{eidx[e]}" for e in g.edges}
    vert_map = {v: f"v{vidx[v]}" for v in g.vertices}
    half_map = {h: f"h{eidx[g.s[h]]}" for h in g.half_edges}
    return CanonicalForm(g.relabel(edge_map, half_map, vert_map),
                         repr(cert), eidx, vidx)


def automorphisms(g: FeynmanGraph,
                  edge_tokens: Optional[Mapping[Id, Any]] = None) -> list:
    """All automorphisms preserving the given edge tokens, as
    (edge_map, half_map, vertex_map) triples."""
    _, labelings = canonical_labelings(g, edge_tokens)
    eidx0, vidx0 = labelings[0]
    inv_e = {i: e for e, i in eidx0.items()}
    inv_v = {i: v for v, i in vidx0.items()}
    out = []
    for eidx, vidx in labelings:
        em = {e: inv_e[eidx[e]] for e in g.edges}
        vm = {v: inv_v[vidx[v]] for v in g.vertices}
        hm = {h: g.half_of_edge(em[g.s[h]]) for h in g.half_edges}
        out.append((em, hm, vm))
    return out


def is_isomorphic(g: FeynmanGraph, h: FeynmanGraph,
                  port_labels_g: Optional[Mapping[Id, Any]] = None,
                  port_labels_h: Optional[Mapping[Id, Any]] = None):
    """Isomorphism witness (edge_map, half_map, vertex_map) or None.

    With port labelings on both sides the witness preserves labels.
    """
    cg, labs_g = canonical_labelings(g, edge_tokens=port_labels_g)
    ch, labs_h = canonical_labelings(h, edge_tokens=port_labels_h)
    if cg != ch:
        return None
    eg, vg = labs_g[0]
    eh, vh = labs_h[0]
    inv_eh = {i: e for e, i in eh.items()}
    inv_vh = {i: v for v, i in vh.items()}
    edge_map = {e: inv_eh[eg[e]] for e in g.edges}
    vertex_map = {v: inv_vh[vg[v]] for v in g.vertices}
    half_map = {hh: h.half_of_edge(edge_map[g.s[hh]]) for hh in g.half_edges}
    # equal certificates must give a structure-preserving bijection
    if not (all(edge_map[g.tau[e]] == h.tau[edge_map[e]] for e in g.edges)
            and all(h.s[half_map[hh]] == edge_map[g.s[hh]]
                    for hh in g.half_edges)
            and all(h.t[half_map[hh]] == vertex_map[g.t[hh]]
                    for hh in g.half_edges)):
        raise NotCommuting("equal certificates gave a map that is not an "
                           "isomorphism")
    return (edge_map, half_map, vertex_map)
