"""Pointed graphs, bounded free constructions (T, D, L and composites),
the three distributive laws between them, and the Yang-Baxter checker.

T builds connected decorated graphs (substitution is its multiplication),
D adjoins formal units/contracted units at arities 2 and 0, and L builds
free graded commutative monoids (disjoint unions).  Each is described
once: a species constructor, a unit eta_*, a multiplication mu_* and a
functor map _fmap_*.  Each species object builds its elements of an
arity once, and writes an element's key as text through key_text, which
a T-element keeps beside its key.  Each monad law is stated once over
that description, and check_beck states Beck's four axioms once, for
any law lambda: A B => B A.  check_monad_laws, check_t_associativity,
check_beck and yang_baxter_sweep run their instances, the elements of
each law's domain arity by arity, through species._sweep, the one sweep
of every axiom checker.  An L element's key ignores the order of its
factors, so L values are normed only where they are built, not to be
compared.  The composite L.D.T carries a circuit-algebra structure; see
FreeCircuitAlgebra.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import (ColourMismatch, FormatError, InvalidGraphOfGraphs,
                     Mismatch, NotCommuting, NotDeletable,
                     NotLocallyBijective, OutOfBounds, require_nonnegative)
from .etale import EtaleMorphism, glue_ports
from .graphs import (FeynmanGraph, _UF, canonical_labelings, corolla,
                     idkey, idstr, pairs_text, read_only, sort_ids,
                     tagged_union)
from .species import CircuitAlgebraOps, SpeciesOps, _sweep, evaluate_species
from .substitution import (GraphOfGraphs, SearchBudget, enumerate_x_graphs,
                           identity_half, identity_piece, substitute)

__all__ = [
    "VertexDeletion", "PointedMorphism", "FreeElement", "TElem",
    "delete_vertices", "deletable_vertices", "similarity_terminal",
    "hom_etale", "hom_pointed",
    "TSpecies", "DSpecies", "LSpecies",
    "eta_T", "mu_T", "eta_D", "mu_D", "eta_L", "mu_L",
    "law_DT", "law_LT", "law_LD",
    "check_monad_laws", "check_beck", "check_yang_baxter",
    "yang_baxter_sweep", "free_apply", "FreeCircuitAlgebra",
]


# -- vertex deletion ----------------------------------------------------------------

@dataclass
class VertexDeletion:
    """The similarity morphism G -> G\\W for a set W of bivalent or
    isolated vertices: bivalent vertices are replaced by stick pieces via
    substitution; each isolated vertex is removed, spawning a fresh stick
    component (the map z: C_0 -> stick)."""
    source: FeynmanGraph
    deleted: frozenset
    target: FeynmanGraph
    edge_correspondence: dict   # source edge -> target edge
    half_map: dict              # half at an undeleted vertex -> target half
    vertex_map: dict            # undeleted vertex -> target vertex
    fresh_sticks: dict          # deleted isolated vertex -> (edge, tau edge)


def _deleted_stick(g: FeynmanGraph, v) -> tuple:
    """The piece that replaces a deleted bivalent vertex v of g, with its
    boundary: a stick tagged ("del", v) whose ends go to v's halves in
    half order."""
    h1, h2 = g.halves_at(v)
    end1, end2 = (("del", v), "1"), (("del", v), "2")
    piece = FeynmanGraph((end1, end2), {end1: end2, end2: end1})
    return piece, {end1: h1, end2: h2}


def delete_vertices(g: FeynmanGraph, w) -> VertexDeletion:
    """Delete the bivalent and isolated vertices w of g: substitute
    _deleted_stick at each deleted bivalent vertex and identity_piece at
    every other vertex."""
    w = frozenset(w)
    for v in w:
        if v not in g.vertices:
            raise NotDeletable(f"unknown vertex {v!r}")
        if g.valency(v) not in (0, 2):
            raise NotDeletable(f"vertex {v!r} has valency {g.valency(v)}")
    isolated = {v for v in w if g.valency(v) == 0}
    bivalent = w - isolated
    # isolated deleted vertices carry no edges; just drop them (a graph is
    # immutable, so without any it is g itself)
    g1 = g if not isolated else FeynmanGraph(
        g.edges, g.tau, g.half_edges, g.s, g.t,
        [v for v in g.vertices if v not in isolated])
    if bivalent:
        kept = [v for v in g1.vertices if v not in bivalent]
        sub = substitute(GraphOfGraphs(g1, {
            v: _deleted_stick(g1, v) if v in bivalent
            else identity_piece(g1, v) for v in g1.vertices}))
        target = sub.colimit
        edge_corr = sub.edge_class
        vmap = {v: ("p", v, "*") for v in kept}
        hmap = {h: identity_half(v, h) for v in kept for h in g1.halves_at(v)}
    else:
        target = g1
        edge_corr = {e: e for e in g1.edges}
        vmap = {v: v for v in g1.vertices}
        hmap = {h: h for h in g1.half_edges}
    fresh = {}
    if isolated:
        # a fresh stick per deleted isolated vertex, all in one build
        tau = target.tau.copy()
        for v in sort_ids(isolated):
            e1, e2 = (("z", v), "1"), (("z", v), "2")
            tau[e1], tau[e2] = e2, e1
            fresh[v] = (e1, e2)
        target = FeynmanGraph(tau.keys(), tau, target.half_edges, target.s,
                              target.t, target.vertices)
    return VertexDeletion(g, w, target, edge_corr, hmap, vmap, fresh)


def deletable_vertices(g: FeynmanGraph) -> list:
    return [v for v in sort_ids(g.vertices) if g.valency(v) in (0, 2)]


def similarity_terminal(g: FeynmanGraph):
    """The terminal object of the connected similarity class: delete every
    bivalent and isolated vertex.  Returns (target, VertexDeletion)."""
    d = delete_vertices(g, deletable_vertices(g))
    return d.target, d


# -- etale hom enumeration ----------------------------------------------------------

def _bfs_order(g: FeynmanGraph, root):
    seen, order, queue = {root}, [root], [root]
    while queue:
        v = queue.pop(0)
        for h in g.halves_at(v):
            a = g.tau[g.s[h]]
            w = g.vertex_of_edge(a)
            if w is not None and w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    return order


def _component_homs(sub: FeynmanGraph, h: FeynmanGraph) -> list:
    verts = sort_ids(sub.vertices)
    if not verts:
        e0 = min(sub.edges, key=idkey)
        return [({e0: f, sub.tau[e0]: h.tau[f]}, {}, {})
                for f in sort_ids(h.edges)]
    order = _bfs_order(sub, verts[0])
    out = []

    def rec(i, em, hm, vm):
        if i == len(order):
            out.append((dict(em), dict(hm), dict(vm)))
            return
        v = order[i]
        hs = sub.halves_at(v)
        for w in sort_ids(h.vertices):
            if h.valency(w) != len(hs):
                continue
            for perm in itertools.permutations(h.halves_at(w)):
                em2, hm2, vm2 = dict(em), dict(hm), dict(vm)
                vm2[v] = w
                ok = True
                for hh, th in zip(hs, perm):
                    hm2[hh] = th
                    for a, b in ((sub.s[hh], h.s[th]),
                                 (sub.tau[sub.s[hh]], h.tau[h.s[th]])):
                        if a in em2 and em2[a] != b:
                            ok = False
                            break
                        em2[a] = b
                    if not ok:
                        break
                if ok:
                    rec(i + 1, em2, hm2, vm2)

    rec(0, {}, {}, {})
    return out


def _components(g: FeynmanGraph) -> list:
    """g.connected_components(), kept on g: hom_etale splits each source
    once, for any target."""
    if g._components is None:
        g._components = g.connected_components()
    return g._components


def hom_etale(g: FeynmanGraph, h: FeynmanGraph) -> list:
    """All etale morphisms g -> h.  Their number, the product of the hom
    counts of g's components, is charged to FEYNGRAPH_MAX_SEARCH before
    any of them is built."""
    per = []
    for sub in _components(g):
        homs = _component_homs(sub, h)
        if not homs:
            return []
        per.append(homs)
    SearchBudget("etale homs").spend(math.prod(map(len, per)))
    out = []
    for combo in itertools.product(*per):
        em, hm, vm = {}, {}, {}
        for e2, h2, v2 in combo:
            em.update(e2)
            hm.update(h2)
            vm.update(v2)
        out.append(EtaleMorphism(g, h, em, hm, vm))
    return out


# -- pointed morphisms --------------------------------------------------------------

@dataclass
class PointedMorphism:
    """A pointed morphism G -> H: one vertex deletion of the source,
    G -> G\\W (the similarity part), followed by an etale tail
    G\\W -> H.  In hom_pointed's normal form W is maximal: it holds
    every bivalent vertex along whose deletion the tail restricts.  The
    key reads only source ids and their images in the target, so two
    morphisms are equal when their keys are."""
    source: FeynmanGraph
    target: FeynmanGraph
    similarity_part: VertexDeletion
    etale_part: EtaleMorphism   # tail from similarity_part.target
    _key: Optional[tuple] = None

    @property
    def deleted(self) -> frozenset:
        return self.similarity_part.deleted

    def key(self):
        if self._key is None:
            d = self.similarity_part
            # ids are written by idstr: the repr of a colimit edge follows
            # hash order
            em = pairs_text((x, self.edge_image(x)) for x in self.source.edges)
            vm = pairs_text((v, self.vertex_image(v)) for v in d.vertex_map)
            fr = []
            for v in sort_ids(d.fresh_sticks):
                ia, ib = sorted(map(idstr, self.fresh_images(v)))
                fr.append((idstr(v), ia, ib))
            self._key = (tuple(sorted(map(idstr, d.deleted))), em, vm,
                         tuple(fr))
        return self._key

    # composite source -> target correspondences
    def edge_image(self, x):
        return self.etale_part.edge_map[
            self.similarity_part.edge_correspondence[x]]

    def vertex_image(self, v):
        return self.etale_part.vertex_map[self.similarity_part.vertex_map[v]]

    def half_image(self, h):
        return self.etale_part.half_map[self.similarity_part.half_map[h]]

    def fresh_images(self, v):
        a, b = self.similarity_part.fresh_sticks[v]
        return (self.etale_part.edge_map[a], self.etale_part.edge_map[b])


def _push_forward(d: VertexDeletion, target: FeynmanGraph, em, hm, vm,
                  fresh_em=None) -> EtaleMorphism:
    """The etale map d.target -> target through which a map out of
    d.source factors along the deletion d: em gives the image of every
    source edge, hm and vm those of the halves and vertices that d keeps,
    and fresh_em the image pair of the fresh stick of each deleted
    isolated vertex.  Raises Mismatch when em is not constant on an edge
    class that d merges, and NotCommuting or NotLocallyBijective when the
    result is not etale."""
    em_t = {}
    for x, c in d.edge_correspondence.items():
        y = em[x]
        if em_t.setdefault(c, y) != y:
            raise Mismatch("tail edge map inconsistent on merged classes")
    for v, (a, b) in d.fresh_sticks.items():
        em_t[a], em_t[b] = fresh_em[v]
    return EtaleMorphism(d.target, target, em_t,
                         {d.half_map[h]: hm[h] for h in d.half_map},
                         {d.vertex_map[v]: vm[v] for v in d.vertex_map})


def hom_pointed(g: FeynmanGraph, h: FeynmanGraph) -> list:
    """All pointed morphisms g -> h in (similarity, etale) normal form.

    Each (deleted set W, etale tail from g\\W) is normalized by absorbing
    every further bivalent vertex along whose deletion the tail
    restricts, so that partial wheel deletions collapse onto the full
    one; the absorbed deletion is looked up in g's own deletion table.
    Fresh sticks from isolated-vertex deletion are counted up to
    orientation flip (contracted-unit coinvariants)."""
    return list(_deletion_homs(g, h, True))


def _deletion(g: FeynmanGraph, w0: tuple) -> VertexDeletion:
    """delete_vertices(g, w0), kept on g by the vertex tuple w0 (in
    sort_ids order), so that the calls for one g and any target, pointed
    or Kleisli, delete each vertex set once."""
    if g._deletions is None:
        g._deletions = {}
    d = g._deletions.get(w0)
    if d is None:
        d = g._deletions[w0] = delete_vertices(g, w0)
    return d


def _deletion_homs(g: FeynmanGraph, h: FeynmanGraph, absorb: bool,
                   build=None):
    """The morphisms g -> h that delete a set of deletable vertices of g
    and then map etale: each pointed morphism normalized with `absorb`,
    or what `build` makes of it, once per key, in order of the deleted
    set.  Without absorb the empty set is left out, for the etale maps
    themselves are not deletions.  The vertex sets are charged to
    FEYNGRAPH_MAX_SEARCH before any is tried."""
    dels = deletable_vertices(g)
    smallest = 0 if absorb else 1
    SearchBudget("deletion vertex sets").spend(2 ** len(dels) - smallest)
    seen = set()
    for r in range(smallest, len(dels) + 1):
        for w0 in itertools.combinations(dels, r):
            d = _deletion(g, w0)
            for e in hom_etale(d.target, h):
                m = _normalized_pointed(g, h, d, e, absorb)
                if build is not None:
                    m = build(m)
                if m.key() not in seen:
                    seen.add(m.key())
                    yield m


def _normalized_pointed(g, h, d: VertexDeletion, e: EtaleMorphism,
                        absorb: bool = True) -> PointedMorphism:
    """The pointed morphism g -> h that deletes d.deleted and maps by e.
    With absorb, each bivalent vertex v of g that d keeps is deleted too
    when the tail restricts along the deletion of d.deleted | {v}.  That
    depends on v alone: the composite edge map is constant on a class
    that a vertex set merges exactly when it is constant on the classes
    that each of its vertices merges, so one pass finds them all."""
    pm = PointedMorphism(g, h, d, e)
    if not absorb:
        return pm
    maps = ({x: pm.edge_image(x) for x in g.edges},
            {x: pm.half_image(x) for x in d.half_map},
            {v: pm.vertex_image(v) for v in d.vertex_map},
            {v: pm.fresh_images(v) for v in d.fresh_sticks})
    w = set(d.deleted)
    for v in sort_ids(d.vertex_map):
        if g.valency(v) != 2:
            continue
        try:
            _push_forward(_deletion(g, tuple(sort_ids(d.deleted | {v}))), h,
                          *maps)
        except (Mismatch, NotCommuting, NotLocallyBijective):
            continue
        w.add(v)
    if len(w) == len(d.deleted):
        return pm
    d = _deletion(g, tuple(sort_ids(w)))
    return PointedMorphism(g, h, d, _push_forward(d, h, *maps))


# -- decorated connected graphs (T elements) ----------------------------------------

@dataclass(frozen=True, eq=False)
class TElem:
    """A connected admissible graph with ports in position order, an edge
    colouring and a vertex decoration: at each vertex v an element whose
    positions are the halves at v in the graph's order, g.halves_at(v).

    Immutable: colours and vdec are read-only, so a key computed once
    stays valid; telem_key keeps it on the element, TSpecies.key_text
    keeps its text beside it, and TSpecies.act keeps each permuted
    element on the element it permutes, so that a permuted element is
    built, keyed and written once."""
    graph: FeynmanGraph
    ports: tuple                # position -> port edge
    colours: Mapping            # edge -> colour
    vdec: Mapping               # vertex -> element
    _key: Optional[tuple] = field(default=None, init=False, repr=False)
    _str: Optional[tuple] = field(default=None, init=False, repr=False)
    _acted: Optional[dict] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "colours", read_only(self.colours))
        object.__setattr__(self, "vdec", read_only(self.vdec))

    def __repr__(self):
        return (f"TElem(|V|={len(self.graph.vertices)}, "
                f"arity={len(self.ports)})")


def _reordered(S: SpeciesOps, x, src: tuple, dst: tuple):
    """x, whose position i is the half src[i], moved so that its position
    i is the half dst[i]; dst orders the same halves as src."""
    if src == dst:
        return x
    return S.act(x, tuple(src.index(h) for h in dst))


def telem_key(S: SpeciesOps, t: TElem) -> tuple:
    """Canonical key of a decorated graph: minimum over all colour- and
    port-preserving canonical labelings of the transported decoration.
    Kept on t, for the species S it was computed with."""
    if t._key is not None and t._key[0] is S:
        return t._key[1]
    port_pos = {e: i for i, e in enumerate(t.ports)}
    tokens = {e: (repr(t.colours[e]), port_pos.get(e, -1))
              for e in t.graph.edges}
    cert, labs = canonical_labelings(t.graph, edge_tokens=tokens)
    text = repr(cert)   # once, not once per labelling
    best = None
    for eidx, vidx in labs:
        vser = []
        for v in t.graph.vertices:
            order = t.graph.halves_at(v)
            new_order = sorted(order, key=lambda hh: eidx[t.graph.s[hh]])
            perm = tuple(order.index(hh) for hh in new_order)
            vser.append((vidx[v], S.key_text(S.act(t.vdec[v], perm))))
        cand = (text, tuple(sorted(vser)))
        if best is None or cand < best:
            best = cand
    object.__setattr__(t, "_key", (S, best))
    return best


def _built_once(S: SpeciesOps, n: int, build) -> list:
    """S's elements of arity n, made by build(n) on the first call for S
    and n: a later call runs no search, so spends no budget.  Each call
    gets a list of its own."""
    got = S._built.get(n)
    if got is None:
        got = S._built[n] = build(n)
    return list(got)


class TSpecies(SpeciesOps):
    """T S: connected admissible decorated graphs with ports as boundary,
    bounded by vertex count and valency.  Like DSpecies and LSpecies, it
    builds its elements of each arity once."""

    def __init__(self, inner: SpeciesOps, max_vertices: int = 2,
                 max_valency: int = 3):
        require_nonnegative("TSpecies", max_vertices=max_vertices,
                            max_valency=max_valency)
        self.inner = inner
        self.palette = inner.palette
        self.max_vertices = max_vertices
        self.max_valency = min(max_valency, inner.n_max)
        self.n_max = self.max_vertices * self.max_valency
        self._built: dict = {}   # arity -> elements

    def elements(self, n):
        return _built_once(self, n, self._build)

    def _build(self, n):
        out, seen = [], set()
        for xg in enumerate_x_graphs(list(range(n)), self.max_vertices,
                                     self.max_valency):
            inv = {lab: e for e, lab in xg.labeling.items()}
            ports = tuple(inv[i] for i in range(n))
            for dec in evaluate_species(self.inner, xg.graph):
                t = TElem(xg.graph, ports, dec.edge_colours,
                          dec.vertex_elems)
                k = self.key(t)
                if k not in seen:
                    seen.add(k)
                    out.append(t)
        return out

    def colour_of(self, t: TElem):
        return tuple(t.colours[e] for e in t.ports)

    def act(self, t: TElem, sigma):
        sigma = tuple(sigma)
        if sigma == tuple(range(len(sigma))):
            return t
        acted = t._acted
        if acted is None:
            acted = {}
            object.__setattr__(t, "_acted", acted)
        u = acted.get(sigma)
        if u is None:
            u = acted[sigma] = TElem(t.graph, tuple(t.ports[i] for i in sigma),
                                     t.colours, t.vdec)
        return u

    def key(self, t: TElem):
        return ("T",) + telem_key(self.inner, t)

    def key_text(self, t: TElem) -> str:
        """The text of key(t), kept on t beside its key for the inner
        species it was computed with: the key of a T S element depends
        on S alone."""
        memo = t._str
        if memo is not None and memo[0] is self.inner:
            return memo[1]
        text = repr(self.key(t))
        object.__setattr__(t, "_str", (self.inner, text))
        return text


class DSpecies(SpeciesOps):
    """D S: S with a formal unit eps_c at arity 2 for every colour and a
    contracted unit o for every omega-orbit of colours at arity 0."""

    def __init__(self, inner: SpeciesOps):
        self.inner = inner
        self.palette = inner.palette
        self.n_max = max(inner.n_max, 2)
        self.omega_fixed = sort_ids(
            [c for c in inner.palette.colours if inner.palette.omega[c] == c])
        self._built: dict = {}   # arity -> elements

    def _orbit_classes(self):
        om = self.palette.omega
        return sorted({frozenset({c, om[c]}) for c in self.palette.colours},
                      key=lambda s: sorted(map(repr, s)))

    def elements(self, n):
        return _built_once(self, n, self._build)

    def _build(self, n):
        out = [("b", x) for x in self.inner.elements(n)]
        if n == 2:
            out += [("eps", c) for c in sort_ids(self.palette.colours)]
        if n == 0:
            out += [("o", cls) for cls in self._orbit_classes()]
        return out

    def colour_of(self, d):
        if d[0] == "b":
            return self.inner.colour_of(d[1])
        if d[0] == "eps":
            return (d[1], self.palette.omega[d[1]])
        return ()

    def act(self, d, sigma):
        if d[0] == "b":
            return ("b", self.inner.act(d[1], sigma))
        if d[0] == "eps":
            if tuple(sigma) == (1, 0):
                return ("eps", self.palette.omega[d[1]])
            return d
        return d

    def key(self, d):
        if d[0] == "b":
            return ("D", "b", self.inner.key_text(d[1]))
        if d[0] == "eps":
            return ("D", "eps", repr(d[1]))
        return ("D", "o", tuple(sorted(map(repr, d[1]))))


class LSpecies(SpeciesOps):
    """L S: the free graded commutative monoid on S.  Elements are
    multisets of factors (sorted position block, element); empty blocks are
    arity-0 factors."""

    def __init__(self, inner: SpeciesOps, max_factors: int = 3,
                 n_max: Optional[int] = None):
        require_nonnegative("LSpecies", max_factors=max_factors)
        self.inner = inner
        self.palette = inner.palette
        self.max_factors = max_factors
        self.n_max = n_max if n_max is not None else max_factors * inner.n_max
        self._built: dict = {}   # arity -> elements

    def norm(self, factors):
        """The factors sorted by (block, key string of the element).  The
        blocks of a well-formed element are disjoint, so only arity-0
        factors share one: key strings are computed only inside a run of
        equal blocks.  Both sorts are stable, so the order is that of one
        sort by (block, key string), for any input."""
        out = []
        for _, run in itertools.groupby(
                sorted(((tuple(b), x) for b, x in factors),
                       key=lambda f: f[0]),
                key=lambda f: f[0]):
            run = list(run)
            if len(run) > 1:
                run.sort(key=lambda f: self.inner.key_text(f[1]))
            out += run
        return tuple(out)

    def elements(self, n):
        return _built_once(self, n, self._build)

    def _build(self, n):
        out, seen = [], set()
        for blocks in _set_partitions(list(range(n))):
            if len(blocks) > self.max_factors:
                continue
            spare = self.max_factors - len(blocks)
            zero_opts = [()]
            z_elems = self.inner.elements(0)
            for k in range(1, spare + 1):
                zero_opts += [tuple(c) for c in
                              itertools.combinations_with_replacement(
                                  range(len(z_elems)), k)]
            for choice in itertools.product(
                    *(self.inner.elements(len(b)) for b in blocks)):
                for zc in zero_opts:
                    fs = list(zip(blocks, choice)) + \
                        [((), z_elems[i]) for i in zc]
                    le = self.norm(fs)
                    k = self.key(le)
                    if k not in seen:
                        seen.add(k)
                        out.append(le)
        return out

    def colour_of(self, le):
        n = sum(len(b) for b, _ in le)
        cols = [None] * n
        for b, x in le:
            xc = self.inner.colour_of(x)
            for i, p in enumerate(b):
                cols[p] = xc[i]
        return tuple(cols)

    def act(self, le, sigma):
        if tuple(sigma) == tuple(range(len(sigma))):
            return le
        inv = {sigma[i]: i for i in range(len(sigma))}
        out = []
        for b, x in le:
            nb = tuple(sorted(inv[p] for p in b))
            perm = tuple(b.index(sigma[q]) for q in nb)
            out.append((nb, self.inner.act(x, perm)))
        return self.norm(out)

    def key(self, le):
        """The sorted (block, factor key) pairs: the key of le equals that
        of norm(le), whatever the order of its factors."""
        return ("L",) + tuple(sorted((tuple(b), self.inner.key_text(x))
                                     for b, x in le))


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


# -- units and multiplications ------------------------------------------------------

def eta_T(S: SpeciesOps, x) -> TElem:
    """The corolla on an S-element: position i of x faces port i."""
    cols = S.colour_of(x)
    n = len(cols)
    g = corolla(list(range(n)))
    om = S.palette.omega
    colours = {}
    for i in range(n):
        colours[i] = cols[i]
        colours[("in", i)] = om[cols[i]]
    x = _reordered(S, x, tuple(("h", i) for i in range(n)),
                   g.halves_at("*"))
    return TElem(g, tuple(range(n)), colours, {"*": x})


def mu_T(TS: TSpecies, t: TElem) -> TElem:
    """Substitution: t is decorated by TS elements; glue the piece graphs
    into the base."""
    g = t.graph
    pieces = {}
    for v in g.vertices:
        tv = t.vdec[v]
        pieces[v] = (tv.graph, dict(zip(tv.ports, g.halves_at(v))))
    sub = substitute(GraphOfGraphs(g, pieces))
    edge_class, piece_edge = sub.edge_class, sub.piece_edge
    colours = {}

    def put(e, c):
        if e in colours and colours[e] != c:
            raise ColourMismatch("inconsistent colours in substitution")
        colours[e] = c

    for e, c in t.colours.items():
        put(edge_class[e], c)
    vdec = {}
    for v in g.vertices:
        tv = t.vdec[v]
        for pe, c in tv.colours.items():
            put(piece_edge[(v, pe)], c)
        for wv in tv.graph.vertices:
            vdec[("p", v, wv)] = tv.vdec[wv]
    ports = tuple(edge_class[e] for e in t.ports)
    return TElem(sub.colimit, ports, colours, vdec)


def eta_D(x):
    return ("b", x)


def mu_D(dd):
    if dd[0] == "b":
        return dd[1]
    return dd


def eta_L(S: SpeciesOps, x):
    n = len(S.colour_of(x))
    return ((tuple(range(n)), x),)


def mu_L(LS: LSpecies, big):
    """Flatten an L element whose factors are themselves L elements."""
    factors = []
    for block, le in big:
        for ib, elem in le:
            factors.append((tuple(block[i] for i in ib), elem))
    return LS.norm(factors)


# -- functor maps --------------------------------------------------------------------

def _fmap_T(f, t: TElem) -> TElem:
    """T f: apply f to the element at every vertex."""
    return TElem(t.graph, t.ports, t.colours,
                 {v: f(x) for v, x in t.vdec.items()})


def _fmap_D(f, d):
    """D f: apply f to a plain element; formal units pass through."""
    return ("b", f(d[1])) if d[0] == "b" else d


def _fmap_L(f, le):
    """L f: apply f to every factor.  The result is compared by key,
    which ignores factor order, so it is not normed."""
    return tuple((b, f(x)) for b, x in le)


def _monads(max_vertices: int, max_valency: int, max_factors: int) -> dict:
    """T, D and L within bounds, each as (species constructor, unit
    eta(X, x), multiplication mu(A X, x): A A X -> A X, functor map).
    Built on each call, so that the units and multiplications are looked
    up when they are used.  Every bound is checked, also those of the
    monads that the caller does not use."""
    require_nonnegative("a monad", max_vertices=max_vertices,
                        max_valency=max_valency, max_factors=max_factors)
    return {"T": (lambda X: TSpecies(X, max_vertices, max_valency),
                  eta_T, mu_T, _fmap_T),
            "D": (DSpecies, lambda X, x: eta_D(x), lambda AX, x: mu_D(x),
                  _fmap_D),
            "L": (lambda X: LSpecies(X, max_factors), eta_L, mu_L, _fmap_L)}


# -- distributive laws ---------------------------------------------------------------

def law_DT(S: SpeciesOps, t: TElem):
    """lambda_DT: T(D S) -> D(T S).  Delete the unit-marked vertices; a
    fully marked line/wheel/point collapses to the formal summand."""
    marked = [v for v in sort_ids(t.graph.vertices)
              if t.vdec[v][0] in ("eps", "o")]
    om = S.palette.omega
    if not marked:
        return ("b", _fmap_T(lambda x: x[1], t))
    if len(marked) == len(t.graph.vertices):
        if len(t.ports) == 2:
            return ("eps", t.colours[t.ports[0]])
        if len(t.ports) == 0:
            if t.graph.edges:
                c = t.colours[min(t.graph.edges, key=idkey)]
                return ("o", frozenset({c, om[c]}))
            elem, = t.vdec.values()
            return ("o", elem[1])
        raise FormatError("fully marked graph with odd boundary")
    d = delete_vertices(t.graph, marked)
    colours = {}
    for e, c in t.colours.items():
        e2 = d.edge_correspondence[e]
        if e2 in colours and colours[e2] != c:
            raise ColourMismatch("unit marking with inconsistent colours")
        colours[e2] = c
    # a kept half is renamed by its repr (identity_half), which can change
    # the order of the halves at its vertex
    vdec = {}
    for v in t.graph.vertices:
        if v not in d.deleted:
            w = d.vertex_map[v]
            vdec[w] = _reordered(
                S, t.vdec[v][1],
                tuple(d.half_map[h] for h in t.graph.halves_at(v)),
                d.target.halves_at(w))
    ports = tuple(d.edge_correspondence[e] for e in t.ports)
    return ("b", TElem(d.target, ports, colours, vdec))


def law_LT(S: SpeciesOps, t: TElem):
    """lambda_LT: T(L S) -> L(T S).  Replace every vertex by the disjoint
    union of corollas of its factors and split the result into connected
    components.

    The substitution colimit is built directly.  A factor's corolla
    touches only the base halves of its own block, so each base edge e
    is a class of its own: ("b", e), the inner edge of the corolla
    position whose half lies on e, and the port of the position whose
    half lies on tau e.  Ids, colours and the order of the components are
    those of substituting the corollas and splitting the colimit; a
    vertex whose factor blocks do not partition its positions raises
    InvalidGraphOfGraphs, as GraphOfGraphs does."""
    g = t.graph
    s, tau = g.s, g.tau
    members = {e: [("b", e)] for e in g.edges}   # base edge -> its class
    halves = {}             # factor vertex -> [(its half, base edge)]
    vdec = {}
    for v in g.vertices:
        le, order = t.vdec[v], g.halves_at(v)
        placed = [order[p] for block, _ in le for p in block]
        if len(placed) != len(order) or set(placed) != set(order):
            raise InvalidGraphOfGraphs(
                f"boundary at {v!r} must biject onto H_v")
        for fi, (block, elem) in enumerate(le):
            tag = ("f", fi)
            fv = ("p", v, (tag, "*"))
            hs = halves[fv] = []
            for p in block:
                fp = ("fp", p)
                e = s[order[p]]
                members[e].append(("p", v, (tag, ("in", fp))))
                members[tau[e]].append(("p", v, (tag, fp)))
                hs.append((("p", v, (tag, ("h", fp))), e))
            # fv reads its halves in idkey order, not in block order when
            # the block is unsorted or mixes 2..9 with 10 or more
            names = tuple(hh for hh, _ in hs)
            read = tuple(sort_ids(names))
            if read != names:
                hs.sort(key=lambda he: idkey(he[0]))
            vdec[fv] = _reordered(S, elem, names, read)
    cls = {e: frozenset(m) for e, m in members.items()}
    ctau = {c: cls[tau[e]] for e, c in cls.items()}
    colours = {cls[e]: c for e, c in t.colours.items()}
    om = S.palette.omega
    for fv, hs in halves.items():
        cols = S.colour_of(vdec[fv])
        for i, (_, e) in enumerate(hs):
            colours[ctau[cls[e]]] = cols[i]
            colours[cls[e]] = om[cols[i]]
    # components in idkey order of their least id: a class sorts by its
    # base edge and before every vertex, so adding the classes in base
    # edge order, and before the factor vertices, lists the components in
    # that order with their classes first; a factor without a block is
    # alone, after them
    uf = _UF()
    for e in g.sorted_edges:
        uf.add(cls[e])
    for c, d in ctau.items():
        uf.union(c, d)
    for fv, hs in halves.items():
        if hs:
            uf.add(fv)
            for _, e in hs:
                uf.union(cls[e], fv)
    parts = list(uf.classes().values())
    parts += [[fv] for fv in sorted((fv for fv, hs in halves.items()
                                     if not hs), key=idkey)]
    port_class = [cls[e] for e in t.ports]
    factors = []
    for part in parts:
        cs = [x for x in part if type(x) is frozenset]
        fvs = part[len(cs):]
        hs = [(hh, cls[e], fv) for fv in fvs for hh, e in halves[fv]]
        edges = frozenset(cs)
        comp = FeynmanGraph._trusted(
            edges, {c: ctau[c] for c in cs},
            frozenset(hh for hh, _, _ in hs), {hh: c for hh, c, _ in hs},
            {hh: fv for hh, _, fv in hs}, frozenset(fvs))
        comp._sorted_edges = tuple(cs)   # in idkey order, as said above
        block = tuple(i for i, c in enumerate(port_class) if c in edges)
        factors.append((block, TElem(
            comp, tuple(port_class[i] for i in block),
            {c: colours[c] for c in cs}, {fv: vdec[fv] for fv in fvs})))
    return LSpecies(TSpecies(S)).norm(factors)


def law_LD(S: SpeciesOps, d):
    """lambda_LD: D(L S) -> L(D S): re-tagging."""
    if d[0] == "b":
        return tuple((b, ("b", x)) for b, x in d[1])
    if d[0] == "eps":
        return (((0, 1), d),)
    return (((), d),)


# -- monad law and distributive law checkers ----------------------------------------

def _unit_laws(a: str, monad: tuple, S: SpeciesOps) -> list:
    """A's two unit laws on A S, by key: flattening eta_A A x (left) and
    A eta_A x (right) gives back x."""
    A, eta, mu, fmap = monad
    AS = A(S)

    def left(n, x):
        return AS.key(mu(AS, eta(AS, x))) == AS.key(x) or (AS.key(x),)

    def right(n, x):
        return AS.key(mu(AS, fmap(lambda y: eta(S, y), x))) == AS.key(x) \
            or (AS.key(x),)

    return [(f"{a}-left-unit", AS, left), (f"{a}-right-unit", AS, right)]


def _assoc_law(a: str, monad: tuple, S: SpeciesOps) -> tuple:
    """A's associativity on A(A(A S)), by key: flattening the two outer
    layers first equals flattening each factor first."""
    A, _, mu, fmap = monad
    AS = A(S)
    AAS = A(AS)

    def assoc(n, x):
        lhs = AS.key(mu(AS, mu(AAS, x)))
        rhs = AS.key(mu(AS, fmap(lambda y: mu(AS, y), x)))
        return lhs == rhs or (lhs, rhs)

    return (f"{a}-assoc", A(AAS), assoc)


def _graded(max_arity: int, axioms) -> dict:
    """The sweep of every (name, domain, law) on each element x of its
    domain up to max_arity, judged by law(n, x) for x of arity n, with
    the arity n as the witness of a failing instance."""
    require_nonnegative("a law sweep", max_arity=max_arity)

    def instances(domain):
        for n in range(max_arity + 1):
            for x in domain.elements(n):
                yield n, x

    return _sweep([(name, instances(domain), law)
                   for name, domain, law in axioms], lambda n, x: (n,))


def check_monad_laws(S: SpeciesOps, max_arity: int = 2,
                     max_vertices: int = 2, max_valency: int = 3) -> dict:
    """The unit laws of the bounded T (substitution), D and L monads over
    S, on T S, D S and L S with up to 4 factors, and the associativity of
    D and L on D(D(D S)) and L(L(L S)) with 2 factors a layer, by key.
    T's associativity is checked by check_t_associativity."""
    units = _monads(max_vertices, max_valency, 4)
    layered = _monads(max_vertices, max_valency, 2)
    return _graded(max_arity,
                   [law for a in "TDL" for law in _unit_laws(a, units[a], S)]
                   + [_assoc_law(a, layered[a], S) for a in "DL"])


def check_t_associativity(S: SpeciesOps, max_arity: int = 1,
                          max_vertices: int = 2, max_valency: int = 2) -> dict:
    """Substitution associativity: for elements of T(T(T S)) built within
    bounds, flattening inner-first equals outer-first."""
    T = _monads(max_vertices, max_valency, 0)["T"]
    return _graded(max_arity, [_assoc_law("T", T, S)])


def check_beck(which: str, S: SpeciesOps, max_arity: int = 2,
               max_vertices: int = 2, max_valency: int = 3,
               max_factors: int = 2) -> dict:
    """Beck's four axioms for a distributive law lambda: A B => B A, on
    exhaustive bounded instances over S: lambda_DT (A = T, B = D),
    lambda_LT (T, L) or lambda_LD (D, L).  A violation is named
    <which>-unit-<B>, <which>-unit-<A>, <which>-mu-<A> or <which>-mu-<B>.

      unit of B:  lambda . A eta_B = eta_B A
      unit of A:  lambda . eta_A B = B eta_A
      mu of A:    lambda . mu_A B = B mu_A . lambda A . A lambda
      mu of B:    lambda . A mu_B = mu_B A . B lambda . lambda B
    """
    laws = {"dt": ("T", "D", law_DT), "lt": ("T", "L", law_LT),
            "ld": ("D", "L", law_LD)}
    if which not in laws:
        raise FormatError(f"unknown law {which!r}")
    a, b, law = laws[which]
    monads = _monads(max_vertices, max_valency, max_factors)
    (A, eta_A, mu_A, map_A), (B, eta_B, mu_B, map_B) = monads[a], monads[b]
    AS, BS = A(S), B(S)
    ABS, BAS = A(BS), B(AS)

    def unit_b(n, x):
        lhs = law(S, map_A(lambda y: eta_B(S, y), x))
        return BAS.key(lhs) == BAS.key(eta_B(AS, x)) or (AS.key(x),)

    def unit_a(n, x):
        lhs = law(S, eta_A(BS, x))
        return BAS.key(lhs) == BAS.key(map_B(lambda y: eta_A(S, y), x)) \
            or (BS.key(x),)

    def mu_a(n, x):
        lhs = BAS.key(law(S, mu_A(ABS, x)))
        mid = law(AS, map_A(lambda y: law(S, y), x))
        rhs = BAS.key(map_B(lambda y: mu_A(AS, y), mid))
        return lhs == rhs or (n, lhs, rhs)

    def mu_b(n, x):
        lhs = BAS.key(law(S, map_A(lambda y: mu_B(BS, y), x)))
        rhs = BAS.key(mu_B(BAS, map_B(lambda y: law(S, y), law(BS, x))))
        return lhs == rhs or (n, lhs, rhs)

    return _graded(max_arity, [(f"{which}-unit-{b}", AS, unit_b),
                               (f"{which}-unit-{a}", BS, unit_a),
                               (f"{which}-mu-{a}", A(ABS), mu_a),
                               (f"{which}-mu-{b}", A(B(BS)), mu_b)])


# -- Yang-Baxter ---------------------------------------------------------------------

def check_yang_baxter(S: SpeciesOps, instance: TElem) -> tuple:
    """Both hexagon paths T(D(L S)) -> L(D(T S)) on one instance.

    Returns (ok, transcript) with the intermediate keys of the top path
    (lambda_DT, D lambda_LT, lambda_LD) and the bottom path (T lambda_LD,
    lambda_LT, L lambda_DT)."""
    LS = LSpecies(S)
    DS = DSpecies(S)
    TS = TSpecies(S)
    LDTS = LSpecies(DSpecies(TS))
    # top: lambda_DT at inner L, then D lambda_LT, then lambda_LD at T
    top1 = law_DT(LS, instance)                             # D(T(L S))
    top3 = law_LD(TS, _fmap_D(lambda t: law_LT(S, t), top1))  # L(D(T S))
    # bottom: T lambda_LD, then lambda_LT at inner D, then L lambda_DT
    bot2 = law_LT(DS, _fmap_T(lambda x: law_LD(S, x), instance))  # L(T(D S))
    bot3 = _fmap_L(lambda t: law_DT(S, t), bot2)            # L(D(T S))
    ok = LDTS.key(top3) == LDTS.key(bot3)
    transcript = {
        "top": [DSpecies(TSpecies(LS)).key_text(top1),
                LDTS.key_text(top3)],
        "bottom": [LSpecies(TSpecies(DS)).key_text(bot2),
                   LDTS.key_text(bot3)],
        "ok": ok,
    }
    return ok, transcript


def yang_baxter_sweep(S: SpeciesOps, max_arity: int = 2,
                      max_vertices: int = 2, max_valency: int = 3,
                      max_factors: int = 2) -> dict:
    """The Yang-Baxter hexagon on every instance of T(D(L S)) within
    the bounds.  A failing instance is noted with its arity and the
    transcript of check_yang_baxter; an instance whose laws give
    ill-formed output is noted with its arity and the error, and the
    sweep goes on."""
    domain = TSpecies(DSpecies(LSpecies(S, max_factors)),
                      max_vertices, max_valency)

    def hexagon(n, x):
        ok, transcript = check_yang_baxter(S, x)
        return ok or (n, transcript)

    return _graded(max_arity, [("yang-baxter", domain, hexagon)])


# -- free elements -------------------------------------------------------------------

@dataclass(frozen=True)
class FreeElement:
    level: str
    arity: int
    representative: object
    key: str


def free_species(level: str, S: SpeciesOps, max_vertices: int = 2,
                 max_valency: int = 3, max_factors: int = 3) -> SpeciesOps:
    layers = {"T": "T", "D": "D", "L": "L", "Tx": "LT", "LDT": "LDT"}
    if level not in layers:
        raise FormatError(f"unknown level {level!r}")
    monads = _monads(max_vertices, max_valency, max_factors)
    for m in reversed(layers[level]):
        S = monads[m][0](S)
    return S


def free_apply(level: str, S: SpeciesOps, arity: int,
               max_vertices: int = 2, max_valency: int = 3,
               max_factors: int = 3) -> list:
    """The bounded free construction at one arity; elements are
    deduplicated by canonical key."""
    if arity < 0:
        raise OutOfBounds("negative arity")
    sp = free_species(level, S, max_vertices, max_valency, max_factors)
    return [FreeElement(level, arity, x, sp.key_text(x))
            for x in sp.elements(arity)]


# -- the free circuit algebra on L(D(T S)) -------------------------------------------

class FreeCircuitAlgebra(CircuitAlgebraOps):
    """The free (unital) circuit algebra on a species S, restricted to the
    finite carrier L(D(T S)) within bounds.

    box is mu_L on the two-factor product, eps is eta_L on the formal
    unit, and zeta acts by port gluing inside a connected factor, factor
    merging across two factors, renaming through formal units, and
    contracted units on a formal unit's own ports.  Applications leaving
    the carrier bounds return None."""

    def __init__(self, S: SpeciesOps, max_vertices: int = 2,
                 max_valency: int = 3, max_factors: int = 2):
        self.base = S
        self.TS = TSpecies(S, max_vertices, max_valency)
        self.DS = DSpecies(self.TS)
        self.species = LSpecies(self.DS, max_factors,
                                n_max=max_factors * 2)
        self.max_vertices = max_vertices
        self.max_factors = max_factors

    # -- structural helpers
    def _arity(self, a):
        return sum(len(b) for b, _ in a)

    def box(self, a, b):
        if len(a) + len(b) > self.max_factors:
            return None
        n, m = self._arity(a), self._arity(b)
        if n + m > self.species.n_max:
            return None
        return mu_L(self.species, ((tuple(range(n)), a),
                                   (tuple(range(n, n + m)), b)))

    def eps(self, c):
        if c not in self.base.palette.colours:
            raise ColourMismatch(f"unknown colour {c!r}")
        return eta_L(self.DS, ("eps", c))

    def unit0(self):
        return ()

    def zeta(self, a, i, j):
        cols = self.species.colour_of(a)
        om = self.base.palette.omega
        if cols[i] != om[cols[j]]:
            raise ColourMismatch(f"positions {i},{j} do not match")
        fi = fj = None
        for k, (blk, x) in enumerate(a):
            if i in blk:
                fi = k
            if j in blk:
                fj = k
        factors = list(a)
        if fi == fj:
            blk, x = factors[fi]
            if x[0] == "eps":
                factors[fi] = ((), ("o", frozenset({x[1], om[x[1]]})))
            else:
                factors[fi] = self._glue_within(blk, x[1], i, j)
        else:
            bi, xi = factors[fi]
            bj, xj = factors[fj]
            if xi[0] == "eps" or xj[0] == "eps":
                # rename through the formal unit: the other factor's
                # contracted position becomes the unit's other end
                if xi[0] == "eps":
                    (be, ce), (bt, xt, ct), ei, ti = (bi, i), (bj, xj, j), fi, fj
                else:
                    (be, ce), (bt, xt, ct), ei, ti = (bj, j), (bi, xi, i), fj, fi
                other = be[0] if be[1] == ce else be[1]
                nb = tuple(sorted(other if p == ct else p for p in bt))
                perm = tuple(bt.index(ct if q == other else q) for q in nb)
                factors[ti] = (nb, self.DS.act(xt, perm))
                factors.pop(ei)
            else:
                merged = self._glue_across(bi, xi[1], i, bj, xj[1], j)
                if merged is None:
                    return None
                factors[fi] = merged
                factors.pop(fj)
        # renumber remaining global positions
        remaining = sorted(p for p in range(len(cols)) if p not in (i, j))
        ren = {p: k for k, p in enumerate(remaining)}
        out = tuple((tuple(ren[p] for p in blk), x) for blk, x in factors)
        return self.species.norm(out)

    def _glue_within(self, blk, t: TElem, i, j):
        li, lj = blk.index(i), blk.index(j)
        pi, pj = t.ports[li], t.ports[lj]
        glued, edge_of = glue_ports(t.graph, [(pi, pj)])
        colours = {edge_of[e]: c for e, c in t.colours.items()}
        ports = tuple(edge_of[t.ports[k]] for k in range(len(blk))
                      if k not in (li, lj))
        nb = tuple(p for p in blk if p not in (i, j))
        return (nb, ("b", TElem(glued, ports, colours, t.vdec)))

    def _glue_across(self, bi, ti: TElem, i, bj, tj: TElem, j):
        if len(ti.graph.vertices) + len(tj.graph.vertices) > self.max_vertices:
            return None
        g = tagged_union([("A", ti.graph), ("B", tj.graph)])
        li, lj = bi.index(i), bj.index(j)
        pi, pj = ("A", ti.ports[li]), ("B", tj.ports[lj])
        glued, edge_of = glue_ports(g, [(pi, pj)])
        colours = {}
        for e, c in ti.colours.items():
            colours[edge_of[("A", e)]] = c
        for e, c in tj.colours.items():
            colours[edge_of[("B", e)]] = c
        vdec = {(tag, v): x for tag, u in (("A", ti), ("B", tj))
                for v, x in u.vdec.items()}
        merged_block = [p for p in sorted(set(bi) | set(bj)) if p not in (i, j)]
        ports = []
        for p in merged_block:
            if p in bi:
                ports.append(edge_of[("A", ti.ports[bi.index(p)])])
            else:
                ports.append(edge_of[("B", tj.ports[bj.index(p)])])
        t = TElem(glued, tuple(ports), colours, vdec)
        return (tuple(merged_block), ("b", t))
