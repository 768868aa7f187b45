"""Kleisli morphisms of the graphical category, finite presheaves, the
nerve of a finite circuit algebra, and the Segal-condition checker.

A Kleisli morphism G -> H is a refinement of G (a graph of graphs)
followed by a pointed free map from the refinement's colimit to H.  Two
presentations are equal when their normal forms agree: the normal form
keeps deletions of bivalent colimit vertices inside the refinement pieces
(so a deleted identity piece becomes a stick piece) and keeps deletions
of isolated vertices in the pointed tail: one vertex deletion of the
colimit followed by an etale map (monads.PointedMorphism).

make_kleisli normalizes in two steps.  The frame holds what depends only
on the refinement's substitution and the deleted set: the deletion on the
colimit, the pieces with the bivalent deletions pushed into them once,
and, for each combination of minimal piece labelings, the canonical
substitution and a plan that carries tail data from the original colimit
onto its colimit.  The tail step checks the tail once, against the
deletion, and carries its data through each plan.  A frame is kept on its
substitution (Substitution.frames), and a graph keeps its identity
refinement (_kleisli_record) and its vertex deletions
(monads._deletion), so the ch, iso and deletion morphisms out of one
graph object share one frame per deleted set, whoever builds them.

Restricting a decoration along a Kleisli morphism runs a plan kept on the
morphism, which holds the program that evaluates each piece
(restrict_kleisli), so each restriction only looks up colours and calls
the algebra's operations.

The morphisms of a corpus do not depend on an algebra; its ch morphisms
are the maps of etale.elements.  nerve takes them from one cached pass of
corpus_morphisms (_memo_morphisms), keyed by the identities of the
corpus graphs and the search budget, so the nerves and fullness probes
of one corpus build its morphisms once.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import (BoundsTooLarge, CorpusNotElementClosed, FormatError,
                     Mismatch, NotACorolla, OutOfBounds)
from .etale import EtaleMorphism, elements
from .graphs import (FeynmanGraph, canonical_labelings, corolla, idkey,
                     idstr, isolated_vertex, sort_ids, stick)
from .monads import (PointedMorphism, VertexDeletion, _deletion_homs,
                     _push_forward, delete_vertices, hom_etale)
from .species import CircuitAlgebraOps, Decoration, evaluate_species
from .substitution import (GraphOfGraphs, SearchBudget, Substitution,
                           compose_gogs, identity_half, max_search_cap,
                           substitute)

__all__ = [
    "KleisliMorphism", "FinitePresheaf",
    "graphs_equal", "make_kleisli", "kleisli_identity", "kleisli_from_etale",
    "kleisli_from_pointed", "kleisli_refinement", "kleisli_compose",
    "kleisli_deletion_homs", "refinement_of_corolla",
    "kleisli_equal", "corpus_morphisms", "nerve", "check_segal",
    "presheaf_maps",
    "algebra_morphisms", "fullness_probe", "mutated_presheaves",
    "restrict_kleisli",
]


def graphs_equal(g: FeynmanGraph, h: FeynmanGraph) -> bool:
    """On-the-nose equality of graph presentations (same ids, same maps)."""
    return (set(g.edges) == set(h.edges)
            and all(g.tau[e] == h.tau[e] for e in g.edges)
            and set(g.half_edges) == set(h.half_edges)
            and all(g.s[x] == h.s[x] and g.t[x] == h.t[x]
                    for x in g.half_edges)
            and set(g.vertices) == set(h.vertices))


# -- Kleisli morphisms ---------------------------------------------------------------

@dataclass
class KleisliMorphism:
    source: FeynmanGraph
    target: FeynmanGraph
    refinement: GraphOfGraphs
    pointed_tail: PointedMorphism
    _sub: Substitution
    _key: tuple
    # restrict_kleisli's plan, built on the first restriction along it
    _plan: Optional[tuple] = field(default=None, repr=False, compare=False)

    def key(self):
        return self._key


def _piece_labelings(piece: FeynmanGraph, boundary: dict):
    """Canonical labelings of a piece; ports carry distinct tokens (the
    attached base half), so every labeling fixes the boundary."""
    tokens = {e: ("port", idstr(boundary[e])) if e in boundary else ("inner",)
              for e in piece.edges}
    cert, labs = canonical_labelings(piece, edge_tokens=tokens)
    out = []
    for eidx, vidx in labs:
        emap = {e: eidx[e] for e in piece.edges}
        vmap = {v: vidx[v] for v in piece.vertices}
        hmap = {h: ("h", eidx[piece.s[h]]) for h in piece.half_edges}
        out.append((emap, vmap, hmap))
    return cert, out


def _apply_labeling(piece, boundary, lab):
    emap, vmap, hmap = lab
    new = piece.relabel(emap, hmap, vmap)
    new_boundary = {emap[p]: h for p, h in boundary.items()}
    return new, new_boundary


def _inverse(maps) -> tuple:
    """The inverse of each id map (on a many-to-one map, any preimage)."""
    return tuple({b: a for a, b in m.items()} for m in maps)


def _transport_plan(old_sub, new_sub, back, deleted) -> tuple:
    """How tail data moves from old_sub's colimit onto new_sub's.  The
    pieces of new_sub come from those of old_sub through back[v], a
    triple (edges, vertices, halves) of maps from new piece ids to old
    ones.  `deleted` is the tail's deleted set on the old colimit.
    Returns (w, edges, vertices, halves, fresh): the deleted set on the
    new colimit, and the pairs (new id, old id) of its edges, kept
    vertices, their halves and its deleted vertices."""
    edges = []
    for c in new_sub.colimit.edges:
        # the members of a class may name old colimit edges that the
        # deletion of the bivalent vertices merges; make_kleisli checks
        # that the tail gives them one image, so any member will do
        m = next(iter(c))
        edges.append((c, old_sub.edge_class[m[1]] if m[0] == "b"
                      else old_sub.piece_edge[(m[1], back[m[1]][0][m[2]])]))
    w, vertices, halves, fresh = set(), [], [], []
    for cv in new_sub.colimit.vertices:
        _, v, u = cv
        old_cv = ("p", v, back[v][1][u])
        if old_cv in deleted:
            w.add(cv)
            fresh.append((cv, old_cv))
        else:
            vertices.append((cv, old_cv))
            for h in new_sub.colimit.halves_at(cv):
                halves.append((h, ("p", v, back[v][2][h[2]])))
    return frozenset(w), edges, vertices, halves, fresh


def _apply_plan(plan, em, hm, vm, fresh_em) -> tuple:
    """The tail data (em, hm, vm, fresh_em) on the new colimit of a
    transport plan, for the tail data on the old colimit."""
    _, edges, vertices, halves, fresh = plan
    return ({c: em[x] for c, x in edges},
            {h: hm[x] for h, x in halves},
            {cv: vm[x] for cv, x in vertices},
            {cv: fresh_em[x] for cv, x in fresh})


@dataclass
class _Frame:
    """What make_kleisli computes from a refinement's substitution and a
    deleted set alone, for the tails of any number of morphisms.

    deletion deletes the set from the substitution's colimit; combos
    holds (canonical substitution, plan from the substitution's colimit
    onto its colimit, deletion of its colimit) for each combination of
    minimal labelings of the pieces, with the bivalent deletions pushed
    into them; certs is the key part of the piece certificates."""
    deletion: VertexDeletion
    certs: tuple
    combos: list


def _kleisli_frame(sub: Substitution, w: frozenset,
                   budget: SearchBudget) -> _Frame:
    source, colim = sub.gog.base, sub.colimit
    deletion = delete_vertices(colim, w)
    # delete the bivalent vertices of w inside their pieces instead, which
    # leaves only isolated vertices in w
    pieces = dict(sub.gog.pieces)
    per_v, shrink = {}, {}
    for cv in w:
        if colim.valency(cv) == 2:
            per_v.setdefault(cv[1], set()).add(cv[2])
    for v, ws in per_v.items():
        piece, boundary = pieces[v]
        dd = delete_vertices(piece, ws)
        nb = {dd.edge_correspondence[p]: h for p, h in boundary.items()}
        pieces[v] = (dd.target, nb)
        shrink[v] = _inverse((dd.edge_correspondence, dd.vertex_map,
                              dd.half_map))
    # canonicalize the pieces, once for each combination of their minimal
    # labelings
    vs = sort_ids(source.vertices)
    certs, labsets = {}, {}
    for v in vs:
        piece, boundary = pieces[v]
        certs[v], labsets[v] = _piece_labelings(piece, boundary)
    budget.spend(math.prod(len(labsets[v]) for v in vs))
    combos = []
    for combo in itertools.product(*(labsets[v] for v in vs)):
        labs = dict(zip(vs, combo))
        canon = {v: _apply_labeling(pieces[v][0], pieces[v][1], labs[v])
                 for v in vs}
        sub2 = substitute(GraphOfGraphs(source, canon))
        # back to the original pieces: undo the labeling, then the
        # deletion inside the piece
        back = {}
        for v in vs:
            back[v] = _inverse(labs[v])
            if v in shrink:
                back[v] = tuple({x: old[y] for x, y in new.items()}
                                for new, old in zip(back[v], shrink[v]))
        plan = _transport_plan(sub, sub2, back, w)
        combos.append((sub2, plan, delete_vertices(sub2.colimit, plan[0])))
    return _Frame(deletion, tuple((idstr(v), certs[v]) for v in vs), combos)


def make_kleisli(sub: Substitution, target, w, em, hm, vm,
                 fresh_em=None) -> KleisliMorphism:
    """Normalize raw Kleisli data.  sub is the substitution of the
    refinement, a graph of graphs over the source (sub.gog), as the
    caller has already evaluated it; it is not evaluated again.  The tail
    data (w, em, hm, vm, fresh_em) refers to sub.colimit: w is a set of
    colimit vertices to delete, em maps every colimit edge to a target
    edge, hm/vm map the undeleted part, fresh_em gives target images for
    the fresh sticks of deleted isolated vertices.

    Normalizing takes two steps.  The frame depends on sub and w only:
    it deletes w from the colimit, pushes the bivalent deletions into the
    pieces (a deleted identity piece becomes a stick piece), and
    canonicalizes the pieces, once for each combination of their minimal
    labelings, with a plan that carries tail data from sub.colimit onto
    each canonical colimit.  The tail step checks the tail once against
    the deletion of w, carries its data through each plan, and keeps the
    least key over the combinations.

    The frame of (sub, w) is built once and kept in sub.frames, so the
    morphisms of one frame share its substitution and refinement
    objects.  A w that is not deletable raises NotDeletable first.  More
    combinations than FEYNGRAPH_MAX_SEARCH raise BoundsTooLarge before
    the frame is built, and again at each use of a kept frame, so a lower
    budget raises as a first call does.  A tail whose em differs on edges
    that the deletion merges raises Mismatch."""
    w = frozenset(w)
    budget = SearchBudget("piece labeling combinations")
    frame = sub.frames.get(w)
    if frame is None:
        frame = sub.frames[w] = _kleisli_frame(sub, w, budget)
    else:
        budget.spend(len(frame.combos))
    fresh_em = fresh_em or {}
    # the plans take any one of the edges that the deletion merges
    _push_forward(frame.deletion, target, em, hm, vm, fresh_em)
    best = None
    for sub2, plan, d in frame.combos:
        em2, hm2, vm2, fresh2 = _apply_plan(plan, em, hm, vm, fresh_em)
        etale = _push_forward(d, target, em2, hm2, vm2, fresh2)
        tail = PointedMorphism(sub2.colimit, target, d, etale)
        key = (frame.certs, tail.key())
        if best is None or key < best.key():
            best = KleisliMorphism(sub.gog.base, target, sub2.gog, tail,
                                   sub2, key)
    return best


def _kleisli_record(g: FeynmanGraph) -> tuple:
    """What the Kleisli morphisms out of g share, built on first use and
    kept on g: (sub, em, hm, vm), the substitution of the identity
    refinement of g and identity tail data on its colimit."""
    if g._kleisli is None:
        sub = substitute(GraphOfGraphs.identity(g))
        em = {sub.edge_class[e]: e for e in g.edges}
        vm, hm = {}, {}
        for v in g.vertices:
            vm[("p", v, "*")] = v
            for h in g.halves_at(v):
                hm[identity_half(v, h)] = h
        g._kleisli = sub, em, hm, vm
    return g._kleisli


def kleisli_identity(g: FeynmanGraph) -> KleisliMorphism:
    sub, em, hm, vm = _kleisli_record(g)
    return make_kleisli(sub, g, set(), em, hm, vm)


def kleisli_from_etale(e: EtaleMorphism) -> KleisliMorphism:
    sub, em, hm, vm = _kleisli_record(e.source)
    em2 = {c: e.edge_map[x] for c, x in em.items()}
    hm2 = {c: e.half_map[x] for c, x in hm.items()}
    vm2 = {c: e.vertex_map[x] for c, x in vm.items()}
    return make_kleisli(sub, e.target, set(), em2, hm2, vm2)


def kleisli_from_pointed(pm: PointedMorphism) -> KleisliMorphism:
    g = pm.source
    sub, em, hm, vm = _kleisli_record(g)
    w, em2, hm2, vm2, fresh = set(), {}, {}, {}, {}
    for c, x in em.items():
        em2[c] = pm.edge_image(x)
    for cv, v in vm.items():
        if v in pm.deleted:
            w.add(cv)
            if g.valency(v) == 0:
                fresh[cv] = pm.fresh_images(v)
        else:
            vm2[cv] = pm.vertex_image(v)
    for ch, x in hm.items():
        if x in pm.similarity_part.half_map:
            hm2[ch] = pm.half_image(x)
    return make_kleisli(sub, pm.target, w, em2, hm2, vm2, fresh)


def kleisli_refinement(gog: GraphOfGraphs) -> KleisliMorphism:
    sub = substitute(gog)
    colim = sub.colimit
    em = {c: c for c in colim.edges}
    hm = {h: h for h in colim.half_edges}
    vm = {v: v for v in colim.vertices}
    return make_kleisli(sub, colim, set(), em, hm, vm)


def kleisli_compose(k2: KleisliMorphism, k1: KleisliMorphism) -> KleisliMorphism:
    """The composite k2 after k1 (k1: G -> H, k2: H -> K)."""
    if not graphs_equal(k1.target, k2.source):
        raise Mismatch("kleisli composition endpoints do not line up")
    k = k2.target
    t1, t2 = k1.pointed_tail, k2.pointed_tail
    colim1 = k1._sub.colimit
    # k2's refinement pulled back along t1, over k1's colimit
    pulled, marks = {}, {}   # marks: composite colimit vertex id parts
    for cu in colim1.vertices:
        _, v, u = cu
        if cu in t1.deleted:
            # a normal form's tail deletes isolated vertices only
            pulled[cu] = (isolated_vertex(), {})
            marks[("p", v, ("p", u, "*"))] = ("fresh1", cu)
            continue
        w_h = t1.vertex_image(cu)
        qw, bndq = k2.refinement.pieces[w_h]
        tb = {}
        for q_port, x_half in bndq.items():
            pre = [hh for hh in colim1.halves_at(cu)
                   if t1.half_image(hh) == x_half]
            if len(pre) != 1:
                raise Mismatch("tail is not locally bijective")
            tb[q_port] = pre[0]
        pulled[cu] = (qw, tb)
        for q in qw.vertices:
            c2v = ("p", w_h, q)
            if c2v in t2.deleted:
                marks[("p", v, ("p", u, q))] = ("del2", c2v)

    def trace1(c1_edge):
        """C1 edge -> K edge through the tails and k2's refinement."""
        eh = t1.edge_image(c1_edge)
        return t2.edge_image(k2._sub.edge_class[eh])

    sub = substitute(compose_gogs(k1.refinement, k1._sub,
                                  GraphOfGraphs(colim1, pulled)))
    em, hm, vm, w, fresh = {}, {}, {}, set(), {}
    for c in sub.colimit.edges:
        img = None
        for m in c:
            if m[0] == "b":
                img = trace1(k1._sub.edge_class[m[1]])
                break
            _, v, x = m
            for m2 in x:
                if m2[0] == "b":
                    img = trace1(k1._sub.piece_edge[(v, m2[1])])
                    break
                _, u, qe = m2
                w_h = t1.vertex_image(("p", v, u))
                img = t2.edge_image(k2._sub.piece_edge[(w_h, qe)])
                break
            if img is not None:
                break
        if img is None:
            raise Mismatch("untraceable colimit edge")
        em[c] = img
    for cv in sub.colimit.vertices:
        _, v, x = cv
        mark = marks.get(cv)
        if mark and mark[0] == "fresh1":
            w.add(cv)
            a, b = t1.fresh_images(mark[1])
            # images of k2's source edges a and b in k2's target
            fresh[cv] = (t2.edge_image(k2._sub.edge_class[a]),
                         t2.edge_image(k2._sub.edge_class[b]))
        elif mark and mark[0] == "del2":
            w.add(cv)
            fresh[cv] = t2.fresh_images(mark[1])
        else:
            _, u, q = x
            w_h = t1.vertex_image(("p", v, u))
            vm[cv] = t2.vertex_image(("p", w_h, q))
            for hn in sub.colimit.halves_at(cv):
                qh = hn[2][2]
                hm[hn] = t2.half_image(("p", w_h, qh))
    return make_kleisli(sub, k, w, em, hm, vm, fresh)


def kleisli_equal(a: KleisliMorphism, b: KleisliMorphism) -> bool:
    return (graphs_equal(a.source, b.source)
            and graphs_equal(a.target, b.target)
            and a.key() == b.key())


# -- decorations and their transport -------------------------------------------------

def _piece_program(piece: FeynmanGraph, boundary: dict) -> tuple:
    """How a decorated piece is evaluated, worked out from the piece and
    its boundary alone: (vertices, contractions, units, sigma).  The
    vertex elements are boxed in the order of `vertices`, then each
    (i, j) of `contractions` is contracted in turn, then a formal unit on
    the colour of each edge in `units` is boxed (one for each stick
    component), and the positions, which now face the piece ports, are
    realigned along the boundary by sigma.  A vertex-free piece has no
    vertices; its units hold the port whose colour its formal unit takes,
    or are None when it is not a stick."""
    if not piece.vertices:
        ports = sort_ids(piece.ports)
        return (), (), (ports[0],) if len(ports) == 2 else None, ()
    vertices = tuple(sort_ids(piece.vertices))
    slots = [h for u in vertices for h in piece.halves_at(u)]
    contractions = []
    changed = True
    while changed:
        changed = False
        for i in range(len(slots)):
            for j in range(i + 1, len(slots)):
                if piece.tau[piece.s[slots[i]]] == piece.s[slots[j]]:
                    contractions.append((i, j))
                    del slots[j], slots[i]
                    changed = True
                    break
            if changed:
                break
    ports = [piece.tau[piece.s[h]] for h in slots]
    units = []
    if len(ports) < len(boundary):
        # a stick component faces two ports and no slot
        for e, f in piece.stick_components():
            units.append(e)
            ports += [e, f]
    pos_of = {boundary[p]: i for i, p in enumerate(ports)}
    sigma = tuple(pos_of[h] for h in sorted(boundary.values(), key=idkey))
    return vertices, tuple(contractions), tuple(units), sigma


def _run_piece_program(A: CircuitAlgebraOps, program: tuple, colours: dict,
                       elems: dict):
    """The algebra element of a piece from its program (see
    _piece_program), the colours of the edges in its units and the
    elements at its vertices."""
    vertices, contractions, units, sigma = program
    acc = A.unit0()
    if not vertices:
        # degenerate stick piece: the formal unit on its edge colour
        if units is None:
            raise FormatError("vertex-free piece must be a stick")
        return A.eps(colours[units[0]])
    for u in vertices:
        acc = A.box(acc, elems[u])
        if acc is None:
            raise OutOfBounds("piece evaluation exceeds the algebra bounds")
    for i, j in contractions:
        acc = A.zeta(acc, i, j)
        if acc is None:
            raise OutOfBounds("contraction exceeds bounds")
    for e in units:
        acc = A.box(acc, A.eps(colours[e]))
        if acc is None:
            raise OutOfBounds("piece evaluation exceeds the algebra bounds")
    return A.species.act(acc, sigma)


def _restriction_plan(kl: KleisliMorphism) -> tuple:
    """What restricting along kl works out from kl alone: (vertices,
    edges, pieces).

    vertices holds, for each colimit vertex cv, (cv, kind, data): a
    deletion, which a normal form's tail makes of isolated vertices only
    ("zero", the target edge of its fresh stick), or a kept vertex
    ("kept", its target vertex tv and, for each half at cv, the position
    of its tail image in kl.target.halves_at(tv)).  edges pairs each
    source edge with its target edge.  pieces holds, for each source
    vertex v, (v, program, colour edges): program is the piece program
    (_piece_program), and colour edges pairs each edge its units read
    with its target edge.  A piece vertex u needs no realignment: the
    halves at its colimit vertex ("p", v, u) are the ("p", v, h) for the
    halves h at u, in the same idkey order."""
    tail, sub = kl.pointed_tail, kl._sub
    colim = sub.colimit
    vertices = []
    for cv in colim.vertices:
        if cv in tail.deleted:
            vertices.append((cv, "zero", tail.fresh_images(cv)[0]))
        else:
            tv = tail.vertex_image(cv)
            torder = kl.target.halves_at(tv)
            sigma = tuple(torder.index(tail.half_image(h))
                          for h in colim.halves_at(cv))
            vertices.append((cv, "kept", (tv, sigma)))
    edges = tuple((e, tail.edge_image(sub.edge_class[e]))
                  for e in kl.source.edges)
    pieces = []
    for v in kl.source.vertices:
        piece, boundary = kl.refinement.pieces[v]
        program = _piece_program(piece, boundary)
        reads = tuple((pe, tail.edge_image(sub.piece_edge[(v, pe)]))
                      for pe in program[2] or ())
        pieces.append((v, program, reads))
    return tuple(vertices), edges, tuple(pieces)


def restrict_kleisli(A: CircuitAlgebraOps, kl: KleisliMorphism,
                     dec: Decoration) -> Decoration:
    """Restriction of the nerve of A along a Kleisli morphism: transport a
    decoration of the target back to the source (structure-map evaluation
    on refinement pieces, unit insertion on deletions).

    What depends on kl alone is worked out on the first restriction along
    it and kept on kl (_restriction_plan); each call then only looks up
    colours and calls eps, zeta, box and act."""
    if kl._plan is None:
        kl._plan = _restriction_plan(kl)
    vertices, edges, pieces = kl._plan
    S = A.species
    colours = dec.edge_colours
    celems = {}
    for cv, kind, data in vertices:
        if kind == "kept":
            tv, sigma = data
            celems[cv] = S.act(dec.vertex_elems[tv], sigma)
        else:
            z = A.zeta(A.eps(colours[data]), 0, 1)
            if z is None:
                raise OutOfBounds("unit insertion exceeds bounds")
            celems[cv] = z
    velems = {}
    for v, program, reads in pieces:
        velems[v] = _run_piece_program(
            A, program, {pe: colours[te] for pe, te in reads},
            {u: celems[("p", v, u)] for u in program[0]})
    return Decoration({e: colours[te] for e, te in edges}, velems, S)


# -- finite presheaves ---------------------------------------------------------------

@dataclass
class FinitePresheaf:
    """A presheaf on an explicit finite corpus.  morphisms[name] is a
    record {kind, from_graph, to_graph, map, ...} where `map` sends
    element keys of P(from_graph) to element keys of P(to_graph); `from`
    is the morphism's codomain (restriction goes backwards)."""
    corpus: dict          # name -> FeynmanGraph
    sets: dict            # name -> list of element keys
    morphisms: dict       # name -> record

    def to_json(self):
        from .io import graph_to_json

        texts = {}   # element key -> its text, written once per call

        def kstr(k):
            if isinstance(k, str):
                return k
            text = texts.get(k)
            if text is None:
                text = texts[k] = repr(k)
            return text

        return {
            "corpus": [{"name": n, "graph": graph_to_json(self.corpus[n])}
                       for n in sorted(self.corpus)],
            "sets": {n: [kstr(k) for k in ks]
                     for n, ks in self.sets.items()},
            "morphisms": [
                {"name": n,
                 "kind": r["kind"],
                 "from_graph": r["from_graph"],
                 "to_graph": r["to_graph"],
                 "map": {kstr(a): kstr(b) for a, b in r["map"].items()},
                 "edge_images": dict(r.get("edge_images", {})),
                 "vertex": r.get("vertex"),
                 "edge": r.get("edge")}
                for n, r in sorted(self.morphisms.items())],
        }

    def copy(self) -> "FinitePresheaf":
        """A copy that owns its sets, its records and their dicts."""
        return FinitePresheaf(
            dict(self.corpus), {n: list(ks) for n, ks in self.sets.items()},
            {mn: {f: dict(x) if isinstance(x, dict) else x
                  for f, x in r.items()}
             for mn, r in self.morphisms.items()})

    @classmethod
    def from_json(cls, data):
        from .io import graph_from_json
        corpus = {rec["name"]: graph_from_json(rec["graph"])
                  for rec in data["corpus"]}
        sets = {n: list(ks) for n, ks in data["sets"].items()}
        morphisms = {}
        for r in data["morphisms"]:
            rec = {"kind": r["kind"], "from_graph": r["from_graph"],
                   "to_graph": r["to_graph"], "map": dict(r["map"])}
            if r.get("edge_images"):
                rec["edge_images"] = dict(r["edge_images"])
            if r.get("vertex") is not None:
                rec["vertex"] = r["vertex"]
            if r.get("edge") is not None:
                rec["edge"] = r["edge"]
            morphisms[r["name"]] = rec
        return cls(corpus, sets, morphisms)


def _find_corpus_name(corpus, g):
    for name, h in corpus.items():
        if graphs_equal(g, h):
            return name
    return None


def _is_elementary(g: FeynmanGraph) -> bool:
    """Sticks and corollas (and the empty graph): graphs that are their
    own single element.  A corolla has no stick component; a graph with
    no vertex is elementary when it is at most one stick."""
    if g.inner_edges() or len(g.vertices) > 1:
        return False
    sticks = g.stick_components()
    return not sticks if g.vertices else len(sticks) <= 1


def _is_corolla(g: FeynmanGraph) -> bool:
    """One vertex, no inner edge and no stick component."""
    return bool(g.vertices) and _is_elementary(g)


def corpus_morphisms(corpus: dict):
    """The declared morphisms of the graphical category on a named corpus,
    built one at a time: the element morphisms ch_x, the etale
    endomorphisms ("iso"), pointed deletions between corpus graphs, and
    the refinements of each corolla by each corpus graph, one per port
    bijection.

    Yields (name, kind, kl, from_name, to_name, meta): `from_name` names
    the codomain of the Kleisli morphism kl, because restriction goes
    backwards, and meta holds the record's extra fields.  Nothing here
    depends on an algebra.

    The morphisms out of one graph object share its identity refinement,
    its deletions and one Kleisli frame per deleted set, which are kept
    on the graph (see make_kleisli).  The ch morphisms map out of the
    corpus's own corollas and stick (etale.elements), so they share those
    graphs' records with their iso morphisms.  The "iso" records are
    hom_etale(g, g), not all isomorphisms: 2 of cc1's 4 fold its two
    1-corollas onto one."""
    found = {}   # arity, None for the stick -> its name in the corpus

    def lookup(k):
        if k not in found:
            want = stick() if k is None else corolla(range(k))
            ename = _find_corpus_name(corpus, want)
            if ename is None:
                raise CorpusNotElementClosed(
                    "corpus must contain the stick" if k is None
                    else f"{name} needs a {k}-corolla in the corpus")
            found[k] = ename
        return corpus[found[k]]

    for name in sorted(corpus):
        g = corpus[name]
        for x, phi in elements(g, lookup):
            c, xs = phi.source, idstr(x)
            if c.vertices:
                tag, k, meta = "v", len(c.ports), {
                    "vertex": xs,
                    "edge_images": {idstr(ce): idstr(phi.edge_map[ce])
                                    for ce in c.edges}}
            else:
                tag, k, meta = "e", None, {"edge": xs}
            yield (f"ch:{name}:{tag}:{xs}", "ch",
                   kleisli_from_etale(phi), name, found[k], meta)
        for idx, psi in enumerate(hom_etale(g, g)):
            yield (f"iso:{name}:{idx}", "iso",
                   kleisli_from_etale(psi), name, name, {})
    # deletions between corpus graphs
    for gname, hname in _auto_deletions(corpus):
        g, h = corpus[gname], corpus[hname]
        for idx, kl in enumerate(kleisli_deletion_homs(g, h)):
            yield (f"del:{gname}:{hname}:{idx}", "deletion", kl,
                   hname, gname, {})
    for rname, kl in _auto_refinements(corpus):
        yield (f"ref:{rname}", "refinement", kl,
               _find_corpus_name(corpus, kl.target),
               _find_corpus_name(corpus, kl.source), {})


def _memo_morphisms(corpus: dict) -> tuple:
    """corpus_morphisms(corpus), from the one cached pass (_pass).

    The key is made of the (name, graph) pairs of the corpus and
    FEYNGRAPH_MAX_SEARCH, so a lower budget raises as a first pass
    would.  Graphs compare by identity, and the key holds the graphs it
    names.  The cache holds the last complete pass; a pass that raises is
    not stored."""
    return _pass(tuple(corpus.items()), max_search_cap())


@functools.lru_cache(maxsize=1)
def _pass(items: tuple, cap: int) -> tuple:
    return tuple(corpus_morphisms(dict(items)))


def nerve(A: CircuitAlgebraOps, corpus: dict) -> FinitePresheaf:
    """The nerve of a finite circuit algebra on a named corpus: object
    sets are the decorations of each graph; restrictions are generated by
    the element morphisms ch_x, all isomorphisms, pointed deletions
    between corpus graphs, and the refinements of its corollas by its
    graphs.  The morphisms come from one cached pass, so a later call on
    the same corpus graphs builds none of them (see _memo_morphisms).  A
    refinement whose intermediate arity exceeds A's tables is omitted.
    The presheaf owns its records and their dicts."""
    decs = {name: {d.key(): d for d in evaluate_species(A.species, g)}
            for name, g in corpus.items()}
    morphisms = {}
    for mname, kind, kl, from_name, to_name, meta in _memo_morphisms(corpus):
        table = {}
        try:
            for key, d in decs[from_name].items():
                d2 = decs[to_name].get(restrict_kleisli(A, kl, d).key())
                if d2 is None:
                    raise FormatError(
                        f"restriction left the carrier at {mname}")
                # the key object of the carrier, shared by every map
                table[key] = d2.key()
        except BoundsTooLarge:
            # a search the budget refused is not an arity bound
            raise
        except OutOfBounds:
            if kind != "refinement":
                raise
            continue
        rec = {"kind": kind, "from_graph": from_name,
               "to_graph": to_name, "map": table}
        # the pass is shared, so each presheaf copies its meta dicts
        rec.update({f: dict(x) if isinstance(x, dict) else x
                    for f, x in meta.items()})
        morphisms[mname] = rec
    return FinitePresheaf(dict(corpus),
                          {name: sorted(decs[name]) for name in corpus},
                          morphisms)


def refinement_of_corolla(cor: FeynmanGraph, piece: FeynmanGraph,
                          boundary: dict) -> KleisliMorphism:
    """The refinement Kleisli morphism replacing the single vertex of a
    corolla by a boundary-matched graph; its target is the piece itself
    with its original ids, so it can be declared on a corpus."""
    if not _is_corolla(cor):
        raise NotACorolla(f"cannot refine {cor!r}: it is not a corolla")
    v = next(iter(cor.vertices))
    sub = substitute(GraphOfGraphs(cor, {v: (piece, boundary)}))
    em = {}
    for c in sub.colimit.edges:
        member = next(m for m in c if m[0] == "p")
        em[c] = member[2]
    hm = {h: h[2] for h in sub.colimit.half_edges}
    vm = {w: w[2] for w in sub.colimit.vertices}
    return make_kleisli(sub, piece, set(), em, hm, vm)


def _auto_refinements(corpus):
    """For every corolla in the corpus, refinements by every corpus graph
    with a matching number of ports (one per port/slot bijection), as
    (name, Kleisli morphism) pairs built one at a time.  The k! bijections
    of each k-corolla and graph are charged to FEYNGRAPH_MAX_SEARCH before
    any of them is built."""
    budget = SearchBudget("refinement port bijections")
    for cname in sorted(corpus):
        cor = corpus[cname]
        if not _is_corolla(cor):
            continue
        v = next(iter(cor.vertices))
        halves = cor.halves_at(v)
        for hname in sorted(corpus):
            h = corpus[hname]
            if not h.vertices or len(h.ports) != len(halves):
                continue
            ports = sort_ids(h.ports)
            budget.spend(math.factorial(len(halves)))
            for idx, perm in enumerate(itertools.permutations(halves)):
                boundary = dict(zip(ports, perm))
                yield (f"{cname}<-{hname}:{idx}",
                       refinement_of_corolla(cor, h, boundary))


def kleisli_deletion_homs(g: FeynmanGraph, h: FeynmanGraph) -> list:
    """All Kleisli morphisms g -> h given by deleting a nonempty set of
    bivalent/isolated vertices followed by an etale map, without the
    similarity absorption used for pointed hom-set counting (an etale map
    and a deletion composite are distinct Kleisli morphisms).  Each
    deletion of g is kept on g, so the calls for one g and many h delete
    each vertex set once."""
    return list(_deletion_homs(g, h, False, kleisli_from_pointed))


def _auto_deletions(corpus):
    pairs = []
    for gname, g in corpus.items():
        if not any(g.valency(v) in (0, 2) for v in g.vertices):
            continue
        for hname, h in corpus.items():
            if len(h.vertices) < len(g.vertices):
                pairs.append((gname, hname))
    return pairs


# -- Segal condition -----------------------------------------------------------------

def check_segal(P: FinitePresheaf) -> dict:
    """For every non-elementary corpus graph, compare P(G) with the limit
    of P over the element category of G, computed from the declared ch
    restrictions.  Elementary graphs (sticks, corollas) pass trivially."""
    report = {"ok": True, "corpus": sorted(P.corpus), "per_graph": {}}
    chs = {}       # graph name -> its ch records, in declaration order
    edge_ch = {}   # (graph name, edge idstr) -> the first such ch record
    for r in P.morphisms.values():
        if r["kind"] == "ch":
            chs.setdefault(r["from_graph"], []).append(r)
            if r.get("edge") is not None:
                edge_ch.setdefault((r["from_graph"], r["edge"]), r)
    for name in sorted(P.corpus):
        g = P.corpus[name]
        entry = {"ok": True, "size": len(P.sets[name])}
        if _is_elementary(g):
            entry["elementary"] = True
            report["per_graph"][name] = entry
            continue
        vch = {}    # vertex idstr -> morphism record
        ech = {}    # edge idstr -> record
        for r in chs.get(name, ()):
            if r.get("vertex") is not None:
                vch[r["vertex"]] = r
            elif r.get("edge") is not None:
                ech[r["edge"]] = r
        missing = ([idstr(v) for v in g.vertices if idstr(v) not in vch]
                   + [idstr(e) for e in g.edges if idstr(e) not in ech])
        if missing:
            raise CorpusNotElementClosed(
                f"{name}: missing element restrictions {missing[:3]}")
        # corolla-edge restrictions, needed for compatibility
        limit = _segal_limit(P, g, vch, ech, edge_ch)
        canonical = {}
        for x in P.sets[name]:
            fam = (tuple((vr, vch[vr]["map"][x]) for vr in sorted(vch)),
                   tuple((er, ech[er]["map"][x]) for er in sorted(ech)))
            canonical[x] = fam
        image = set(canonical.values())
        entry["limit"] = len(limit)
        if len(image) != len(P.sets[name]):
            entry["ok"] = False
            entry["witness"] = "non-injective canonical map"
        elif image != limit:
            entry["ok"] = False
            extra = limit - image
            missing_fams = image - limit
            entry["witness"] = (f"limit mismatch: |limit|={len(limit)}, "
                                f"|image|={len(image)}, "
                                f"extra={len(extra)}, "
                                f"outside={len(missing_fams)}")
        report["per_graph"][name] = entry
        report["ok"] = report["ok"] and entry["ok"]
    return report


def _segal_limit(P: FinitePresheaf, g, vch, ech, edge_ch) -> set:
    """Compatible families over the elements of g.

    An edge at a vertex takes its value from the vertex's corolla element
    through the declared edge_images.  A stick component (e, tau e) is an
    element of its own: any value u of the stick at e, and flip(u) at
    tau e, where flip restricts along the stick's orientation reversal.
    edge_ch holds the ch record of each (graph name, edge idstr)."""
    vreprs = sorted(vch)
    ereprs = sorted(ech)
    sticks = [(idstr(e), idstr(f)) for e, f in g.stick_components()]
    flip = _stick_flip(P, edge_ch) if sticks else {}
    stick_choices = list(itertools.product(flip, repeat=len(sticks)))
    out = set()
    vdomains = [P.sets[vch[vr]["to_graph"]] for vr in vreprs]
    for vchoice in itertools.product(*vdomains):
        echoice = {}
        ok = True
        for vr, u in zip(vreprs, vchoice):
            r = vch[vr]
            cname = r["to_graph"]
            for ce, ger in r.get("edge_images", {}).items():
                if ger not in ech:
                    ok = False
                    break
                crec = edge_ch.get((cname, ce))
                if crec is None:
                    ok = False
                    break
                val = crec["map"][u]
                if echoice.setdefault(ger, val) != val:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for schoice in stick_choices:
            family = dict(echoice)
            for (er, fr), u in zip(sticks, schoice):
                family[er], family[fr] = u, flip[u]
            if set(family) != set(ereprs):
                # the declared edge images leave an edge unconstrained
                continue
            out.add((tuple(zip(vreprs, vchoice)),
                     tuple((er, family[er]) for er in ereprs)))
    return out


def _stick_flip(P: FinitePresheaf, edge_ch: dict) -> dict:
    """The restriction of P(stick) along the stick's orientation reversal:
    the declared element map of the corpus stick at its edge "2"."""
    sname = _find_corpus_name(P.corpus, stick())
    rec = None if sname is None else edge_ch.get((sname, repr("2")))
    if rec is None:
        raise CorpusNotElementClosed(
            "a graph with a stick component needs the stick and its "
            "element maps in the corpus")
    return rec["map"]


# -- mutation fixtures ---------------------------------------------------------------

def mutated_presheaves(P: FinitePresheaf, count: int = 10) -> list:
    """Deterministically broken copies of P, each of which must fail the
    Segal check: duplicated elements, dropped elements, rewired maps."""
    out = []
    names = [n for n in sorted(P.corpus)
             if not _is_elementary(P.corpus[n]) and len(P.sets[n]) >= 1]
    chs = sorted(
        (mn for mn, r in P.morphisms.items()
         if r["kind"] == "ch" and r["from_graph"] in names
         and len(set(r["map"].values())) >= 2),
        key=repr)

    i = 0
    for n in names:
        if len(out) >= count:
            break
        q = P.copy()
        dup = q.sets[n][0]
        q.sets[n] = q.sets[n] + [("dup", dup)]
        for r in q.morphisms.values():
            if r["from_graph"] == n:
                r["map"][("dup", dup)] = r["map"][dup]
        out.append((f"duplicate element in {n}", q))
        i += 1
    for mn in chs:
        if len(out) >= count:
            break
        q = P.copy()
        r = q.morphisms[mn]
        keys = sorted(r["map"], key=repr)
        first = r["map"][keys[0]]
        r["map"] = {k: first for k in keys}
        out.append((f"rewired restriction {mn!r}", q))
    for n in names:
        if len(out) >= count:
            break
        if len(P.sets[n]) < 2:
            continue
        q = P.copy()
        dropped = q.sets[n][-1]
        q.sets[n] = q.sets[n][:-1]
        for r in q.morphisms.values():
            if r["from_graph"] == n:
                r["map"].pop(dropped, None)
        out.append((f"dropped element in {n}", q))
    return out[:count]


# -- fullness probe ------------------------------------------------------------------

def presheaf_maps(P: FinitePresheaf, Q: FinitePresheaf) -> list:
    """All natural transformations P -> Q over the shared corpus: one
    function per corpus object commuting with every declared morphism
    present in both presheaves.

    The components are chosen one object at a time: first the elementary
    objects in name order, then the others in name order, whose
    candidates follow from their ch-families.  Each square is checked
    once both its ends are chosen, and a partial choice is dropped as
    soon as one fails.  The elementary choices, the product of
    |Q(n)|^|P(n)|, are charged to FEYNGRAPH_MAX_SEARCH before the search
    starts, and the product of the candidates for the other objects
    before they are walked."""
    names = sorted(P.corpus)
    if sorted(Q.corpus) != names:
        raise Mismatch("presheaves must share a corpus")
    shared = [mn for mn in P.morphisms if mn in Q.morphisms]
    base = [n for n in names if _is_elementary(P.corpus[n])]
    rest = [n for n in names if n not in base]
    order = base + rest
    budget = SearchBudget("natural-transformation choices")
    budget.spend(
        math.prod(max(len(Q.sets[n]) ** len(P.sets[n]), 1) for n in base))
    # each square, as (from, to, Q's map, [(x, P's map at x)]), at the
    # later of its two ends
    level = {n: i for i, n in enumerate(order)}
    squares = [[] for _ in order]
    for mn in shared:
        rp = P.morphisms[mn]
        fn, tn = rp["from_graph"], rp["to_graph"]
        squares[max(level[fn], level[tn])].append(
            (fn, tn, Q.morphisms[mn]["map"],
             [(x, rp["map"][x]) for x in P.sets[fn]]))
    # the ch-families of the other objects: P's per element, Q's indexed
    chs = {n: sorted(mn for mn in shared
                     if P.morphisms[mn]["kind"] == "ch"
                     and P.morphisms[mn]["from_graph"] == n)
           for n in rest}
    ch_targets = {n: [P.morphisms[mn]["to_graph"] for mn in chs[n]]
                  for n in rest}
    pfam = {n: [tuple(P.morphisms[mn]["map"][x] for mn in chs[n])
                for x in P.sets[n]]
            for n in rest}
    qfam = {}
    for n in rest:
        qfam[n] = {}
        for y in Q.sets[n]:
            fam = tuple(Q.morphisms[mn]["map"][y] for mn in chs[n])
            qfam[n].setdefault(fam, []).append(y)
    out = []

    def candidates(comp):
        # the component image of x must have the translated family
        per_object = {}
        for n in rest:
            per_x = []
            for fam in pfam[n]:
                want = tuple(comp[t][v] for t, v in zip(ch_targets[n], fam))
                cands = qfam[n].get(want)
                if not cands:
                    return None
                per_x.append(cands)
            per_object[n] = per_x
        budget.spend(math.prod(len(c) for per_x in per_object.values()
                               for c in per_x))
        return per_object

    def holds(i, comp):
        for fn, tn, qmap, pairs in squares[i]:
            cf, ct = comp[fn], comp[tn]
            for x, px in pairs:
                if qmap[cf[x]] != ct[px]:
                    return False
        return True

    def extend(i, comp, cands):
        if i == len(base):
            cands = candidates(comp)
            if cands is None:
                return
        if i == len(order):
            out.append({n: dict(comp[n]) for n in names})
            return
        n = order[i]
        space = (itertools.product(Q.sets[n], repeat=len(P.sets[n]))
                 if i < len(base) else itertools.product(*cands[n]))
        for vals in space:
            comp[n] = dict(zip(P.sets[n], vals))
            if holds(i, comp):
                extend(i + 1, comp, cands)

    extend(0, {}, None)
    return out


def algebra_morphisms(A: CircuitAlgebraOps, B: CircuitAlgebraOps,
                      max_arity: int) -> list:
    """All palette-preserving maps A -> B commuting with the symmetric
    action, box, zeta, eps and the external unit, by exhaustive search.
    The candidate maps, the product over x of the colour-compatible
    images of x, are charged to FEYNGRAPH_MAX_SEARCH before the search
    starts."""
    SA, SB = A.species, B.species
    if SA.palette.colours != SB.palette.colours:
        raise Mismatch("palettes differ")
    keys, images = [], []
    for n in range(max_arity + 1):
        eb = SB.elements(n)
        for x in SA.elements(n):
            keys.append(SA.key(x))
            images.append([y for y in eb
                           if SB.colour_of(y) == SA.colour_of(x)])
    SearchBudget("algebra-morphism candidates").spend(
        math.prod(map(len, images)))
    out = []
    for vals in itertools.product(*images):
        fwd = dict(zip(keys, vals))
        if _is_algebra_morphism(A, B, lambda x: fwd[SA.key(x)], max_arity):
            out.append(fwd)
    return out


def _is_algebra_morphism(A, B, phi, max_arity):
    SA, SB = A.species, B.species
    for c in sort_ids(SA.palette.colours):
        if SB.key(phi(A.eps(c))) != SB.key(B.eps(c)):
            return False
    if SB.key(phi(A.unit0())) != SB.key(B.unit0()):
        return False
    om = SA.palette.omega
    for n in range(max_arity + 1):
        for x in SA.elements(n):
            # the adjacent transpositions generate S_n
            for i in range(n - 1):
                sigma = tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
                if SB.key(phi(SA.act(x, sigma))) != \
                        SB.key(SB.act(phi(x), sigma)):
                    return False
            cols = SA.colour_of(x)
            for i in range(n):
                for j in range(i + 1, n):
                    if cols[i] != om[cols[j]]:
                        continue
                    za = A.zeta(x, i, j)
                    zb = B.zeta(phi(x), i, j)
                    if za is None or zb is None:
                        continue
                    if SB.key(phi(za)) != SB.key(zb):
                        return False
            for m in range(max_arity + 1 - n):
                for y in SA.elements(m):
                    ba = A.box(x, y)
                    if ba is None:
                        continue
                    bb = B.box(phi(x), phi(y))
                    if bb is None:
                        continue
                    if SB.key(phi(ba)) != SB.key(bb):
                        return False
    return True


def fullness_probe(A: CircuitAlgebraOps, B: CircuitAlgebraOps,
                   corpus: dict, max_arity: int) -> dict:
    """Compare natural transformations nerve(A) -> nerve(B) with algebra
    morphisms A -> B found by exhaustive search."""
    PA = nerve(A, corpus)
    PB = PA if B is A else nerve(B, corpus)
    nats = presheaf_maps(PA, PB)
    homs = algebra_morphisms(A, B, max_arity)
    return {"ok": len(nats) == len(homs),
            "natural_transformations": len(nats),
            "algebra_morphisms": len(homs)}
