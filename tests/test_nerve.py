"""Kleisli morphisms, nerve computation, and the Segal checker."""

import collections
import functools
import hashlib
import importlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from feyngraph.errors import (BoundsTooLarge, ColourMismatch,
                              CorpusNotElementClosed, FormatError, Mismatch,
                              NotACorolla, NotDeletable, OutOfBounds,
                              ValencyOutOfRange)
from feyngraph.etale import EtaleMorphism, glue_ports
from feyngraph.graphs import (corolla, disjoint_union, isolated_vertex, line,
                              sort_ids, stick, tagged_union, wheel)
from feyngraph.monads import (deletable_vertices, delete_vertices,
                              hom_etale, hom_pointed)
from feyngraph.nerve import (FinitePresheaf, algebra_morphisms, check_segal,
                             corpus_morphisms, fullness_probe, graphs_equal,
                             kleisli_compose,
                             kleisli_deletion_homs,
                             kleisli_equal, kleisli_from_etale,
                             kleisli_from_pointed, kleisli_identity,
                             kleisli_refinement, make_kleisli,
                             mutated_presheaves, nerve,
                             presheaf_maps, refinement_of_corolla,
                             restrict_kleisli)
from feyngraph.species import (FiniteCircuitAlgebra, TableSpecies,
                               evaluate_species)
from feyngraph.substitution import (GraphOfGraphs, enumerate_x_graphs,
                                    substitute)

from helpers_nerve import corpus14, dumbbell, parity_algebra, theta
from helpers_species import MONO, TWO, tuple_algebra
from oracles import (brute_algebra_morphisms, brute_is_algebra_morphism,
                     brute_kleisli_from_etale, brute_kleisli_from_pointed,
                     brute_make_kleisli, brute_presheaf_maps,
                     brute_restrict_kleisli)

nerve_module = importlib.import_module("feyngraph.nerve")
monads_module = importlib.import_module("feyngraph.monads")


# -- Kleisli morphisms ---------------------------------------------------------------

CORPUS_GRAPHS = [stick(), corolla([0]), corolla([0, 1]), wheel(1), wheel(2),
                 line(1), line(2), corolla([])]


@pytest.fixture
def shadow_oracle(monkeypatch):
    """From now on every make_kleisli call also normalizes its arguments
    with the staged oracle, and the two must agree.  Counts the calls by
    (bivalent vertices pushed into pieces, labeling combinations)."""
    seen = collections.Counter()
    build = nerve_module.make_kleisli

    def shadowed(sub, target, w, em, hm, vm, fresh_em=None):
        got = build(sub, target, w, em, hm, vm, fresh_em)
        _assert_same_kleisli(
            got, brute_make_kleisli(sub, target, w, em, hm, vm, fresh_em))
        pushed = sum(sub.colimit.valency(cv) == 2 for cv in w)
        seen[pushed, len(sub.frames[frozenset(w)].combos)] += 1
        return got

    monkeypatch.setattr(nerve_module, "make_kleisli", shadowed)
    return seen


@pytest.mark.parametrize("g", CORPUS_GRAPHS, ids=lambda g: repr(g))
@pytest.mark.usefixtures("shadow_oracle")
def test_identity_composes_to_itself(g):
    i = kleisli_identity(g)
    assert kleisli_equal(kleisli_compose(i, i), i)


def _isolated_deletions():
    """The Kleisli deletions of an isolated vertex onto a stick, alone
    (1 morphism) and beside a 1-corolla (2 morphisms)."""
    iv, st, c1 = isolated_vertex(), stick(), corolla([0])
    alone = kleisli_deletion_homs(iv, st)
    beside = kleisli_deletion_homs(disjoint_union(iv, c1),
                                   disjoint_union(st, c1))
    assert (len(alone), len(beside)) == (1, 2)
    return alone + beside


@pytest.mark.usefixtures("shadow_oracle")
def test_identities_are_units_for_an_isolated_deletion():
    """identity after k composes a vertex deleted by the first tail;
    k after identity, one deleted by the second tail."""
    for k in _isolated_deletions():
        assert kleisli_equal(
            kleisli_compose(kleisli_identity(k.target), k), k)
        assert kleisli_equal(
            kleisli_compose(k, kleisli_identity(k.source)), k)


@pytest.mark.usefixtures("shadow_oracle")
def test_stick_endomorphisms_after_an_isolated_deletion_give_it_back():
    """A fresh stick counts up to flip, so both etale endomorphisms of
    the stick, composed after the deletion, give the deletion."""
    st = stick()
    [k] = kleisli_deletion_homs(isolated_vertex(), st)
    endos = hom_etale(st, st)
    assert len(endos) == 2
    for e in endos:
        assert kleisli_equal(kleisli_compose(kleisli_from_etale(e), k), k)


def _line_refinement(g, v):
    """Refine a bivalent vertex v of g by a 2-line piece."""
    h1, h2 = g.halves_at(v)
    pieces = dict(GraphOfGraphs.identity(g).pieces)
    pieces[v] = (line(1), {("l", 0): h1, ("l", 3): h2})
    return GraphOfGraphs(g, pieces)


@pytest.mark.usefixtures("shadow_oracle")
def test_refinement_unit_laws():
    g = line(2)
    gog = _line_refinement(g, sort_ids(g.vertices)[0])
    kref = kleisli_refinement(gog)
    assert kleisli_equal(kleisli_compose(kref, kleisli_identity(g)), kref)
    assert kleisli_equal(
        kleisli_compose(kleisli_identity(kref.target), kref), kref)


@pytest.mark.usefixtures("shadow_oracle")
def test_refinements_compose_to_nested_substitution():
    g = line(2)
    k1 = kleisli_refinement(_line_refinement(g, sort_ids(g.vertices)[0]))
    h = k1.target
    k2 = kleisli_refinement(
        _line_refinement(h, sort_ids(h.vertices)[0]))
    comp = kleisli_compose(k2, k1)
    assert graphs_equal(comp.source, g)
    assert graphs_equal(comp.target, k2.target)
    # a composite of refinements is a refinement: the tail deletes nothing
    assert not comp.pointed_tail.deleted
    # and its colimit carries exactly the nested substitution's vertices
    direct = substitute(comp.refinement)
    assert len(direct.colimit.vertices) == len(k2.target.vertices)


def _kappa_presentations():
    """The wheel-to-stick morphism, presented as a pointed deletion and as
    a stick-piece refinement with an etale tail."""
    w1, st = wheel(1), stick()
    pointed = [kleisli_from_pointed(pm) for pm in hom_pointed(w1, st)]
    v = next(iter(w1.vertices))
    h1, h2 = w1.halves_at(v)
    sub = substitute(GraphOfGraphs(w1, {v: (stick(), {"1": h1, "2": h2})}))
    colim = sub.colimit
    ce = sort_ids(colim.edges)
    refined = [make_kleisli(sub, st, set(), amap, {}, {})
               for amap in ({ce[0]: "1", ce[1]: "2"},
                            {ce[0]: "2", ce[1]: "1"})
               if all(amap[colim.tau[c]] == st.tau[amap[c]] for c in ce)]
    return pointed, refined


def test_kappa_zigzag_equality():
    pointed, refined = _kappa_presentations()
    assert len(pointed) == 2 and len(refined) == 2
    matrix = [[kleisli_equal(a, b) for b in pointed] for a in refined]
    # each presentation matches exactly one pointed morphism, and the two
    # labelings (kappa vs tau

    # kappa) stay distinct
    assert sorted(map(tuple, matrix)) == [(False, True), (True, False)]


def test_deletion_composite_differs_from_identity():
    w1 = wheel(1)
    idw = kleisli_identity(w1)
    endos = [kleisli_from_pointed(pm) for pm in hom_pointed(w1, w1)]
    assert all(not kleisli_equal(idw, k) for k in endos if
               k.pointed_tail.deleted or not graphs_equal(
                   k.refinement.pieces[next(iter(w1.vertices))][0],
                   idw.refinement.pieces[next(iter(w1.vertices))][0]))


@pytest.mark.parametrize("G", [wheel(1), wheel(2)], ids=["W1", "W2"])
@pytest.mark.usefixtures("shadow_oracle")
def test_ch_e_after_kappa_is_a_pointed_morphism(G):
    w1, st = wheel(1), stick()
    kappas = [kleisli_from_pointed(pm) for pm in hom_pointed(w1, st)]
    e = sort_ids(G.edges)[0]
    ch = kleisli_from_etale(
        EtaleMorphism(st, G, {"1": e, "2": G.tau[e]}, {}, {}))
    targets = [kleisli_from_pointed(p) for p in hom_pointed(w1, G)]
    for k in kappas:
        comp = kleisli_compose(ch, k)
        hits = [p for p in targets if kleisli_equal(comp, p)]
        assert len(hits) == 1


@pytest.mark.usefixtures("shadow_oracle")
def test_equality_is_a_congruence():
    pointed, refined = _kappa_presentations()
    pairs = [(a, b) for a in refined for b in pointed
             if kleisli_equal(a, b)]
    assert pairs
    G = wheel(2)
    e = sort_ids(G.edges)[0]
    ch = kleisli_from_etale(
        EtaleMorphism(stick(), G, {"1": e, "2": G.tau[e]}, {}, {}))
    for a, b in pairs:
        assert kleisli_equal(kleisli_compose(ch, a), kleisli_compose(ch, b))
        i = kleisli_identity(wheel(1))
        assert kleisli_equal(kleisli_compose(a, i), kleisli_compose(b, i))


def test_compose_endpoint_mismatch():
    with pytest.raises(Mismatch):
        kleisli_compose(kleisli_identity(stick()),
                        kleisli_identity(wheel(1)))


def test_non_isomorphic_colimits_unequal():
    g = line(2)
    a = kleisli_identity(g)
    v = sort_ids(g.vertices)[0]
    h1, h2 = g.halves_at(v)
    pieces = dict(GraphOfGraphs.identity(g).pieces)
    pieces[v] = (line(1), {("l", 0): h1, ("l", 3): h2})
    b = kleisli_refinement(GraphOfGraphs(g, pieces))
    assert not kleisli_equal(a, b)  # different targets
    assert a.key() != b.key()


def test_kleisli_identity_substitutes_twice(monkeypatch):
    """Once for the identity refinement, once for its canonical pieces:
    make_kleisli takes the substitution its caller holds."""
    calls = []

    def counting(gog):
        calls.append(gog)
        return substitute(gog)

    for module in (nerve_module, monads_module):
        monkeypatch.setattr(module, "substitute", counting)
    for name, g in corpus14().items():
        calls.clear()
        kleisli_identity(g)
        assert len(calls) == 2, name


def test_kleisli_labelings_are_charged_to_the_search_budget(monkeypatch):
    corpus = corpus14()
    # the wheel piece has two labelings that fix its (empty) boundary
    cor, w1 = corpus["corolla0"], corpus["wheel1"]
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "2")
    refinement_of_corolla(cor, w1, {})
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "1")
    with pytest.raises(OutOfBounds):
        refinement_of_corolla(cor, w1, {})


# -- one frame per refinement and deleted set ----------------------------------------

def _corpus_kleisli_inputs(corpus):
    """The etale maps and pointed morphisms that corpus_morphisms turns
    into ch, iso and deletion Kleisli morphisms, with one corolla per
    valency and one stick, as there; every deletion before the dedupe."""
    corollas, st = {}, stick()
    for name in sorted(corpus):
        g = corpus[name]
        for v in sort_ids(g.vertices):
            halves = g.halves_at(v)
            k = len(halves)
            c = corollas.setdefault(k, corolla(list(range(k))))
            em = {}
            for i, h in enumerate(halves):
                em[i], em[("in", i)] = g.tau[g.s[h]], g.s[h]
            yield "etale", EtaleMorphism(
                c, g, em, {("h", i): halves[i] for i in range(k)}, {"*": v})
        for e in sort_ids(g.edges):
            yield "etale", EtaleMorphism(st, g, {"1": e, "2": g.tau[e]},
                                         {}, {})
        for psi in hom_etale(g, g):
            yield "etale", psi
    for gname, hname in nerve_module._auto_deletions(corpus):
        g, h = corpus[gname], corpus[hname]
        dels = deletable_vertices(g)
        for r in range(1, len(dels) + 1):
            for w0 in itertools.combinations(dels, r):
                d = delete_vertices(g, w0)
                for e in hom_etale(d.target, h):
                    yield "pointed", monads_module._normalized_pointed(
                        g, h, d, e, absorb=False)


def _assert_same_kleisli(got, want):
    assert got.key() == want.key()
    assert graphs_equal(got.source, want.source)
    assert graphs_equal(got.target, want.target)
    assert set(got.refinement.pieces) == set(want.refinement.pieces)
    for v, (piece, boundary) in want.refinement.pieces.items():
        piece2, boundary2 = got.refinement.pieces[v]
        assert graphs_equal(piece2, piece)
        assert boundary2 == boundary
    assert graphs_equal(got._sub.colimit, want._sub.colimit)
    t, u = got.pointed_tail, want.pointed_tail
    assert graphs_equal(t.etale_part.source, u.etale_part.source)
    assert t.deleted == u.deleted
    for attr in ("edge_map", "half_map", "vertex_map"):
        assert getattr(t.etale_part, attr) == getattr(u.etale_part, attr)
    for attr in ("edge_correspondence", "vertex_map", "half_map",
                 "fresh_sticks"):
        assert getattr(t.similarity_part, attr) == \
            getattr(u.similarity_part, attr)


def _count_frames(monkeypatch):
    """The (substitution, deleted set) pairs that make_kleisli builds a
    frame for from now on."""
    built = []
    build = nerve_module._kleisli_frame

    def counting(sub, w, budget):
        built.append((sub, w))
        return build(sub, w, budget)

    monkeypatch.setattr(nerve_module, "_kleisli_frame", counting)
    return built


def test_frame_built_morphisms_equal_the_oracle(monkeypatch):
    """Every ch, iso and deletion morphism on corpus14, built through the
    frames kept on its source graph, equals the one normalized from
    scratch."""
    built, kinds = _count_frames(monkeypatch), collections.Counter()
    for kind, x in _corpus_kleisli_inputs(corpus14()):
        if kind == "pointed":
            got = kleisli_from_pointed(x)
            want = brute_kleisli_from_pointed(x)
        else:
            got = kleisli_from_etale(x)
            want = brute_kleisli_from_etale(x)
        _assert_same_kleisli(got, want)
        kinds[kind] += 1
    # 79 ch and 54 iso morphisms; 142 deletions, of which one repeats
    assert kinds == {"etale": 133, "pointed": 142}
    # one frame per refinement and deleted set, not one per morphism
    assert len(built) == 37


def test_second_morphism_out_of_a_graph_reuses_its_frame(monkeypatch):
    """The identity refinement and the frame stay on the source graph: a
    second Kleisli morphism out of the same graph object substitutes
    nothing and builds no frame, and an equal fresh graph builds both."""
    phi = next(iter(hom_etale(wheel(2), wheel(2))))
    first = kleisli_from_etale(phi)
    calls = []

    def counting(gog):
        calls.append(gog)
        return substitute(gog)

    monkeypatch.setattr(nerve_module, "substitute", counting)
    built = _count_frames(monkeypatch)
    again = kleisli_from_etale(phi)
    assert (calls, built) == ([], [])
    assert again.key() == first.key()
    psi = next(iter(hom_etale(wheel(2), wheel(2))))
    assert kleisli_from_etale(psi).key() == first.key()
    assert len(built) == 1 and len(calls) > 1


def test_a_substitutions_frames_are_not_a_constructor_option():
    """Only make_kleisli fills Substitution.frames: the field cannot be
    passed in, and dataclasses.replace starts the copy with no frames."""
    import dataclasses
    sub = substitute(GraphOfGraphs.identity(wheel(1)))
    with pytest.raises(TypeError):
        type(sub)(sub.gog, sub.colimit, sub.edge_class, sub.piece_edge,
                  frames={})
    sub.frames[frozenset()] = object()
    assert dataclasses.replace(sub).frames == {}


def test_a_kept_frame_is_charged_to_the_search_budget(monkeypatch):
    monkeypatch.delenv("FEYNGRAPH_MAX_SEARCH", raising=False)
    g = wheel(1)
    kleisli_identity(g)
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "0")
    with pytest.raises(OutOfBounds):
        kleisli_identity(wheel(1))   # a cold build
    with pytest.raises(OutOfBounds):
        kleisli_identity(g)          # the frame kept on g


def test_shadow_oracle_agrees_on_a_corpus_pass(shadow_oracle):
    """Every make_kleisli call of one corpus14 pass, with its default
    refinements, equals the staged oracle.  Only the five refinement
    frames have more than one labeling combination there."""
    assert len(list(corpus_morphisms(corpus14()))) == 309
    assert shadow_oracle == {(0, 1): 165, (0, 2): 1, (0, 4): 1, (0, 6): 1,
                             (0, 8): 1, (0, 12): 1, (1, 1): 42, (2, 1): 46,
                             (3, 1): 52}


def _wheel_piece_deletions():
    """make_kleisli arguments of corolla0 refined by wheel(m), whose
    rotations and reflection fix its empty boundary, followed by the
    deletion of a proper vertex set of the colimit and an etale map.
    (Deleting every vertex would leave a piece with no vertex and no
    boundary, which no graph of graphs admits.)"""
    for m in (2, 3):
        sub = substitute(GraphOfGraphs(corolla([]), {"*": (wheel(m), {})}))
        colim = sub.colimit
        for h in (wheel(1), wheel(2), stick()):
            for pm in monads_module._deletion_homs(colim, h, False):
                w = pm.deleted
                if len(w) == m:
                    continue
                yield (sub, h, w, {c: pm.edge_image(c) for c in colim.edges},
                       {x: pm.half_image(x)
                        for x in pm.similarity_part.half_map},
                       {v: pm.vertex_image(v)
                        for v in pm.similarity_part.vertex_map})


def test_shadow_oracle_agrees_on_pushed_deletions_with_several_labelings(
        shadow_oracle):
    for args in _wheel_piece_deletions():
        nerve_module.make_kleisli(*args)
    assert shadow_oracle == {(1, 2): 4, (1, 4): 18, (2, 2): 6}


def test_a_bad_deleted_set_raises_before_the_budget(monkeypatch):
    # the trivalent vertex is not deletable, and a budget of 0 would
    # refuse the frame's one labeling combination
    sub, em, hm, vm = nerve_module._kleisli_record(corolla([0, 1, 2]))
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "0")
    with pytest.raises(NotDeletable):
        make_kleisli(sub, corolla([0, 1, 2]), set(vm), em, hm, vm)


def test_a_tail_that_splits_merged_edges_raises_mismatch():
    """Deleting a vertex of wheel(2) merges the edges at its two halves;
    a tail that sends them to different edges does not factor through
    the deletion, although each plan reads only one of them."""
    sub, h, w, em, hm, vm = next(
        args for args in _wheel_piece_deletions()
        if len(args[2]) == 1 and args[1].vertices)
    make_kleisli(sub, h, w, em, hm, vm)
    merged = delete_vertices(sub.colimit, w).edge_correspondence
    x, y = next((x, y) for x in merged for y in merged
                if x != y and merged[x] == merged[y])
    assert em[x] == em[y] != h.tau[em[x]]
    with pytest.raises(Mismatch):
        make_kleisli(sub, h, w, {**em, x: h.tau[em[x]]}, hm, vm)


def _small_corpus():
    return {"stick": stick(), "corolla1": corolla([0]),
            "corolla2": corolla([0, 1]), "corolla3": corolla([0, 1, 2]),
            "wheel1": wheel(1)}


def _all_corpus_morphisms(corpus):
    return list(corpus_morphisms(corpus))


def _two_nerves(corpus):
    return nerve(tuple_algebra(MONO, 3), corpus), \
        nerve(parity_algebra(4), corpus)


# (search, size, function, arguments): every search charged to
# FEYNGRAPH_MAX_SEARCH, and a call that spends `size` on it, more than on
# any other search it makes; the arguments are built at the default cap
BUDGETED = [
    ("enumerated matchings", 18, enumerate_x_graphs,
     lambda: (["a", "b"], 2, 3)),
    ("etale homs", 4, hom_etale, lambda: (wheel(2), wheel(2))),
    ("deletion vertex sets", 8, hom_pointed, lambda: (wheel(3), wheel(1))),
    ("deletion vertex sets", 7, kleisli_deletion_homs,
     lambda: (wheel(3), wheel(1))),
    # theta has 12 automorphisms, and no port to fix
    ("piece labeling combinations", 12, refinement_of_corolla,
     lambda: (corolla([]), theta(), {})),
    # 1! + 2! + 3! for the three corollas refined by themselves, beside
    # the 3! automorphisms of corolla3
    ("refinement port bijections", 9, _all_corpus_morphisms,
     lambda: (_small_corpus(),)),
    # 8 elementary choices, and the candidates for the other objects
    ("natural-transformation choices", 12, presheaf_maps,
     lambda: _two_nerves(_small_corpus())),
    ("algebra-morphism candidates", 16, algebra_morphisms,
     lambda: (tuple_algebra(MONO, 3), parity_algebra(4), 3)),
]


@pytest.mark.parametrize("search, size, fn, args", BUDGETED,
                         ids=[f"{row[0]}-{row[2].__name__}"
                              for row in BUDGETED])
def test_every_search_stops_at_the_budget(monkeypatch, search, size, fn,
                                          args):
    monkeypatch.delenv("FEYNGRAPH_MAX_SEARCH", raising=False)
    args = args()
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", str(size - 1))
    with pytest.raises(BoundsTooLarge, match=f"^{search} exceed "):
        fn(*args)
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", str(size))
    fn(*args)


def test_a_refused_search_in_a_refinement_is_not_an_arity_bound(
        monkeypatch):
    """nerve leaves out an automatic refinement whose restriction leaves
    an algebra's bounds (OutOfBounds), but a search that the budget
    refused there (BoundsTooLarge, an OutOfBounds too) still raises."""
    restrict = nerve_module.restrict_kleisli
    corpus = {"stick": stick(), "corolla2": corolla([0, 1]),
              "line2": line(2)}

    def refusing(A, kl, dec):
        # only the refinement of corolla2 by line2 has a 2-vertex piece
        if any(len(p.vertices) > 1 for p, _ in kl.refinement.pieces.values()):
            raise BoundsTooLarge("searches exceed FEYNGRAPH_MAX_SEARCH=0")
        return restrict(A, kl, dec)

    monkeypatch.setattr(nerve_module, "restrict_kleisli", refusing)
    with pytest.raises(BoundsTooLarge):
        nerve(tuple_algebra(MONO, 3), corpus)


def test_one_corpus_pass_substitutes_at_most_400_times(monkeypatch):
    calls = []

    def counting(gog):
        calls.append(gog)
        return substitute(gog)

    for module in (nerve_module, monads_module):
        monkeypatch.setattr(module, "substitute", counting)
    assert len(list(corpus_morphisms(corpus14()))) == 309
    assert len(calls) <= 400


def test_ch_morphisms_come_out_of_the_corpus_graphs(monkeypatch):
    """Each ch morphism maps out of the corpus's own corolla or stick
    object, so it shares that graph's identity refinement with the iso
    morphisms out of it: the pass substitutes no more than the 211 times
    it did when each ch morphism had a corolla of its own."""
    calls = []

    def counting(gog):
        calls.append(gog)
        return substitute(gog)

    for module in (nerve_module, monads_module):
        monkeypatch.setattr(module, "substitute", counting)
    corpus = corpus14()
    chs = [(fn, tn, kl) for _, kind, kl, fn, tn, _ in corpus_morphisms(corpus)
           if kind == "ch"]
    assert len(chs) == sum(len(g.edges) + len(g.vertices)
                           for g in corpus.values())
    for fn, tn, kl in chs:
        assert kl.source is corpus[tn]
        assert kl.target is corpus[fn]
    assert len(calls) <= 211


def test_iso_records_are_the_etale_endomorphisms():
    """The "iso" records are hom_etale(g, g) in order.  On cc1, two of its
    four etale endomorphisms fold both 1-corollas onto one, so they are
    not isomorphisms."""
    corpus = corpus14()
    isos = collections.defaultdict(list)
    for name, kind, kl, fn, tn, _ in corpus_morphisms(corpus):
        if kind == "iso":
            assert fn == tn and name == f"iso:{fn}:{len(isos[fn])}"
            isos[fn].append(kl)
    assert sum(map(len, isos.values())) == 54
    for gname, kls in isos.items():
        g = corpus[gname]
        maps = hom_etale(g, g)
        assert [kl.key() for kl in kls] == \
            [kleisli_from_etale(m).key() for m in maps]
    folds = [m for m in hom_etale(corpus["cc1"], corpus["cc1"])
             if len(set(m.vertex_map.values())) < 2]
    assert len(hom_etale(corpus["cc1"], corpus["cc1"])) == 4
    assert len(folds) == 2
    for gname, g in corpus.items():
        if gname != "cc1":
            assert all(len(set(m.vertex_map.values())) == len(g.vertices)
                       and len(set(m.edge_map.values())) == len(g.edges)
                       for m in hom_etale(g, g))


def test_every_tail_of_a_corpus_pass_deletes_isolated_vertices_only():
    """make_kleisli moves every bivalent deletion into the refinement
    pieces, so a normal form's tail deletes only isolated vertices."""
    valencies = [kl._sub.colimit.valency(v)
                 for *_, kl, _, _, _ in corpus_morphisms(corpus14())
                 for v in kl.pointed_tail.deleted]
    assert valencies and set(valencies) == {0}


def test_one_corpus_pass_deletes_each_vertex_set_once(monkeypatch):
    """kleisli_deletion_homs keeps each deletion of a corpus graph on the
    graph, for all its targets: 18 distinct (graph, vertex set) pairs,
    144 calls when each target deleted again."""
    corpus = corpus14()
    calls = []

    def counting(g, w):
        if any(g is x for x in corpus.values()):
            calls.append((id(g), frozenset(w)))
        return delete_vertices(g, w)

    # the deletions of a corpus graph are made in monads._deletion
    monkeypatch.setattr(monads_module, "delete_vertices", counting)
    rows = [f"{name} {kind} {fn} {tn} {kl.key()!r}"
            for name, kind, kl, fn, tn, _ in corpus_morphisms(corpus)]
    assert len(calls) == 18
    assert len(calls) == len(set(calls))
    assert len(rows) == 309
    # the names, ends and keys of the pass before deletions were kept
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == \
        "32a2bb316cb2c15ce04c861bcb906a04be3ba7a92811037d06b68bb303a153a2"


KEYS_SCRIPT = """
import hashlib
from feyngraph.etale import glue_ports
from feyngraph.graphs import corolla, disjoint_union, stick, wheel
from feyngraph.monads import hom_pointed
from feyngraph.nerve import corpus_morphisms
from helpers_nerve import corpus14

keys = [repr(kl.key()) for _, _, kl, *_ in corpus_morphisms(corpus14())]
# the pairs of criterion 5
du = disjoint_union(corolla([0]), corolla([0]))
pa, pb = sorted(du.ports, key=repr)
edge, _ = glue_ports(du, [(pa, pb)])
pairs = [(wheel(1), stick()), (corolla([]), stick())]
pairs += [(wheel(m), g) for m in (1, 2, 3)
          for g in (stick(), corolla([0]), wheel(1), edge)]
for g, h in pairs:
    keys += [repr(pm.key()) for pm in hom_pointed(g, h)]
print(len(keys), hashlib.sha256("\\n".join(keys).encode()).hexdigest())
"""


def test_kleisli_and_pointed_keys_do_not_depend_on_the_hash_seed():
    # a colimit edge id is a frozenset, whose repr follows hash order
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    out = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", KEYS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        out.add(run.stdout)
    assert len(out) == 1, out


LOOP_NERVE_SCRIPT = """
import hashlib, json, sys
from feyngraph.etale import glue_ports
from feyngraph.graphs import corolla
from feyngraph.nerve import FinitePresheaf, check_segal, nerve
from helpers_nerve import corpus14, parity_algebra

corpus = corpus14()
# gluing two ports makes an inner edge pair with frozenset ids
corpus["loop"] = glue_ports(corolla(["a", "b", "c"]), [("a", "b")])[0]
text = json.dumps(nerve(parity_algebra(4), corpus).to_json(), sort_keys=True)
path = sys.argv[1]
if sys.argv[2] == "write":
    with open(path, "w") as fh:
        fh.write(text)
with open(path) as fh:
    P = FinitePresheaf.from_json(json.load(fh))
print(hashlib.sha256(text.encode()).hexdigest(), check_segal(P)["ok"])
"""


def test_nerve_with_frozenset_ids_does_not_depend_on_the_hash_seed(
        tmp_path):
    """The nerve written under one hash seed is the one written under
    every other, and passes the Segal check when another reads it."""
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    written = tmp_path / "loop_nerve.json"
    out = []
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-c", LOOP_NERVE_SCRIPT, str(written),
             "write" if seed == 0 else "read"],
            env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        out.append(run.stdout.split())
    assert len({digest for digest, _ in out}) == 1, out
    assert [ok for _, ok in out] == ["True"] * 4


# -- nerve and restrictions ----------------------------------------------------------

def test_nerve_of_terminal_algebra_is_singletons():
    A = tuple_algebra(MONO, 6)
    P = nerve(A, corpus14())
    assert all(len(ks) == 1 for ks in P.sets.values())
    assert check_segal(P)["ok"]


def test_ch_e_reads_off_edge_colour():
    A = tuple_algebra(TWO, 4)
    corpus = {"stick": stick(), "corolla2": corolla([0, 1]),
              "wheel1": wheel(1)}
    P = nerve(A, corpus)
    # identify each stick element by its colour at edge "1"
    by_key = {d.key(): dict(d.edge_colours)["1"]
              for d in evaluate_species(A.species, stick())}
    w1 = wheel(1)
    e = sort_ids(w1.edges)[0]
    rec = next(r for r in P.morphisms.values()
               if r["kind"] == "ch" and r["from_graph"] == "wheel1"
               and r.get("edge") == repr(e))
    for d in evaluate_species(A.species, w1):
        assert by_key[rec["map"][d.key()]] == \
            dict(d.edge_colours)[e]


def test_refinement_restriction_is_the_structure_map():
    """Restriction along a refinement of a 2-corolla by the 2-vertex line
    graph equals box at the vertices followed by zeta on the inner pair."""
    A = tuple_algebra(TWO, 4)
    S = A.species
    cor, H = corolla([0, 1]), line(2)
    v = next(iter(cor.vertices))
    halves = cor.halves_at(v)
    ports = sort_ids(H.ports)
    kl = refinement_of_corolla(cor, H, dict(zip(ports, halves)))
    boundary = dict(zip(ports, halves))
    for dec in evaluate_species(S, H):
        got = restrict_kleisli(A, kl, dec)
        acc = A.unit0()
        slots = []
        for u in sort_ids(H.vertices):
            acc = A.box(acc, dec.vertex_elems[u])
            slots += H.halves_at(u)
        hit = next((i, j) for i in range(len(slots))
                   for j in range(i + 1, len(slots))
                   if H.tau[H.s[slots[i]]] == H.s[slots[j]])
        acc = A.zeta(acc, *hit)
        del slots[hit[1]], slots[hit[0]]
        pos = {boundary[H.tau[H.s[h]]]: k for k, h in enumerate(slots)}
        sigma = tuple(pos[h] for h in sorted(halves, key=repr))
        assert S.key(got.vertex_elems[v]) == S.key(S.act(acc, sigma))
        assert {got.edge_colours[e] for e in cor.edges} <= {"+", "-"}


def test_deletion_restriction_inserts_the_unit():
    A = parity_algebra(4)
    w1, w2 = wheel(1), wheel(2)
    homs = kleisli_deletion_homs(w2, w1)
    single = [kl for kl in homs
              if sum(len(p.vertices) for p, _ in
                     kl.refinement.pieces.values()) == 1]
    assert single
    parity = {d.key(): sum(x[1][2] for x in d.vertex_elems.items()) % 2
              for d in evaluate_species(A.species, w2)}
    for kl in single:
        for d in evaluate_species(A.species, w1):
            d2 = restrict_kleisli(A, kl, d)
            # the even unit at the deleted vertex keeps the total parity
            assert parity[d2.key()] == \
                sum(x[1][2] for x in d.vertex_elems.items()) % 2
    # deleting every vertex factors through the stick: all images are even
    full = [kl for kl in homs if kl not in single and
            all(not p.vertices for p, _ in kl.refinement.pieces.values())]
    for kl in full:
        for d in evaluate_species(A.species, w1):
            d2 = restrict_kleisli(A, kl, d)
            assert parity[d2.key()] == 0


def _nonunital_parity(n_max):
    P = parity_algebra(n_max)
    return FiniteCircuitAlgebra(P.species, P._box, P._zeta, P._eps,
                                nonunital=True)


# the three algebras of the benchmark's nerve workload; one whose tables
# stop at arity 3, so that refinements leave them (OutOfBounds); and one
# without an external unit, which every piece evaluation asks for
RESTRICTION_ALGEBRAS = {
    "mono-6": lambda: tuple_algebra(MONO, 6),
    "two-colour-6": lambda: tuple_algebra(TWO, 6),
    "parity-6": lambda: parity_algebra(6),
    "mono-3": lambda: tuple_algebra(MONO, 3),
    "nonunital-parity-6": lambda: _nonunital_parity(6),
}


def _restriction_outcome(restrict, A, kl, dec):
    try:
        return "ok", restrict(A, kl, dec).key()
    except (ColourMismatch, FormatError, OutOfBounds) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", RESTRICTION_ALGEBRAS)
def test_restriction_plan_matches_the_brute_restriction(name):
    """restrict_kleisli, on its first call along a morphism and from the
    plan kept on it after, gives the decoration, or raises the error,
    that the restriction worked out afresh gives, on every morphism and
    decoration of corpus14 and of a corolla beside a stick, whose stick
    evaluates to a formal unit in its refinements."""
    A = RESTRICTION_ALGEBRAS[name]()
    corpus = {**corpus14(), "cs": disjoint_union(corolla([0]), stick())}
    decs = {n: evaluate_species(A.species, g) for n, g in corpus.items()}
    kinds = collections.Counter()
    for mname, _, kl, from_name, _, _ in corpus_morphisms(corpus):
        for dec in decs[from_name]:
            want = _restriction_outcome(brute_restrict_kleisli, A, kl, dec)
            got = _restriction_outcome(restrict_kleisli, A, kl, dec)
            assert got == want, mname
            kinds[want[0]] += 1
    assert kinds["ok"] > 0
    if name in ("mono-3", "nonunital-parity-6"):
        assert kinds[OutOfBounds] > 0


# corollas whose labels mix ints, strs and tuples, so that the idkey order
# of the halves at the vertex is not their repr order (1 before "a" before
# (2, "b") by idkey; "a", (2, "b"), 1 by repr)
mixed_corollas = st.builds(corolla, st.lists(
    st.one_of(st.integers(1, 12), st.sampled_from(["a", "B"]),
              st.tuples(st.integers(1, 2), st.just("b"))),
    min_size=2, max_size=3, unique=True))
mixed_unions = st.lists(
    st.tuples(st.one_of(st.integers(0, 12), st.sampled_from(["x", "Y"])),
              st.one_of(mixed_corollas, st.builds(stick),
                        st.builds(line, st.just(1)))),
    min_size=1, max_size=2, unique_by=lambda p: p[0]).map(tagged_union)


@st.composite
def mixed_glued(draw):
    """A mixed corolla or union with one drawn port pair glued: its edge
    ids are frozensets."""
    g = draw(st.one_of(mixed_corollas, mixed_unions))
    ports = draw(st.permutations(sorted(g.ports, key=repr)))
    assume(len(ports) >= 2)
    return glue_ports(g, [(ports[0], ports[1])])[0]


def _orders_disagree(g):
    return any(list(g.halves_at(v)) != sorted(g.halves_at(v), key=repr)
               for v in g.vertices)


@settings(max_examples=50, deadline=None)
@given(st.one_of(
    mixed_corollas, mixed_unions,
    mixed_unions.map(lambda g: substitute(GraphOfGraphs.identity(g)).colimit),
    mixed_glued()))
def test_restriction_reads_each_vertex_in_its_graph_half_order(g):
    """On the stick, the corollas 0..3 and a graph where idkey and repr
    order the halves at some vertex differently, restrict_kleisli gives
    the brute restriction on every morphism and decoration: a vertex
    element is read in its graph's halves_at order, and a piece vertex
    needs no realignment."""
    assume(_orders_disagree(g))
    A = tuple_algebra(TWO, 4)
    corpus = {"stick": stick(), "g": g,
              **{f"corolla{k}": corolla(range(k)) for k in range(4)}}
    decs = {n: evaluate_species(A.species, h) for n, h in corpus.items()}
    n = 0
    for mname, _, kl, from_name, _, _ in corpus_morphisms(corpus):
        for dec in decs[from_name]:
            want = _restriction_outcome(brute_restrict_kleisli, A, kl, dec)
            got = _restriction_outcome(restrict_kleisli, A, kl, dec)
            assert got == want, mname
            n += 1
    assert n > 0


def test_restriction_keeps_one_plan_per_morphism(monkeypatch):
    """The plan of a morphism, with one program per piece, is built on the
    first restriction along it: a second nerve on the same corpus builds
    neither."""
    corpus, A = corpus14(), parity_algebra(6)
    plans, programs = [], []
    for name, calls in (("_restriction_plan", plans),
                        ("_piece_program", programs)):
        def counting(*args, fn=getattr(nerve_module, name), calls=calls):
            calls.append(None)
            return fn(*args)
        monkeypatch.setattr(nerve_module, name, counting)
    first = nerve(A, corpus)
    n_plans, n_programs = len(plans), len(programs)
    assert n_plans == len(first.morphisms)
    assert n_programs == sum(len(kl.source.vertices)
                             for _, _, kl, *_ in corpus_morphisms(corpus))
    second = nerve(A, corpus)
    assert (len(plans), len(programs)) == (n_plans, n_programs)
    assert second.to_json() == first.to_json()


def test_nerve_valency_out_of_range():
    A = tuple_algebra(MONO, 2)
    with pytest.raises(ValencyOutOfRange):
        nerve(A, {"stick": stick(), "corolla3": corolla([0, 1, 2])})


def test_nerve_requires_element_closure():
    A = tuple_algebra(MONO, 4)
    with pytest.raises(CorpusNotElementClosed):
        nerve(A, {"wheel1": wheel(1), "stick": stick()})   # no 2-corolla


NERVE_DIGESTS = [
    ("mono-6", lambda: tuple_algebra(MONO, 6),
     "aa0b5439ed339d6b7a26115ed18ad2262cd40fff8b8fe4b0a48dc15c55cb814d"),
    ("two-colour-4", lambda: tuple_algebra(TWO, 4),
     "f78b5b2f5e8f179449d1cc7914741bb085d7cbbfea2d2a35f8eb1ef12d48bffb"),
    ("parity-4", lambda: parity_algebra(4),
     "025a510767a609621da1847edad90ac1eff2f9d6aad68cdd42dd41cb44d45706"),
    ("parity-6", lambda: parity_algebra(6),
     "3f7b43a09d07b8baebb325bb2e38c90b90c45ca248213fd8b93a8420502cd603"),
]


@pytest.mark.parametrize("name,mk,digest", NERVE_DIGESTS,
                         ids=[a[0] for a in NERVE_DIGESTS])
def test_nerve_json_is_pinned(name, mk, digest):
    text = json.dumps(nerve(mk(), corpus14()).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- Segal condition -----------------------------------------------------------------

ALGEBRAS = [
    ("mono", lambda: tuple_algebra(MONO, 6)),
    ("two-colour", lambda: tuple_algebra(TWO, 6)),
    ("parity", lambda: parity_algebra(6)),
]


@pytest.mark.parametrize("name,mk", ALGEBRAS, ids=[a[0] for a in ALGEBRAS])
def test_segal_passes_for_bounded_algebras(name, mk):
    P = nerve(mk(), corpus14())
    rep = check_segal(P)
    assert rep["ok"], rep
    assert sorted(rep["corpus"]) == sorted(corpus14())
    assert len(rep["corpus"]) >= 12


def test_segal_elementary_graphs_trivially_pass():
    P = nerve(parity_algebra(4), {"stick": stick(), "corolla0": corolla([]),
                                  "corolla1": corolla([0]),
                                  "corolla2": corolla([0, 1])})
    rep = check_segal(P)
    assert rep["ok"]
    assert all(e.get("elementary") for e in rep["per_graph"].values())


def _with_stick_components():
    return {**corpus14(),
            "corolla1+stick": disjoint_union(corolla([0]), stick()),
            "stick+stick": disjoint_union(stick(), stick())}


def test_refining_a_corolla_with_a_stick_component_is_refused():
    # corolla([0]) + stick has one vertex and no inner edge, but it is not
    # a corolla: refining its vertex leaves the stick outside every piece
    cs = disjoint_union(corolla([0]), stick())
    with pytest.raises(NotACorolla):
        refinement_of_corolla(cs, corolla([0]), {0: ("h", 0)})


@pytest.mark.parametrize("name", ["0cs", "cs"])
def test_nerve_on_a_corpus_with_a_corolla_and_a_stick(name):
    # the graph is refined into no corolla, whatever its name sorts
    # against; as a refinement target its stick evaluates to a formal unit
    corpus = {**corpus14(), name: disjoint_union(corolla([0]), stick())}
    for mk, size in ((lambda: tuple_algebra(MONO, 6), 1),
                     (lambda: tuple_algebra(TWO, 6), 4),
                     (lambda: parity_algebra(6), 2)):
        P = nerve(mk(), corpus)
        assert len(P.morphisms) == 340
        rep = check_segal(P)
        assert rep["ok"], rep
        assert rep["per_graph"][name]["size"] == size


def test_segal_compares_stick_components_with_their_limit():
    P = nerve(tuple_algebra(TWO, 6), _with_stick_components())
    rep = check_segal(P)
    assert rep["ok"], rep
    # two colourings of a stick, four of corolla([0]) + stick
    for name, size in (("corolla1+stick", 4), ("stick+stick", 4)):
        entry = rep["per_graph"][name]
        assert "elementary" not in entry
        assert entry["size"] == entry["limit"] == size
    assert rep["per_graph"]["stick"]["elementary"]


def test_segal_limit_uses_the_stick_flip():
    # with the stick's orientation reversal replaced by the identity, the
    # limit pairs each colour with itself and the check must fail
    P = nerve(tuple_algebra(TWO, 6), _with_stick_components())
    flip, = [r for r in P.morphisms.values()
             if r["kind"] == "ch" and r["from_graph"] == "stick"
             and r.get("edge") == repr("2")]
    flip["map"] = {k: k for k in flip["map"]}
    rep = check_segal(P)
    assert not rep["ok"]
    assert not rep["per_graph"]["stick+stick"]["ok"]
    assert not rep["per_graph"]["corolla1+stick"]["ok"]


def test_segal_corpus_extension_stability():
    A = parity_algebra(6)
    small = {n: g for n, g in corpus14().items()
             if n not in ("wheel3", "dumbbell")}
    assert check_segal(nerve(A, small))["ok"]
    assert check_segal(nerve(A, corpus14()))["ok"]


def test_segal_requires_element_restrictions():
    P = nerve(parity_algebra(4), {"stick": stick(),
                                  "corolla2": corolla([0, 1]),
                                  "wheel1": wheel(1)})
    broken = FinitePresheaf(
        dict(P.corpus), dict(P.sets),
        {n: r for n, r in P.morphisms.items()
         if not (r["kind"] == "ch" and r["from_graph"] == "wheel1"
                 and r.get("vertex"))})
    with pytest.raises(CorpusNotElementClosed):
        check_segal(broken)


def test_ten_mutants_fail_with_witnesses():
    P = nerve(parity_algebra(6), corpus14())
    muts = mutated_presheaves(P, 10)
    assert len(muts) == 10
    for name, Q in muts:
        rep = check_segal(Q)
        assert not rep["ok"], name
        bad = [n for n, e in rep["per_graph"].items() if not e["ok"]]
        assert bad, name
        assert all("witness" in rep["per_graph"][n] for n in bad), name


# -- fullness probe ------------------------------------------------------------------

def test_fullness_probe_terminal_to_parity():
    A = tuple_algebra(MONO, 6)
    B = parity_algebra(6)
    probe = fullness_probe(A, B, corpus14(), max_arity=4)
    assert probe["ok"], probe
    assert probe["natural_transformations"] == 2
    assert probe["algebra_morphisms"] == 2


def test_fullness_probe_parity_endomorphisms():
    B = parity_algebra(6)
    probe = fullness_probe(B, B, corpus14(), max_arity=4)
    assert probe["ok"], probe
    assert probe["natural_transformations"] == len(
        algebra_morphisms(B, B, 4))


def test_algebra_morphisms_are_charged_to_the_search_budget(monkeypatch):
    # parity(6) -> parity(6) up to arity 4 has 1,024 colour-compatible
    # candidate maps
    B = parity_algebra(6)
    default = algebra_morphisms(B, B, 4)
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "1000")
    with pytest.raises(OutOfBounds):
        algebra_morphisms(B, B, 4)
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "1024")
    assert algebra_morphisms(B, B, 4) == default


def _s3_points_algebra():
    """A one-colour algebra whose arity-3 elements a, b, c are permuted
    by S_3 as it permutes three points: (0 1) swaps a and b, (1 2) swaps
    b and c.  Its tables need not satisfy the axioms."""
    arity = {0: ["u"], 1: ["p"], 2: ["e"], 3: ["a", "b", "c"]}
    colour = {x: ("*",) * n for n, xs in arity.items() for x in xs}
    action = {("a", 0): "b", ("b", 0): "a", ("c", 0): "c",
              ("a", 1): "a", ("b", 1): "c", ("c", 1): "b"}
    S = TableSpecies(MONO, arity, colour, action)
    box = {("p", "p"): "e", ("p", "e"): "c", ("e", "p"): "c"}
    for xs in arity.values():
        for x in xs:
            box[("u", x)] = box[(x, "u")] = x
    zeta = {("e", 0, 1): "u"}
    zeta.update({(x, i, j): "p" for x in "abc"
                 for i, j in itertools.combinations(range(3), 2)})
    return FiniteCircuitAlgebra(S, box, zeta, {"*": "e"}, external_unit="u")


def test_algebra_morphisms_commute_with_every_adjacent_transposition():
    # swapping a and b commutes with (0 1), not with (1 2)
    A = _s3_points_algebra()
    swap = {"a": "b", "b": "a"}
    for phi, ok in ((lambda x: x, True), (lambda x: swap.get(x, x), False)):
        assert nerve_module._is_algebra_morphism(A, A, phi, 3) is ok
        assert brute_is_algebra_morphism(A, A, phi, 3) is ok
    assert algebra_morphisms(A, A, 3) == brute_algebra_morphisms(A, A, 3)
    assert len(algebra_morphisms(A, A, 3)) == 1


@pytest.mark.parametrize("a,b", [("mono", "parity6"), ("parity6", "mono"),
                                 ("mono", "mono"), ("parity6", "parity6"),
                                 ("two", "two")])
def test_algebra_morphisms_match_the_all_permutations_oracle(a, b):
    A, B = ALGEBRAS[a](), ALGEBRAS[b]()
    homs = algebra_morphisms(A, B, 4)
    assert homs
    assert homs == brute_algebra_morphisms(A, B, 4)


def test_presheaf_maps_identity_exists():
    P = nerve(parity_algebra(4), {"stick": stick(), "corolla0": corolla([]),
                                  "corolla1": corolla([0]),
                                  "corolla2": corolla([0, 1]),
                                  "wheel1": wheel(1)})
    maps = presheaf_maps(P, P)
    ident = {n: {k: k for k in P.sets[n]} for n in P.corpus}
    assert ident in maps


def _corpus5():
    return {"stick": stick(), "corolla1": corolla([0]),
            "corolla2": corolla([0, 1]), "wheel1": wheel(1), "line2": line(2)}


ALGEBRAS = {"mono": lambda: tuple_algebra(MONO, 6),
            "parity4": lambda: parity_algebra(4),
            "parity6": lambda: parity_algebra(6),
            "two": lambda: tuple_algebra(TWO, 6)}
CORPORA = {"corpus14": corpus14, "corpus5": _corpus5}


@functools.lru_cache(maxsize=None)
def _nerve_of(algebra, corpus):
    return nerve(ALGEBRAS[algebra](), CORPORA[corpus]())


@pytest.mark.parametrize("corpus,a,b", [
    ("corpus14", "mono", "parity6"), ("corpus14", "parity4", "parity6"),
    ("corpus14", "parity6", "parity4"), ("corpus14", "parity6", "mono"),
    ("corpus14", "mono", "mono"), ("corpus14", "parity6", "parity6"),
    ("corpus5", "mono", "parity4"), ("corpus5", "parity4", "parity4"),
    ("corpus5", "parity6", "parity4"), ("corpus5", "parity4", "mono")])
def test_presheaf_maps_matches_brute_force_oracle(corpus, a, b):
    P, Q = _nerve_of(a, corpus), _nerve_of(b, corpus)
    maps = presheaf_maps(P, Q)
    assert maps
    assert maps == brute_presheaf_maps(P, Q)


def test_presheaf_maps_charges_the_search_budget(monkeypatch):
    P = _nerve_of("parity6", "corpus14")
    # six elementary objects, 4 maps on each but the stick: 1,024 choices;
    # the products of candidates for the other objects add 64
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "1088")
    assert len(presheaf_maps(P, P)) == 4
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "10")
    with pytest.raises(OutOfBounds):
        presheaf_maps(P, P)


def test_presheaf_maps_charges_the_other_objects_too(monkeypatch):
    """A cap that covers the elementary choices alone refuses the walk
    over the candidates for the other objects."""
    P = _nerve_of("parity6", "corpus14")
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "1024")
    with pytest.raises(BoundsTooLarge,
                       match="^natural-transformation choices exceed "):
        presheaf_maps(P, P)


def test_presheaf_maps_refuses_before_building_the_search(monkeypatch):
    P = _nerve_of("two", "corpus14")
    monkeypatch.delenv("FEYNGRAPH_MAX_SEARCH", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(OutOfBounds):
            presheaf_maps(P, P)   # 8^8 maps on corolla3 alone
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


def test_shared_pass_equals_one_nerve_per_algebra():
    A, B = parity_algebra(4), parity_algebra(6)
    corpus = corpus14()
    PA, PB = nerve(A, corpus), nerve(B, corpus)
    for P, alone in ((PA, nerve(A, corpus14())), (PB, nerve(B, corpus14()))):
        assert json.dumps(P.to_json(), sort_keys=True) == \
            json.dumps(alone.to_json(), sort_keys=True)
        assert list(P.morphisms) == list(alone.morphisms)
    # an automatic refinement beyond arity 4 is omitted only for A
    assert [sum(r["kind"] == "refinement" for r in P.morphisms.values())
            for P in (PA, PB)] == [32, 35]
    with_images = [mn for mn, r in PA.morphisms.items() if "edge_images" in r]
    assert with_images
    assert all(PA.morphisms[mn]["edge_images"]
               is not PB.morphisms[mn]["edge_images"] for mn in with_images)


def test_nerves_restrict_once_for_an_algebra_given_twice(monkeypatch):
    """fullness_probe(A, A, ...) restricts for A once, and two nerves of
    one algebra on one corpus share no record or dict."""
    A, corpus = parity_algebra(6), corpus14()
    calls = []
    restrict = nerve_module.restrict_kleisli

    def counting(A, kl, dec):
        calls.append(None)
        return restrict(A, kl, dec)

    monkeypatch.setattr(nerve_module, "restrict_kleisli", counting)
    P = nerve(A, corpus)
    once = len(calls)
    assert once > 0
    fullness_probe(A, A, corpus, 2)
    assert len(calls) == 2 * once
    Q = nerve(A, corpus)
    text = _json_text(Q)
    assert _json_text(P) == text
    assert P.sets is not Q.sets
    for mn, r in P.morphisms.items():
        r2 = Q.morphisms[mn]
        assert r is not r2 and r["map"] is not r2["map"]
        if "edge_images" in r:
            assert r["edge_images"] is not r2["edge_images"]
    mn = next(iter(P.morphisms))
    P.morphisms[mn]["map"].clear()
    assert _json_text(Q) == text


def test_fullness_probe_builds_each_kleisli_morphism_once(monkeypatch):
    calls = []
    build = nerve_module.make_kleisli

    def counting(*args, **kwargs):
        calls.append(None)
        return build(*args, **kwargs)

    monkeypatch.setattr(nerve_module, "make_kleisli", counting)
    nerve(tuple_algebra(MONO, 6), corpus14())
    one_nerve = len(calls)
    calls.clear()
    fullness_probe(tuple_algebra(MONO, 6), parity_algebra(6), corpus14(), 4)
    assert one_nerve > 0
    assert len(calls) == one_nerve


# -- the memo of corpus passes -------------------------------------------------------

def _count_builds(monkeypatch):
    """Count make_kleisli and substitute calls made from the nerve module
    (and substitute calls from the monads module) from now on."""
    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(nerve_module, "make_kleisli",
                        counting("make_kleisli", nerve_module.make_kleisli))
    for module in (nerve_module, monads_module):
        monkeypatch.setattr(module, "substitute",
                            counting("substitute", substitute))
    return calls


def _json_text(P):
    return json.dumps(P.to_json(), sort_keys=True)


def test_shared_pass_equals_stored_nerves_on_one_corpus(monkeypatch):
    # the later nerves on the same corpus object take the stored pass,
    # after A and B have restricted its morphisms
    monkeypatch.delenv("FEYNGRAPH_MAX_SEARCH", raising=False)
    A, B, corpus = parity_algebra(4), parity_algebra(6), corpus14()
    PA, PB = nerve(A, corpus), nerve(B, corpus)
    calls = _count_builds(monkeypatch)
    stored = nerve(A, corpus), nerve(B, corpus)
    assert calls == {}
    for P, alone in zip((PA, PB), stored):
        assert _json_text(P) == _json_text(alone)
        assert list(P.morphisms) == list(alone.morphisms)


COLD_NERVE_SCRIPT = """
import json
from feyngraph.nerve import nerve
from helpers_nerve import corpus14
from helpers_species import MONO, tuple_algebra
print(json.dumps(nerve(tuple_algebra(MONO, 6), corpus14()).to_json(),
                 sort_keys=True))
"""


def test_second_nerve_on_one_corpus_builds_no_morphism(monkeypatch):
    monkeypatch.delenv("FEYNGRAPH_MAX_SEARCH", raising=False)
    corpus, A = corpus14(), tuple_algebra(MONO, 6)
    first = _json_text(nerve(A, corpus))
    calls = _count_builds(monkeypatch)
    second = _json_text(nerve(A, corpus))
    assert calls == {}
    assert second == first
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "tests")]))
    run = subprocess.run([sys.executable, "-c", COLD_NERVE_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == second + "\n"


def test_equal_corpus_of_fresh_graphs_misses_the_memo(monkeypatch):
    monkeypatch.delenv("FEYNGRAPH_MAX_SEARCH", raising=False)
    A = parity_algebra(4)
    first = _json_text(nerve(A, corpus14()))
    calls = _count_builds(monkeypatch)
    assert _json_text(nerve(A, corpus14())) == first
    assert calls["make_kleisli"] > 0 and calls["substitute"] > 0


def test_lower_budget_raises_after_a_stored_pass(monkeypatch):
    monkeypatch.delenv("FEYNGRAPH_MAX_SEARCH", raising=False)
    corpus, A = corpus14(), parity_algebra(4)
    nerve(A, corpus)
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "8")
    with pytest.raises(OutOfBounds):
        list(corpus_morphisms(corpus14()))   # as a first pass does
    with pytest.raises(OutOfBounds):
        nerve(A, corpus)


def test_a_pass_that_raised_is_not_stored(monkeypatch):
    monkeypatch.delenv("FEYNGRAPH_MAX_SEARCH", raising=False)
    corpus, A = corpus14(), parity_algebra(4)
    nerve(A, corpus)
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "8")
    for _ in range(2):   # no partial pass is served the second time
        with pytest.raises(OutOfBounds):
            nerve(A, corpus)
    monkeypatch.delenv("FEYNGRAPH_MAX_SEARCH")
    with pytest.raises(CorpusNotElementClosed):
        nerve(tuple_algebra(MONO, 4), {"wheel1": wheel(1), "stick": stick()})
    calls = _count_builds(monkeypatch)
    nerve(A, corpus)
    assert calls == {}


# -- serialization -------------------------------------------------------------------

def test_presheaf_json_round_trip():
    P = nerve(parity_algebra(6), corpus14())
    data = json.loads(json.dumps(P.to_json(), sort_keys=True))
    P2 = FinitePresheaf.from_json(data)
    assert check_segal(P2)["ok"]
    assert json.dumps(P2.to_json(), sort_keys=True) == \
        json.dumps(P.to_json(), sort_keys=True)
