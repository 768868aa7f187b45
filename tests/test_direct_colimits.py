"""substitute writes its colimit down directly, and mu_T and
delete_vertices go through it.  These tests compare every map they build
with the union-find routes kept in oracles.py (brute_substitute,
brute_mu_T, brute_delete_vertices): on every element of T(T S) and
T(T(D S)) at criterion 6's dt bounds, for both of its species; on every
deletable vertex set of the pointed graphs; on every substitution of a
corpus14 nerve pass; and on malformed pieces, which must raise the error
that the union-find route raises."""

import importlib
import itertools

import pytest

from feyngraph.errors import FeynGraphError
from feyngraph.graphs import (FeynmanGraph, corolla, disjoint_union, line,
                              stick, wheel)
from feyngraph.monads import (DSpecies, TElem, TSpecies, deletable_vertices,
                              delete_vertices, mu_T)
from feyngraph.nerve import corpus_morphisms, nerve
from feyngraph.species import TerminalSpecies
from feyngraph.substitution import GraphOfGraphs, compose_gogs, substitute

from helpers_nerve import corpus14, parity_algebra
from oracles import brute_delete_vertices, brute_mu_T, brute_substitute
from test_acceptance import two_colour_species
from test_monads import _pointed_graphs

# criterion 6's dt bounds
DT_ARITY, DT_VERTICES, DT_VALENCY = 2, 2, 3
SPECIES = {"terminal": TerminalSpecies(n_max=6),
           "two-colour": two_colour_species()}


def graph_maps(g: FeynmanGraph) -> tuple:
    """The maps of g, and its edges in idkey order, which a direct colimit
    takes from its base rather than sorting them."""
    return (g.edges, dict(g.tau), g.half_edges, dict(g.s), dict(g.t),
            g.vertices, g.sorted_edges)


def pieces_of(t: TElem) -> dict:
    """mu_T's graph of graphs: each vertex's decoration with its ports
    sent to the vertex's halves in order."""
    return {v: (tv.graph, dict(zip(tv.ports, t.graph.halves_at(v))))
            for v, tv in t.vdec.items()}


def same_substitution(got, want) -> None:
    """Two substitutions of one graph of graphs agree map by map."""
    assert graph_maps(got.colimit) == graph_maps(want.colimit)
    assert dict(got.edge_class) == dict(want.edge_class)
    assert dict(got.piece_edge) == dict(want.piece_edge)


def same_as_substitution(t: TElem, TS) -> None:
    """The direct colimit and mu_T of t equal the union-find's, map by
    map."""
    want, sub = brute_mu_T(TS, t)
    same_substitution(substitute(GraphOfGraphs(t.graph, pieces_of(t))), sub)
    got = mu_T(TS, t)
    assert graph_maps(got.graph) == graph_maps(want.graph)
    assert got.ports == want.ports
    assert dict(got.colours) == dict(want.colours)
    assert dict(got.vdec) == dict(want.vdec)


@pytest.mark.parametrize("name", sorted(SPECIES))
@pytest.mark.parametrize("with_units", [False, True])
def test_mu_T_equals_substitution(name, with_units):
    S = SPECIES[name]
    inner = DSpecies(S) if with_units else S
    TS = TSpecies(inner, DT_VERTICES, DT_VALENCY)
    TTS = TSpecies(TS, DT_VERTICES, DT_VALENCY)
    elements = [t for n in range(DT_ARITY + 1) for t in TTS.elements(n)]
    assert len(elements) > 100
    for t in elements:
        same_as_substitution(t, TS)


def test_nerve_substitutions_equal_the_union_find(monkeypatch):
    """Every substitution of a corpus14 pass and of the parity algebra's
    nerve on it, including those of compose_gogs and the deletions, equals
    brute_substitute's."""
    calls = []

    def checked(gog):
        got = substitute(gog)
        same_substitution(got, brute_substitute(gog))
        calls.append(gog)
        return got

    for name in ("nerve", "substitution", "monads"):
        monkeypatch.setattr(importlib.import_module(f"feyngraph.{name}"),
                            "substitute", checked)
    assert len(list(corpus_morphisms(corpus14()))) == 309
    nerve(parity_algebra(6), corpus14())
    outer = GraphOfGraphs.identity(wheel(2))
    sub = checked(outer)
    compose_gogs(outer, sub, GraphOfGraphs.identity(sub.colimit))
    assert len(calls) > 300


def stick_element() -> TElem:
    """A stick decorated as an arity-2 T element: not admissible, but
    its pieces pass GraphOfGraphs, and its two ports face each other."""
    g = stick()
    return TElem(g, ("1", "2"), {"1": "*", "2": "*"}, {})


def test_mu_T_joins_classes_through_a_port_facing_a_port():
    # each bivalent vertex of a line or wheel decorated by a stick: the
    # stick ties the classes of the vertex's two edges
    K = TerminalSpecies(n_max=2)
    TS = TSpecies(K, 2, 2)
    for g in (line(1), line(2), wheel(1), wheel(2)):
        vdec = {v: stick_element() for v in g.vertices}
        t = TElem(g, tuple(sorted(g.ports, key=repr)),
                  {e: "*" for e in g.edges}, vdec)
        same_as_substitution(t, TS)


def outcome(fn, *args) -> str:
    try:
        fn(*args)
    except (FeynGraphError, KeyError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def malformed() -> tuple:
    """T K and the T(T K) elements whose pieces substitute rejects: at a
    vertex with halves, a decoration with one port too few, one with one
    port too many, and the empty piece; and a vertex without
    decoration."""
    K = TerminalSpecies(n_max=6)
    TS = TSpecies(K, 2, 3)
    t = next(x for x in TSpecies(TS, 2, 3).elements(2)
             if len(x.graph.vertices) == 2)
    v, w = sorted(t.graph.vertices, key=repr)
    n = t.graph.valency(v)
    assert n > 0
    fewer, more = (TS.elements(k)[0] for k in (n - 1, n + 1))
    empty = TElem(FeynmanGraph((), {}), (), {}, {})
    cases = [{v: fewer}, {v: more}, {v: empty}]
    out = []
    for change in cases:
        vdec = dict(t.vdec)
        vdec.update(change)
        out.append(TElem(t.graph, t.ports, t.colours, vdec))
    vdec = dict(t.vdec)
    del vdec[w]
    out.append(TElem(t.graph, t.ports, t.colours, vdec))
    return TS, out


def test_malformed_pieces_raise_as_the_union_find_does():
    TS, cases = malformed()
    seen = []
    for t in cases:
        want = outcome(brute_mu_T, TS, t)
        assert want != "ok"
        assert outcome(mu_T, TS, t) == want
        seen.append(want)
    assert not any(s.startswith("IndexError") for s in seen)
    assert [s.split(":")[0] for s in seen] == \
        ["InvalidGraphOfGraphs"] * 3 + ["KeyError"]
    assert "must biject onto H_v" in seen[0]
    assert "must cover the piece ports" in seen[1]


def test_deletions_equal_substitution():
    """Every deletable vertex set of every pointed graph: the deletion
    and its maps equal the substitution route's."""
    n = 0
    for g in _pointed_graphs():
        dels = deletable_vertices(g)
        for r in range(len(dels) + 1):
            for w in itertools.combinations(dels, r):
                got, want = delete_vertices(g, w), brute_delete_vertices(g, w)
                assert graph_maps(got.target) == graph_maps(want.target)
                assert got.deleted == want.deleted
                assert got.edge_correspondence == want.edge_correspondence
                assert got.half_map == want.half_map
                assert got.vertex_map == want.vertex_map
                assert got.fresh_sticks == want.fresh_sticks
                n += 1
    assert n > 100


def test_undeletable_vertices_raise_as_the_union_find_does():
    g = disjoint_union(corolla([0, 1, 2]), wheel(1))
    for w in ([("no", "such")], list(g.vertices)):
        assert outcome(delete_vertices, g, w) == \
            outcome(brute_delete_vertices, g, w)
