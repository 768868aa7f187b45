import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feyngraph.errors import (BadParameter, BoundsTooLarge,
                              InvalidGraphOfGraphs)
from feyngraph.graphs import (
    FeynmanGraph, corolla, disjoint_union, idstr, is_isomorphic, line, stick,
    wheel, canonical_form,
)
from feyngraph.nerve import graphs_equal
from feyngraph.etale import glue_ports
from feyngraph.substitution import (
    DEFAULT_MAX_SEARCH, GraphOfGraphs, XGraph, _graph_from_matching,
    compose_gogs, enumerate_x_graphs, max_search_cap, substitute,
)

from oracles import (_perfect_matchings, admissible_connected_matchings,
                     brute_count_classes, brute_isomorphic,
                     port_fixing_automorphisms, stub_group_order)


def single_vertex_gog(base, piece, boundary):
    return GraphOfGraphs(base, {next(iter(base.vertices)): (piece, boundary)})


def test_identity_gog_gives_base():
    for g in [corolla([1, 2, 3]), wheel(2), line(3), disjoint_union(wheel(1), corolla([1]))]:
        gog = GraphOfGraphs.identity(g)
        sub = substitute(gog)
        assert is_isomorphic(sub.colimit, g) is not None


def test_identity_gog_preserves_ports():
    g = corolla(["a", "b"])
    gog = GraphOfGraphs.identity(g)
    sub = substitute(gog)
    assert {sub.edge_class[e] for e in g.ports} == set(sub.colimit.ports)


def test_substitute_corolla_into_corolla():
    # refine the single vertex of C2 by a 2-vertex line-like piece with 2 ports
    base = corolla(["a", "b"])
    piece = line(1)  # wait: line(1) has 2 ports and 1 vertex
    boundary = {}
    ports = sorted(piece.ports, key=repr)
    halves = sorted(base.halves_at("*"), key=repr)
    boundary = dict(zip(ports, halves))
    gog = single_vertex_gog(base, piece, boundary)
    sub = substitute(gog)
    assert is_isomorphic(sub.colimit, line(1)) is not None


def test_substitute_two_vertex_piece():
    base = corolla(["a", "b"])
    piece = line(2)
    boundary = dict(zip(sorted(piece.ports, key=repr),
                        sorted(base.halves_at("*"), key=repr)))
    gog = single_vertex_gog(base, piece, boundary)
    sub = substitute(gog)
    assert len(sub.colimit.vertices) == 2
    assert is_isomorphic(sub.colimit, line(2)) is not None


def test_substitute_loop_piece_into_wheel():
    # refine the vertex of W1 by a corolla with 2 ports -> W1 again
    base = wheel(1)
    v = next(iter(base.vertices))
    piece = corolla([0, 1])
    boundary = dict(zip(sorted(piece.ports, key=repr),
                        sorted(base.halves_at(v), key=repr)))
    gog = GraphOfGraphs(base, {v: (piece, boundary)})
    sub = substitute(gog)
    assert is_isomorphic(sub.colimit, wheel(1)) is not None


def test_degenerate_stick_piece_merges_edges():
    # base = line(1) (one bivalent vertex); piece = stick: result is a stick
    base = line(1)
    v = next(iter(base.vertices))
    piece = stick()
    boundary = dict(zip(sorted(piece.ports, key=repr),
                        sorted(base.halves_at(v), key=repr)))
    gog = GraphOfGraphs(base, {v: (piece, boundary)})
    assert not gog.is_nondegenerate()
    sub = substitute(gog)
    assert is_isomorphic(sub.colimit, stick()) is not None


def test_full_wheel_refinement_by_sticks_gives_stick():
    base = wheel(2)
    pieces = {}
    for v in base.vertices:
        piece = stick()
        boundary = dict(zip(sorted(piece.ports, key=repr),
                            sorted(base.halves_at(v), key=repr)))
        pieces[v] = (piece, boundary)
    gog = GraphOfGraphs(base, pieces)
    sub = substitute(gog)
    assert is_isomorphic(sub.colimit, stick()) is not None


def test_invalid_boundary_rejected():
    base = corolla(["a", "b"])
    piece = corolla([0])
    with pytest.raises(InvalidGraphOfGraphs):
        single_vertex_gog(base, piece, {0: sorted(base.halves_at("*"), key=repr)[0]})


def test_missing_piece_rejected():
    base = wheel(2)
    with pytest.raises(InvalidGraphOfGraphs):
        GraphOfGraphs(base, {})


def test_substitution_associativity():
    # outer: identity on W2; inner: identity on the colimit.
    base = wheel(2)
    outer = GraphOfGraphs.identity(base)
    sub = substitute(outer)
    inner = GraphOfGraphs.identity(sub.colimit)
    comp = compose_gogs(outer, sub, inner)
    left = substitute(comp).colimit
    right = substitute(inner).colimit
    assert is_isomorphic(left, right) is not None


def test_substitution_commutes_with_gluing():
    # glue the two ports of the colimit vs substitute into the glued base
    base = corolla(["a", "b"])
    piece = line(2)
    boundary = dict(zip(sorted(piece.ports, key=repr),
                        sorted(base.halves_at("*"), key=repr)))
    gog = single_vertex_gog(base, piece, boundary)
    sub = substitute(gog)
    pa, pb = sorted(sub.colimit.ports, key=repr)
    glued, _ = glue_ports(sub.colimit, [(pa, pb)])
    assert is_isomorphic(glued, wheel(2)) is not None


def _same_colimit(g, h):
    """Equal graphs whose edges, classes of identified ids, are written
    alike."""
    return graphs_equal(g, h) and sorted(map(idstr, g.edges)) == \
        sorted(map(idstr, h.edges))


def _line_pieces(base):
    """The identity pieces of base, with a 2-vertex line at each bivalent
    vertex."""
    pieces = dict(GraphOfGraphs.identity(base).pieces)
    piece = line(2)
    for v in base.vertices:
        if base.valency(v) == 2:
            pieces[v] = (piece, dict(zip(sorted(piece.ports, key=repr),
                                         base.halves_at(v))))
    return pieces


@pytest.mark.parametrize("base", [wheel(3), line(2), corolla(["a", "b"]),
                                  disjoint_union(wheel(2), corolla([1]))])
def test_substitution_colimit_ignores_the_order_of_the_pieces(base):
    pieces = _line_pieces(base)
    backwards = {v: (piece, dict(reversed(boundary.items())))
                 for v, (piece, boundary) in reversed(pieces.items())}
    forward = substitute(GraphOfGraphs(base, pieces))
    backward = substitute(GraphOfGraphs(base, backwards))
    assert _same_colimit(forward.colimit, backward.colimit)
    assert forward.edge_class == backward.edge_class
    assert forward.piece_edge == backward.piece_edge


def test_glued_colimit_ignores_the_order_of_the_glue_pairs():
    g = disjoint_union(corolla(["a", "b", "c"]), corolla(["d", "e", "f"]))
    pairs = [(("L", "a"), ("R", "d")), (("L", "b"), ("R", "e")),
             (("L", "c"), ("R", "f"))]
    for k in range(1, len(pairs) + 1):
        glued, edge_of = glue_ports(g, pairs[:k])
        back, back_of = glue_ports(g, [(b, a) for a, b in pairs[:k]][::-1])
        assert _same_colimit(glued, back)
        assert edge_of == back_of


# -- enumeration ----------------------------------------------------------------

def test_enumerate_zero_labels_one_vertex():
    xs = enumerate_x_graphs([], max_vertices=1, max_valency=2)
    # isolated vertex, and the loop W1
    certs = {canonical_form(x.graph).certificate for x in xs}
    assert len(xs) == 2
    assert any(is_isomorphic(x.graph, wheel(1)) for x in xs)


def test_enumerate_two_labels_small():
    xs = enumerate_x_graphs(["a", "b"], max_vertices=2, max_valency=3)
    # oracle: classes are pairwise distinct and closed
    assert brute_count_classes(xs) == len(xs)
    # every class found by a fresh run with shuffled labels is already present
    for x in xs:
        assert not x.graph.stick_components()
        assert len(x.graph.connected_components()) == 1


def test_enumerate_matches_brute_class_count():
    xs = enumerate_x_graphs(["a"], max_vertices=2, max_valency=3)
    assert brute_count_classes(xs) == len(xs)
    # exhaustive cross-check: re-enumerate without dedup via oracle count
    raw = []
    for nv in range(3):
        for valencies in itertools.combinations_with_replacement(range(4), nv):
            total = 1 + sum(valencies)
            if total % 2:
                continue
            points = [("x", "a")]
            for vi, d in enumerate(valencies):
                points += [("s", vi, j) for j in range(d)]
            for m in _perfect_matchings(points):
                g, lab = _graph_from_matching(["a"], valencies, m)
                x = XGraph(g, lab)
                if x.is_admissible() and len(g.connected_components()) == 1:
                    raw.append(x)
    assert brute_count_classes(raw) == len(xs)


def test_enumerate_respects_cap(monkeypatch):
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "10")
    with pytest.raises(BoundsTooLarge):
        enumerate_x_graphs(["a", "b"], max_vertices=4, max_valency=4)


@pytest.mark.parametrize("bounds", [(-1, 3), (2, -1)])
def test_enumerate_refuses_a_negative_bound(bounds):
    with pytest.raises(BadParameter, match=">= 0, not -1"):
        enumerate_x_graphs(["a", "b"], *bounds)


def test_search_budget_is_read_from_the_environment(monkeypatch):
    monkeypatch.delenv("FEYNGRAPH_MAX_SEARCH", raising=False)
    assert max_search_cap() == DEFAULT_MAX_SEARCH
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "0")
    assert max_search_cap() == 0
    for bad in ("abc", "-1", "1.5", ""):
        monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", bad)
        with pytest.raises(BadParameter, match="FEYNGRAPH_MAX_SEARCH"):
            max_search_cap()


# -- one matching per stub orbit -------------------------------------------------

FLAGS = list(itertools.product([True, False], repeat=2))


def _shape(x):
    """Everything that identifies a returned XGraph, ids included."""
    g = x.graph
    return (x.canonical_key(), g.edges, dict(g.tau), dict(g.s), dict(g.t),
            dict(x.labeling))


@functools.lru_cache(maxsize=None)
def _reference_shapes(n_labels, max_vertices, max_valency, connected_only,
                      admissible_only):
    """enumerate_x_graphs the slow way: every perfect matching, the
    graph-level filters, and the first member of each class."""
    labels = ["a", "b", "c", "d"][:n_labels]
    found = {}
    for nv in range(max_vertices + 1):
        for valencies in itertools.combinations_with_replacement(
                range(max_valency + 1), nv):
            if (n_labels + sum(valencies)) % 2:
                continue
            points = [("x", x) for x in labels]
            for vi, d in enumerate(valencies):
                points += [("s", vi, j) for j in range(d)]
            for m in _perfect_matchings(points):
                x = XGraph(*_graph_from_matching(labels, valencies, m))
                if admissible_only and not x.is_admissible():
                    continue
                if connected_only and len(x.graph.connected_components()) != 1:
                    continue
                found.setdefault(x.canonical_key(), x)
    return tuple(_shape(found[k]) for k in sorted(found))


def _assert_matches_reference(n_labels, max_vertices, max_valency,
                              connected_only, admissible_only):
    labels = ["a", "b", "c", "d"][:n_labels]
    xs = enumerate_x_graphs(labels, max_vertices, max_valency,
                            connected_only=connected_only,
                            admissible_only=admissible_only)
    assert tuple(map(_shape, xs)) == _reference_shapes(
        n_labels, max_vertices, max_valency, connected_only, admissible_only)


@pytest.mark.parametrize("connected_only,admissible_only", FLAGS)
@pytest.mark.parametrize("bounds", [(0, 3, 2), (1, 2, 3), (2, 2, 3),
                                    (3, 2, 2), (4, 2, 2)])
def test_enumerate_matches_all_matchings_reference(bounds, connected_only,
                                                   admissible_only):
    _assert_matches_reference(*bounds, connected_only, admissible_only)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from(FLAGS))
def test_enumerate_matches_reference_property(n_labels, max_vertices,
                                              max_valency, flags):
    _assert_matches_reference(n_labels, max_vertices, max_valency, *flags)


def test_enumerate_orbit_sum_at_3_3_3():
    # each class is one orbit of the stub and vertex permutations on the
    # raw matchings, of size |G| / |Aut|; the orbits must cover them all
    xs = enumerate_x_graphs(["a", "b", "c"], max_vertices=3, max_valency=3)
    total = 0
    for x in xs:
        order = stub_group_order([x.graph.valency(v) for v in x.graph.vertices])
        size, rest = divmod(order, port_fixing_automorphisms(x.graph))
        assert rest == 0
        total += size
    assert total == admissible_connected_matchings(3, 3, 3) == 5730
