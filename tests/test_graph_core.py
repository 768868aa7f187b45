import random

import pytest
from hypothesis import given, settings, strategies as st

from feyngraph import (
    FeynmanGraph,
    automorphisms,
    canonical_form,
    corolla,
    disjoint_union,
    empty_graph,
    is_isomorphic,
    isolated_vertex,
    line,
    stick,
    tagged_union,
    wheel,
)
from feyngraph.errors import (
    BadParameter,
    DanglingId,
    FixedPointInTau,
    FormatError,
    NonInjectiveS,
    TauNotInvolutive,
)
from feyngraph.etale import glue_ports
from feyngraph.graphs import idkey
from feyngraph.io import graph_from_json, graph_to_json
from feyngraph.substitution import GraphOfGraphs, substitute


def relabel_random(g, rng):
    em = dict(zip(sorted(g.edges, key=repr), rng.sample(range(1000, 9999), len(g.edges))))
    vm = dict(zip(sorted(g.vertices, key=repr), rng.sample(range(10000, 19999), len(g.vertices))))
    hm = {h: ("rh", em[g.s[h]]) for h in g.half_edges}
    return g.relabel(em, hm, vm)


CORPUS = [
    ("stick", stick()),
    ("empty", empty_graph()),
    ("C0", isolated_vertex()),
    ("C1", corolla(["a"])),
    ("C2", corolla(["a", "b"])),
    ("C3", corolla(["a", "b", "c"])),
    ("W1", wheel(1)),
    ("W2", wheel(2)),
    ("W3", wheel(3)),
    ("L1", line(1)),
    ("L2", line(2)),
    ("L3", line(3)),
    ("C2+W1", disjoint_union(corolla(["a", "b"]), wheel(1))),
    ("stick+stick", disjoint_union(stick(), stick())),
]


class TestValidation:
    def test_stick_from_raw(self):
        g = graph_from_json({"edges": ["1", "2"],
                             "tau": [["1", "2"], ["2", "1"]],
                             "half_edges": [], "s": [], "t": [],
                             "vertices": []})
        assert len(g.edges) == 2 and not g.vertices and g.ports == g.edges

    def test_tau_fixed_point(self):
        with pytest.raises(FixedPointInTau):
            FeynmanGraph(["e"], {"e": "e"})

    def test_tau_not_involutive(self):
        with pytest.raises(TauNotInvolutive):
            FeynmanGraph(["a", "b", "c", "d"], {"a": "b", "b": "c", "c": "d", "d": "a"})

    def test_s_not_injective(self):
        with pytest.raises(NonInjectiveS):
            FeynmanGraph(["a", "b"], {"a": "b", "b": "a"},
                         ["h1", "h2"], {"h1": "a", "h2": "a"},
                         {"h1": "v", "h2": "v"}, ["v"])

    def test_dangling(self):
        with pytest.raises(DanglingId):
            FeynmanGraph(["a", "b"], {"a": "b", "b": "a"},
                         ["h"], {"h": "zzz"}, {"h": "v"}, ["v"])

    def test_even_edges(self):
        for _, g in CORPUS:
            assert len(g.edges) % 2 == 0


class TestNamed:
    def test_wheel1_counts(self):
        w = wheel(1)
        assert len(w.edges) == 2 and len(w.vertices) == 1 and not w.ports
        assert len(w.inner_edges()) == 2

    def test_line0_is_stick(self):
        assert is_isomorphic(line(0), stick()) is not None

    def test_corolla3(self):
        g = corolla(["a", "b", "c"])
        assert len(g.edges) == 6 and len(g.half_edges) == 3 and len(g.vertices) == 1
        assert g.ports == frozenset(["a", "b", "c"])

    def test_wheel0_rejected(self):
        with pytest.raises(BadParameter):
            wheel(0)


class TestQueries:
    def test_stick_ports(self):
        g = stick()
        assert len(g.ports) == 2 and not g.inner_edges()

    def test_wheel_ports(self):
        w = wheel(1)
        assert not w.ports and len(w.inner_edges()) == 2

    def test_halves_at_returns_the_graph_own_tuple(self):
        for _, g in CORPUS:
            for v in g.vertices:
                hs = g.halves_at(v)
                assert type(hs) is tuple and g.halves_at(v) is hs
                assert list(hs) == sorted(hs, key=idkey)

    def test_corolla_inner(self):
        assert not corolla(["a", "b"]).inner_edges()

    def test_orbits_pair_everything(self):
        for _, g in CORPUS:
            orbs = g.orbits()
            assert len(orbs) * 2 == len(g.edges)
            assert {e for o in orbs for e in o} == g.edges

    def test_components(self):
        assert len(disjoint_union(corolla(["a"]), stick()).connected_components()) == 2
        assert len(wheel(3).connected_components()) == 1
        assert not empty_graph().connected_components()

    def test_components_partition(self):
        g = disjoint_union(corolla(["a", "b"]), wheel(2))
        comps = g.connected_components()
        assert sum(len(c.edges) for c in comps) == len(g.edges)
        assert sum(len(c.vertices) for c in comps) == len(g.vertices)

    def test_stick_component_detection(self):
        g = disjoint_union(stick(), wheel(1))
        assert len(g.stick_components()) == 1
        assert not wheel(1).stick_components()


class TestDisjointUnion:
    def test_unit(self):
        for _, g in CORPUS:
            assert is_isomorphic(disjoint_union(g, empty_graph()), g) is not None

    def test_stick_stick(self):
        g = disjoint_union(stick(), stick())
        assert len(g.edges) == 4 and len(g.connected_components()) == 2

    def test_edge_count(self):
        g = disjoint_union(corolla(["a", "b"]), wheel(1))
        assert len(g.edges) == 4 + 2 == 6

    def test_ports_additive(self):
        for _, g in CORPUS[:6]:
            for _, h in CORPUS[:6]:
                u = disjoint_union(g, h)
                assert len(u.ports) == len(g.ports) + len(h.ports)


class TestCanonical:
    def test_invariance_under_relabeling(self):
        rng = random.Random(7)
        for _, g in CORPUS:
            c = canonical_form(g).certificate
            for _ in range(10):
                assert canonical_form(relabel_random(g, rng)).certificate == c

    def test_distinguishes_corpus(self):
        certs = [canonical_form(g).certificate for _, g in CORPUS]
        # C2 and L1 are genuinely isomorphic (gluing a stick onto a corolla
        # port is the identity), everything else is pairwise distinct
        assert len(set(certs)) == len(certs) - 1
        assert is_isomorphic(corolla(["a", "b"]), line(1)) is not None

    def test_iso_witness(self):
        rng = random.Random(3)
        g = wheel(2)
        w = is_isomorphic(g, relabel_random(g, rng))
        assert w is not None

    def test_wheel2_vs_line2(self):
        assert is_isomorphic(wheel(2), line(2)) is None

    def test_port_labels_respected(self):
        g = corolla(["a", "b"])
        lab = {"a": 0, "b": 1}
        swapped = {"a": 1, "b": 0}
        assert is_isomorphic(g, g, lab, lab) is not None
        # the label-swapping iso exists because the corolla is symmetric
        assert is_isomorphic(g, g, lab, swapped) is not None
        # a line has no port-swapping automorphism... but it does (reflection)
        l1 = line(1)
        p = sorted(l1.ports, key=repr)
        assert is_isomorphic(l1, l1, {p[0]: 0, p[1]: 1}, {p[0]: 1, p[1]: 0}) is not None

    def test_automorphism_counts(self):
        assert len(automorphisms(stick())) == 2          # id, tau
        assert len(automorphisms(wheel(1))) == 2         # rotation by tau
        assert len(automorphisms(wheel(2))) == 4         # dihedral of order 4
        assert len(automorphisms(corolla(["a", "b", "c"]))) == 6

    def test_incidence_connectivity_matches(self):
        # realization-level sanity via a second, independent reachability
        for _, g in CORPUS:
            if not g.edges and not g.vertices:
                continue
            nodes = [("o", tuple(sorted(o, key=repr))) for o in g.orbits()]
            nodes += [("v", v) for v in g.vertices]
            adj = {n: set() for n in nodes}
            for (e, f) in g.orbits():
                o = ("o", tuple(sorted((e, f), key=repr)))
                for x in (e, f):
                    v = g.vertex_of_edge(x)
                    if v is not None:
                        adj[o].add(("v", v))
                        adj[("v", v)].add(o)
            seen = set()
            stack = [nodes[0]]
            while stack:
                n = stack.pop()
                if n in seen:
                    continue
                seen.add(n)
                stack.extend(adj[n])
            assert (len(seen) == len(nodes)) == g.is_connected()


# -- the JSON format ---------------------------------------------------------------

named_graphs = st.one_of(
    st.builds(stick), st.builds(empty_graph), st.builds(isolated_vertex),
    st.builds(corolla, st.lists(st.one_of(st.integers(-3, 3),
                                          st.sampled_from(["a", "b"])),
                                max_size=3, unique=True)),
    st.builds(wheel, st.integers(1, 3)), st.builds(line, st.integers(0, 3)))
tags = st.one_of(st.integers(0, 3), st.sampled_from(["x", "y"]),
                 st.tuples(st.sampled_from(["t"]), st.integers(0, 1)))
unions = st.lists(st.tuples(tags, named_graphs), max_size=3,
                  unique_by=lambda p: p[0]).map(tagged_union)


@st.composite
def glued(draw, graphs):
    """graphs with a drawn set of disjoint port pairs glued: edge ids are
    frozensets of the identified edges."""
    g = draw(graphs)
    ports = draw(st.permutations(sorted(g.ports, key=repr)))
    n = draw(st.integers(0, len(ports) // 2))
    return glue_ports(g, [(ports[2 * i], ports[2 * i + 1])
                          for i in range(n)])[0]


json_graphs = st.one_of(
    named_graphs, unions,
    unions.map(lambda g: substitute(GraphOfGraphs.identity(g)).colimit),
    glued(st.one_of(named_graphs, unions)))


@settings(max_examples=150, deadline=None)
@given(json_graphs)
def test_graph_json_round_trip_keeps_every_id(g):
    back = graph_from_json(graph_to_json(g))
    assert (back.edges, back.half_edges, back.vertices) == \
        (g.edges, g.half_edges, g.vertices)
    assert (dict(back.tau), dict(back.s), dict(back.t)) == \
        (dict(g.tau), dict(g.s), dict(g.t))
    # equal ids of one type only: 1 and "1" differ, and no int is a bool
    assert {type(x) for x in back.edges} == {type(x) for x in g.edges}


@pytest.mark.parametrize("data", [
    {"named": "wheel", "m": 2},
    {"named": "stick"},
    {"edges": ["1", "2"], "tau": {"1": "2", "2": "1"}},
    {"edges": ["ab", "cd"], "tau": {"ab": "cd", "cd": "ab"},
     "half_edges": {}, "vertices": []},
    {"edges": ["ab", "cd"], "tau": {"ab": "cd", "cd": "ab"},
     "half_edges": [], "s": [], "t": [], "vertices": []},
    dict(graph_to_json(stick()), named="stick"),
    dict(graph_to_json(stick()), tau=[["1", "2", "1"]]),
    dict(graph_to_json(stick()), edges=["1", "2", "1"]),
    dict(graph_to_json(stick()), tau=[["1", "2"], ["2", "1"], ["1", "1"]]),
    dict(graph_to_json(stick()), edges=[{"t": "12"}, "2"]),
    dict(graph_to_json(stick()), edges=[{"t": ["1"], "fs": []}, "2"]),
    [["1", "2"]]])
def test_graph_from_json_refuses_other_forms(data):
    """Only what graph_to_json writes is read: the named form, the flat
    form with a dict-valued tau (whose two-character keys would unpack
    as pairs), extra keys, pairs that are not pairs, an id listed or
    mapped twice and a malformed id all raise FormatError."""
    with pytest.raises(FormatError):
        graph_from_json(data)
