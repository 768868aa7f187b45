import itertools

import pytest

from feyngraph.brauer import (
    BrauerDiagram, Orientation, WiringDiagram, cap, check_orientation_preserved,
    compose_brauer, cup, enumerate_brauer, graph_to_wiring, identity_brauer,
    identity_wiring, is_downward, tensor_brauer, wd_compose, wiring_to_graph,
)
from feyngraph.errors import ArityMismatch, FormatError
from feyngraph.etale import identity_morphism
from feyngraph.graphs import corolla, is_isomorphic, stick, wheel
from feyngraph.substitution import GraphOfGraphs, substitute


def test_cap_of_cup_is_loop():
    c = compose_brauer(cap(), cup())
    assert c == BrauerDiagram(0, 0, {}, 1)


def test_identity_laws():
    for (m, n) in [(0, 2), (2, 0), (1, 1), (2, 2), (3, 1)]:
        for f in enumerate_brauer(m, n, max_loops=1):
            assert compose_brauer(identity_brauer(n), f) == f
            assert compose_brauer(f, identity_brauer(m)) == f


def test_swap_composed_with_itself():
    swap = BrauerDiagram(2, 2, {("src", 1): ("src", 2), ("src", 2): ("src", 1),
                                ("tgt", 1): ("tgt", 2), ("tgt", 2): ("tgt", 1)})
    sq = compose_brauer(swap, swap)
    assert sq.matching == swap.matching and sq.loops == 1


def test_associativity_exhaustive():
    arities = range(4)
    for m, n, p, q in itertools.product(arities, repeat=4):
        if (m + n) % 2 or (n + p) % 2 or (p + q) % 2:
            continue
        fs = enumerate_brauer(m, n)
        gs = enumerate_brauer(n, p)
        hs = enumerate_brauer(p, q)
        for f in fs:
            for g in gs:
                gf = compose_brauer(g, f)
                for h in hs:
                    assert compose_brauer(h, gf) == \
                        compose_brauer(compose_brauer(h, g), f)


def test_interchange():
    small = [(0, 2), (2, 0), (1, 1), (2, 2)]
    for (m1, n1), (m2, n2), (p1,), (p2,) in itertools.product(
            small, small, [(1,), (2,)], [(1,), (2,)]):
        for f1 in enumerate_brauer(m1, n1):
            for f2 in enumerate_brauer(m2, n2):
                for g1 in enumerate_brauer(n1, p1) if (n1 + p1) % 2 == 0 else []:
                    for g2 in enumerate_brauer(n2, p2) if (n2 + p2) % 2 == 0 else []:
                        assert compose_brauer(tensor_brauer(g1, g2),
                                              tensor_brauer(f1, f2)) == \
                            tensor_brauer(compose_brauer(g1, f1),
                                          compose_brauer(g2, f2))


def test_tensor_unit_and_examples():
    empty = BrauerDiagram(0, 0, {}, 0)
    f = cup()
    assert tensor_brauer(f, empty) == f
    double = tensor_brauer(cup(), cup())
    assert double.m == 0 and double.n == 4
    assert double.matching[("tgt", 1)] == ("tgt", 2)
    assert double.matching[("tgt", 3)] == ("tgt", 4)
    assert tensor_brauer(identity_brauer(1), identity_brauer(1)) == identity_brauer(2)


def test_downward_examples_and_closure():
    assert is_downward(cap())
    assert not is_downward(cup())
    assert not is_downward(compose_brauer(cap(), cup()))
    pool = []
    for m, n in [(0, 0), (1, 1), (2, 0), (2, 2), (3, 1)]:
        pool += [f for f in enumerate_brauer(m, n) if is_downward(f)]
    for f in pool:
        for g in pool:
            if g.m == f.n:
                assert is_downward(compose_brauer(g, f))
            assert is_downward(tensor_brauer(f, g))


def test_bad_matching_rejected():
    with pytest.raises(FormatError):
        BrauerDiagram(1, 1, {("src", 1): ("src", 1), ("tgt", 1): ("tgt", 1)})
    # ("src", True) and ("src", 1.0) equal ("src", 1) as dict keys; from_json
    # converts them
    for index in (True, 1.0):
        for p, q in ((("src", index), ("tgt", 1)), (("tgt", index), ("src", 1))):
            with pytest.raises(FormatError, match="boundary point"):
                BrauerDiagram(1, 1, {p: q, q: p})
        with pytest.raises(FormatError, match="boundary point"):
            BrauerDiagram(1, 1, {("src", 1): ("tgt", index),
                                 ("tgt", 1): ("src", 1)})
        assert BrauerDiagram.from_json(
            {"m": 1, "n": 1, "loops": 0,
             "matching": [[["src", index], ["tgt", 1]]]}) == identity_brauer(1)
    with pytest.raises(ArityMismatch):
        compose_brauer(cap(), cap())


@pytest.mark.parametrize("data", [
    {"m": 1, "n": 1, "loops": 0, "matching": [[["src", 1.9], ["tgt", 1]]]},
    {"m": 1.7, "n": 1, "loops": 0, "matching": [[["src", 1], ["tgt", 1]]]},
    {"m": 1, "n": 1, "loops": 0.5, "matching": [[["src", 1], ["tgt", 1]]]},
    {"m": 1, "n": 1, "loops": "0", "matching": [[["src", 1], ["tgt", 1]]]}])
def test_a_fractional_number_is_refused_not_truncated(data):
    with pytest.raises(FormatError, match="not a whole number"):
        BrauerDiagram.from_json(data)
    for wd in ({"inner_arities": [1], "outer_arity": 1, "underlying": data},
               {"inner_arities": [1.7], "outer_arity": 1,
                "underlying": identity_brauer(1).to_json()},
               {"inner_arities": [1], "outer_arity": 0.5,
                "underlying": identity_brauer(1).to_json()}):
        with pytest.raises(FormatError, match="not a whole number"):
            WiringDiagram.from_json(wd)


def test_json_roundtrip():
    for f in [cap(), cup(), identity_brauer(3), compose_brauer(cap(), cup())]:
        assert BrauerDiagram.from_json(f.to_json()) == f
    w = identity_wiring(2)
    assert WiringDiagram.from_json(w.to_json()) == w


# -- wiring diagrams --------------------------------------------------------------

def test_wd_unit():
    f = WiringDiagram((1, 1), 0, cap())
    assert wd_compose(identity_wiring(0), [f]) == f


def test_wd_cap_cup_loop():
    g = WiringDiagram((2,), 0, cap())
    f = WiringDiagram((), 2, cup())
    got = wd_compose(g, [f])
    assert got.underlying.loops == 1
    assert got.inner_arities == ()


def test_wd_equivariance_smoke():
    # permuting the two inner boundaries of g via the middle symmetry
    g = WiringDiagram((1, 1), 0, cap())
    f1 = identity_wiring(1)
    f2 = WiringDiagram((3,), 1, BrauerDiagram(
        3, 1, {("src", 1): ("src", 2), ("src", 2): ("src", 1),
               ("src", 3): ("tgt", 1), ("tgt", 1): ("src", 3)}))
    swap = BrauerDiagram(2, 2, {("src", 1): ("tgt", 2), ("tgt", 2): ("src", 1),
                                ("src", 2): ("tgt", 1), ("tgt", 1): ("src", 2)})
    g_swapped = WiringDiagram((1, 1), 0, compose_brauer(g.underlying, swap))
    a = wd_compose(g, [f1, f2])
    b = wd_compose(g_swapped, [f2, f1])
    # the composites agree up to the induced block permutation of sources
    perm = {1: 4, 2: 1, 3: 2, 4: 3}
    pd = {}
    for i, j in perm.items():
        pd[("src", i)] = ("tgt", j)
        pd[("tgt", j)] = ("src", i)
    assert a.underlying == compose_brauer(b.underlying, BrauerDiagram(4, 4, pd))


def test_wiring_graph_examples():
    assert is_isomorphic(wiring_to_graph(identity_wiring(3)), corolla([1, 2, 3]))
    assert is_isomorphic(wiring_to_graph(WiringDiagram((), 2, cup())), stick())
    assert is_isomorphic(wiring_to_graph(WiringDiagram((2,), 0, cap())), wheel(1))
    two_vertex = wiring_to_graph(WiringDiagram((1, 1), 0, cap()))
    assert len(two_vertex.vertices) == 2
    assert len(two_vertex.orbits()) == 1
    assert not two_vertex.ports


def test_wiring_graph_loop_component():
    wd = WiringDiagram((), 0, BrauerDiagram(0, 0, {}, 2))
    g = wiring_to_graph(wd)
    comps = g.connected_components()
    assert len(comps) == 2
    assert all(is_isomorphic(c, wheel(1)) for c in comps)


def test_wiring_graph_port_count():
    for wd in [identity_wiring(2), WiringDiagram((), 2, cup()),
               WiringDiagram((2,), 2, identity_brauer(2))]:
        assert len(wiring_to_graph(wd).ports) == wd.outer_arity


def test_graph_to_wiring_roundtrip():
    wd = WiringDiagram((2, 1), 1, BrauerDiagram(
        3, 1, {("src", 1): ("src", 2), ("src", 2): ("src", 1),
               ("src", 3): ("tgt", 1), ("tgt", 1): ("src", 3)}))
    g = wiring_to_graph(wd)
    vo = sorted(g.vertices, key=repr)
    po = sorted(g.ports, key=repr)
    back = graph_to_wiring(g, vo, po)
    assert back == wd
    assert is_isomorphic(wiring_to_graph(back), g)


def test_wd_compose_coherence_with_substitution():
    # gamma on wiring diagrams matches graph substitution for loop-free data
    g = WiringDiagram((2,), 2, identity_brauer(2))
    f = WiringDiagram((1, 1), 2, identity_brauer(2))
    comp = wd_compose(g, [f])
    lhs = wiring_to_graph(comp)
    base = wiring_to_graph(g)
    piece = wiring_to_graph(f)
    v = next(iter(base.vertices))
    boundary = {}
    for j, h in enumerate(sorted(base.halves_at(v), key=repr), start=1):
        boundary[("tgt", j)] = h
    rhs = substitute(GraphOfGraphs(base, {v: (piece, boundary)})).colimit
    assert is_isomorphic(lhs, rhs)


# -- orientations ------------------------------------------------------------------

def test_orientation_checks():
    g = stick()
    o1 = Orientation(g, {"1": "in", "2": "out"})
    o2 = Orientation(g, {"1": "out", "2": "in"})
    ident = identity_morphism(g)
    assert check_orientation_preserved(ident, o1, o1)
    assert not check_orientation_preserved(ident, o1, o2)
    from feyngraph.etale import EtaleMorphism
    flip = EtaleMorphism(g, g, {"1": "2", "2": "1"}, {}, {})
    assert check_orientation_preserved(flip, o1, o2)
    with pytest.raises(FormatError):
        Orientation(g, {"1": "in", "2": "in"})
