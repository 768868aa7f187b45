import pytest

from feyngraph import (
    corolla,
    disjoint_union,
    is_isomorphic,
    line,
    stick,
    wheel,
)
from feyngraph.errors import NotAPort, NotLocallyBijective, RepeatedPort
from feyngraph.etale import (
    EtaleMorphism,
    check_etale,
    compose,
    elements,
    glue_ports,
    identity_morphism,
)


def fresh(k):
    """A new k-corolla on ports 0..k-1, or a new stick for k=None."""
    return stick() if k is None else corolla(range(k))


def vertex_elements(g):
    return {x: phi for x, phi in elements(g, fresh) if phi.source.vertices}


def edge_elements(g):
    return {x: phi for x, phi in elements(g, fresh)
            if not phi.source.vertices}


class TestCheckEtale:
    def test_identity(self):
        identity_morphism(wheel(2))  # does not raise

    def test_double_cover(self):
        w2, w1 = wheel(2), wheel(1)
        # wrap edges of the 2-wheel twice around the 1-wheel
        em = {("l", 0): ("l", 0), ("l", 1): ("l", 1),
              ("l", 2): ("l", 0), ("l", 3): ("l", 1)}
        hm = {("h", 3): ("h", 1), ("h", 0): ("h", 0),
              ("h", 1): ("h", 1), ("h", 2): ("h", 0)}
        vm = {("v", 0): ("v", 0), ("v", 1): ("v", 0)}
        EtaleMorphism(w2, w1, em, hm, vm)  # valid cover

    def test_valency_mismatch(self):
        c2, c3 = corolla(["a", "b"]), corolla(["a", "b", "c"])
        em = {x: x for x in ["a", "b", ("in", "a"), ("in", "b")]}
        hm = {("h", "a"): ("h", "a"), ("h", "b"): ("h", "b")}
        with pytest.raises(NotLocallyBijective):
            EtaleMorphism(c2, c3, em, hm, {"*": "*"})

    def test_composition_closed(self):
        """Every element map is etale, and composing one with an etale
        map out of its source, or into its target, stays etale."""
        for g in [wheel(1), line(2), corolla(["a", "b", "c"])]:
            for _, phi in elements(g, fresh):
                check_etale(phi.edge_map, phi.half_map, phi.vertex_map,
                            phi.source, phi.target)
                assert compose(phi, identity_morphism(phi.source)) == phi
                assert compose(identity_morphism(g), phi) == phi
        # el(corolla) composed with the vertex element of wheel(1) at a
        # port: a stick element of the corolla lands on an edge of the wheel
        w = wheel(1)
        (phi,) = vertex_elements(w).values()
        for x, psi in edge_elements(phi.source).items():
            chi = compose(phi, psi)
            assert chi.edge_map == {"1": phi.edge_map[x],
                                    "2": w.tau[phi.edge_map[x]]}


class TestChEdge:
    def test_count_on_wheel(self):
        g = wheel(1)
        edge_maps = edge_elements(g)
        assert set(edge_maps) == set(g.edges)
        assert len({phi.key() for phi in edge_maps.values()}) == 2

    def test_stick_identity_and_tau(self):
        s = stick()
        edge_maps = edge_elements(s)
        assert edge_maps["1"].edge_map == {"1": "1", "2": "2"}
        assert edge_maps["2"].edge_map == {"1": "2", "2": "1"}


class TestNeighbourhood:
    def test_wheel_loop(self):
        """The loop of wheel(1) makes the vertex element fold: its two
        ports go to the two edges of one tau-orbit."""
        w = wheel(1)
        (phi,) = vertex_elements(w).values()
        assert phi.source.ports == {0, 1}
        a, b = phi.edge_map[0], phi.edge_map[1]
        assert a != b and w.tau[a] == b

    def test_corolla_identity_shape(self):
        c = corolla(["a", "b", "c"])
        (phi,) = vertex_elements(c).values()
        assert is_isomorphic(phi.source, c) is not None
        assert len(set(phi.edge_map.values())) == len(c.edges)

    def test_line_middle_vertex(self):
        g = line(2)
        phi = vertex_elements(g)[("v", 1)]
        assert len(phi.source.ports) == 2
        assert len(set(phi.edge_map.values())) == len(phi.source.edges)
        assert tuple(phi.half_map[("h", i)] for i in range(2)) == \
            g.halves_at(("v", 1))


class TestElements:
    def test_counts(self):
        els = elements(stick(), fresh)
        assert len(els) == 2 and all(not phi.source.vertices
                                     for _, phi in els)
        assert len(elements(wheel(1), fresh)) == 3
        els = elements(corolla(["a", "b", "c"]), fresh)
        assert len(els) == 7
        assert sum(1 for _, phi in els if phi.source.vertices) == 1
        # vertices first, then edges
        assert els[0][0] == "*"

    def test_count_formula(self):
        for g in [wheel(2), line(2), disjoint_union(stick(), corolla(["a"]))]:
            els = elements(g, fresh)
            assert len(els) == len(g.edges) + len(g.vertices)
            assert len(vertex_elements(g)) == len(g.vertices)

    def test_elementary_graph_is_the_source(self):
        """The maps come out of the graphs that elementary returns."""
        made = {}

        def once(k):
            if k not in made:
                made[k] = fresh(k)
            return made[k]

        g = wheel(2)
        for _, phi in elements(g, once):
            k = len(phi.source.ports) if phi.source.vertices else None
            assert phi.source is made[k]


class TestGluePorts:
    def test_stick_self_glue_is_identity(self):
        g, _ = glue_ports(stick(), [("1", "2")])
        assert is_isomorphic(g, stick()) is not None

    def test_corolla2_glue_is_wheel(self):
        g, _ = glue_ports(corolla(["a", "b"]), [("a", "b")])
        assert is_isomorphic(g, wheel(1)) is not None

    def test_two_corollas_glue(self):
        u = disjoint_union(corolla(["x"]), corolla(["y"]))
        g, _ = glue_ports(u, [(("L", "x"), ("R", "y"))])
        assert len(g.vertices) == 2 and not g.ports
        assert len(g.orbits()) == 1

    def test_not_a_port(self):
        with pytest.raises(NotAPort):
            glue_ports(wheel(1), [(("l", 0), ("l", 1))])

    def test_repeated_port(self):
        c = corolla(["a", "b", "c"])
        with pytest.raises(RepeatedPort):
            glue_ports(c, [("a", "b"), ("a", "c")])

    def test_commutes_with_union(self):
        c = corolla(["a", "b", "c"])
        g1, _ = glue_ports(c, [("a", "b")])
        left = disjoint_union(g1, wheel(1))
        u = disjoint_union(c, wheel(1))
        right, _ = glue_ports(u, [(("L", "a"), ("L", "b"))])
        assert is_isomorphic(left, right) is not None

    def test_order_independent(self):
        u = disjoint_union(corolla(["a", "b"]), corolla(["c", "d"]))
        p = [(("L", "a"), ("R", "c")), (("L", "b"), ("R", "d"))]
        g1, _ = glue_ports(u, p)
        g2, _ = glue_ports(u, p[::-1])
        assert is_isomorphic(g1, g2) is not None
