"""Pointed structure, the bounded monads T/D/L, their distributive laws,
and the free circuit algebra."""

import functools
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from feyngraph import monads
from feyngraph.errors import (BadParameter, ColourMismatch, NotDeletable,
                              OutOfBounds)
from feyngraph.graphs import (FeynmanGraph, corolla, disjoint_union, idstr,
                              is_isomorphic, isolated_vertex, line, stick,
                              tagged_union, wheel)
from feyngraph.monads import (FreeCircuitAlgebra, TElem, TSpecies, DSpecies,
                              LSpecies, VertexDeletion, check_beck,
                              check_monad_laws, check_t_associativity,
                              check_yang_baxter, delete_vertices,
                              deletable_vertices, eta_T,
                              free_apply, hom_etale, hom_pointed, law_DT,
                              law_LT, law_LD, mu_T, similarity_terminal,
                              telem_key, yang_baxter_sweep)
from feyngraph.species import (TerminalSpecies, check_circuit_axioms,
                               check_modular_axioms, evaluate_species)

from helpers_species import TWO, tuple_algebra
from helpers_nerve import corpus14
from oracles import (brute_etale_homs, brute_hom_pointed, brute_law_LT,
                     brute_monad_laws, brute_t_associativity,
                     corolla_like_class_count)
from test_laws import BOUNDS, _factor

K = TerminalSpecies(n_max=4)
S2 = tuple_algebra(TWO, 3).species


@pytest.mark.parametrize("build", [
    lambda: TSpecies(K, max_vertices=-1),
    lambda: TSpecies(K, max_valency=-1),
    lambda: LSpecies(K, max_factors=-2),
    lambda: check_beck("dt", K, max_arity=-1),
    lambda: yang_baxter_sweep(K, max_arity=-3),
    lambda: check_monad_laws(K, max_arity=-1),
    lambda: check_circuit_axioms(tuple_algebra(TWO, 3), max_arity=-1),
    lambda: check_modular_axioms(tuple_algebra(TWO, 3), max_arity=-5)])
def test_a_negative_bound_raises_bad_parameter(build):
    with pytest.raises(BadParameter, match=">= 0, not -"):
        build()


# -- vertex deletion ----------------------------------------------------------------

def test_delete_line_vertices_gives_stick():
    g = line(2)
    d = delete_vertices(g, [("v", 1), ("v", 2)])
    assert is_isomorphic(d.target, stick())
    assert set(d.edge_correspondence) == set(g.edges)
    assert not d.fresh_sticks


def test_delete_wheel_vertex_gives_stick_shape():
    t, d = similarity_terminal(wheel(1))
    assert len(t.edges) == 2 and not t.vertices
    assert is_isomorphic(t, stick())


def test_similarity_terminal_wheel3():
    t, d = similarity_terminal(wheel(3))
    assert is_isomorphic(t, stick())
    assert d.deleted == frozenset(wheel(3).vertices)


def test_delete_isolated_vertex_spawns_fresh_stick():
    t, d = similarity_terminal(isolated_vertex())
    assert is_isomorphic(t, stick())
    assert list(d.fresh_sticks) == ["*"]


def test_similarity_terminal_fixes_corolla():
    g = corolla([0, 1, 2])
    t, d = similarity_terminal(g)
    assert t is d.target
    assert not d.deleted
    assert is_isomorphic(t, g)


def test_delete_trivalent_vertex_rejected():
    with pytest.raises(NotDeletable):
        delete_vertices(corolla([0, 1, 2]), ["*"])
    assert deletable_vertices(corolla([0, 1, 2])) == []


def test_deletion_maps_commute():
    g = line(3)
    d = delete_vertices(g, [("v", 2)])
    # half/vertex maps cover exactly the undeleted part
    assert set(d.vertex_map) == {("v", 1), ("v", 3)}
    for v in d.vertex_map:
        for h in g.halves_at(v):
            assert d.target.t[d.half_map[h]] == d.vertex_map[v]


# -- etale homs vs brute oracle ------------------------------------------------------

@pytest.mark.parametrize("g,h", [
    (stick(), stick()),
    (stick(), wheel(1)),
    (wheel(1), wheel(1)),
    (wheel(2), wheel(1)),
    (wheel(1), wheel(2)),
    (corolla([0, 1]), corolla([0, 1])),
    (line(1), line(1)),
    (line(1), corolla([0, 1])),
    (isolated_vertex(), wheel(1)),
])
def test_hom_etale_matches_brute_oracle(g, h):
    assert len(hom_etale(g, h)) == brute_etale_homs(g, h)


def test_hom_etale_covering_wheel():
    assert len(hom_etale(wheel(3), wheel(1))) == 2
    assert len(hom_etale(wheel(2), wheel(2))) == 4


def test_hom_etale_is_charged_to_the_search_budget(monkeypatch):
    # each of the two sticks goes to any of the six edges of the 3-wheel
    g = disjoint_union(stick(), stick())
    default = hom_etale(g, wheel(3))
    assert len(default) == 36
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "35")
    with pytest.raises(OutOfBounds):
        hom_etale(g, wheel(3))
    monkeypatch.setenv("FEYNGRAPH_MAX_SEARCH", "36")
    got = hom_etale(g, wheel(3))
    assert [(m.edge_map, m.half_map, m.vertex_map) for m in got] == \
        [(m.edge_map, m.half_map, m.vertex_map) for m in default]


# -- pointed homs --------------------------------------------------------------------

def test_pointed_wheel_to_stick_is_two():
    assert len(hom_pointed(wheel(1), stick())) == 2


def test_pointed_point_to_stick_is_one():
    assert len(hom_pointed(isolated_vertex(), stick())) == 1


CORPUS = [stick(), corolla([0]), wheel(1), isolated_vertex()]


@pytest.mark.parametrize("target", CORPUS)
def test_pointed_wheel_counts_stable(target):
    base = len(hom_pointed(wheel(1), target))
    for m in (2, 3):
        assert len(hom_pointed(wheel(m), target)) == base


def test_pointed_homs_delete_each_vertex_set_once(monkeypatch):
    """Criterion 5's twelve calls, on graphs built once: the deletions of
    a graph are kept on it, and absorption looks its larger vertex sets up
    there, so each (graph, vertex tuple) is deleted once: 14 deletions in
    all (48 calls on 34 distinct pairs when absorption deleted again from
    each deletion's target)."""
    from feyngraph.etale import glue_ports
    calls = []

    def counting(g, w):
        calls.append((id(g), tuple(w)))
        return delete_vertices(g, w)

    monkeypatch.setattr(monads, "delete_vertices", counting)
    du = disjoint_union(corolla([0]), corolla([0]))
    pa, pb = sorted(du.ports, key=repr)
    edge, _ = glue_ports(du, [(pa, pb)])
    wheels = {m: wheel(m) for m in (1, 2, 3)}
    counts = [[len(hom_pointed(wheels[m], g)) for m in (1, 2, 3)]
              for g in (stick(), corolla([0]), wheels[1], edge)]
    assert all(len(set(row)) == 1 for row in counts)
    assert len(calls) == len(set(calls)) == 14


def test_pointed_normal_form_parts():
    for pm in hom_pointed(wheel(2), corolla([0])):
        assert isinstance(pm.similarity_part, VertexDeletion)
        assert pm.similarity_part.deleted == frozenset(wheel(2).vertices)
        assert pm.etale_part.target is not None
        assert pm.deleted == frozenset(wheel(2).vertices)



def _pointed_graphs() -> list:
    """32 graphs: corpus14, wheel(4), line(3), the isolated vertex and
    fifteen disjoint unions of small graphs."""
    iv = isolated_vertex()
    graphs = list(corpus14().values()) + [wheel(4), line(3), iv]
    unions = [(iv, iv), (iv, stick()), (stick(), stick()), (wheel(1), iv),
              (wheel(1), wheel(1)), (wheel(2), iv), (line(1), iv),
              (line(2), wheel(1)), (corolla([0]), stick()),
              (corolla([]), iv), (wheel(1), line(1)),
              (corolla([0, 1]), wheel(1)), (wheel(1), stick()),
              (line(1), line(1)), (wheel(2), wheel(1))]
    return graphs + [disjoint_union(a, b) for a, b in unions]


def test_pointed_homs_match_the_chain_oracle():
    """One deletion per morphism, absorbed in one pass over its vertices,
    gives the keys, in the same order, of absorbing one vertex at a time
    along a chain of deletions."""
    graphs = _pointed_graphs()
    assert len(graphs) == 32
    morphisms = 0
    for g in graphs:
        for h in graphs:
            got = [pm.key() for pm in hom_pointed(g, h)]
            assert got == brute_hom_pointed(g, h)
            morphisms += len(got)
    assert morphisms > 1000


# sha256 of the keys and etale edge maps of every hom_pointed(g, h) over
# _pointed_graphs, computed when hom_etale split its source and key()
# wrote every id afresh on each call
POINTED_SHA256 = \
    "6a3d4860bb341a78e71f3b0d124b7520b115aaeb8fd4ecc971e8f3ae3b8873f0"


def test_pointed_homs_split_each_graph_once(monkeypatch):
    """hom_etale keeps a graph's components on it, and the keys read the
    id texts of each graph from one table: connected_components runs once
    for each distinct graph split (3,840 times on 120 deletion targets
    when it ran on every call), and the morphisms are unchanged."""
    split, calls, kept = FeynmanGraph.connected_components, {}, []

    def counting(g):
        calls[id(g)] = calls.get(id(g), 0) + 1
        kept.append(g)   # no id is reused
        return split(g)

    monkeypatch.setattr(FeynmanGraph, "connected_components", counting)
    graphs = _pointed_graphs()
    lines = []
    for g in graphs:
        for h in graphs:
            for pm in hom_pointed(g, h):
                lines.append(repr(pm.key()))
                lines.append(repr(sorted(
                    (idstr(a), idstr(b))
                    for a, b in pm.etale_part.edge_map.items())))
    assert len(lines) == 26288
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        POINTED_SHA256
    assert set(calls.values()) == {1}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([wheel(1), wheel(2), wheel(3), line(1),
                                 line(2), line(3), isolated_vertex()]),
                min_size=1, max_size=2),
       st.sampled_from([stick(), corolla([0]), wheel(1), wheel(2)]))
def test_pointed_homs_match_the_chain_oracle_on_unions(parts, h):
    # two parts at most: the oracle deletes every vertex set afresh, and
    # three wheel(3)s take it seconds for one target
    g = tagged_union(enumerate(parts))
    assert [pm.key() for pm in hom_pointed(g, h)] == brute_hom_pointed(g, h)


# -- monad units and multiplications -------------------------------------------------

def test_eta_T_is_corolla():
    t = eta_T(K, ("k", 3))
    assert is_isomorphic(t.graph, corolla([0, 1, 2]))
    assert len(t.ports) == 3


def test_mu_T_flattens_nested_corollas():
    TS = TSpecies(K, max_vertices=2, max_valency=3)
    inner = TS.elements(2)[0]
    outer = eta_T(TS, inner)
    flat = mu_T(TS, outer)
    assert TS.key(flat) == TS.key(inner)


def test_monad_laws_terminal():
    r = check_monad_laws(K, max_arity=2, max_vertices=2, max_valency=3)
    assert r["ok"], r["violations"]


def test_t_associativity_terminal():
    r = check_t_associativity(K, max_arity=1, max_vertices=2, max_valency=2)
    assert r["ok"], r["violations"]
    assert r["checked"] > 0


def test_monad_laws_two_colour():
    r = check_monad_laws(S2, max_arity=1, max_vertices=1, max_valency=2)
    assert r["ok"], r["violations"]


MU_D, MU_L, MU_T = monads.mu_D, monads.mu_L, monads.mu_T


def mu_D_swapping_nested_units(dd):
    """mu_D that, flattening D(D(D S)), swaps the colours of a formal unit
    under two plain layers.  On D(D S) it is mu_D, so the unit laws hold."""
    if dd[0] == "b" and dd[1][0] == "b" and dd[1][1][0] == "eps":
        return ("b", ("eps", S2.palette.omega[dd[1][1][1]]))
    return MU_D(dd)


def mu_L_reversing_inner_factors(LS, big):
    """mu_L that, flattening L(L(L S)), reverses the positions of every
    L S element it moves.  On L(L S) it is mu_L, so the unit laws hold."""
    if not isinstance(LS.inner, LSpecies):
        return MU_L(LS, big)
    inner = LS.inner
    return LS.norm([(tuple(block[i] for i in ib),
                     inner.act(x, tuple(range(inner.arity(x)))[::-1]))
                    for block, le in big for ib, x in le])


@pytest.mark.parametrize("name, kind", [("mu_D", "D-assoc"),
                                        ("mu_L", "L-assoc")])
def test_arity_keeping_wrong_multiplication_is_reported(monkeypatch, name,
                                                        kind):
    if name == "mu_D":
        AAA = DSpecies(DSpecies(DSpecies(S2)))
        broken = mu_D_swapping_nested_units
        sound, wrong = MU_D, broken
    else:
        AAA = LSpecies(LSpecies(LSpecies(S2, 2), 2), 2)
        broken = mu_L_reversing_inner_factors
        sound = functools.partial(MU_L, AAA.inner)
        wrong = functools.partial(broken, AAA.inner)
    # the broken flattening of A(A(A S)) keeps every arity, so an arity
    # check passes it, but it changes some elements
    AA = AAA.inner
    elems = [x for n in range(3) for x in AAA.elements(n)]
    assert all(AA.arity(wrong(x)) == AA.arity(sound(x)) for x in elems)
    assert any(AA.key(wrong(x)) != AA.key(sound(x)) for x in elems)
    bounds = dict(max_arity=2, max_vertices=1, max_valency=2)
    assert check_monad_laws(S2, **bounds)["ok"]
    monkeypatch.setattr(monads, name, broken)
    r = check_monad_laws(S2, **bounds)
    assert not r["ok"]
    assert {v[0] for v in r["violations"]} == {kind}



def mu_L_swapping_two_units(LS, big):
    """mu_L that, flattening an L(L S) element in which exactly two factors
    have positive arity, each through one factor of positive arity (as
    L eta_L makes them), swaps the elements of those two factors when
    their arities agree.  A lone factor (the left unit) is flattened as
    by mu_L, and below arity 3 both sides of associativity swap the same
    two factors, so only the right unit fails there."""
    flat = MU_L(LS, big)
    if isinstance(LS.inner, LSpecies):
        return flat
    moving = [le for _, le in big if any(b for b, _ in le)]
    if len(moving) != 2 or any(sum(1 for b, _ in le if b) != 1
                               for le in moving):
        return flat
    (b1, x1), (b2, x2) = [f for f in flat if f[0]]
    if len(b1) != len(b2):
        return flat
    return LS.norm([f for f in flat if not f[0]] + [(b1, x2), (b2, x1)])


def test_broken_right_unit_of_L_is_reported(monkeypatch):
    """A multiplication that keeps L's left unit and associativity within
    the bounds, but not its right unit."""
    bounds = dict(max_arity=2, max_vertices=1, max_valency=2)
    monkeypatch.setattr(monads, "mu_L", mu_L_swapping_two_units)
    r = check_monad_laws(S2, **bounds)
    assert not r["ok"]
    assert {v[0] for v in r["violations"]} == {"L-right-unit"}


def test_L_unit_laws_are_checked_on_every_element():
    # 450 checks before both L unit laws covered every element of L S
    # (LSpecies(K, 4) has 16 elements up to arity 2): 3 left-unit checks
    # on eta_L images became 16 left- and 16 right-unit checks
    r = check_monad_laws(K, max_arity=2, max_vertices=2, max_valency=3)
    assert r["ok"] and r["checked"] == 479


@pytest.mark.parametrize("check, oracle, S, bounds, checked", [
    (check_monad_laws, brute_monad_laws, K, (2, 2, 3), 479),
    (check_monad_laws, brute_monad_laws, S2, (1, 1, 2), 290),
    (check_monad_laws, brute_monad_laws, S2, (2, 1, 2), 1336),
    (check_t_associativity, brute_t_associativity, K, (1, 2, 2), 96),
    (check_t_associativity, brute_t_associativity, S2, (1, 1, 2), 6),
], ids=["laws-K", "laws-S2-1", "laws-S2-2", "t-assoc-K", "t-assoc-S2"])
def test_monad_law_reports_match_the_oracle(check, oracle, S, bounds,
                                            checked):
    r = check(S, *bounds)
    assert r == oracle(S, *bounds)
    assert r["ok"] and r["checked"] == checked


@pytest.mark.parametrize("name, broken, violations", [
    ("mu_D", mu_D_swapping_nested_units, 2),
    ("mu_L", mu_L_reversing_inner_factors, 30),
    ("mu_L", mu_L_swapping_two_units, 6),
])
def test_wrong_multiplication_reports_match_the_oracle(monkeypatch, name,
                                                       broken, violations):
    monkeypatch.setattr(monads, name, broken)
    r = check_monad_laws(S2, 2, 1, 2)
    assert r == brute_monad_laws(S2, 2, 1, 2)
    assert r["checked"] == 1336 and len(r["violations"]) == violations


def test_ill_formed_monad_law_output_is_reported(monkeypatch):
    """A substitution that raises on its output is a violation of each
    law it serves, and the sweep goes on: every instance still counts."""
    def mu_T_failing_on_two_vertices(TS, t):
        out = MU_T(TS, t)
        if len(out.graph.vertices) == 2:
            raise ColourMismatch("mutant")
        return out

    monkeypatch.setattr(monads, "mu_T", mu_T_failing_on_two_vertices)
    laws = check_monad_laws(K, 2, 2, 3)
    assoc = check_t_associativity(K, 1, 2, 2)
    assert (laws["ok"], laws["checked"]) == (False, 479)
    assert (assoc["ok"], assoc["checked"]) == (False, 96)
    assert sorted(v[0] for v in laws["violations"]) == \
        ["T-left-unit"] * 3 + ["T-right-unit"] * 3
    assert [v[0] for v in assoc["violations"]] == ["T-assoc"] * 2
    assert all(v[-1] == "'ColourMismatch: mutant'"
               for v in laws["violations"] + assoc["violations"])


# -- free constructions vs oracle ----------------------------------------------------

def test_free_T_terminal_closed_one_vertex():
    # arity 0, at most one vertex: the bare vertex and the single-loop vertex
    assert len(free_apply("T", K, 0, max_vertices=1)) == 2


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_free_T_matches_class_count_oracle(n):
    got = len(free_apply("T", K, n, max_vertices=1, max_valency=3))
    assert got == corolla_like_class_count(n, 3)


def test_free_D_terminal():
    keys = sorted(f.key for f in free_apply("D", K, 2))
    assert len(keys) == 2  # the table element and the formal unit
    assert len(free_apply("D", K, 0)) == 2  # table element and contracted unit


def test_free_L_counts():
    # arity 0, at most 2 factors over the terminal species:
    # {}, {k0}, {k0,k0} as multisets of arity-0 factors
    assert len(free_apply("L", K, 0, max_factors=2)) == 3


def test_free_levels_exist():
    for level in ("T", "D", "L", "Tx", "LDT"):
        els = free_apply(level, K, 1, max_vertices=1, max_valency=2,
                         max_factors=2)
        assert all(f.level == level and f.arity == 1 for f in els)


def test_free_two_colour_respects_colours():
    els = free_apply("T", S2, 2, max_vertices=1, max_valency=2)
    TS = TSpecies(S2, 1, 2)
    for f in els:
        assert len(TS.colour_of(f.representative)) == 2


@pytest.mark.parametrize("S,ports,count", [
    (TSpecies(K, 2, 3), [], 7),
    (FreeCircuitAlgebra(K, 2, 2, 2).species, [], 21),
    (FreeCircuitAlgebra(K, 2, 2, 2).species, [0], 12),
    (FreeCircuitAlgebra(K, 2, 2, 2).species, [0, 1], 22),
])
def test_graph_valued_decorations_have_distinct_keys(S, ports, count):
    # a vertex element is keyed by its species key, not by its repr
    decs = evaluate_species(S, corolla(ports))
    assert len(decs) == count
    assert len({d.key() for d in decs}) == count


# -- distributive laws ---------------------------------------------------------------

def test_law_DT_unmarked_is_inclusion():
    TS = TSpecies(DSpecies(K), max_vertices=1, max_valency=2)
    for t in TS.elements(2):
        d = law_DT(K, t)
        if all(x[0] == "b" for x in t.vdec.values()):
            assert d[0] == "b"


def test_law_DT_fully_marked_line_is_eps():
    DS = DSpecies(K)
    t = eta_T(DS, ("eps", "*"))
    assert law_DT(K, t) == ("eps", "*")


def test_law_LD_retags():
    le = ((0,), ("k", 1)),
    assert law_LD(K, ("b", le)) == (((0,), ("b", ("k", 1))),)
    assert law_LD(K, ("eps", "*"))[0][1] == ("eps", "*")


def test_beck_dt_terminal():
    r = check_beck("dt", K, max_arity=2, max_vertices=2, max_valency=2)
    assert r["ok"], r["violations"]
    assert r["checked"] >= 100


def test_beck_lt_terminal():
    r = check_beck("lt", K, max_arity=2, max_vertices=2, max_valency=2,
                   max_factors=2)
    assert r["ok"], r["violations"]


def test_beck_ld_terminal():
    r = check_beck("ld", K, max_arity=2, max_factors=2)
    assert r["ok"], r["violations"]


def test_beck_dt_two_colour():
    r = check_beck("dt", S2, max_arity=2, max_vertices=2, max_valency=2)
    assert r["ok"], r["violations"]


def test_beck_ld_two_colour():
    r = check_beck("ld", S2, max_arity=2, max_factors=2)
    assert r["ok"], r["violations"]


def test_beck_lt_two_colour_small():
    r = check_beck("lt", S2, max_arity=1, max_vertices=1, max_valency=2,
                   max_factors=2)
    assert r["ok"], r["violations"]


def _reads_in_half_order(S, t) -> bool:
    """Each vertex's element has, at position i, the colour of the edge
    that arrives through the i-th half of g.halves_at(v)."""
    g = t.graph
    return all(S.colour_of(t.vdec[v]) ==
               tuple(t.colours[g.tau[g.s[h]]] for h in g.halves_at(v))
               for v in g.vertices)


@pytest.mark.parametrize("S, count", [(K, 46), (S2, 201)], ids=["K", "S2"])
def test_decorations_are_read_in_half_order(S, count):
    """On every T S element, and on every mu_T, law_DT and law_LT result
    over T(T S), T(D S) and T(L S) at the law sweeps' bounds (those of
    test_laws.py), a vertex's element is read in its graph's half order."""
    dt, lt = BOUNDS["dt"], BOUNDS["lt"]

    def elements(inner, b):
        A = TSpecies(inner, b["max_vertices"], b["max_valency"])
        return [t for n in range(b["max_arity"] + 1) for t in A.elements(n)]

    TS = TSpecies(S, dt["max_vertices"], dt["max_valency"])
    results = [mu_T(TS, t) for t in elements(TS, dt)]
    dt_results = [law_DT(S, t) for t in elements(DSpecies(S), dt)]
    results += [d[1] for d in dt_results if d[0] == "b"]
    results += [x for t in elements(LSpecies(S, lt["max_factors"]), lt)
                for _, x in law_LT(S, t)]
    assert len(results) == count
    for t in elements(S, dt) + results:
        assert _reads_in_half_order(S, t)


def _s2_elem(cols):
    """The S2 element with the colour profile cols."""
    x, = [x for x in S2.elements(len(cols)) if S2.colour_of(x) == cols]
    return x


def test_a_vertex_past_ten_halves_is_read_in_half_order():
    """idkey orders int ids by repr, so a vertex with eleven or more
    halves does not read them in position order: the corolla halves
    ("h", 10) and ("h", 2), and the factor halves of the block
    (8, 9, 10), sort 10 first.  The unit and lambda_LT still put each
    element in its vertex's half order, as the oracle does, and each
    factor is the corolla on its element."""
    cols = ("+", "-", "+", "+", "-", "-", "+", "-", "+", "+", "-")
    blocks = ((0, 1, 2), (3, 4, 5), (6, 7), (8, 9, 10))
    elems = [_s2_elem(tuple(cols[p] for p in b)) for b in blocks]
    LS = LSpecies(S2, len(blocks))
    t = eta_T(LS, LS.norm(list(zip(blocks, elems))))
    assert t.graph.halves_at("*")[:4] == tuple(
        ("h", i) for i in (0, 1, 10, 2))
    assert _reads_in_half_order(LS, t)
    factors = law_LT(S2, t)
    assert [_factor(f) for f in factors] == \
        [_factor(f) for f in brute_law_LT(S2, t)]
    assert [(b, telem_key(S2, x)) for b, x in factors] == \
        [(b, telem_key(S2, eta_T(S2, e))) for b, e in zip(blocks, elems)]
    for _, x in factors:
        assert _reads_in_half_order(S2, x)


def test_law_DT_reads_a_renamed_vertex_in_its_new_half_order():
    """Deleting the marked vertex w renames the halves of the kept vertex
    u by their repr, so u's halves 1 and "a" sort the other way round
    after the deletion; u's element is read in the new order."""
    x = _s2_elem(("+", "-"))
    tau = {"ea": "pa", "eb": "ec", "ed": "pd"}
    tau.update({b: a for a, b in tau.items()})
    g = FeynmanGraph(tau.keys(), tau, [1, "a", "w1", "w2"],
                     {1: "ea", "a": "eb", "w1": "ec", "w2": "ed"},
                     {1: "u", "a": "u", "w1": "w", "w2": "w"}, ["u", "w"])
    colours = {"pa": "+", "ea": "-", "ec": "-", "eb": "+",
               "pd": "-", "ed": "+"}
    t = TElem(g, ("pa", "pd"), colours, {"u": ("b", x), "w": ("eps", "+")})
    assert _reads_in_half_order(DSpecies(S2), t)
    kind, r = law_DT(S2, t)
    assert kind == "b" and _reads_in_half_order(S2, r)
    tau = {"ea": "pa", "eb": "q"}
    tau.update({b: a for a, b in tau.items()})
    u = FeynmanGraph(tau.keys(), tau, [1, "a"], {1: "ea", "a": "eb"},
                     {1: "u", "a": "u"}, ["u"])
    expected = TElem(u, ("pa", "q"),
                     {"pa": "+", "ea": "-", "eb": "+", "q": "-"}, {"u": x})
    assert telem_key(S2, r) == telem_key(S2, expected)


# -- Yang-Baxter ---------------------------------------------------------------------

def test_yang_baxter_sweep_terminal():
    r = yang_baxter_sweep(K, max_arity=2, max_vertices=2, max_valency=2,
                          max_factors=2)
    assert r["ok"], r["violations"]
    assert r["checked"] > 0


def test_yang_baxter_sweep_two_colour():
    r = yang_baxter_sweep(S2, max_arity=1, max_vertices=2, max_valency=2,
                          max_factors=2)
    assert r["ok"], r["violations"]


def test_yang_baxter_transcript():
    domain = TSpecies(DSpecies(LSpecies(K, 2)), 1, 2)
    inst = domain.elements(1)[0]
    ok, transcript = check_yang_baxter(K, inst)
    assert ok
    assert set(transcript) == {"top", "bottom", "ok"}
    assert transcript["top"][-1] == transcript["bottom"][-1]


# -- free circuit algebra ------------------------------------------------------------

def _free_ca():
    return FreeCircuitAlgebra(K, max_vertices=2, max_valency=2,
                              max_factors=2)


def test_free_ca_circuit_axioms():
    r = check_circuit_axioms(_free_ca(), max_arity=3)
    assert r["ok"], r["violations"]
    assert r["checked"] > 100


def test_free_ca_modular_axioms():
    r = check_modular_axioms(_free_ca(), max_arity=2)
    assert r["ok"], r["violations"]


def test_free_ca_two_colour_axioms():
    A = FreeCircuitAlgebra(tuple_algebra(TWO, 2).species,
                           max_vertices=1, max_valency=2, max_factors=2)
    r = check_circuit_axioms(A, max_arity=2)
    assert r["ok"], r["violations"]


def test_free_ca_zeta_colour_mismatch():
    A = FreeCircuitAlgebra(tuple_algebra(TWO, 2).species,
                           max_vertices=1, max_valency=2, max_factors=2)
    a = A.eps("+")          # colours (+, -)
    same = A.box(a, a)      # colours (+, -, +, -)
    with pytest.raises(ColourMismatch):
        A.zeta(same, 0, 2)  # + against +
    assert A.zeta(same, 0, 3) is not None


def test_free_ca_eps_contraction_gives_contracted_unit():
    A = _free_ca()
    e = A.eps("*")
    o = A.zeta(e, 0, 1)
    assert o == ((((), ("o", frozenset({"*"}))),))


def test_free_ca_unit0():
    A = _free_ca()
    a = A.species.elements(1)[0]
    assert A.box(A.unit0(), a) == A.species.norm(a)
