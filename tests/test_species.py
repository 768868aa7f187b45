import itertools

import pytest

from feyngraph.errors import ColourMismatch, FormatError, ValencyOutOfRange
from feyngraph.graphs import (
    corolla, disjoint_union, is_isomorphic, line, stick, wheel,
)
from feyngraph.etale import glue_ports
from feyngraph.species import (
    FiniteCircuitAlgebra, Palette, TableSpecies, TerminalSpecies,
    algebra_from_json, check_circuit_axioms, check_modular_axioms,
    derive_multiplication, evaluate_species, species_from_json,
)
from helpers_species import MONO, TWO, algebra_to_json, tuple_algebra


def brute_decoration_count(S, g):
    """Independent oracle: filter ALL edge colourings x vertex choices."""
    edges = sorted(g.edges, key=repr)
    colours = sorted(S.palette.colours, key=repr)
    count = 0
    for combo in itertools.product(colours, repeat=len(edges)):
        kappa = dict(zip(edges, combo))
        if any(kappa[g.tau[e]] != S.palette.omega[kappa[e]] for e in edges):
            continue
        total = 1
        for v in g.vertices:
            want = tuple(kappa[g.tau[g.s[h]]] for h in g.halves_at(v))
            total *= sum(1 for x in S.elements(len(want))
                         if S.colour_of(x) == want)
        count += total
    return count


CORPUS = [stick(), corolla([1, 2]), corolla([1, 2, 3]), wheel(1), wheel(2),
          line(2), disjoint_union(stick(), corolla([1]))]


def test_terminal_species_single_decoration():
    K = TerminalSpecies()
    for g in CORPUS:
        assert len(evaluate_species(K, g)) == 1


def test_corolla_evaluation_is_arity_set():
    A = tuple_algebra(TWO, 3)
    S = A.species
    decs = evaluate_species(S, corolla([1, 2, 3]))
    assert len(decs) == len(S.elements(3))
    elems = {d.vertex_elems["*"] for d in decs}
    assert elems == set(S.elements(3))


def test_decoration_key_is_computed_once():
    S = tuple_algebra(TWO, 3).species
    keyed, key = [], S.key

    def counting(elem):
        keyed.append(elem)
        return key(elem)

    S.key = counting
    decs = evaluate_species(S, line(2))   # two vertices to key
    first = [d.key() for d in decs]
    assert len(keyed) == 2 * len(decs)
    assert [d.key() for d in decs] == first
    assert len(set(decs)) == len(decs)
    assert len(keyed) == 2 * len(decs)
    # the kept key takes no part in equality
    d = decs[0]
    assert d == type(d)(dict(d.edge_colours), dict(d.vertex_elems), S)


def test_counts_match_brute_oracle():
    for S in [TerminalSpecies(), tuple_algebra(TWO, 4).species]:
        for g in CORPUS:
            assert len(evaluate_species(S, g)) == brute_decoration_count(S, g)


def test_disjoint_union_is_product():
    S = tuple_algebra(TWO, 3).species
    g, h = corolla([1, 2]), wheel(1)
    assert len(evaluate_species(S, disjoint_union(g, h))) == \
        len(evaluate_species(S, g)) * len(evaluate_species(S, h))


def test_glued_corolla_is_equalizer():
    S = tuple_algebra(TWO, 4).species
    c = corolla([1, 2, 3, 4])
    glued, _ = glue_ports(c, [(1, 2)])
    om = S.palette.omega
    want = sum(1 for x in S.elements(4)
               if S.colour_of(x)[0] == om[S.colour_of(x)[1]])
    assert len(evaluate_species(S, glued)) == want


def test_iso_invariance():
    S = tuple_algebra(TWO, 3).species
    g = wheel(2)
    h = g.relabel({e: ("E", e) for e in g.edges},
                  {h_: ("H", h_) for h_ in g.half_edges},
                  {v: ("V", v) for v in g.vertices})
    assert len(evaluate_species(S, g)) == len(evaluate_species(S, h))


def test_valency_bound_error():
    S = tuple_algebra(TWO, 2).species
    with pytest.raises(ValencyOutOfRange):
        evaluate_species(S, corolla([1, 2, 3]))


def test_species_validation():
    with pytest.raises(FormatError):
        Palette(frozenset({"a", "b"}), {"a": "b", "b": "a", "c": "c"})
    with pytest.raises(FormatError):
        TableSpecies(MONO, {1: ["x"]}, {"x": ("*", "*")})


# -- circuit axioms ----------------------------------------------------------------

def test_tuple_algebra_passes_circuit_axioms():
    for pal in (MONO, TWO):
        rep = check_circuit_axioms(tuple_algebra(pal, 3))
        assert rep["ok"], rep["violations"][:5]
        assert rep["checked"] > 0


def test_tuple_algebra_passes_modular_axioms():
    rep = check_modular_axioms(tuple_algebra(TWO, 3))
    assert rep["ok"], rep["violations"][:5]


def test_mutated_box_fails():
    A = tuple_algebra(MONO, 3)
    # redirect one box entry with both arities >= 1 to a wrong-arity-safe value
    key = (A.species.elements(1)[0], A.species.elements(2)[0])
    good = A._box[key]
    bad = [e for e in A.species.elements(3) if e != good][0] \
        if len(A.species.elements(3)) > 1 else None
    if bad is None:
        # monochrome S_3 is a singleton; mutate the unit law instead
        A._box[(A.species.elements(0)[0], A.species.elements(1)[0])] = \
            A.species.elements(1)[0]
        rep = check_circuit_axioms(A)
        assert rep["ok"]  # singleton sets cannot be perturbed; use TWO below
    B = tuple_algebra(TWO, 3)
    key = (B.species.elements(1)[0], B.species.elements(2)[0])
    good = B._box[key]
    bad = next(e for e in B.species.elements(3) if e != good)
    B._box[key] = bad
    rep = check_circuit_axioms(B)
    assert not rep["ok"]
    kinds = {v[0] for v in rep["violations"]}
    assert kinds & {"C1", "C3", "commutativity", "unit", "eps"}


def test_mutated_zeta_fails_modular():
    B = tuple_algebra(TWO, 3)
    (e, i, j), good = next(k_v for k_v in B._zeta.items()
                           if B.species.arity(k_v[0][0]) == 3)
    (e, i, j), good = ((e, i, j), good)
    bad = next(x for x in B.species.elements(1) if x != good)
    B._zeta[(e, i, j)] = bad
    rep = check_modular_axioms(B)
    assert not rep["ok"]
    kinds = {v[0] for v in rep["violations"]}
    assert kinds & {"M1", "M2", "M3", "M4", "Munit"}


def test_derived_multiplication_unit_and_symmetry():
    A = tuple_algebra(TWO, 4)
    diamond = derive_multiplication(A)
    om = A.species.palette.omega
    for e in A.species.elements(2):
        a = A.lab(e, ("x", "y"))
        c = A.species.colour_of(e)[0]
        epsl = A.lab(A.eps(om[c]), ("p", "q"))
        got = diamond(a, epsl, "x", "p")
        assert A.lab_eq(got, A.lab_rename(a, {"x": "q"}))
        # symmetry
        sym = diamond(epsl, a, "p", "x")
        assert A.lab_eq(got, sym)


def test_diamond_colour_mismatch():
    A = tuple_algebra(TWO, 3)
    diamond = derive_multiplication(A)
    a = A.lab("t:+", ("x",))
    with pytest.raises(ColourMismatch):
        diamond(a, A.lab("t:+", ("y",)), "x", "y")
    ok = diamond(a, A.lab("t:-", ("y",)), "x", "y")
    assert ok.elem == "t:" and ok.labels == ()


def test_eps_uniqueness():
    # any unit-like map satisfying the eps law equals eps pointwise
    A = tuple_algebra(TWO, 3)
    S = A.species
    om = S.palette.omega
    for c in sorted(S.palette.colours):
        candidates = []
        for e2 in S.elements(2):
            if S.colour_of(e2) != (c, om[c]):
                continue
            ok = True
            for a_el in S.elements(1):
                if S.colour_of(a_el)[0] != om[c]:
                    continue
                a = A.lab(a_el, ("x",))
                el = A.lab(e2, ("p", "q"))
                got = A.lab_zeta(A.lab_box(a, el), "x", "p")
                if got is None or not A.lab_eq(got, A.lab_rename(a, {"x": "q"})):
                    ok = False
            if ok:
                candidates.append(e2)
        assert candidates == [A.eps(c)]


def test_json_roundtrip_and_checks():
    A = tuple_algebra(TWO, 2)
    data = algebra_to_json(A)
    B = algebra_from_json(data)
    rep = check_circuit_axioms(B)
    assert rep["ok"]
    S = species_from_json(data)
    assert len(S.elements(2)) == len(A.species.elements(2))
