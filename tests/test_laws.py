"""The Beck and Yang-Baxter checkers under deliberately broken laws.

Each mutant replaces one distributive law in feyngraph.monads; the
checkers look the laws up when they run, so they check the mutant.  A
report that finds a violation is pinned by the sha256 of its sorted JSON,
so its kinds, witnesses and `checked` count stay the same from run to
run.  A law whose output is ill-formed is reported, not raised, by
check_beck and the Yang-Baxter sweep alike.  Also: the reports do not
depend on what the process has memoised, the key of an L element does
not depend on the order of its factors, and L's norm orders factors as
one sort by block and key does.  lambda_LT, built
directly, equals the substitution colimit it replaces
(oracles.brute_law_LT) on every input of the sweeps, with the same
errors, and never falls back on that colimit.  The graphs that
lambda_LT, mu_T, lambda_DT and corolla build with a handed-over half
order equal the validated ones.  The Yang-Baxter sweep writes the
transcript of check_yang_baxter for a failing instance only.
"""

import functools
import hashlib
import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from feyngraph.errors import ColourMismatch, InvalidGraphOfGraphs
from feyngraph.graphs import FeynmanGraph
from feyngraph.monads import (DSpecies, LSpecies, TElem, TSpecies,
                              check_beck, yang_baxter_sweep)
from feyngraph.species import TerminalSpecies

from helpers_species import TWO, tuple_algebra
from oracles import brute_l_norm, brute_law_LT

monads = importlib.import_module("feyngraph.monads")
substitution = importlib.import_module("feyngraph.substitution")
LAW_DT, LAW_LT, LAW_LD = monads.law_DT, monads.law_LT, monads.law_LD

SPECIES = {"K": TerminalSpecies(n_max=4),
           "S2": tuple_algebra(TWO, 3).species}
BOUNDS = {"dt": dict(max_arity=2, max_vertices=2, max_valency=2),
          "lt": dict(max_arity=1, max_vertices=1, max_valency=2,
                     max_factors=2),
          "ld": dict(max_arity=2, max_factors=2)}
YB_BOUNDS = dict(max_arity=1, max_vertices=1, max_valency=2, max_factors=2)


# -- broken laws ---------------------------------------------------------------------

def eps_recoloured(S, t):
    """lambda_DT whose formal unit eps_c comes out as eps_(omega c)."""
    d = LAW_DT(S, t)
    return ("eps", S.palette.omega[d[1]]) if d[0] == "eps" else d


def zero_factors_dropped_from_several(S, t):
    """lambda_LT that drops the arity-0 factors of a multi-factor result."""
    le = LAW_LT(S, t)
    return tuple(f for f in le if f[0]) if len(le) > 1 else le


def zero_factors_dropped(S, t):
    """lambda_LT that drops every arity-0 factor."""
    return tuple(f for f in LAW_LT(S, t) if f[0])


def contracted_unit_dropped(S, d):
    """lambda_LD that sends the contracted unit o to the empty product."""
    return () if d[0] == "o" else LAW_LD(S, d)


def zero_factors_of_plain_dropped(S, d):
    """lambda_LD that drops the arity-0 factors of a plain L element."""
    le = LAW_LD(S, d)
    return tuple(f for f in le if f[0]) if d[0] == "b" else le


MUTANTS = {f.__name__: (law, f) for law, f in [
    ("law_DT", eps_recoloured),
    ("law_LT", zero_factors_dropped_from_several),
    ("law_LT", zero_factors_dropped),
    ("law_LD", contracted_unit_dropped),
    ("law_LD", zero_factors_of_plain_dropped)]}

# (mutant, species): {check: (violation kinds, sha256 of the report)} for
# every check that reports a violation; all other checks must pass.
# Between them the mutants reach all three laws, both unit and
# multiplication axioms, and the Yang-Baxter hexagon.
PINNED = {
    ("contracted_unit_dropped", "K"): {
        "ld": (["ld-unit-L"],
               "6a0d8c37fa00c95e7d47b3b616f23d0b9d0ca5ba62a113fc6c8d0893bdb28a77"),
        "yb": (["yang-baxter"],
               "5706bfa79cd072db056fc87f5fe14ea7bed6b236335c219de9f0c488eefbd2e6"),
    },
    ("contracted_unit_dropped", "S2"): {
        "ld": (["ld-unit-L"],
               "2e3f9d12d70e87e77b102ddd9d5488db52fbbb99f51cd1ce3ad3bd6aa60c0d50"),
        "yb": (["yang-baxter"],
               "cc283cff3aa73d75b2e6aab1eddb49e38d413b966a48145ca4abe14af9491c0a"),
    },
    ("eps_recoloured", "S2"): {
        "dt": (["dt-unit-T"],
               "a8ec183d4f780fe7675dd42b87419fc624b029808a4fe789ef41bc6e9ad7b2d5"),
    },
    ("zero_factors_dropped", "K"): {
        "lt": (["lt-unit-L", "lt-unit-T"],
               "16c5704e6529895827442df9b548f372c7c47de1da5ccd50748891a4bc41160c"),
        "yb": (["yang-baxter"],
               "78f44f717fde7d7f012d1c962977f6c4011a01b238c5a66472433650b86b25c2"),
    },
    ("zero_factors_dropped", "S2"): {
        "lt": (["lt-unit-L", "lt-unit-T"],
               "3aab2b35702b979169f9ebc8d74ecde05781d01f76aacba9c7147a1bbe6fb1bc"),
        "yb": (["yang-baxter"],
               "e697d153104eb138a31194e88d35e39d029f1a7e4d90b9c13e87bd002e34a038"),
    },
    ("zero_factors_dropped_from_several", "K"): {
        "lt": (["lt-mu-L", "lt-mu-T", "lt-unit-T"],
               "24100a5605aab305830409e8119e18c09e6f04443aa8793effb3d36c8ef6ed54"),
    },
    ("zero_factors_dropped_from_several", "S2"): {
        "lt": (["lt-mu-L", "lt-mu-T", "lt-unit-T"],
               "dc0839763f8fa45fdf7e746768edd0bfe11b123d377f5425437501e993ba476b"),
    },
    ("zero_factors_of_plain_dropped", "K"): {
        "ld": (["ld-mu-D", "ld-unit-D", "ld-unit-L"],
               "9e2a259ab0a0e8c533af65a92742ad11e50f892d12bcd5e9f058a2b1e233c1e0"),
        "yb": (["yang-baxter"],
               "bd277130441ccc06e9ddc6cd260e10da16b7cdf04fc5f75fd0e02c73cc2c8d3a"),
    },
    ("zero_factors_of_plain_dropped", "S2"): {
        "ld": (["ld-mu-D", "ld-unit-D", "ld-unit-L"],
               "08ff9fe683b3a799c591bf1557b4833ff5360f5e3f936a6138ae2c7df6d2fb10"),
        "yb": (["yang-baxter"],
               "3247ae75ddcbe0e78521358aa59b21319c8f3ed10448c94af037e7fc6fe9bb75"),
    },
}


def _reports(S):
    out = {law: check_beck(law, S, **bounds) for law, bounds in BOUNDS.items()}
    out["yb"] = yang_baxter_sweep(S, **YB_BOUNDS)
    return out


def _digest(report):
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("mutant,species", sorted(PINNED))
def test_broken_law_is_reported(monkeypatch, mutant, species):
    law, broken = MUTANTS[mutant]
    monkeypatch.setattr(monads, law, broken)
    got = {}
    for check, r in _reports(SPECIES[species]).items():
        if r["ok"]:
            continue
        got[check] = (sorted({v[0] for v in r["violations"]}), _digest(r))
    assert got == PINNED[(mutant, species)]


def ports_swapped(S, t):
    """lambda_DT that reverses the two ports of a partial deletion."""
    d = LAW_DT(S, t)
    marked = any(t.vdec[v][0] in ("eps", "o") for v in t.graph.vertices)
    if d[0] == "b" and marked and len(d[1].ports) == 2:
        u = d[1]
        return ("b", TElem(u.graph, u.ports[::-1], u.colours, u.vdec))
    return d


def test_ill_formed_law_output_is_reported(monkeypatch):
    # mu_T cannot substitute the swapped result, whose port colours no
    # longer match; the sweep records that and checks every instance
    S = SPECIES["S2"]
    sound = check_beck("dt", S, **BOUNDS["dt"])
    monkeypatch.setattr(monads, "law_DT", ports_swapped)
    r = check_beck("dt", S, **BOUNDS["dt"])
    assert not r["ok"] and r["checked"] == sound["checked"]
    assert sorted({v[0] for v in r["violations"]}) == ["dt-mu-D", "dt-mu-T"]
    message = repr("ColourMismatch: inconsistent colours in substitution")
    assert [v[1] for v in r["violations"]
            if v[2] == message] == ["0", "1", "2"]
    assert all(v[0] == "dt-mu-T" for v in r["violations"] if v[2] == message)



def eps_unmatched(S, d):
    """lambda_LD that cannot colour a formal unit."""
    if d[0] == "eps":
        raise ColourMismatch("no colour for a formal unit")
    return LAW_LD(S, d)


def test_ill_formed_law_output_is_reported_by_the_yang_baxter_sweep(
        monkeypatch):
    # check_beck and the sweep treat the same errors as ill-formed output
    S = SPECIES["S2"]
    sound = yang_baxter_sweep(S, **YB_BOUNDS)
    monkeypatch.setattr(monads, "law_LD", eps_unmatched)
    beck = check_beck("ld", S, **BOUNDS["ld"])
    assert beck["checked"] == 147 and len(beck["violations"]) == 3
    r = yang_baxter_sweep(S, **YB_BOUNDS)
    assert not r["ok"] and r["checked"] == sound["checked"]
    message = repr("ColourMismatch: no colour for a formal unit")
    assert r["violations"] == [("yang-baxter", "0", message)]


def test_a_failed_hexagon_and_an_ill_formed_instance_are_reported_together(
        monkeypatch):
    # the first instance raises and the second fails the hexagon: both
    # are noted, each with its arity written as text, and every instance
    # is checked
    hexagon = monads._hexagon
    calls = []

    def flaky(S, instance):
        calls.append(instance)
        if len(calls) == 1:
            raise ColourMismatch("no colour for a formal unit")
        ok, paths = hexagon(S, instance)
        return (len(calls) > 2 and ok), paths

    monkeypatch.setattr(monads, "_hexagon", flaky)
    r = yang_baxter_sweep(SPECIES["K"], **YB_BOUNDS)
    assert not r["ok"] and r["checked"] == 10 == len(calls)
    assert len(r["violations"]) == 2
    assert all(v[0] == "yang-baxter" and isinstance(v[1], str)
               for v in r["violations"])
    assert sum(v[-1] == repr("ColourMismatch: no colour for a formal unit")
               for v in r["violations"]) == 1


def test_a_passing_yang_baxter_sweep_writes_no_transcript(monkeypatch):
    written = []
    transcript = monads._transcript
    monkeypatch.setattr(monads, "_transcript",
                        lambda *args: written.append(args) or
                        transcript(*args))
    r = yang_baxter_sweep(SPECIES["K"], **YB_BOUNDS)
    assert r["ok"] and r["checked"] == 10 and not written


@pytest.mark.parametrize("species", sorted(SPECIES))
def test_a_failing_hexagon_is_noted_with_the_checkers_transcript(
        monkeypatch, species):
    S = SPECIES[species]
    monkeypatch.setattr(monads, "law_LD", MUTANTS[
        "zero_factors_of_plain_dropped"][1])
    seen = []
    hexagon = monads._hexagon
    monkeypatch.setattr(monads, "_hexagon",
                        lambda S, x: seen.append(x) or hexagon(S, x))
    r = yang_baxter_sweep(S, **YB_BOUNDS)
    expected = set()
    for x in list(seen):
        ok, transcript = monads.check_yang_baxter(S, x)
        if not ok:
            expected.add(("yang-baxter", repr(len(x.ports)),
                          repr(transcript)))
    assert not r["ok"] and r["violations"] == sorted(expected)


def test_reports_do_not_depend_on_what_the_process_memoised():
    """Sort keys and labelings are memoised for the whole process: a
    report must read the same on a second run and in a fresh process."""
    script = textwrap.dedent("""
        import json
        import test_laws
        print(json.dumps(test_laws._reports(test_laws.SPECIES["K"]),
                         sort_keys=True))
    """)
    here = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    first, second = (json.dumps(_reports(SPECIES["K"]), sort_keys=True)
                     for _ in range(2))
    assert first == second == run.stdout.strip()


# -- lambda_LT against its colimit oracle -------------------------------------------

def _recorded_lt_inputs(S):
    """Every (species, element) that law_LT sees in the lt sweep and the
    Yang-Baxter sweep at the bounds above."""
    seen = []

    def recording(S2, t):
        seen.append((S2, t))
        return LAW_LT(S2, t)

    monads.law_LT = recording
    try:
        check_beck("lt", S, **BOUNDS["lt"])
        yang_baxter_sweep(S, **YB_BOUNDS)
    finally:
        monads.law_LT = LAW_LT
    return seen


def _factor(f):
    """A factor as plain, hashable data: its block, graph, ports, colours
    and vertex decoration."""
    block, t = f
    g = t.graph
    return (block, g.edges, g.half_edges, g.vertices,
            frozenset(g.tau.items()), frozenset(g.s.items()),
            frozenset(g.t.items()), t.ports, frozenset(t.colours.items()),
            frozenset(t.vdec.items()))


@pytest.mark.parametrize("species", sorted(SPECIES))
def test_law_lt_equals_the_colimit_oracle(species):
    inputs = _recorded_lt_inputs(SPECIES[species])
    assert len(inputs) > 100
    for S, t in inputs:
        # equal as factor multisets, and in the same order too
        assert [_factor(f) for f in LAW_LT(S, t)] == \
            [_factor(f) for f in brute_law_LT(S, t)]


def test_law_lt_colours_ill_coloured_input_as_the_oracle():
    """Piece colours overwrite base colours, vertex by vertex in one
    order, so an element whose factors disagree with its edge colours
    comes out coloured as through the colimit."""
    S = SPECIES["S2"]
    TLS = TSpecies(LSpecies(S, 2), 2, 2)
    recoloured = 0
    for t in TLS.elements(0) + TLS.elements(1):
        for v, le in t.vdec.items():
            for i, (block, _) in enumerate(le):
                for x in S.elements(len(block)):
                    vdec = dict(t.vdec)
                    vdec[v] = le[:i] + ((block, x),) + le[i + 1:]
                    u = TElem(t.graph, t.ports, t.colours, vdec)
                    assert [_factor(f) for f in LAW_LT(S, u)] == \
                        [_factor(f) for f in brute_law_LT(S, u)]
                    recoloured += 1
    assert recoloured > 100


def _assert_equals_validated(g):
    """g, built unvalidated with a handed-over half order, equals the
    graph that the validating constructor builds from its maps, half
    orders included."""
    h = FeynmanGraph(g.edges, g.tau, g.half_edges, g.s, g.t, g.vertices)
    assert (g.edges, g.half_edges, g.vertices, g.ports) == \
        (h.edges, h.half_edges, h.vertices, h.ports)
    assert (dict(g.tau), dict(g.s), dict(g.t)) == \
        (dict(h.tau), dict(h.s), dict(h.t))
    assert g.sorted_edges == h.sorted_edges
    assert all(g.halves_at(v) == h.halves_at(v) for v in g.vertices)
    assert all(g.half_of_edge(e) == h.half_of_edge(e) for e in g.edges)


@pytest.mark.parametrize("species", sorted(SPECIES))
def test_law_lt_components_equal_validated_graphs(species):
    for S, t in _recorded_lt_inputs(SPECIES[species]):
        for _, x in LAW_LT(S, t):
            # the factor vertices' half order is handed over, not sorted
            assert x.graph._halves_at is not None
            _assert_equals_validated(x.graph)


GRAPHS_BUILT = {"mu_T": lambda r: [r.graph],
                "law_DT": lambda r: [r[1].graph] if r[0] == "b" else [],
                "corolla": lambda r: [r]}


@pytest.mark.parametrize("species", sorted(SPECIES))
def test_handed_over_half_orders_equal_validated_graphs(monkeypatch,
                                                        species):
    """The graphs of mu_T (a substitution colimit), law_DT (a deletion's
    colimit) and corolla in the dt, lt and Yang-Baxter sweeps."""
    built = {name: [] for name in GRAPHS_BUILT}
    for module in (monads, substitution):
        for name, graphs_of in GRAPHS_BUILT.items():
            inner = getattr(module, name, None)
            if inner is None:
                continue

            def recording(*args, inner=inner, name=name, graphs_of=graphs_of):
                r = inner(*args)
                built[name] += graphs_of(r)
                return r
            monkeypatch.setattr(module, name, recording)
    S = SPECIES[species]
    for law in ("dt", "lt"):
        check_beck(law, S, **BOUNDS[law])
    yang_baxter_sweep(S, **YB_BOUNDS)
    for name, graphs in built.items():
        assert len(graphs) > 20, name
        for g in graphs:
            _assert_equals_validated(g)


def test_law_lt_builds_no_colimit_and_validates_no_component(monkeypatch):
    inside, outputs, substituted, validated = [], [], [], []
    substitute, validate = substitution.substitute, FeynmanGraph._validate

    def watched(S, t):
        inside.append(t)
        try:
            le = LAW_LT(S, t)
        finally:
            inside.pop()
        outputs.extend(x.graph for _, x in le)
        return le

    def counting(gog):
        if inside:
            substituted.append(gog)
        return substitute(gog)

    def recording(g):
        validated.append(g)
        validate(g)

    monkeypatch.setattr(monads, "law_LT", watched)
    monkeypatch.setattr(monads, "substitute", counting)
    monkeypatch.setattr(substitution, "substitute", counting)
    monkeypatch.setattr(FeynmanGraph, "_validate", recording)
    check_beck("lt", SPECIES["K"], **BOUNDS["lt"])
    yang_baxter_sweep(SPECIES["K"], **YB_BOUNDS)
    assert outputs and validated
    assert not substituted
    checked = {id(g) for g in validated}
    assert not any(id(g) in checked for g in outputs)


def _two_factor_element(blocks):
    """The T(L K) element on one 2-valent vertex whose L element has the
    given blocks, each decorated by the K element of its arity."""
    K = SPECIES["K"]
    t = TSpecies(LSpecies(K, 2), 1, 2).elements(2)[0]
    v, = t.vdec
    le = tuple((b, ("k", len(b))) for b in blocks)
    return TElem(t.graph, t.ports, t.colours, {v: le})


@pytest.mark.parametrize("blocks", [((0,), (0,)), ((0, 1), (1,)), ((0,),),
                                    ((), (1,))],
                         ids=["overlap", "overlap-in-part", "missing",
                              "missing-beside-empty"])
def test_law_lt_rejects_blocks_that_do_not_partition(blocks):
    t = _two_factor_element(blocks)
    for law in (LAW_LT, brute_law_LT):
        with pytest.raises(InvalidGraphOfGraphs, match="must biject"):
            law(SPECIES["K"], t)


def _blocks_overlapped(inner):
    def law(S, t):
        """lambda_LT whose last factor takes the block of the first when
        both are nonempty and of one size."""
        le = inner(S, t)
        first, last = le[0][0] if le else (), le[-1][0] if le else ()
        if first and len(first) == len(last) and first != last:
            return le[:-1] + ((first, le[-1][1]),)
        return le
    return law


@pytest.mark.parametrize("species", sorted(SPECIES))
def test_ill_formed_l_blocks_are_reported_as_before(monkeypatch, species):
    S = SPECIES[species]
    sound = check_beck("lt", S, **BOUNDS["lt"])
    reports = []
    for inner in (LAW_LT, brute_law_LT):
        monkeypatch.setattr(monads, "law_LT", _blocks_overlapped(inner))
        reports.append(check_beck("lt", S, **BOUNDS["lt"]))
    fast, oracle = reports
    assert fast == oracle
    assert not fast["ok"] and fast["checked"] == sound["checked"]
    assert any("InvalidGraphOfGraphs" in v[2] for v in fast["violations"])


# -- L keys ignore factor order -----------------------------------------------------

@functools.lru_cache(maxsize=None)
def _l_elements(which, n):
    inner = (TSpecies(SPECIES["K"], 1, 2) if which == "LT"
             else DSpecies(SPECIES["S2"]))
    LS = LSpecies(inner, 3)
    return LS, LS.elements(n)


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(["LT", "LD"]), n=st.integers(0, 2),
       data=st.data())
def test_l_key_ignores_factor_order(which, n, data):
    LS, elems = _l_elements(which, n)
    le = data.draw(st.sampled_from(elems))
    shuffled = tuple(data.draw(st.permutations(le)))
    assert LS.key(shuffled) == LS.key(le)


@functools.lru_cache(maxsize=None)
def _factor_elements(which):
    LS, _ = _l_elements(which, 0)
    return LS, [x for n in range(3) for x in LS.inner.elements(n)]


# blocks repeat, empty or not, and need not match an element's arity
BLOCKS = [(), (0,), (1,), (0, 1), (1, 2)]


@settings(max_examples=80, deadline=None)
@given(which=st.sampled_from(["LT", "LD"]), data=st.data())
def test_l_norm_equals_one_sort_by_block_and_key(which, data):
    LS, inner = _factor_elements(which)
    factors = data.draw(st.lists(st.tuples(st.sampled_from(BLOCKS),
                                           st.sampled_from(inner)),
                                 max_size=6))
    # equal elements too must come out in the same order
    assert [(b, id(x)) for b, x in LS.norm(factors)] == \
        [(b, id(x)) for b, x in brute_l_norm(LS, factors)]
