"""T-keys, permuted T-elements and colour maps are computed once and
kept on the element or labeled element they belong to; sort keys and
labelings are shared across the process, by id and by shape.  These
tests check that what the memos return equals what is computed from
scratch, that the canonical forms still agree with the brute-force
oracles, and that nothing a memo hands out can be changed."""

import dataclasses
import hashlib
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feyngraph.errors import BadParameter, FormatError
from feyngraph.graphs import (FeynmanGraph, canonical_form,
                              canonical_labelings, corolla, disjoint_union,
                              idkey, idstr, is_isomorphic, line, sort_ids,
                              stick, tagged_union, wheel)
from feyngraph.io import graph_from_json
from feyngraph.monads import TElem, TSpecies, telem_key
from feyngraph.species import Labeled, SpeciesOps
from feyngraph.substitution import enumerate_x_graphs

from helpers_nerve import theta
from helpers_species import TWO, tuple_algebra
from oracles import brute_idkey, brute_idstr, brute_isomorphic

graphs = importlib.import_module("feyngraph.graphs")

TWO_ALG = tuple_algebra(TWO, 3)
TWO_TS = TSpecies(TWO_ALG.species, max_vertices=2, max_valency=3)
ELEMS = [t for n in range(4) for t in TWO_TS.elements(n)]

GRAPHS = [stick(), corolla([]), corolla([0]), corolla([0, 1]),
          corolla([0, 1, 2]), wheel(1), wheel(2), wheel(3), line(1),
          line(2), theta(), disjoint_union(corolla([0]), stick()),
          disjoint_union(stick(), stick()),
          disjoint_union(corolla([0, 1]), wheel(1))] + \
    [x.graph for x in enumerate_x_graphs([0, 1], 2, 3)
     if len(x.graph.edges) <= 6]
LABELED = [x for x in enumerate_x_graphs(["a", "b"], 2, 2)]


def fresh(t: TElem) -> TElem:
    """The same element rebuilt on a new graph object: every memo empty."""
    g = t.graph
    return TElem(FeynmanGraph(g.edges, dict(g.tau), g.half_edges, dict(g.s),
                              dict(g.t), g.vertices),
                 t.ports, dict(t.colours), dict(t.vdec))


@st.composite
def relabeled(draw, g):
    """g with its edges, half-edges and vertices renamed at random."""
    edges = sorted(g.edges, key=repr)
    verts = sorted(g.vertices, key=repr)
    em = dict(zip(edges, draw(st.permutations(range(len(edges))))))
    vm = dict(zip(verts, draw(st.permutations(range(100, 100 + len(verts))))))
    hm = {h: ("h", em[g.s[h]]) for h in g.half_edges}
    return g.relabel(em, hm, vm), em


# -- keys ----------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_memoised_key_equals_key_from_scratch(data):
    t = data.draw(st.sampled_from(ELEMS))
    perms = data.draw(st.lists(st.permutations(range(len(t.ports))),
                               min_size=1, max_size=4))
    for sigma in perms:
        # act shares t's graph, so its labelings memo is warm, and keeps
        # u on t, so acting again gives u itself, key and all
        u = TWO_TS.act(t, tuple(sigma))
        assert TWO_TS.act(t, sigma) is u
        assert (u is t) == (sigma == sorted(sigma))
        key = TWO_TS.key(u)
        assert TWO_TS.key(u) == key
        assert TWO_TS.key(fresh(u)) == key


class _Tagged(SpeciesOps):
    """The inner species of TWO_TS with keys wrapped in a tag."""

    def __init__(self, inner):
        self.inner, self.palette, self.n_max = inner, inner.palette, inner.n_max

    def act(self, elem, sigma):
        return self.inner.act(elem, sigma)

    def key(self, elem):
        return ("tagged", elem)


def test_key_memo_is_per_species():
    S, tagged = TWO_TS.inner, _Tagged(TWO_TS.inner)
    t = next(t for t in ELEMS if t.graph.vertices)
    plain = telem_key(S, t)
    other = telem_key(tagged, t)
    assert other != plain
    assert telem_key(S, t) == plain == telem_key(S, fresh(t))
    assert telem_key(tagged, t) == other == telem_key(tagged, fresh(t))


# -- labelings -----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.data())
def test_labelings_agree_with_brute_force(data):
    g = data.draw(st.sampled_from(GRAPHS))
    same_size = [x for x in GRAPHS if len(x.edges) == len(g.edges)]
    h, _ = data.draw(relabeled(data.draw(st.sampled_from(same_size))))
    want = brute_isomorphic(g, h)
    for _ in range(2):  # the second round reads the memos
        assert (is_isomorphic(g, h) is not None) == want
        assert (canonical_form(g).certificate
                == canonical_form(h).certificate) == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_labeled_isomorphism_agrees_with_brute_force(data):
    x = data.draw(st.sampled_from(LABELED))
    y = data.draw(st.sampled_from(LABELED))
    h, em = data.draw(relabeled(y.graph))
    lh = {em[e]: lab for e, lab in y.labeling.items()}
    want = brute_isomorphic(x.graph, h, dict(x.labeling), lh)
    for _ in range(2):
        assert (is_isomorphic(x.graph, h, dict(x.labeling), lh)
                is not None) == want
        assert (canonical_form(x.graph, dict(x.labeling)).certificate
                == canonical_form(h, lh).certificate) == want


def test_certificates_are_pinned():
    # certificates are stored (presheaf JSON, CLI output), so refinement
    # may stop early only where the certificates stay byte-identical
    xs = enumerate_x_graphs([0, 1, 2], 3, 3)
    text = "\n".join(canonical_form(x.graph).certificate for x in xs)
    assert len(xs) == 20
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f776496840bca8d645ad0bbdc8730591e37a351878e24fa2baccb2123857214a")
    # an X-graph's key is the certificate of its port-labelled form
    assert all(x.canonical_key() == canonical_form(
        x.graph, port_labels=dict(x.labeling)).certificate for x in xs)


# -- process-wide memos -------------------------------------------------------------

IDS = st.recursive(
    st.text(max_size=3) | st.integers(-3, 300),
    lambda ids: (st.lists(ids, max_size=3).map(tuple)
                 | st.frozensets(ids, max_size=3)),
    max_leaves=8)


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(IDS, max_size=12), data=st.data())
def test_memoised_idkey_equals_idkey_from_scratch(ids, data):
    for x in data.draw(st.permutations(ids)):
        assert idkey(x) == brute_idkey(x)
    assert sort_ids(ids) == sorted(ids, key=brute_idkey)


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(IDS, max_size=12), data=st.data())
def test_memoised_idstr_equals_idstr_from_scratch(ids, data):
    for x in data.draw(st.permutations(ids)):
        assert idstr(x) == brute_idstr(x)
        assert idkey(x) == brute_idkey(x)


@st.composite
def twins(draw):
    """An id with an atom 0 or 1 at some depth, and the same id with that
    atom replaced by an equal bool or float: the two are equal and hash
    alike, but only the first is an id."""
    n = draw(st.sampled_from([0, 1]))
    good, bad = n, draw(st.sampled_from([x for x in (True, False, 1.0, 0.0)
                                         if x == n]))
    for _ in range(draw(st.integers(0, 3))):
        # no other member may equal the atom's layer, or a frozenset
        # would keep only one of the two
        others = [x for x in draw(st.lists(IDS, max_size=2)) if x != good]
        if draw(st.booleans()):
            i = draw(st.integers(0, len(others)))
            good = tuple(others[:i] + [good] + others[i:])
            bad = tuple(others[:i] + [bad] + others[i:])
        else:
            good, bad = frozenset(others + [good]), frozenset(others + [bad])
    return good, bad


@settings(max_examples=100, deadline=None)
@given(pair=twins(), good_first=st.booleans())
def test_a_hit_tells_ints_from_bools_and_floats(pair, good_first):
    """Whichever of the two the memos see first, the id gets its own key
    and text and its twin raises BadParameter."""
    good, bad = pair
    assert good == bad and hash(good) == hash(bad)
    for x in ([good, bad] if good_first else [bad, good]):
        if x is good:
            assert idkey(x) == brute_idkey(x)
            assert idstr(x) == brute_idstr(x)
            continue
        for fn in (idkey, idstr, brute_idkey, brute_idstr):
            with pytest.raises(BadParameter):
                fn(x)


IDSTR_SCRIPT = ("import sys; from feyngraph.graphs import idstr; "
                "print(repr([idstr(x) for x in eval(sys.stdin.read())]))")


@settings(max_examples=5, deadline=None)
@given(ids=st.lists(IDS | st.frozensets(IDS, min_size=2, max_size=4),
                    min_size=1, max_size=20))
def test_idstr_does_not_depend_on_the_hash_seed(ids):
    """The text of a frozenset lists its members in idkey order, not in
    the hash order of the process: two fresh processes under different
    PYTHONHASHSEEDs write every id as the oracle does."""
    root = pathlib.Path(__file__).resolve().parents[1]
    texts = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(root / "src"))
        run = subprocess.run([sys.executable, "-c", IDSTR_SCRIPT],
                             input=repr(ids), env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        texts.append(run.stdout)
    assert texts[0] == texts[1] == repr([brute_idstr(x) for x in ids]) + "\n"


@pytest.mark.parametrize("bad", [True, 1.0, None, ("a", (True,))])
def test_idkey_rejects_atoms_other_than_str_and_int(bad):
    for equal in (1, ("a", (1,))):   # memoised ids equal to True and 1.0
        idkey(equal)
    with pytest.raises(BadParameter):
        idkey(bad)


def test_graph_from_json_rejects_boolean_ids():
    data = json.loads(
        '{"edges": ["a", "b"], "tau": [["a", "b"], ["b", "a"]],'
        ' "half_edges": ["h"], "s": [["h", "a"]], "t": [["h", true]],'
        ' "vertices": [true]}')
    with pytest.raises(FormatError):
        graph_from_json(data)


def _from_scratch(g, tokens):
    """canonical_labelings of a copy of g, after emptying the id and shape
    memos, with the labelings as plain dicts."""
    graphs._IDKEYS.clear()
    graphs._SHAPES.clear()
    copy = FeynmanGraph(g.edges, g.tau, g.half_edges, g.s, g.t, g.vertices)
    return _plain(canonical_labelings(copy, tokens))


def _plain(result):
    cert, labs = result
    return cert, [(dict(e), dict(v)) for e, v in labs]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_shared_labelings_equal_labelings_from_scratch(data):
    # g and its one-part tagged union have one shape and no id in common
    if data.draw(st.booleans()):
        g, tokens = data.draw(st.sampled_from(GRAPHS)), None
    else:
        x = data.draw(st.sampled_from(LABELED))
        g, tokens = x.graph, dict(x.labeling)
    tag = data.draw(st.sampled_from(["copy", 7, ("t", 0)]))
    h = tagged_union([(tag, g)])
    h_tokens = None if tokens is None else {
        (tag, e): lab for e, lab in tokens.items()}
    warm_g = _plain(canonical_labelings(g, tokens))
    warm_h = _plain(canonical_labelings(h, h_tokens))
    assert warm_h == (warm_g[0], [
        ({(tag, e): i for e, i in el.items()},
         {(tag, v): i for v, i in vl.items()}) for el, vl in warm_g[1]])
    assert warm_g == _from_scratch(g, tokens)
    assert warm_h == _from_scratch(h, h_tokens)


def test_a_second_graph_of_one_shape_runs_no_refinement(monkeypatch):
    calls = []
    refine = graphs._refine
    monkeypatch.setattr(graphs, "_refine",
                        lambda *args: calls.append(1) or refine(*args))
    monkeypatch.setattr(graphs, "_SHAPES", {})
    canonical_labelings(theta())
    first = len(calls)
    canonical_labelings(tagged_union([("copy", theta())]))
    assert first > 0 and len(calls) == first


@pytest.mark.parametrize("token, other", [
    (1, True), (("a", 1), ("a", True)), (0, 0.0), (0.0, -0.0)])
def test_labelings_memo_tells_equal_tokens_of_other_types_apart(
        token, other, monkeypatch):
    monkeypatch.setattr(graphs, "_SHAPES", {})
    g = line(2)
    port = min(g.ports)
    first = canonical_labelings(g, {port: token})
    again = canonical_labelings(g, {port: token})   # a hit
    assert _plain(again) == _plain(first) and len(graphs._SHAPES) == 1
    second = canonical_labelings(g, {port: other})
    assert len(graphs._SHAPES) == 2   # a miss
    assert _plain(second) == _from_scratch(g, {port: other})
    assert _plain(first) == _from_scratch(g, {port: token})


# -- colour maps ---------------------------------------------------------------------

def test_colour_at_matches_colour_profile():
    S = TWO_ALG.species
    for n in range(4):
        for e in S.elements(n):
            a = Labeled(e, tuple(("p", i) for i in range(n)))
            for i, x in enumerate(a.labels):
                assert TWO_ALG.colour_at(a, x) == S.colour_of(e)[i]
            # the memo takes no part in equality, hashing or repr
            b = Labeled(e, a.labels)
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


# -- immutability --------------------------------------------------------------------

def test_graph_maps_are_read_only():
    g = wheel(2)
    e, h, v = min(g.edges), min(g.half_edges), min(g.vertices)
    with pytest.raises(TypeError):
        g.tau[e] = e
    with pytest.raises(TypeError):
        g.s[h] = e
    with pytest.raises(TypeError):
        g.t[h] = v


def test_telem_is_frozen():
    t = next(t for t in ELEMS if t.graph.vertices)
    e, v = next(iter(t.colours)), next(iter(t.vdec))
    with pytest.raises(TypeError):
        t.colours[e] = "+"
    with pytest.raises(TypeError):
        t.vdec[v] = t.vdec[v]
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.colours = {}


def test_labelings_handed_out_are_read_only():
    g = wheel(2)
    e, v = min(g.edges), min(g.vertices)
    cf = canonical_form(g)
    with pytest.raises(TypeError):
        cf.edge_index[e] = 0
    with pytest.raises(TypeError):
        cf.vertex_index[v] = 0
    _, labs = canonical_labelings(g)
    with pytest.raises(TypeError):
        labs[0][0][e] = 0
    copy = cf.edge_index.copy()
    copy[e] = -1
    assert canonical_form(g).edge_index[e] != -1
