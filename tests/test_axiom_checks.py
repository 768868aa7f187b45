"""The circuit and modular axiom checkers compute each box, contraction
and multiplication of their pool elements once per check.  These tests
compare their reports with the brute-force checkers in oracles.py, which
recompute every operation where it is used, and count the pool-level
operations of one check.  An operation or an eps that raises any of the
ill-formed errors fails the instances that need it, and the check goes
on."""

import collections
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feyngraph.cli import main
from feyngraph.errors import (FeynGraphError, FormatError,
                              InvalidGraphOfGraphs)
from feyngraph.monads import FreeCircuitAlgebra
from feyngraph.species import (TerminalSpecies, algebra_from_json,
                               check_circuit_axioms, check_modular_axioms)

from helpers_nerve import parity_algebra
from helpers_species import (MONO, TWO, Mutant, algebra_to_json,
                             mutation_candidates, tuple_algebra)
from oracles import brute_circuit_axioms, brute_modular_axioms


def free_terminal(cls=FreeCircuitAlgebra):
    return cls(TerminalSpecies(n_max=4), max_vertices=2, max_valency=2,
               max_factors=2)


def free_two_colour(cls=FreeCircuitAlgebra):
    return cls(tuple_algebra(TWO, 2).species, max_vertices=1, max_valency=2,
               max_factors=2)


def outcome(check, A, max_arity=None) -> str:
    """The report as canonical JSON, or the typed error the check raised."""
    try:
        return json.dumps(check(A, max_arity=max_arity), sort_keys=True)
    except FeynGraphError as exc:
        return f"raises {type(exc).__name__}: {exc}"


# -- the same reports as the oracles ------------------------------------------------

# criterion 7 checks the free algebras at these arities
ALGEBRAS = {
    "free-terminal": (free_terminal, 3, 2),
    "free-two-colour": (free_two_colour, 3, 2),
    "tuple-mono-4": (lambda: tuple_algebra(MONO, 4), None, None),
    "tuple-two-3": (lambda: tuple_algebra(TWO, 3), None, None),
    "parity-4": (lambda: parity_algebra(4), None, None),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_reports_equal_the_oracles(name):
    make, ca_arity, mo_arity = ALGEBRAS[name]
    A = make()
    assert outcome(check_circuit_axioms, A, ca_arity) == \
        outcome(brute_circuit_axioms, A, ca_arity)
    assert outcome(check_modular_axioms, A, mo_arity) == \
        outcome(brute_modular_axioms, A, mo_arity)


# sha256 of the 40 reports below, computed by the checkers that recomputed
# every operation where it was used (the ones copied into oracles.py)
MUTANT_REPORTS_SHA256 = \
    "31fc05bf7027f62ad7f19f9dad6ee7386fe7bc410817fb8fb4fef793cf0efca4"


def test_reports_on_the_criterion_7_mutants_are_pinned():
    A = free_terminal()
    reports = []
    for op, key, val in mutation_candidates(A, 20):
        M = Mutant(A, op, key, val)
        reports.append(check_circuit_axioms(M, max_arity=2))
        reports.append(check_modular_axioms(M, max_arity=2))
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MUTANT_REPORTS_SHA256


def free_reports(runs: int) -> list:
    """Both checkers' reports at arity 2 on criterion 7's free algebras,
    as one JSON text for each of `runs` runs on the same algebras."""
    algebras = [free_terminal(), free_two_colour()]
    return [json.dumps([check(A, max_arity=2) for A in algebras
                        for check in (check_circuit_axioms,
                                      check_modular_axioms)],
                       sort_keys=True) for _ in range(runs)]


def test_reports_do_not_depend_on_memos_or_the_hash_seed():
    """Permuted elements and keys are kept on the elements, and sort keys
    and labelings for the process: the reports read the same on a second
    run and in a fresh process under another PYTHONHASHSEED."""
    here = pathlib.Path(__file__).resolve().parent
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    run = subprocess.run(
        [sys.executable, "-c", "import test_axiom_checks as t; "
                               "print(t.free_reports(1)[0])"],
        env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    first, second = free_reports(2)
    assert first == second == run.stdout.strip()


def ill_coloured_mutants(A):
    """Every single-entry box mutant of A with one of the first two
    elements of the entry's arity, and every eps mutant with an element of
    arity 2: many give results of the wrong colours."""
    S = A.species
    for na in range(S.n_max + 1):
        for nb in range(S.n_max + 1 - na):
            for a in S.elements(na):
                for b in S.elements(nb):
                    for val in S.elements(na + nb)[:2]:
                        yield Mutant(A, "box", (a, b), val)
    for c in sorted(S.palette.colours):
        for val in S.elements(2):
            yield Mutant(A, "eps", c, val)


def test_ill_coloured_instances_are_reported_not_raised():
    """In 50 of these 210 checks an instance of C3, the eps law, M1 or
    Munit meets a ColourMismatch, and in 4 more one of M1, M3 or M4 does.
    Every check returns a report equal to the oracle's, and the 54 reports
    that record an error all fail."""
    reports = []
    for M in ill_coloured_mutants(tuple_algebra(TWO, 3)):
        for check, brute in ((check_circuit_axioms, brute_circuit_axioms),
                             (check_modular_axioms, brute_modular_axioms)):
            report = check(M)
            assert report == brute(M)
            reports.append(report)
    assert len(reports) == 210
    failed = [r for r in reports
              if any("ColourMismatch: " in w
                     for v in r["violations"] for w in v)]
    assert len(failed) == 54
    assert not any(r["ok"] for r in failed)


# (n_max, table, entry, axioms of the circuit check, of the modular
# check): a tuple algebra of TWO without that table entry, whose operation
# then raises FormatError, and the axioms whose instances meet it
UNDEFINED_ENTRIES = [
    (3, "box", "t:-|t:", {"C1", "C3", "commutativity", "unit"}, set()),
    (4, "zeta", "t:+,-,+,-|0|1", {"C2", "C3"}, {"M1", "M2", "M3"}),
]


@pytest.mark.parametrize("n_max, table, entry, circuit, modular",
                         UNDEFINED_ENTRIES)
def test_undefined_operations_are_reported_not_raised(
        n_max, table, entry, circuit, modular, tmp_path, capsys):
    data = algebra_to_json(tuple_algebra(TWO, n_max))
    del data[table][entry]
    A = algebra_from_json(data)
    for check, brute, axioms in (
            (check_circuit_axioms, brute_circuit_axioms, circuit),
            (check_modular_axioms, brute_modular_axioms, modular)):
        report = check(A)
        assert report == brute(A)
        assert {v[0] for v in report["violations"]} == axioms
        assert all(f"FormatError: {table} undefined" in v[-1]
                   for v in report["violations"])
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    assert main(["check-ca", str(path)]) == 1
    assert capsys.readouterr().out.endswith(
        f"RESULT fail n_checked={check_circuit_axioms(A)['checked']}\n")


def test_raising_products_are_judged_where_a_diamond_b_is_undefined():
    """Without the box entry (t:+,-, t:-), b <> c raises for b = t:+,-
    and c = t:-.  For a of arity 2 or 3, a <> b leaves the carrier
    (n_max 3) and is undefined, and M1 still judges, and fails, those
    instances, one for each "+" position x of such an a: 4 of arity 2
    and 12 of arity 3."""
    data = algebra_to_json(tuple_algebra(TWO, 3))
    del data["box"]["t:+,-|t:-"]
    A = algebra_from_json(data)
    report = check_modular_axioms(A)
    assert report == brute_modular_axioms(A)
    S = A.species
    arity = {repr(e): n for n in range(S.n_max + 1) for e in S.elements(n)}
    undefined_head = [v for v in report["violations"] if v[0] == "M1"
                      and v[2] == repr("t:+,-") and arity[v[1]] >= 2]
    assert len(undefined_head) == 16
    assert all(v[-1] == repr("FormatError: box undefined on "
                             "('t:+,-', 't:-')") for v in undefined_head)


class EpsRaises(FreeCircuitAlgebra):
    """A free algebra whose eps is undefined on every colour."""

    def eps(self, c):
        raise FormatError(f"no stick of colour {c!r}")


class ZetaRaisesAcrossFactors(FreeCircuitAlgebra):
    """A free algebra whose contraction of a two-factor element reports a
    graph of graphs it cannot build."""

    def zeta(self, a, i, j):
        if len(a) == 2:
            raise InvalidGraphOfGraphs("cannot glue across two factors")
        return super().zeta(a, i, j)


def kinds(report) -> dict:
    return dict(collections.Counter(v[0] for v in report["violations"]))


def test_an_eps_that_raises_is_reported_not_raised():
    """Every instance of the eps law, of eps-omega and of Munit needs eps:
    each is counted and fails with the error, and the other axioms are
    judged as on the sound algebra (785 and 146 instances)."""
    A = free_terminal(EpsRaises)
    circuit = check_circuit_axioms(A, max_arity=2)
    assert not circuit["ok"] and circuit["checked"] == 833
    assert kinds(circuit) == {"eps": 40, "eps-omega": 1}
    modular = check_modular_axioms(A, max_arity=2)
    assert not modular["ok"] and modular["checked"] == 194
    assert kinds(modular) == {"Munit": 40}
    message = repr("FormatError: no stick of colour '*'")
    assert all(v[-1] == message
               for r in (circuit, modular) for v in r["violations"])


def test_an_invalid_graph_of_graphs_is_reported_not_raised():
    """InvalidGraphOfGraphs is ill-formed output, as ColourMismatch and
    FormatError are: a contraction that raises it fails the instances
    that need it, and the sweep goes on."""
    A = free_terminal(ZetaRaisesAcrossFactors)
    circuit = check_circuit_axioms(A, max_arity=2)
    assert not circuit["ok"] and circuit["checked"] == 788
    assert kinds(circuit) == {"C3": 37, "eps": 8}
    modular = check_modular_axioms(A, max_arity=2)
    assert not modular["ok"] and modular["checked"] == 5036
    assert kinds(modular) == {"M1": 3456, "M4": 36, "Munit": 8}
    message = repr("InvalidGraphOfGraphs: cannot glue across two factors")
    assert all(v[-1] == message
               for r in (circuit, modular) for v in r["violations"])


class CountingZetaRaises(ZetaRaisesAcrossFactors):
    """ZetaRaisesAcrossFactors, counting its zeta calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.zeta_calls = 0

    def zeta(self, a, i, j):
        self.zeta_calls += 1
        return super().zeta(a, i, j)


def test_an_operation_that_raises_is_computed_once():
    """A contraction that raises is kept with its error, as one that
    returns is kept with its result: 120 zeta calls, where 5,148 were
    made when every instance that needed a raising one computed it again.
    The report is the one those checkers gave."""
    A = free_terminal(CountingZetaRaises)
    report = check_modular_axioms(A, max_arity=2)
    assert A.zeta_calls == 120
    assert report["checked"] == 5036
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()) \
        .hexdigest() == ("9697d508ed98e4e47fa2180f2247afc8"
                         "c5f7ebfa0287a958ab5f7889a4f263b7")


class GlueError(InvalidGraphOfGraphs):
    """An error whose text is written from an argument other than it."""

    def __init__(self, a):
        super().__init__(f"cannot glue across {len(a)} factors")


class PairError(InvalidGraphOfGraphs):
    """An error whose __init__ takes two arguments."""

    def __init__(self, i, j):
        super().__init__(f"cannot glue {i} to {j} across factors")


class ZetaRaisesUnrebuildable(CountingZetaRaises):
    """CountingZetaRaises, raising an error that its args would not rebuild:
    GlueError, or PairError for the contraction of ports 0 and 1."""

    def zeta(self, a, i, j):
        self.zeta_calls += 1
        if len(a) == 2:
            raise PairError(i, j) if (i, j) == (0, 1) else GlueError(a)
        return FreeCircuitAlgebra.zeta(self, a, i, j)


def test_an_error_its_args_do_not_rebuild_is_raised_again():
    """A kept error is raised again as it is, not rebuilt from its args:
    an error type whose __init__ takes other arguments, or writes its
    text from them, is kept as any other, so the contraction runs once
    (120 calls), the sweep is not aborted, and each instance reports the
    error that its contraction raised."""
    A = free_terminal(ZetaRaisesUnrebuildable)
    report = check_modular_axioms(A, max_arity=2)
    assert A.zeta_calls == 120
    assert report["checked"] == 5036
    assert kinds(report) == {"M1": 3456, "M4": 36, "Munit": 8}
    texts = {v[-1] for v in report["violations"]}
    assert repr("GlueError: cannot glue across 2 factors") in texts
    assert texts <= {repr("GlueError: cannot glue across 2 factors"),
                     repr("PairError: cannot glue 0 to 1 across factors")}


SMALL = [tuple_algebra(TWO, 3), parity_algebra(4)]


@st.composite
def mutants(draw):
    """One box, zeta or eps entry of a small table algebra replaced by an
    element of the same arity, chosen at random (possibly the same one,
    possibly one of other colours)."""
    A = draw(st.sampled_from(SMALL))
    S = A.species

    def elem(n):
        return draw(st.sampled_from(S.elements(n)))

    op = draw(st.sampled_from(["box", "zeta", "eps"]))
    if op == "box":
        na = draw(st.integers(0, S.n_max))
        nb = draw(st.integers(0, S.n_max - na))
        return Mutant(A, op, (elem(na), elem(nb)), elem(na + nb))
    if op == "zeta":
        n = draw(st.integers(2, S.n_max))
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        return Mutant(A, op, (elem(n), i, j), elem(n - 2))
    colour = draw(st.sampled_from(sorted(S.palette.colours)))
    return Mutant(A, op, colour, elem(2))


@settings(max_examples=60, deadline=None)
@given(M=mutants())
def test_reports_on_random_mutants_equal_the_oracles(M):
    assert outcome(check_circuit_axioms, M) == \
        outcome(brute_circuit_axioms, M)
    assert outcome(check_modular_axioms, M) == \
        outcome(brute_modular_axioms, M)


# -- each pool-level operation once -------------------------------------------------

class CountingFreeAlgebra(FreeCircuitAlgebra):
    """A free circuit algebra that counts its labelled box and contraction
    calls on pool elements, and its contractions of their boxes.

    A pool element is a labelled element whose element object came out of
    species.elements, as the pools of a check do; pool elements and boxes
    are told apart by identity and kept alive, so no id is reused."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = collections.Counter()
        self._kept = []
        self._elems = set()
        self._products = {}   # id of the box of two pool elements -> pair
        elements = self.species.elements

        def recording(n):
            out = elements(n)
            self._kept.extend(out)
            self._elems.update(map(id, out))
            return out

        self.species.elements = recording

    def _pooled(self, *labelled):
        return all(id(a.elem) in self._elems for a in labelled)

    def lab_box(self, a, b):
        r = super().lab_box(a, b)
        if self._pooled(a, b):
            self._kept += [a, b, r]
            self.calls["box", id(a), id(b)] += 1
            if r is not None:
                self._products[id(r)] = (id(a), id(b))
        return r

    def lab_zeta(self, a, x, y):
        if self._pooled(a):
            self._kept.append(a)
            self.calls["zeta", id(a), x, y] += 1
        elif id(a) in self._products:
            self.calls["diamond", self._products[id(a)], x, y] += 1
        return super().lab_zeta(a, x, y)


@pytest.mark.parametrize("make", [free_terminal, free_two_colour])
@pytest.mark.parametrize("check, kinds", [
    (check_circuit_axioms, {"box", "zeta"}),
    # at arity 2 no pool element has two disjoint contractible pairs
    (check_modular_axioms, {"box", "diamond"})])
def test_each_pool_level_operation_is_computed_once(make, check, kinds):
    A = make(CountingFreeAlgebra)
    check(A, max_arity=2)
    assert kinds <= {key[0] for key in A.calls}
    repeated = {key[0]: n for key, n in A.calls.items() if n > 1}
    assert not repeated, f"computed more than once: {repeated}"
