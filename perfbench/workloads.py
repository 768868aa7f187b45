"""The four workloads: their inputs, the operations of one round, and the
checks on each operation's result.

`build(workload, seed)` is the set-up a user pays on every run: it builds
the species, algebras and corpus, and returns the operations of one round
as `Op`s.  Each op's `run` is the timed call into the library; its
`check` runs afterwards, outside the timed region, and returns
(ok, instances, observed):

- ok: the result passed the checks that need no oracle;
- instances: the amount of work done (checked counts, classes, maps);
- observed: numbers that the parent process compares with its
  brute-force oracles (see oracles.py), or None.

Library functions are looked up through their modules at call time, so
that the traced run sees the wrapped versions.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from typing import Any, Callable

from feyngraph import monads, species, substitution

import inputs
import oracles

# the package exports a function of the same name as this module
nerve = importlib.import_module("feyngraph.nerve")

# Bounds of each workload.  They sit below the acceptance criteria where a
# criterion takes minutes (see README.md) and above the tests for the
# enumeration.
LAW_BOUNDS = {
    "dt": dict(max_arity=2, max_vertices=2, max_valency=2),
    "ld": dict(max_arity=2, max_factors=2),
    "lt": dict(max_arity=2, max_vertices=1, max_valency=3, max_factors=2),
}
YB_BOUNDS = dict(max_arity=2, max_vertices=2, max_valency=2, max_factors=2)
T_COUNT_BOUNDS = (2, 3)          # vertices, valency of the T-element counts
ENUM_BOUNDS = ((3, 3, 3), (4, 2, 4))   # (labels, vertices, valency)

# `instances` of every op on the seed code.  They must not change with the
# seed, and a change that does less work shows here as a failed op.
EXPECTED_INSTANCES = {
    "distributive-laws": {
        "terminal/dt": 140, "terminal/ld": 61, "terminal/lt": 112,
        "terminal/yang-baxter": 51, "two-colour/dt": 220,
        "two-colour/ld": 238, "two-colour/lt": 298,
        "two-colour/yang-baxter": 163, "terminal/T-elements": 17},
    "free-algebra-axioms": {
        "terminal/circuit": 785, "terminal/modular": 146,
        "two-colour/circuit": 833, "two-colour/modular": 166,
        "mutant-box/circuit": 395, "mutant-zeta/circuit": 394},
    "nerve-segal": {
        "nerve/mono-tuple": 323, "nerve/two-tuple": 323, "nerve/parity": 323,
        "segal/mutants": 140, "fullness/mono-parity": 4,
        "fullness/parity-parity": 8},
    "graph-enumeration": {"enumerate(3, 3, 3)": 20, "enumerate(4, 2, 4)": 15},
}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple]


def _report_check(r):
    return (r["ok"] and not r["violations"], r["checked"], None)


def _rejected_check(r):
    return (not r["ok"] and bool(r["violations"]), r["checked"], None)


def oracle(workload: str) -> dict:
    """Expected `observed` values, by op name, from brute force."""
    if workload == "distributive-laws":
        nv, val = T_COUNT_BOUNDS
        return {"terminal/T-elements":
                [oracles.orbit_count(n, nv, val) for n in range(3)]}
    if workload == "graph-enumeration":
        return {f"enumerate{b}": oracles.raw_class_members(*b)
                for b in ENUM_BOUNDS}
    return {}


# -- distributive-laws ------------------------------------------------------------

def _distributive_laws(tag):
    K = species.TerminalSpecies(n_max=6)
    ops = []
    for label, S in (("terminal", K),
                     ("two-colour", inputs.two_colour_species(tag))):
        for law, bounds in LAW_BOUNDS.items():
            ops.append(Op(f"{label}/{law}",
                          lambda S=S, law=law, bounds=bounds:
                          monads.check_beck(law, S, **bounds),
                          _report_check))
        ops.append(Op(f"{label}/yang-baxter",
                      lambda S=S: monads.yang_baxter_sweep(S, **YB_BOUNDS),
                      _report_check))

    def t_elements():
        TS = monads.TSpecies(K, *T_COUNT_BOUNDS)
        return [len(TS.elements(n)) for n in range(3)]

    ops.append(Op("terminal/T-elements", t_elements,
                  lambda counts: (True, sum(counts), counts)))
    return ops


# -- free-algebra-axioms ----------------------------------------------------------

class Mutant(species.CircuitAlgebraOps):
    """A circuit algebra with one box, zeta or eps entry replaced.

    The mutated entry is recognised by arity first and by species key
    only on a match, so that the wrapper adds little to the checker's own
    cost."""

    def __init__(self, A, op, entry, value):
        self.base_alg, self.species, self.nonunital = A, A.species, A.nonunital
        self.op, self.value = op, value
        key = A.species.key
        if op == "box":
            self.arity = (A._arity(entry[0]), A._arity(entry[1]))
            self.entry = (key(entry[0]), key(entry[1]))
        elif op == "zeta":
            self.arity = A._arity(entry[0])
            self.entry = (key(entry[0]), entry[1], entry[2])
        else:
            self.entry = entry

    def box(self, a, b):
        A = self.base_alg
        if self.op == "box" and (A._arity(a), A._arity(b)) == self.arity \
                and (self.species.key(a), self.species.key(b)) == self.entry:
            return self.value
        return A.box(a, b)

    def zeta(self, a, i, j):
        A = self.base_alg
        if self.op == "zeta" and A._arity(a) == self.arity \
                and (self.species.key(a), i, j) == self.entry:
            return self.value
        return A.zeta(a, i, j)

    def eps(self, c):
        if self.op == "eps" and c == self.entry:
            return self.value
        return self.base_alg.eps(c)

    def unit0(self):
        return self.base_alg.unit0()


def _other(S, elems, good):
    """The first element of `elems` that differs from `good`."""
    return next(e for e in elems if S.key(e) != S.key(good))


def _mutants(A):
    """Two single-entry mutants of A that the circuit axioms at arity 1
    reject: box of the first arity-1 element with itself, and zeta(0, 1)
    on the first arity-3 element."""
    S = A.species
    a = S.elements(1)[0]
    x = next(e for e in S.elements(3) if A.zeta(e, 0, 1) is not None)
    return [
        ("box", Mutant(A, "box", (a, a), _other(S, S.elements(2), A.box(a, a)))),
        ("zeta", Mutant(A, "zeta", (x, 0, 1),
                        _other(S, S.elements(1), A.zeta(x, 0, 1)))),
    ]


def _free_algebra_axioms(tag):
    terminal = monads.FreeCircuitAlgebra(
        species.TerminalSpecies(n_max=4), max_vertices=2, max_valency=2,
        max_factors=2)
    two = monads.FreeCircuitAlgebra(
        inputs.tuple_algebra(inputs.two_palette(tag), 2).species,
        max_vertices=1, max_valency=2, max_factors=2)
    ops = []
    for label, A in (("terminal", terminal), ("two-colour", two)):
        ops.append(Op(f"{label}/circuit",
                      lambda A=A: species.check_circuit_axioms(A, max_arity=2),
                      _report_check))
        ops.append(Op(f"{label}/modular",
                      lambda A=A: species.check_modular_axioms(A, max_arity=2),
                      _report_check))
    for label, M in _mutants(terminal):
        ops.append(Op(f"mutant-{label}/circuit",
                      lambda M=M: species.check_circuit_axioms(M, max_arity=1),
                      _rejected_check))
    return ops


# -- nerve-segal --------------------------------------------------------------------

def _nerve_segal(tag):
    corpus = inputs.corpus14(tag)
    algebras = {
        "mono-tuple": (inputs.tuple_algebra(species.MONO, 6),
                       lambda g: 1),
        "two-tuple": (inputs.tuple_algebra(inputs.two_palette(tag), 6),
                      lambda g: 2 ** (len(g.edges) // 2)),
        "parity": (inputs.parity_algebra(6),
                   lambda g: 2 ** len(g.vertices)),
    }
    presheaves = {}
    ops = []

    def nerve_then_segal(label, A):
        # `feyngraph nerve --out` followed by `feyngraph segal`
        P = nerve.nerve(A, corpus)
        text = json.dumps(P.to_json(), sort_keys=True)
        Q = nerve.FinitePresheaf.from_json(json.loads(text))
        presheaves[label] = P
        return P, nerve.check_segal(Q)

    def nerve_check(closed_form, result):
        P, rep = result
        sizes_ok = all(len(P.sets[n]) == closed_form(g)
                       for n, g in corpus.items())
        ok = rep["ok"] and sizes_ok and len(rep["per_graph"]) == len(corpus)
        return ok, len(P.morphisms) + len(rep["per_graph"]), None

    for label, (A, closed_form) in algebras.items():
        ops.append(Op(f"nerve/{label}",
                      lambda label=label, A=A: nerve_then_segal(label, A),
                      lambda r, f=closed_form: nerve_check(f, r)))

    def mutants():
        return [nerve.check_segal(M)
                for _, M in nerve.mutated_presheaves(presheaves["parity"], 10)]

    def mutants_check(reps):
        failed = [r for r in reps
                  if not r["ok"] and any(not e["ok"]
                                         for e in r["per_graph"].values())]
        return (len(reps) == 10 and len(failed) == 10,
                sum(len(r["per_graph"]) for r in reps), None)

    ops.append(Op("segal/mutants", mutants, mutants_check))
    mono, parity = algebras["mono-tuple"][0], algebras["parity"][0]
    for label, (A, B, want) in {"mono-parity": (mono, parity, 2),
                                "parity-parity": (parity, parity, 4)}.items():
        ops.append(Op(f"fullness/{label}",
                      lambda A=A, B=B: nerve.fullness_probe(A, B, corpus, 4),
                      lambda r, want=want: (
                          r["ok"] and r["natural_transformations"] == want
                          and r["algebra_morphisms"] == want,
                          r["natural_transformations"]
                          + r["algebra_morphisms"], None)))
    return ops


# -- graph-enumeration --------------------------------------------------------------

def _graph_enumeration(tag):
    ops = []
    for bounds in ENUM_BOUNDS:
        n, nv, val = bounds
        labels = [f"{tag}{i}" for i in range(n)]

        def check(xs, labels=labels):
            ok = all(set(x.labeling.values()) == set(labels) for x in xs)
            return ok, len(xs), oracles.orbit_sum(xs)

        ops.append(Op(f"enumerate{bounds}",
                      lambda labels=labels, nv=nv, val=val:
                      substitution.enumerate_x_graphs(labels, nv, val),
                      check))
    return ops


WORKLOADS = {
    "distributive-laws": _distributive_laws,
    "free-algebra-axioms": _free_algebra_axioms,
    "nerve-segal": _nerve_segal,
    "graph-enumeration": _graph_enumeration,
}


def build(workload: str, seed: int) -> list:
    return WORKLOADS[workload](inputs.seed_tag(seed))
