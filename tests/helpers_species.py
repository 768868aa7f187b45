"""Shared fixtures: explicit finite circuit algebras built as tables.

The tuple algebra has S_n = C^n with elements named by their colour
tuples; box is concatenation, zeta deletes a matched pair, eps(c) is the
pair (c, omega c).  Every axiom holds by construction, so it doubles as a
known-good input for the checkers and for mutation fixtures.
"""

import itertools

from feyngraph.species import (CircuitAlgebraOps, FiniteCircuitAlgebra,
                               Palette, TableSpecies)


def _name(tup):
    return "t:" + ",".join(str(c) for c in tup)


def tuple_algebra(palette: Palette, n_max: int) -> FiniteCircuitAlgebra:
    colours = sorted(palette.colours, key=repr)
    arity = {}
    colour_of = {}
    tup_of = {}
    for n in range(n_max + 1):
        es = []
        for tup in itertools.product(colours, repeat=n):
            e = _name(tup)
            es.append(e)
            colour_of[e] = tup
            tup_of[e] = tup
        arity[n] = es
    action = {}
    for e, tup in tup_of.items():
        for i in range(len(tup) - 1):
            swapped = tup[:i] + (tup[i + 1], tup[i]) + tup[i + 2:]
            action[(e, i)] = _name(swapped)
    species = TableSpecies(palette, arity, colour_of, action)
    box = {}
    for a, ta in tup_of.items():
        for b, tb in tup_of.items():
            if len(ta) + len(tb) <= n_max:
                box[(a, b)] = _name(ta + tb)
    zeta = {}
    for a, ta in tup_of.items():
        for i in range(len(ta)):
            for j in range(i + 1, len(ta)):
                if ta[i] == palette.omega[ta[j]]:
                    rest = tuple(c for k, c in enumerate(ta) if k not in (i, j))
                    zeta[(a, i, j)] = _name(rest)
    eps = {c: _name((c, palette.omega[c])) for c in colours}
    return FiniteCircuitAlgebra(species, box, zeta, eps,
                                external_unit=_name(()))


MONO = Palette(frozenset({"*"}), {"*": "*"})
TWO = Palette(frozenset({"+", "-"}), {"+": "-", "-": "+"})


def algebra_to_json(A: FiniteCircuitAlgebra) -> dict:
    S = A.species
    data = {
        "palette": {"colours": sorted(S.palette.colours, key=repr),
                    "omega": {c: S.palette.omega[c]
                              for c in sorted(S.palette.colours, key=repr)}},
        "arity": {str(n): list(es) for n, es in S.arity_sets.items()},
        "colour_of": {e: list(S.colour_of(e))
                      for es in S.arity_sets.values() for e in es},
        "action": {f"{e}|{i}": v for (e, i), v in S._swap.items()},
        "box": {f"{a}|{b}": v for (a, b), v in A._box.items()},
        "zeta": {f"{e}|{i}|{j}": v for (e, i, j), v in A._zeta.items()},
        "eps": dict(A._eps),
        "external_unit": A._unit,
    }
    return data


class Mutant(CircuitAlgebraOps):
    """A circuit algebra with exactly one operation-table entry replaced."""

    def __init__(self, A, op, key, val):
        self.base_alg = A
        self.species = A.species
        self.nonunital = A.nonunital
        self.op, self.val = op, val
        # elements are compared through the species key: enumeration may
        # rebuild structurally equal elements as distinct objects
        if op == "box":
            self.key_ = (A.species.key(key[0]), A.species.key(key[1]))
        elif op == "zeta":
            self.key_ = (A.species.key(key[0]), key[1], key[2])
        else:
            self.key_ = key

    def box(self, a, b):
        if self.op == "box" and \
                (self.species.key(a), self.species.key(b)) == self.key_:
            return self.val
        return self.base_alg.box(a, b)

    def zeta(self, a, i, j):
        if self.op == "zeta" and \
                (self.species.key(a), i, j) == self.key_:
            return self.val
        return self.base_alg.zeta(a, i, j)

    def eps(self, c):
        if self.op == "eps" and c == self.key_:
            return self.val
        return self.base_alg.eps(c)

    def unit0(self):
        return self.base_alg.unit0()


def mutation_candidates(A, want):
    """The first `want` single-entry mutations in a canonical order: box,
    zeta and eps entries whose value is swapped for a different element of
    the same arity."""
    S = A.species
    out = []

    def alts(good, n):
        return [e for e in S.elements(n)
                if S.key(e) != S.key(good)]

    for na, nb in [(1, 1), (1, 2), (2, 1), (0, 2), (2, 2)]:
        for a in S.elements(na):
            for b in S.elements(nb):
                good = A.box(a, b)
                if good is None:
                    continue
                for bad in alts(good, na + nb)[:1]:
                    out.append(("box", (a, b), bad))
    om = S.palette.omega
    for n in (2, 3):
        for a in S.elements(n):
            cols = S.colour_of(a)
            for i in range(n):
                for j in range(i + 1, n):
                    if cols[i] != om[cols[j]]:
                        continue
                    good = A.zeta(a, i, j)
                    if good is None:
                        continue
                    for bad in alts(good, n - 2)[:1]:
                        out.append(("zeta", (a, i, j), bad))
    for c in sorted(S.palette.colours, key=repr):
        good = A.eps(c)
        for bad in alts(good, 2)[:1]:
            out.append(("eps", c, bad))
    return out[:want]
