"""The benchmark's inputs: species, finite circuit algebras and the graph
corpus of the acceptance criteria, rebuilt here so that the benchmark
does not depend on the test suite.

The seed only renames ids.  Every renaming keeps the relative order of
the ids it touches (a common prefix or a common tag), so the amount of
work, the counts and the verdicts do not depend on the seed.
"""

from __future__ import annotations

import itertools
import random
import string

from feyngraph import graphs, species


def seed_tag(seed: int) -> str:
    """A short lower-case word drawn from the seed."""
    rng = random.Random(seed)
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(6))


def two_palette(tag: str) -> species.Palette:
    """Two colours swapped by omega; named so that their order is that of
    '+' and '-'."""
    plus, minus = f"{tag}+", f"{tag}-"
    return species.Palette(frozenset({plus, minus}), {plus: minus, minus: plus})


def two_colour_species(tag: str) -> species.TableSpecies:
    """Criterion 6's species: two elements per arity up to 3, one per
    colour, constant colour profile, trivial action."""
    pal = two_palette(tag)
    plus, minus = sorted(pal.colours)
    arity, colour_of, action = {}, {}, {}
    for n in range(4):
        arity[n] = [f"x{n}.{tag}", f"y{n}.{tag}"]
        for c, e in zip((plus, minus), arity[n]):
            colour_of[e] = (c,) * n
            for i in range(n - 1):
                action[(e, i)] = e
    return species.TableSpecies(pal, arity, colour_of, action)


def tuple_algebra(palette: species.Palette, n_max: int):
    """S_n = C^n named by colour tuples; box concatenates, zeta deletes a
    matched pair, eps(c) = (c, omega c).  Every axiom holds."""
    colours = sorted(palette.colours, key=repr)

    def name(tup):
        return "t:" + ",".join(tup)

    tuples = [tup for n in range(n_max + 1)
              for tup in itertools.product(colours, repeat=n)]
    arity = {n: [name(t) for t in tuples if len(t) == n]
             for n in range(n_max + 1)}
    colour_of = {name(t): t for t in tuples}
    action = {(name(t), i): name(t[:i] + (t[i + 1], t[i]) + t[i + 2:])
              for t in tuples for i in range(len(t) - 1)}
    box = {(name(a), name(b)): name(a + b)
           for a in tuples for b in tuples if len(a) + len(b) <= n_max}
    zeta = {}
    for t in tuples:
        for i, j in itertools.combinations(range(len(t)), 2):
            if t[i] == palette.omega[t[j]]:
                zeta[(name(t), i, j)] = name(
                    tuple(c for k, c in enumerate(t) if k not in (i, j)))
    eps = {c: name((c, palette.omega[c])) for c in colours}
    return species.FiniteCircuitAlgebra(
        species.TableSpecies(palette, arity, colour_of, action),
        box, zeta, eps, external_unit=name(()))


def parity_algebra(n_max: int):
    """S_n = Z/2 with trivial action; box adds parities, zeta keeps them,
    eps and the external unit are even."""
    arity = {n: [("p", n, 0), ("p", n, 1)] for n in range(n_max + 1)}
    elems = [e for es in arity.values() for e in es]
    colour_of = {e: ("*",) * e[1] for e in elems}
    action = {(e, i): e for e in elems for i in range(e[1] - 1)}
    box = {(("p", n, a), ("p", m, b)): ("p", n + m, (a + b) % 2)
           for n in range(n_max + 1) for m in range(n_max + 1 - n)
           for a in (0, 1) for b in (0, 1)}
    zeta = {(("p", n, a), i, j): ("p", n - 2, a)
            for n in range(2, n_max + 1) for a in (0, 1)
            for i, j in itertools.combinations(range(n), 2)}
    return species.FiniteCircuitAlgebra(
        species.TableSpecies(species.MONO, arity, colour_of, action),
        box, zeta, {"*": ("p", 2, 0)}, external_unit=("p", 0, 0))


def _from_edge_pairs(pairs, vertex_of):
    """A graph from its tau-orbits; vertex_of maps each inner edge to its
    vertex (its half-edge is ("h", edge))."""
    tau = {}
    for a, b in pairs:
        tau[a], tau[b] = b, a
    halves = [("h", e) for e in vertex_of]
    return graphs.FeynmanGraph(
        list(tau), tau, halves, {("h", e): e for e in vertex_of},
        {("h", e): v for e, v in vertex_of.items()},
        sorted(set(vertex_of.values())))


def theta():
    """Two trivalent vertices joined by three parallel edges."""
    pairs = [(("e", i, 0), ("e", i, 1)) for i in range(3)]
    return _from_edge_pairs(pairs, {e: ("v", k) for pair in pairs
                                    for k, e in enumerate(pair)})


def dumbbell():
    """Two loops joined by a bridge; both vertices trivalent."""
    pairs = [(("l", v, 0), ("l", v, 1)) for v in (0, 1)] + [(("m", 0), ("m", 1))]
    vertex_of = {e: ("v", e[1]) for pair in pairs[:2] for e in pair}
    vertex_of.update({("m", 0): ("v", 0), ("m", 1): ("v", 1)})
    return _from_edge_pairs(pairs, vertex_of)


def corpus14(tag: str) -> dict:
    """Criterion 8's element-closed corpus.  The stick and the corollas
    keep the library's own ids, because the nerve finds its element
    graphs by equality of presentations; every other graph has its ids
    wrapped as (tag, id)."""
    c = graphs.corolla
    fixed = {"stick": graphs.stick(), "corolla0": c([]), "corolla1": c([0]),
             "corolla2": c([0, 1]), "corolla3": c([0, 1, 2])}
    renamed = {
        "wheel1": graphs.wheel(1), "wheel2": graphs.wheel(2),
        "wheel3": graphs.wheel(3), "line1": graphs.line(1),
        "line2": graphs.line(2), "theta": theta(), "dumbbell": dumbbell(),
        "cc1": graphs.disjoint_union(c([0]), c([0])),
        "cc12": graphs.disjoint_union(c([0]), c([0, 1])),
    }
    return {**fixed, **{name: g.tagged(tag) for name, g in renamed.items()}}
