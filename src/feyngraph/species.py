"""Finite graphical species, evaluation on graphs, and circuit/modular
algebra structures with exhaustive axiom checkers.

A species assigns to each arity n a finite set of elements with a colour
tuple and a right permutation action.  Evaluation on a graph produces all
decorations: an edge colouring compatible with the palette involution and
an element at each vertex whose colours match the incident edges.

Axiom checking works with labeled elements (positions named by arbitrary
ids) so that all index bookkeeping lives in one place.  Every axiom and
law checker of the library, here and in monads.py, runs its instances
through one sweep, _sweep: each axiom is a law over a stream of
instances, and the sweep counts them, notes the failures and reports an
instance whose output is ill-formed (_ILL_FORMED) without aborting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from .errors import (
    ColourMismatch,
    FeynGraphError,
    FormatError,
    GraphInvariantError,
    InvalidGraphOfGraphs,
    OutOfBounds,
    ValencyOutOfRange,
    require_nonnegative,
)
from .graphs import FeynmanGraph, idkey, pairs_text, sort_ids


@dataclass(frozen=True)
class Palette:
    colours: frozenset
    omega: Mapping[Any, Any]

    def __post_init__(self):
        object.__setattr__(self, "colours", frozenset(self.colours))
        om = dict(self.omega)
        if set(om) != set(self.colours):
            raise FormatError("omega must be defined on exactly the colours")
        for c in self.colours:
            if om[om[c]] != c:
                raise FormatError("omega must be an involution")
        object.__setattr__(self, "omega", om)


MONO = Palette(frozenset({"*"}), {"*": "*"})


class SpeciesOps:
    """Minimal interface: elements per arity, colours, right action."""

    palette: Palette
    n_max: int

    def elements(self, n: int) -> Sequence:
        raise NotImplementedError

    def colour_of(self, elem) -> tuple:
        raise NotImplementedError

    def act(self, elem, sigma: tuple):
        """Right action; colour_of(act(e, sigma))[i] == colour_of(e)[sigma[i]]."""
        raise NotImplementedError

    def arity(self, elem) -> int:
        return len(self.colour_of(elem))

    def key(self, elem):
        """Hashable identity of an element (overridden where elements are
        graph-valued and equality is by canonical form)."""
        return elem

    def key_text(self, elem) -> str:
        """The text of key(elem), the one way an element is written in
        keys and transcripts (TSpecies keeps it on the element)."""
        return repr(self.key(elem))


class TableSpecies(SpeciesOps):
    """A species given by explicit finite tables.

    Element ids must be globally unique (across arities).  The action is
    stored for generating transpositions and composed on demand.
    """

    def __init__(self, palette: Palette, arity_sets: Mapping[int, Sequence],
                 colour_of: Mapping[Any, Sequence],
                 action: Optional[Mapping] = None):
        self.palette = palette
        self.arity_sets = {int(n): list(es) for n, es in arity_sets.items()}
        self.n_max = max(self.arity_sets, default=0)
        self._colour = {e: tuple(colour_of[e])
                        for es in self.arity_sets.values() for e in es}
        all_elems = [e for es in self.arity_sets.values() for e in es]
        if len(set(all_elems)) != len(all_elems):
            raise FormatError("element ids must be globally unique")
        for n, es in self.arity_sets.items():
            for e in es:
                if len(self._colour[e]) != n:
                    raise FormatError(f"element {e!r} must have {n} colours")
                if any(c not in palette.colours for c in self._colour[e]):
                    raise FormatError(f"element {e!r} uses unknown colours")
        # action[(elem, i)] = elem acted by the transposition (i, i+1), 0-based
        self._swap = dict(action or {})
        self._check_action()

    def _check_action(self):
        for n, es in self.arity_sets.items():
            for e in es:
                for i in range(n - 1):
                    f = self._swap.get((e, i))
                    if f is None:
                        if len(es) == 1:
                            self._swap[(e, i)] = e
                            f = e
                        else:
                            raise FormatError(
                                f"missing action of transposition {i} on {e!r}")
                    if f not in es:
                        raise FormatError("action must preserve arity")
                    col = self._colour[e]
                    want = col[:i] + (col[i + 1], col[i]) + col[i + 2:]
                    if self._colour[f] != want:
                        raise FormatError(
                            f"action on {e!r} at {i} is not colour-equivariant")
        # involutivity of generators
        for (e, i), f in list(self._swap.items()):
            if self._swap.get((f, i)) != e:
                raise FormatError("transposition action must be involutive")

    def elements(self, n):
        return list(self.arity_sets.get(n, []))

    def colour_of(self, elem):
        return self._colour[elem]

    def act(self, elem, sigma):
        n = len(sigma)
        if tuple(sigma) == tuple(range(n)):
            return elem
        # decompose sigma into adjacent transpositions (bubble sort);
        # applying them right-to-left realizes the right action.
        perm = list(sigma)
        e = elem
        # selection: repeatedly swap adjacent out-of-order entries of the
        # identity until it becomes sigma, acting on e along the way.
        cur = list(range(n))
        while cur != perm:
            for i in range(n - 1):
                # find a transposition moving cur closer to perm
                if cur[i] != perm[i]:
                    j = cur.index(perm[i])
                    while j > i:
                        cur[j - 1], cur[j] = cur[j], cur[j - 1]
                        e = self._swap[(e, j - 1)]
                        j -= 1
                    break
        return e


class TerminalSpecies(SpeciesOps):
    """One element per arity, monochrome."""

    def __init__(self, n_max: int = 8):
        require_nonnegative("TerminalSpecies", n_max=n_max)
        self.palette = MONO
        self.n_max = n_max

    def elements(self, n):
        return [("k", n)] if 0 <= n <= self.n_max else []

    def colour_of(self, elem):
        return ("*",) * elem[1]

    def act(self, elem, sigma):
        return elem


# -- evaluation ------------------------------------------------------------------

@dataclass(frozen=True)
class Decoration:
    """An S-decoration of a graph g: a colour on each edge and an element
    at each vertex v, whose positions are read in g.halves_at(v)."""
    edge_colours: Mapping[Any, Any]
    vertex_elems: Mapping[Any, Any]
    species: SpeciesOps = field(repr=False)  # of the vertex elements
    _key: Optional[tuple] = field(default=None, init=False, repr=False,
                                  compare=False)

    def key(self):
        """Edge colours and vertex elements; an element is told apart by
        its species key text.  Kept on the decoration, whose maps no
        caller changes once it is built."""
        if self._key is None:
            object.__setattr__(self, "_key", (
                pairs_text(self.edge_colours.items(), repr),
                pairs_text(self.vertex_elems.items(), self.species.key_text)))
        return self._key

    def __eq__(self, other):
        return isinstance(other, Decoration) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def evaluate_species(S: SpeciesOps, g: FeynmanGraph) -> list:
    """All S-decorations of g.

    The colour at position i of the element at v is the colour of the
    edge arriving at v through the i-th half-edge, i.e. colour(tau s(h_i))
    for h_i the i-th half of g.halves_at(v).
    """
    for v in g.vertices:
        if g.valency(v) > S.n_max:
            raise ValencyOutOfRange(f"valency of {v!r} exceeds the species bound")
    omega = S.palette.omega
    orbit_reps = [e for e, _ in g.orbits()]   # e precedes tau e in idkey order
    results = []

    def extend_edges(i, colouring):
        if i == len(orbit_reps):
            results.append(dict(colouring))
            return
        e = orbit_reps[i]
        for c in sort_ids(S.palette.colours):
            colouring[e] = c
            colouring[g.tau[e]] = omega[c]
            extend_edges(i + 1, colouring)

    extend_edges(0, {})
    decorations = []
    for colouring in results:
        choices = []
        ok = True
        for v in sort_ids(g.vertices):
            want = tuple(colouring[g.tau[g.s[h]]] for h in g.halves_at(v))
            opts = [x for x in S.elements(len(want)) if S.colour_of(x) == want]
            if not opts:
                ok = False
                break
            choices.append((v, opts))
        if not ok:
            continue
        for combo in itertools.product(*(opts for _, opts in choices)):
            decorations.append(Decoration(
                dict(colouring),
                {v: x for (v, _), x in zip(choices, combo)}, S))
    return decorations


# -- labeled elements --------------------------------------------------------------

@dataclass(frozen=True)
class Labeled:
    """An element together with distinct names for its positions.

    CircuitAlgebraOps.colour_at keeps the element's {label: colour} map
    here, for the species it was computed with."""
    elem: Any
    labels: tuple
    _colours: Optional[tuple] = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise FormatError("position labels must be distinct")


class CircuitAlgebraOps:
    """Interface for circuit-algebra structure over a SpeciesOps.

    box/zeta return None when the result would exceed the carrier bounds;
    zeta raises ColourMismatch off its colour-matched domain.

    box, zeta and eps must be deterministic: an axiom check computes box
    and zeta once for each argument tuple drawn from its pool of elements
    and reuses the result wherever the axioms need it.
    """

    species: SpeciesOps
    nonunital: bool = False

    def box(self, a, b):
        raise NotImplementedError

    def zeta(self, a, i: int, j: int):
        raise NotImplementedError

    def eps(self, c):
        raise NotImplementedError

    def unit0(self):
        raise NotImplementedError

    # labeled wrappers ----------------------------------------------------
    def lab(self, elem, labels) -> Labeled:
        return Labeled(elem, tuple(labels))

    def lab_normalize(self, a: Labeled) -> Labeled:
        order = sorted(range(len(a.labels)), key=lambda i: idkey(a.labels[i]))
        sigma = tuple(order)
        return Labeled(self.species.act(a.elem, sigma),
                       tuple(a.labels[i] for i in order))

    def lab_eq(self, a: Labeled, b: Labeled) -> bool:
        if set(a.labels) != set(b.labels):
            return False
        return self.species.key(self.lab_normalize(a).elem) == \
            self.species.key(self.lab_normalize(b).elem)

    def lab_box(self, a: Labeled, b: Labeled) -> Optional[Labeled]:
        r = self.box(a.elem, b.elem)
        if r is None:
            return None
        return Labeled(r, a.labels + b.labels)

    def lab_zeta(self, a: Labeled, x, y) -> Optional[Labeled]:
        i, j = a.labels.index(x), a.labels.index(y)
        if i > j:
            i, j = j, i
        r = self.zeta(a.elem, i, j)
        if r is None:
            return None
        rest = tuple(l for k, l in enumerate(a.labels) if k not in (i, j))
        return Labeled(r, rest)

    def lab_rename(self, a: Labeled, mapping: Mapping) -> Labeled:
        return Labeled(a.elem, tuple(mapping.get(l, l) for l in a.labels))

    def colour_at(self, a: Labeled, x):
        memo = a._colours
        if memo is None or memo[0] is not self.species:
            memo = (self.species,
                    dict(zip(a.labels, self.species.colour_of(a.elem))))
            object.__setattr__(a, "_colours", memo)
        return memo[1][x]


class FiniteCircuitAlgebra(CircuitAlgebraOps):
    """Circuit algebra given by explicit tables over a TableSpecies."""

    def __init__(self, species: TableSpecies, box_table: Mapping,
                 zeta_table: Mapping, eps_table: Mapping,
                 external_unit=None, nonunital: bool = False):
        self.species = species
        self._box = dict(box_table)
        self._zeta = dict(zeta_table)
        self._eps = dict(eps_table)
        self._unit = external_unit
        self.nonunital = nonunital
        if not nonunital and external_unit is None:
            raise FormatError("a unital circuit algebra needs an external unit")
        for c in species.palette.colours:
            if c not in self._eps:
                raise FormatError(f"eps missing at colour {c!r}")
            col = species.colour_of(self._eps[c])
            if col != (c, species.palette.omega[c]):
                raise FormatError(f"eps({c!r}) must have colours (c, omega c)")

    def box(self, a, b):
        n = self.species.arity(a) + self.species.arity(b)
        if n > self.species.n_max:
            return None
        try:
            return self._box[(a, b)]
        except KeyError:
            raise FormatError(f"box undefined on ({a!r}, {b!r})")

    def zeta(self, a, i, j):
        col = self.species.colour_of(a)
        if col[i] != self.species.palette.omega[col[j]]:
            raise ColourMismatch(
                f"zeta needs colours c, omega c at positions {i}, {j}")
        try:
            return self._zeta[(a, i, j)]
        except KeyError:
            raise FormatError(f"zeta undefined on ({a!r}, {i}, {j})")

    def eps(self, c):
        return self._eps[c]

    def unit0(self):
        if self.nonunital:
            raise OutOfBounds("nonunital algebra has no external unit")
        return self._unit


# -- axiom checkers ---------------------------------------------------------------

# the errors by which an operation or a law shows that its output is
# ill-formed: ill-coloured, undefined, an invalid graph of graphs or a
# broken graph invariant.  An instance that meets one violates its axiom;
# the sweep records it and goes on
_ILL_FORMED = (ColourMismatch, FormatError, InvalidGraphOfGraphs,
               GraphInvariantError)


def _attempt(op, *args) -> tuple:
    """(op(*args), None), or (None, the error) when op is ill-formed."""
    try:
        return op(*args), None
    except _ILL_FORMED as exc:
        return None, exc


def _sweep(axioms, witnesses: Callable) -> dict:
    """The report of every axiom (name, instances, law) of an exhaustive
    check: {"ok": bool, "violations": [...], "checked": int}.

    law(*args) judges the instance args, for each args of instances.  It
    returns True when the instance holds, None when a side is undefined,
    so that the instance is not counted, and False or a tuple of
    witnesses when it fails.  A failing instance is noted under name with
    that tuple, or with witnesses(*args) for False, each witness written
    by repr.  An instance whose law raises one of _ILL_FORMED is counted
    and noted with witnesses(*args) and the error, and the sweep goes on,
    so that every violation is reported."""
    violations, checked = set(), 0
    for name, instances, law in axioms:
        for args in instances:
            try:
                verdict = law(*args)
            except _ILL_FORMED as exc:
                verdict = witnesses(*args) + (f"{type(exc).__name__}: {exc}",)
            if verdict is None:
                continue
            checked += 1
            if verdict is not True:
                if verdict is False:
                    verdict = witnesses(*args)
                violations.add((name,) + tuple(map(repr, verdict)))
    return {"ok": not violations, "violations": sorted(violations),
            "checked": checked}


def _pool_witnesses(*args) -> tuple:
    """The witnesses of an axiom instance: a pool element is written as its
    element, any other argument as it is."""
    return tuple(a.elem if isinstance(a, Labeled) else a for a in args)


def _verdict(A: CircuitAlgebraOps, lhs, rhs) -> Optional[bool]:
    """lhs = rhs as labelled elements, or None where a side is undefined."""
    return None if lhs is None or rhs is None else A.lab_eq(lhs, rhs)


def _pools(A: CircuitAlgebraOps, max_arity: Optional[int]):
    """Three copies of every element up to max_arity, with positions
    labelled ("a", ("p", i)), ("b", ("p", i)) and ("c", ("p", i))."""
    S = A.species
    if max_arity is None:
        top = S.n_max
    else:
        require_nonnegative("an axiom check", max_arity=max_arity)
        top = min(max_arity, S.n_max)
    elems = [(e, n) for n in range(top + 1) for e in S.elements(n)]
    return [[Labeled(e, tuple((tag, ("p", i)) for i in range(n)))
             for e, n in elems] for tag in ("a", "b", "c")]


_UNSET = object()


class _Raised:
    """What an operation raised, kept in a _PoolOps memo."""
    __slots__ = ("error",)

    def __init__(self, error: FeynGraphError):
        self.error = error


class _PoolOps:
    """lab_box, lab_zeta and the derived multiplication on one check's pool
    elements and on their results, each computed once for the check.

    Pool elements live for the whole check, and so do the results kept
    here, so both are keyed by identity; only pool elements and results
    returned by this object may be passed.  An operation that raises a
    library error is run once too: the error is kept, and each later
    call raises it again with its traceback cleared, so that the
    traceback does not grow from one instance to the next."""

    def __init__(self, A: CircuitAlgebraOps):
        self.A = A
        # id(a) -> results keyed by id(b) (box), (x, y) (zeta) or
        # (id(b), x, y) (diamond); keys of different kinds never compare equal
        self._memo = {}

    def _once(self, a, key, fn, *args):
        memo = self._memo.get(id(a))
        if memo is None:
            memo = self._memo[id(a)] = {}
        r = memo.get(key, _UNSET)
        if r is _UNSET:
            try:
                r = memo[key] = fn(*args)
            except FeynGraphError as exc:
                memo[key] = _Raised(exc)
                raise
        elif type(r) is _Raised:
            raise r.error.with_traceback(None)
        return r

    def box(self, a: Labeled, b: Labeled) -> Optional[Labeled]:
        # most calls are hits: read them without the call to _once
        memo = self._memo.get(id(a))
        if memo is not None:
            r = memo.get(id(b), _UNSET)
            if r is not _UNSET and type(r) is not _Raised:
                return r
        return self._once(a, id(b), self.A.lab_box, a, b)

    def zeta(self, a: Labeled, x, y) -> Optional[Labeled]:
        return self._once(a, (x, y), self.A.lab_zeta, a, x, y)

    def product(self, a: Labeled, b: Labeled, x, y) -> Optional[Labeled]:
        """a <>_{x,y} b, as derive_multiplication's.  The box is kept and
        the contraction is not, for a product that only one instance
        needs."""
        return _multiply(self.A, self.box, a, b, x, y)

    def diamond(self, a: Labeled, b: Labeled, x, y) -> Optional[Labeled]:
        """a <>_{x,y} b, kept: for the products of two pool elements,
        which several axioms need.  A product whose box is undefined is
        not kept, as most are."""
        if self.box(a, b) is None:
            return None
        return self._once(a, (id(b), x, y), self.product, a, b, x, y)


def _contractible_pairs(A, a: Labeled) -> list:
    om = A.species.palette.omega
    col = A.species.colour_of(a.elem)
    return [(a.labels[i], a.labels[j])
            for i in range(len(a.labels)) for j in range(i + 1, len(a.labels))
            if col[i] == om[col[j]]]


def _contractions_commute(ops: _PoolOps, pool, prs: dict) -> tuple:
    """C2 and M2, two disjoint contractions of an element commute: the
    instances (a, pair, pair) and the law.  prs holds the contractible
    pairs of each element of pool, by id."""
    A = ops.A

    def law(a, p, q):
        first = ops.zeta(a, *p)
        if first is None:
            return None
        second = A.lab_zeta(first, *q) \
            if _still_contractible(A, first, *q) else None
        other = ops.zeta(a, *q)
        other2 = None if other is None or not _still_contractible(
            A, other, *p) else A.lab_zeta(other, *p)
        return _verdict(A, second, other2)

    return ((a, p, q) for a in pool for p in prs[id(a)] for q in prs[id(a)]
            if not set(p) & set(q)), law


def _unit_law(A: CircuitAlgebraOps, product: Callable) -> Callable:
    """The eps unit law on (a, x) for product(a, e, x, y), which contracts
    position x of a with position y of e: contracting a stick onto a
    position is a renaming."""
    om = A.species.palette.omega

    def law(a, x):
        e = A.lab(A.eps(om[A.colour_at(a, x)]), (("e", 0), ("e", 1)))
        got = product(a, e, x, ("e", 0))
        return None if got is None else \
            A.lab_eq(got, A.lab_rename(a, {x: ("e", 1)}))

    return law


def check_circuit_axioms(A: CircuitAlgebraOps,
                         max_arity: Optional[int] = None) -> dict:
    """Exhaustively verify C1 (box associativity), commutativity, the
    external unit law, C2 (contractions commute), C3 (contraction and box
    commute), the eps unit law and eps(omega c) = eps(c) swapped, within
    the carrier bounds.  An instance whose operations give ill-formed
    output (ColourMismatch, FormatError, InvalidGraphOfGraphs or
    GraphInvariantError) is counted and reported as a violation of its
    axiom, with the error; OutOfBounds propagates.

    Returns {"ok": bool, "violations": [...], "checked": int}.
    """
    S = A.species
    om = S.palette.omega
    pool, pool_b, pool_c = _pools(A, max_arity)
    ops = _PoolOps(A)
    # commutativity, C1 and C3 judge the (a, b) whose box is defined or
    # raises; an ill-formed a box b fails every instance that needs it
    pairs = [(a, b) for a in pool for b in pool_b
             if any(_attempt(ops.box, a, b))]
    prs = {id(a): _contractible_pairs(A, a) for a in pool}

    def commutativity(a, b):
        return _verdict(A, ops.box(a, b), A.lab_box(b, a))

    def c1(a, b, c):
        abc1 = A.lab_box(ops.box(a, b), c)
        bc = ops.box(b, c)
        return _verdict(A, abc1, None if bc is None else A.lab_box(a, bc))

    def unit(a):
        au = A.lab_box(a, u)
        ua = A.lab_box(u, a)
        return au is not None and ua is not None and A.lab_eq(au, a) \
            and A.lab_eq(ua, a)

    def c3(a, b, xy):
        """zeta(a box b) = zeta(a) box b for a contraction inside a"""
        lhs = A.lab_zeta(ops.box(a, b), *xy)
        za = ops.zeta(a, *xy)
        return _verdict(A, lhs, None if za is None else A.lab_box(za, b))

    def box_then_zeta(a, e, x, y):
        return _contract(A, A.lab_box(a, e), x, y)

    def eps_omega(c):
        return S.key(S.act(A.eps(c), (1, 0))) == S.key(A.eps(om[c]))

    axioms = [("commutativity", pairs, commutativity),
              ("C1", ((a, b, c) for a, b in pairs for c in pool_c), c1)]
    if not A.nonunital:
        u = A.lab(A.unit0(), ())
        axioms.append(("unit", [(a,) for a in pool], unit))
    axioms += [("C2", *_contractions_commute(ops, pool, prs)),
               ("C3", ((a, b, xy) for a, b in pairs for xy in prs[id(a)]),
                c3),
               ("eps", [(a, x) for a in pool for x in a.labels],
                _unit_law(A, box_then_zeta)),
               ("eps-omega", [(c,) for c in sort_ids(S.palette.colours)],
                eps_omega)]
    return _sweep(axioms, _pool_witnesses)


def _still_contractible(A, a: Labeled, x, y) -> bool:
    return A.colour_at(a, x) == A.species.palette.omega[A.colour_at(a, y)]


def _contract(A: CircuitAlgebraOps, ab: Optional[Labeled], x,
              y) -> Optional[Labeled]:
    """zeta_{x,y}(ab), or None where ab is undefined."""
    return None if ab is None else A.lab_zeta(ab, x, y)


def _multiply(A: CircuitAlgebraOps, box: Callable, a: Labeled, b: Labeled,
              x, y) -> Optional[Labeled]:
    """Contract x with y in box(a, b); ColourMismatch unless the colours
    at x and y are matched."""
    if A.colour_at(a, x) != A.species.palette.omega[A.colour_at(b, y)]:
        raise ColourMismatch("diamond needs matched colours")
    return _contract(A, box(a, b), x, y)


def derive_multiplication(A: CircuitAlgebraOps) -> Callable:
    """The modular multiplication: contract one matched pair of a box."""
    def diamond(a: Labeled, b: Labeled, x, y) -> Optional[Labeled]:
        return _multiply(A, A.lab_box, a, b, x, y)
    return diamond


def check_modular_axioms(A: CircuitAlgebraOps,
                         max_arity: Optional[int] = None) -> dict:
    """Verify M1 (diamond associativity), M2 (contractions commute),
    M3 (diamond and contraction commute), M4 (parallel multiplication),
    and the eps unit law for the derived multiplication.  Ill-formed
    instances are reported as in check_circuit_axioms.
    """
    om = A.species.palette.omega
    diamond = derive_multiplication(A)
    pool, pool_b, pool_c = _pools(A, max_arity)
    ops = _PoolOps(A)

    def matched(a, b):
        return [(x, y) for x in a.labels for y in b.labels
                if A.colour_at(a, x) == om[A.colour_at(b, y)]]

    prs = {id(a): _contractible_pairs(A, a) for a in pool}

    def ms():
        """(a, b, the matched (x, y) of a and b), for M1, M3 and M4"""
        return ((a, b, matched(a, b)) for a in pool for b in pool_b)

    # M1: (a <>_{x,y} b) <>_{u,v} c = a <>_{x,y} (b <>_{u,v} c).  The
    # matched (c, u, v) of each b do not depend on a, x or y, so they are
    # listed once, ahead of the instances; a is the outer loop, so that
    # operations are first computed in a, b, c order.  An ill-formed
    # a <>_{x,y} b fails every instance that needs it.  Where it is
    # undefined, only the entries whose b <>_{u,v} c is defined or raises
    # can be judged: those of b's tail, for y, are listed on first use.
    tails = {id(b): [(c, u, v) for c in pool_c for u, v in matched(b, c)]
             for b in pool_b}
    live = {}     # (id of b, y) -> the part of b's tail that is judged

    def tail(a, b, x, y):
        if any(_attempt(ops.diamond, a, b, x, y)):
            return tails[id(b)]
        got = live.get((id(b), y))
        if got is None:
            # any(): the product, or the error, is not None
            got = live[(id(b), y)] = [
                (c, u, v) for c, u, v in tails[id(b)]
                if u != y and any(_attempt(ops.diamond, b, c, u, v))]
        return got

    def m1(a, b, c, xyuv):
        x, y, u, v = xyuv
        ab = ops.diamond(a, b, x, y)
        lhs = None if ab is None else ops.product(ab, c, u, v)
        bc = ops.diamond(b, c, u, v)
        return _verdict(A, lhs,
                        None if bc is None else ops.product(a, bc, x, y))

    def m3(a, b, xyuv):
        """zeta_{u,v}(a <>_{x,y} b) = zeta_{u,v}(a) <>_{x,y} b, u,v in a"""
        x, y, u, v = xyuv
        lhs = _contract(A, ops.diamond(a, b, x, y), u, v)
        za = ops.zeta(a, u, v)
        return _verdict(A, lhs, None if za is None else diamond(za, b, x, y))

    def m4(a, b, xyuv):
        """two parallel edges between a and b can be contracted in either
        order"""
        x, y, u, v = xyuv
        ab1 = ops.diamond(a, b, x, y)
        lhs = None if ab1 is None else ops.zeta(ab1, u, v)
        ab2 = ops.diamond(a, b, u, v)
        return _verdict(A, lhs, None if ab2 is None else ops.zeta(ab2, x, y))

    return _sweep([
        ("M1", ((a, b, c, (x, y, u, v)) for a, b, xys in ms() for x, y in xys
                for c, u, v in tail(a, b, x, y) if u != y), m1),
        ("M2", *_contractions_commute(ops, pool, prs)),
        ("M3", ((a, b, (x, y, u, v)) for a, b, xys in ms() for x, y in xys
                for u, v in prs[id(a)] if x not in (u, v)), m3),
        ("M4", ((a, b, (x, y, u, v)) for a, b, xys in ms() for x, y in xys
                for u, v in xys if x != u and y != v), m4),
        ("Munit", [(a, x) for a in pool for x in a.labels],
         _unit_law(A, diamond))], _pool_witnesses)


# -- JSON -------------------------------------------------------------------------

def palette_from_json(data: dict) -> Palette:
    try:
        colours = list(data["colours"])
        omega_raw = data["omega"]
        lookup = {str(c): c for c in colours}
        omega = {lookup.get(k, k): v for k, v in omega_raw.items()}
        return Palette(frozenset(colours), omega)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad palette: {exc}") from exc


def species_from_json(data: dict) -> TableSpecies:
    try:
        palette = palette_from_json(data["palette"])
        arity = {int(n): list(es) for n, es in data["arity"].items()}
        colour_of = {e: tuple(cs) for e, cs in data["colour_of"].items()}
        action = {}
        for k, v in data.get("action", {}).items():
            e, i = k.rsplit("|", 1)
            action[(e, int(i))] = v
        return TableSpecies(palette, arity, colour_of, action)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad species: {exc}") from exc


def algebra_from_json(data: dict) -> FiniteCircuitAlgebra:
    try:
        species = species_from_json(data)
        box = {}
        for k, v in data.get("box", {}).items():
            a, b = k.split("|")
            box[(a, b)] = v
        zeta = {}
        for k, v in data.get("zeta", {}).items():
            e, i, j = k.rsplit("|", 2)
            zeta[(e, int(i), int(j))] = v
        eps_raw = data.get("eps", {})
        lookup = {str(c): c for c in species.palette.colours}
        eps = {lookup.get(k, k): v for k, v in eps_raw.items()}
        return FiniteCircuitAlgebra(
            species, box, zeta, eps,
            external_unit=data.get("external_unit"),
            nonunital=bool(data.get("nonunital", False)))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad algebra: {exc}") from exc
