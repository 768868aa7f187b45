"""Brauer diagrams with loop counts, wiring diagrams, and their graphs.

A Brauer diagram m -> n is a perfect matching on the tagged sum of m
source points and n target points, together with a natural loop count.
Composition stacks diagrams, traces paths through the shared middle
boundary, and adds one loop per closed middle cycle.  Wiring diagrams
partition the source into inner boundaries, giving operadic composition;
their graphs have one vertex per inner boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .errors import ArityMismatch, FormatError, InvalidGraphOfGraphs
from .graphs import FeynmanGraph, pairs_text, tagged_union, wheel
from .substitution import _matchings


def _whole(x) -> int:
    """A JSON number as an int.  True and 1.0 read as 1; a value that
    int() would change (1.7, "1") raises ValueError, never truncated."""
    n = int(x)
    if n != x:
        raise ValueError(f"{x!r} is not a whole number")
    return n


def _check_matching(m: int, n: int, matching: Mapping) -> Mapping:
    points = [("src", i) for i in range(1, m + 1)] + \
             [("tgt", j) for j in range(1, n + 1)]
    # ("src", True) and ("src", 1.0) equal ("src", 1) but key apart
    for p in (*matching, *matching.values()):
        if not (type(p) is tuple and len(p) == 2 and p[0] in ("src", "tgt")
                and type(p[1]) is int):
            raise FormatError(f"boundary point {p!r} is not "
                              "('src' | 'tgt', int)")
    if set(matching) != set(points):
        raise FormatError("matching must cover exactly the m + n boundary points")
    for p, q in matching.items():
        if p == q:
            raise FormatError(f"matching has a fixed point at {p!r}")
        if matching.get(q) != p:
            raise FormatError("matching is not involutive")
    return dict(matching)


@dataclass(frozen=True)
class BrauerDiagram:
    m: int
    n: int
    matching: Mapping[Any, Any]
    loops: int = 0

    def __post_init__(self):
        if self.m < 0 or self.n < 0 or self.loops < 0:
            raise FormatError("arities and loop count must be natural numbers")
        object.__setattr__(self, "matching",
                           _check_matching(self.m, self.n, self.matching))

    def key(self):
        return (self.m, self.n, self.loops, pairs_text(self.matching.items()))

    def __eq__(self, other):
        return isinstance(other, BrauerDiagram) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def to_json(self) -> dict:
        pairs = sorted({tuple(sorted([a, b])) for a, b in self.matching.items()})
        return {"m": self.m, "n": self.n,
                "matching": [[list(a), list(b)] for a, b in pairs],
                "loops": self.loops}

    @classmethod
    def from_json(cls, data: dict) -> "BrauerDiagram":
        try:
            matching = {}
            for a, b in data["matching"]:
                pa, pb = (a[0], _whole(a[1])), (b[0], _whole(b[1]))
                matching[pa] = pb
                matching[pb] = pa
            return cls(_whole(data["m"]), _whole(data["n"]), matching,
                       _whole(data.get("loops", 0)))
        except (KeyError, TypeError, ValueError, IndexError,
                OverflowError) as exc:
            raise FormatError(f"bad Brauer diagram: {exc}") from exc


def identity_brauer(n: int) -> BrauerDiagram:
    matching = {}
    for i in range(1, n + 1):
        matching[("src", i)] = ("tgt", i)
        matching[("tgt", i)] = ("src", i)
    return BrauerDiagram(n, n, matching, 0)


def cup() -> BrauerDiagram:
    """The diagram in BD(0, 2) matching the two targets."""
    return BrauerDiagram(0, 2, {("tgt", 1): ("tgt", 2), ("tgt", 2): ("tgt", 1)})


def cap() -> BrauerDiagram:
    """The diagram in BD(2, 0) matching the two sources."""
    return BrauerDiagram(2, 0, {("src", 1): ("src", 2), ("src", 2): ("src", 1)})


def compose_brauer(g: BrauerDiagram, f: BrauerDiagram) -> BrauerDiagram:
    """The composite g . f : m -> p for f : m -> n, g : n -> p."""
    if f.n != g.m:
        raise ArityMismatch(f"cannot compose {g.m}->{g.n} after {f.m}->{f.n}")
    # stacked points: ("f", pt) and ("g", pt); middle bridges link
    # ("f", ("tgt", j)) with ("g", ("src", j)).
    def step(pt):
        tag, p = pt
        d = f if tag == "f" else g
        return (tag, d.matching[p])

    def bridge(pt):
        tag, (side, j) = pt
        if tag == "f" and side == "tgt":
            return ("g", ("src", j))
        if tag == "g" and side == "src":
            return ("f", ("tgt", j))
        return None

    outer = [("f", ("src", i)) for i in range(1, f.m + 1)] + \
            [("g", ("tgt", j)) for j in range(1, g.n + 1)]
    matching = {}
    seen = set()
    for start in outer:
        a = ("src", start[1][1]) if start[0] == "f" else ("tgt", start[1][1])
        if a in matching:
            continue
        cur = step(start)
        seen.add(start)
        while True:
            seen.add(cur)
            nxt = bridge(cur)
            if nxt is None:
                break
            seen.add(nxt)
            cur = step(nxt)
        b = ("src", cur[1][1]) if cur[0] == "f" else ("tgt", cur[1][1])
        matching[a] = b
        matching[b] = a
    # count closed middle cycles among unvisited middle points
    cycles = 0
    middle = [("f", ("tgt", j)) for j in range(1, f.n + 1)]
    visited = set(seen)
    for start in middle:
        if start in visited:
            continue
        cycles += 1
        cur = start
        while cur not in visited:
            visited.add(cur)
            nxt = bridge(cur)
            visited.add(nxt)
            cur = step(nxt)
    return BrauerDiagram(f.m, g.n, matching, f.loops + g.loops + cycles)


def tensor_brauer(f1: BrauerDiagram, f2: BrauerDiagram) -> BrauerDiagram:
    def shift(pt):
        side, i = pt
        return (side, i + (f1.m if side == "src" else f1.n))
    matching = dict(f1.matching)
    for a, b in f2.matching.items():
        matching[shift(a)] = shift(b)
    return BrauerDiagram(f1.m + f2.m, f1.n + f2.n, matching,
                         f1.loops + f2.loops)


def is_downward(f: BrauerDiagram) -> bool:
    if f.loops != 0:
        return False
    return all(f.matching[("tgt", j)][0] == "src" for j in range(1, f.n + 1))


def enumerate_brauer(m: int, n: int, max_loops: int = 0) -> list:
    """All Brauer diagrams m -> n with at most max_loops loops."""
    points = [("src", i) for i in range(1, m + 1)] + \
             [("tgt", j) for j in range(1, n + 1)]
    if len(points) % 2:
        return []
    out = []
    for pairing in _matchings(points):
        matching = {}
        for a, b in pairing:
            matching[a] = b
            matching[b] = a
        for k in range(max_loops + 1):
            out.append(BrauerDiagram(m, n, matching, k))
    return out


# -- wiring diagrams ------------------------------------------------------------

@dataclass(frozen=True)
class WiringDiagram:
    inner_arities: tuple
    outer_arity: int
    underlying: BrauerDiagram

    def __post_init__(self):
        object.__setattr__(self, "inner_arities", tuple(self.inner_arities))
        if self.underlying.m != sum(self.inner_arities):
            raise ArityMismatch("underlying source arity must equal the "
                                "sum of the inner arities")
        if self.underlying.n != self.outer_arity:
            raise ArityMismatch("underlying target arity must equal the outer arity")

    def key(self):
        return (self.inner_arities, self.outer_arity, self.underlying.key())

    def __eq__(self, other):
        return isinstance(other, WiringDiagram) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def to_json(self) -> dict:
        d = self.underlying.to_json()
        return {"inner_arities": list(self.inner_arities),
                "outer_arity": self.outer_arity, "underlying": d}

    @classmethod
    def from_json(cls, data: dict) -> "WiringDiagram":
        try:
            return cls(tuple(_whole(a) for a in data["inner_arities"]),
                       _whole(data["outer_arity"]),
                       BrauerDiagram.from_json(data["underlying"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"bad wiring diagram: {exc}") from exc


def identity_wiring(n: int) -> WiringDiagram:
    return WiringDiagram((n,), n, identity_brauer(n))


def wd_compose(g: WiringDiagram, fs: Sequence[WiringDiagram]) -> WiringDiagram:
    if len(fs) != len(g.inner_arities):
        raise ArityMismatch("need one wiring diagram per inner boundary")
    for f, a in zip(fs, g.inner_arities):
        if f.outer_arity != a:
            raise ArityMismatch("outer arity of each argument must match the "
                                "corresponding inner arity")
    if fs:
        tensored = fs[0].underlying
        for f in fs[1:]:
            tensored = tensor_brauer(tensored, f.underlying)
    else:
        tensored = BrauerDiagram(0, 0, {}, 0)
    underlying = compose_brauer(g.underlying, tensored)
    inner = tuple(a for f in fs for a in f.inner_arities)
    return WiringDiagram(inner, g.outer_arity, underlying)


def wiring_to_graph(wd: WiringDiagram) -> FeynmanGraph:
    """The graph of a wiring diagram.

    Edges are the boundary points with tau the matching; each inner
    boundary becomes a vertex whose half-edges are its elements.  Each
    counted loop contributes one extra disjoint one-vertex wheel.
    """
    b = wd.underlying
    edges = list(b.matching)
    tau = dict(b.matching)
    halves, s, t, verts = [], {}, {}, []
    offset = 0
    for vi, arity in enumerate(wd.inner_arities):
        v = ("v", vi)
        verts.append(v)
        for j in range(1, arity + 1):
            h = ("h", vi, j)
            halves.append(h)
            s[h] = ("src", offset + j)
            t[h] = v
        offset += arity
    g = FeynmanGraph(edges, tau, halves, s, t, verts)
    pieces = [g] + [wheel(1) for _ in range(b.loops)]
    return tagged_union(enumerate(pieces)) if b.loops else g


def graph_to_wiring(g: FeynmanGraph, vertex_order: Sequence,
                    port_order: Sequence) -> WiringDiagram:
    """Inverse of wiring_to_graph on admissible connected-or-not graphs.

    Requires an ordering of the vertices and of the ports; the inner
    boundary of each vertex v lists its halves in the graph's order,
    g.halves_at(v).  Returns a loop-free wiring diagram.  The halves
    ("h", i, j) of wiring_to_graph sort as the numbers j, so this
    inverts wiring_to_graph at every inner arity.
    """
    if g.stick_components():
        raise InvalidGraphOfGraphs("stick components have no wiring diagram")
    if list(sorted(vertex_order, key=repr)) != sorted(g.vertices, key=repr):
        raise FormatError("vertex_order must enumerate the vertices")
    if list(sorted(port_order, key=repr)) != sorted(g.ports, key=repr):
        raise FormatError("port_order must enumerate the ports")
    src_of = {}
    idx = 0
    arities = []
    for v in vertex_order:
        hs = g.halves_at(v)
        arities.append(len(hs))
        for h in hs:
            idx += 1
            src_of[g.s[h]] = ("src", idx)
    point = dict(src_of)
    for j, e in enumerate(port_order, start=1):
        point[e] = ("tgt", j)
    matching = {point[e]: point[g.tau[e]] for e in g.edges}
    return WiringDiagram(tuple(arities), len(port_order),
                         BrauerDiagram(idx, len(port_order), matching, 0))


# -- orientations ---------------------------------------------------------------

@dataclass(frozen=True)
class Orientation:
    graph: FeynmanGraph
    assignment: Mapping[Any, str]  # edge -> "in" | "out"

    def __post_init__(self):
        a = dict(self.assignment)
        if set(a) != set(self.graph.edges):
            raise FormatError("orientation must assign every edge")
        for e in self.graph.edges:
            if a[e] not in ("in", "out"):
                raise FormatError("orientation values must be 'in' or 'out'")
            if a[e] == a[self.graph.tau[e]]:
                raise FormatError("exactly one edge per orbit must be 'in'")
        object.__setattr__(self, "assignment", a)


def check_orientation_preserved(f, o_src: Orientation, o_tgt: Orientation) -> bool:
    return all(o_tgt.assignment[f.edge_map[e]] == o_src.assignment[e]
               for e in f.source.edges)
