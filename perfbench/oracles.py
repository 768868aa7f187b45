"""Brute-force counts that the benchmark checks the program against.

Nothing here uses the program's canonical labelling.  An X-graph with
`n` labelled ports, `nv` vertices of given valencies is a perfect matching
on the points  ("x", label)  and the vertex stubs  ("s", vertex, slot).
The group G that permutes the stubs at each vertex and the vertices of
equal valency acts on these matchings; two matchings give isomorphic
X-graphs exactly when they lie in one G-orbit, and the stabiliser of a
matching is the automorphism group of its graph.
"""

from __future__ import annotations

import itertools
from math import factorial


def matchings(points):
    """All perfect matchings of an even list of points."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, p in enumerate(rest):
        for m in matchings(rest[:i] + rest[i + 1:]):
            yield ((first, p),) + m


def valency_profiles(n_labels, max_vertices, max_valency):
    """Sorted valency tuples whose stub count pairs up with the ports."""
    for nv in range(max_vertices + 1):
        for vals in itertools.combinations_with_replacement(
                range(max_valency + 1), nv):
            if (n_labels + sum(vals)) % 2 == 0:
                yield vals


def _points(n_labels, vals):
    pts = [("x", i) for i in range(n_labels)]
    for v, d in enumerate(vals):
        pts += [("s", v, j) for j in range(d)]
    return pts


def _admissible_connected(matching, vals):
    """No port-port pair (a stick component) and one connected component
    (edges and vertices); the empty graph is excluded."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in matching:
        if a[0] == "x" and b[0] == "x":
            return False
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        parent[find(a)] = find(b)
    for v in range(len(vals)):
        parent.setdefault(("v", v), ("v", v))
    for a, _ in list(matching) + [(b, a) for a, b in matching]:
        if a[0] == "s":
            parent[find(a)] = find(("v", a[1]))
    return len({find(x) for x in parent}) == 1


def raw_class_members(n_labels, max_vertices, max_valency):
    """Number of admissible connected matchings (every orbit member)."""
    total = 0
    for vals in valency_profiles(n_labels, max_vertices, max_valency):
        for m in matchings(_points(n_labels, vals)):
            if _admissible_connected(m, vals):
                total += 1
    return total


def _group(vals):
    """Every element of G as a dict on points (ports are fixed)."""
    groups = {}
    for v, d in enumerate(vals):
        groups.setdefault(d, []).append(v)
    per_valency = [[dict(zip(vs, p)) for p in itertools.permutations(vs)]
                   for _, vs in sorted(groups.items())]
    stub_perms = [list(itertools.permutations(range(d))) for d in vals]
    for parts in itertools.product(*per_valency):
        pi = {}
        for part in parts:
            pi.update(part)
        for sigmas in itertools.product(*stub_perms):
            yield lambda p, pi=pi, sigmas=sigmas: (
                p if p[0] == "x" else ("s", pi[p[1]], sigmas[p[1]][p[2]]))


def orbit_count(n_labels, max_vertices, max_valency):
    """Number of G-orbits of admissible connected matchings: the number of
    labelled isomorphism classes, found by taking the least image of
    every matching under G."""
    reps = set()
    for vals in valency_profiles(n_labels, max_vertices, max_valency):
        group = list(_group(vals))
        for m in matchings(_points(n_labels, vals)):
            if not _admissible_connected(m, vals):
                continue
            reps.add(min(tuple(sorted(tuple(sorted((g(a), g(b))))
                                      for a, b in m))
                         for g in group))
    return len(reps)


def group_order(valencies):
    """|G| for a multiset of vertex valencies."""
    order = 1
    for d in valencies:
        order *= factorial(d)
    for d in set(valencies):
        order *= factorial(list(valencies).count(d))
    return order


def label_fixing_automorphisms(g, labeling):
    """Automorphisms of a FeynmanGraph that fix every labelled port,
    counted by trying every valency-preserving vertex bijection and every
    bijection of the half-edges at each vertex."""
    verts = list(g.vertices)
    halves = {v: list(g.halves_at(v)) for v in verts}
    by_valency = {}
    for v in verts:
        by_valency.setdefault(len(halves[v]), []).append(v)
    vmaps = [[dict(zip(vs, p)) for p in itertools.permutations(vs)]
             for vs in by_valency.values()]
    count = 0
    for parts in itertools.product(*vmaps):
        pi = {}
        for part in parts:
            pi.update(part)
        options = [[dict(zip(halves[v], p))
                    for p in itertools.permutations(halves[pi[v]])]
                   for v in verts]
        for hparts in itertools.product(*options):
            edge_map = {e: e for e in labeling}
            for hp in hparts:
                for h, h2 in hp.items():
                    edge_map[g.s[h]] = g.s[h2]
            if all(edge_map[g.tau[e]] == g.tau[edge_map[e]] for e in edge_map):
                count += 1
    return count


def orbit_sum(xgraphs):
    """Sum over classes of |G| / |Aut|; equals raw_class_members when the
    classes are exactly the labelled isomorphism classes."""
    total = 0
    for x in xgraphs:
        vals = [x.graph.valency(v) for v in x.graph.vertices]
        aut = label_fixing_automorphisms(x.graph, x.labeling)
        q, r = divmod(group_order(vals), aut)
        if r:
            return -1
        total += q
    return total
