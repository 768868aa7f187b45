"""Independent brute-force oracles used to cross-check library results.

These deliberately avoid the library's canonical-form machinery: graph
isomorphism is decided by exhaustive search over edge bijections.
"""

from __future__ import annotations

import itertools
import math

from feyngraph.errors import (BadParameter, ColourMismatch, FormatError,
                              OutOfBounds)
from feyngraph.graphs import FeynmanGraph, idkey, sort_ids
from feyngraph.species import Decoration


def _brute_not_an_id(x) -> BadParameter:
    return BadParameter(f"id {x!r} is not a str, an int, or a tuple or "
                        "frozenset of ids")


def brute_idkey(x) -> tuple:
    """The sort key of an id, recomputed from its members on every call;
    BadParameter for an atom that is not a str or an int."""
    if type(x) is tuple:
        return (1, tuple(brute_idkey(y) for y in x))
    if type(x) is frozenset:
        return (0, "frozenset", tuple(sorted(brute_idkey(y) for y in x)))
    if type(x) is int:
        return (0, "int", x)
    if type(x) is str:
        return (0, "str", repr(x))
    raise _brute_not_an_id(x)


def brute_idstr(x) -> str:
    """The key text of an id, recomputed from its members on every call:
    its repr, with a frozenset's members in brute_idkey order."""
    if type(x) in (str, int):
        return repr(x)
    if type(x) is tuple:
        parts = [brute_idstr(y) for y in x]
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    if type(x) is frozenset:
        if not x:
            return "frozenset()"
        return "frozenset({" + ", ".join(
            brute_idstr(y) for y in sorted(x, key=brute_idkey)) + "})"
    raise _brute_not_an_id(x)


def brute_isomorphic(g: FeynmanGraph, h: FeynmanGraph,
                     port_labels_g=None, port_labels_h=None) -> bool:
    """Exhaustive isomorphism test (edge bijections + induced vertex map)."""
    if (len(g.edges) != len(h.edges) or len(g.vertices) != len(h.vertices)
            or len(g.half_edges) != len(h.half_edges)):
        return False
    ge = sorted(g.edges, key=repr)
    he = sorted(h.edges, key=repr)
    plg = port_labels_g or {}
    plh = port_labels_h or {}
    for perm in itertools.permutations(he):
        em = dict(zip(ge, perm))
        if any(em[g.tau[e]] != h.tau[em[e]] for e in ge):
            continue
        if any(plg.get(e) != plh.get(em[e]) for e in ge):
            continue
        if set(em[e] for e in g.ports) != set(h.ports):
            continue
        # try to extend over vertices: edge sets at vertices must match up
        gsets = {v: frozenset(em[e] for e in g.edges_at(v)) for v in g.vertices}
        hsets = {}
        for v in h.vertices:
            hsets.setdefault(frozenset(h.edges_at(v)), []).append(v)
        used = {v: list(ws) for v, ws in hsets.items()}
        ok = True
        for v in g.vertices:
            pool = used.get(gsets[v])
            if not pool:
                ok = False
                break
            pool.pop()
        if ok:
            return True
    return False


def brute_count_classes(xgraphs) -> int:
    """Number of labeled-isomorphism classes among the given XGraphs."""
    reps = []
    for x in xgraphs:
        if not any(brute_isomorphic(x.graph, r.graph,
                                    dict(x.labeling), dict(r.labeling))
                   for r in reps):
            reps.append(x)
    return len(reps)


def brute_etale_homs(g: FeynmanGraph, h: FeynmanGraph) -> int:
    """Count etale morphisms g -> h by exhausting all (edge, half, vertex)
    function triples and checking the definition directly: commutation
    with tau, s, t, and local bijectivity at every vertex."""
    ge, he = sorted(g.edges, key=repr), sorted(h.edges, key=repr)
    gh, hh = sorted(g.half_edges, key=repr), sorted(h.half_edges, key=repr)
    gv, hv = sorted(g.vertices, key=repr), sorted(h.vertices, key=repr)
    if (ge and not he) or (gh and not hh) or (gv and not hv):
        return 0
    count = 0
    for evals in itertools.product(he or [None], repeat=len(ge)):
        em = dict(zip(ge, evals))
        if any(em[g.tau[e]] != h.tau[em[e]] for e in ge):
            continue
        for hvals in itertools.product(hh or [None], repeat=len(gh)):
            hm = dict(zip(gh, hvals))
            if any(em[g.s[x]] != h.s[hm[x]] for x in gh):
                continue
            for vvals in itertools.product(hv or [None], repeat=len(gv)):
                vm = dict(zip(gv, vvals))
                if any(vm[g.t[x]] != h.t[hm[x]] for x in gh):
                    continue
                ok = True
                for v in gv:
                    image = [hm[x] for x in g.halves_at(v)]
                    if sorted(map(repr, image)) != \
                            sorted(map(repr, h.halves_at(vm[v]))):
                        ok = False
                        break
                if ok:
                    count += 1
    return count


def corolla_like_class_count(n: int, max_valency: int) -> int:
    """Connected admissible graphs with at most one vertex and n ports,
    counted directly: each port must pair with a vertex stub (a port-port
    pair would be a stick component), the leftover stubs pair into loops,
    and all stubs are interchangeable, so the class is determined by the
    valency alone."""
    count = 0
    for d in range(max_valency + 1):
        if d >= n and (d - n) % 2 == 0:
            count += 1
    return count



def _perfect_matchings(points):
    """Every perfect matching on an even list of points, with no orbit
    reduction: the reference for substitution._matchings."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, p in enumerate(rest):
        for m in _perfect_matchings(rest[:i] + rest[i + 1:]):
            yield ((first, p),) + m


def _connected(matching, n_vertices) -> bool:
    """One component among the points and the vertices ("v", i), where a
    pair joins its points and a stub ("s", i, j) joins vertex ("v", i)."""
    parent = {("v", i): ("v", i) for i in range(n_vertices)}
    for pair in matching:
        parent.update((p, p) for p in pair)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in matching:
        parent[find(a)] = find(b)
        for p in (a, b):
            if p[0] == "s":
                parent[find(p)] = find(("v", p[1]))
    return len({find(x) for x in parent}) == 1


def admissible_connected_matchings(n_labels: int, max_vertices: int,
                                   max_valency: int) -> int:
    """Number of perfect matchings on n_labels ports ("x", i) and the stubs
    ("s", v, j) of sorted vertex valencies within bounds that give a
    connected graph with no port-port pair (stick component): every member
    of every class that enumerate_x_graphs keeps, counted one by one."""
    total = 0
    for nv in range(max_vertices + 1):
        for vals in itertools.combinations_with_replacement(
                range(max_valency + 1), nv):
            points = [("x", i) for i in range(n_labels)]
            points += [("s", v, j) for v, d in enumerate(vals)
                       for j in range(d)]
            if len(points) % 2:
                continue
            for m in _perfect_matchings(points):
                if (not any(a[0] == b[0] == "x" for a, b in m)
                        and _connected(m, nv)):
                    total += 1
    return total


def stub_group_order(valencies) -> int:
    """Order of the group that permutes the stubs at each vertex and the
    vertices of equal valency."""
    order = 1
    for d in valencies:
        order *= math.factorial(d)
    for d in set(valencies):
        order *= math.factorial(list(valencies).count(d))
    return order


def port_fixing_automorphisms(g: FeynmanGraph) -> int:
    """Automorphisms of g that fix every port, counted over every
    valency-preserving vertex bijection and every bijection of the
    half-edges at each vertex onto those at its image."""
    verts = sorted(g.vertices, key=repr)
    count = 0
    for image in itertools.permutations(verts):
        if any(g.valency(v) != g.valency(w) for v, w in zip(verts, image)):
            continue
        for halves in itertools.product(
                *(itertools.permutations(g.halves_at(w)) for w in image)):
            em = {e: e for e in g.ports}
            for v, hs in zip(verts, halves):
                for h, h2 in zip(g.halves_at(v), hs):
                    em[g.s[h]] = g.s[h2]
            if all(em[g.tau[e]] == g.tau[em[e]] for e in g.edges):
                count += 1
    return count


def brute_presheaf_maps(P, Q) -> list:
    """All natural transformations P -> Q between finite presheaves on one
    corpus, the slow way: every choice of components on the elementary
    objects (sticks and corollas), each extended to the other objects
    through their ch-families, then checked on every shared morphism."""
    def elementary(g):
        if g.inner_edges() or len(g.vertices) > 1:
            return False
        sticks = g.stick_components()
        return not sticks if g.vertices else len(sticks) <= 1

    names = sorted(P.corpus)
    shared = [mn for mn in P.morphisms if mn in Q.morphisms]
    base = [n for n in names if elementary(P.corpus[n])]
    rest = [n for n in names if n not in base]
    chs = {n: sorted(mn for mn in shared
                     if P.morphisms[mn]["kind"] == "ch"
                     and P.morphisms[mn]["from_graph"] == n)
           for n in rest}

    def family(presheaf, n, x):
        return tuple(presheaf.morphisms[mn]["map"][x] for mn in chs[n])

    def natural(comp):
        for mn in shared:
            rp, rq = P.morphisms[mn], Q.morphisms[mn]
            fn, tn = rp["from_graph"], rp["to_graph"]
            for x in P.sets[fn]:
                if rq["map"][comp[fn][x]] != comp[tn][rp["map"][x]]:
                    return False
        return True

    spaces = [list(itertools.product(Q.sets[n], repeat=len(P.sets[n])))
              for n in base]
    out = []
    for combo in itertools.product(*spaces):
        comp = {n: dict(zip(P.sets[n], vals))
                for n, vals in zip(base, combo)}
        options = []
        for n in rest:
            per_x = []
            for x in P.sets[n]:
                want = tuple(comp[P.morphisms[mn]["to_graph"]][v]
                             for mn, v in zip(chs[n], family(P, n, x)))
                per_x.append([y for y in Q.sets[n]
                              if family(Q, n, y) == want])
            options.append((n, per_x))
        for choice in itertools.product(
                *(itertools.product(*per_x) for _, per_x in options)):
            for (n, _), vals in zip(options, choice):
                comp[n] = dict(zip(P.sets[n], vals))
            if natural(comp):
                out.append({n: dict(comp[n]) for n in names})
    return out


# -- L normal form ------------------------------------------------------------------

def brute_l_norm(LS, factors) -> tuple:
    """The factors of an L element in one stable sort, by block and by the
    repr of the element's key in the inner species."""
    return tuple(sorted(((tuple(b), x) for b, x in factors),
                        key=lambda f: (f[0], repr(LS.inner.key(f[1])))))


# -- circuit and modular axioms -----------------------------------------------------
#
# The checkers as they were before they kept per-check tables: every box,
# contraction and multiplication is computed afresh at every instance that
# needs it.  Nothing here is shared with feyngraph.species; only the
# algebra's own labelled operations (lab, lab_box, lab_zeta, lab_eq,
# lab_rename, colour_at) are used.


def _brute_report(violations, checked):
    return {"ok": not violations, "violations": sorted(set(violations)),
            "checked": checked}


def _brute_note(violations, kind, *witnesses):
    violations.append((kind,) + tuple(map(repr, witnesses)))


# an instance whose operations raise one of these is a violation
_BRUTE_ILL_FORMED = (ColourMismatch, FormatError)


def _brute_failed(violations, kind, exc, *witnesses):
    _brute_note(violations, kind, *witnesses, f"{type(exc).__name__}: {exc}")


def _brute_pools(A, max_arity):
    S = A.species
    top = S.n_max if max_arity is None else min(max_arity, S.n_max)
    elems = [(e, tuple(("p", i) for i in range(n)))
             for n in range(top + 1) for e in S.elements(n)]
    return [[A.lab(e, tuple((tag, l) for l in labels)) for e, labels in elems]
            for tag in ("a", "b", "c")]


def _brute_pairs(A, a):
    om = A.species.palette.omega
    col = A.species.colour_of(a.elem)
    return [(a.labels[i], a.labels[j])
            for i in range(len(a.labels)) for j in range(i + 1, len(a.labels))
            if col[i] == om[col[j]]]


def _brute_contractions_commute(A, pool, kind, violations):
    om = A.species.palette.omega

    def still(a, x, y):
        return A.colour_at(a, x) == om[A.colour_at(a, y)]

    checked = 0
    for a in pool:
        prs = _brute_pairs(A, a)
        for (x1, y1) in prs:
            for (x2, y2) in prs:
                if {x1, y1} & {x2, y2}:
                    continue
                try:
                    first = A.lab_zeta(a, x1, y1)
                    if first is None:
                        continue
                    second = A.lab_zeta(first, x2, y2) \
                        if still(first, x2, y2) else None
                    other = A.lab_zeta(a, x2, y2)
                    other2 = None if other is None \
                        or not still(other, x1, y1) \
                        else A.lab_zeta(other, x1, y1)
                except _BRUTE_ILL_FORMED as exc:
                    checked += 1
                    _brute_failed(violations, kind, exc, a.elem, (x1, y1),
                                  (x2, y2))
                    continue
                if second is None or other2 is None:
                    continue
                checked += 1
                if not A.lab_eq(second, other2):
                    _brute_note(violations, kind, a.elem, (x1, y1), (x2, y2))
    return checked


def brute_circuit_axioms(A, max_arity=None) -> dict:
    """check_circuit_axioms, recomputing every operation where it is used."""
    S = A.species
    pool, pool_b, pool_c = _brute_pools(A, max_arity)
    violations = []
    checked = 0
    for a in pool:
        for b in pool_b:
            try:
                ab = A.lab_box(a, b)
                if ab is None:
                    continue
                ba = A.lab_box(b, a)
            except _BRUTE_ILL_FORMED as exc:
                checked += 1
                _brute_failed(violations, "commutativity", exc, a.elem,
                              b.elem)
            else:
                if ba is not None:
                    checked += 1
                    if not A.lab_eq(ab, ba):
                        _brute_note(violations, "commutativity", a.elem,
                                    b.elem)
            for c in pool_c:
                try:
                    ab = A.lab_box(a, b)
                    abc1 = A.lab_box(ab, c)
                    bc = A.lab_box(b, c)
                    abc2 = None if bc is None else A.lab_box(a, bc)
                except _BRUTE_ILL_FORMED as exc:
                    checked += 1
                    _brute_failed(violations, "C1", exc, a.elem, b.elem,
                                  c.elem)
                    continue
                if abc1 is None or abc2 is None:
                    continue
                checked += 1
                if not A.lab_eq(abc1, abc2):
                    _brute_note(violations, "C1", a.elem, b.elem, c.elem)
    if not A.nonunital:
        u = A.lab(A.unit0(), ())
        for a in pool:
            checked += 1
            try:
                au = A.lab_box(a, u)
                ua = A.lab_box(u, a)
            except _BRUTE_ILL_FORMED as exc:
                _brute_failed(violations, "unit", exc, a.elem)
                continue
            if au is None or ua is None or \
                    not (A.lab_eq(au, a) and A.lab_eq(ua, a)):
                _brute_note(violations, "unit", a.elem)
    checked += _brute_contractions_commute(A, pool, "C2", violations)
    for a in pool:
        for b in pool_b:
            for (x, y) in _brute_pairs(A, a):
                try:
                    ab = A.lab_box(a, b)
                    if ab is None:
                        break
                    lhs = A.lab_zeta(ab, x, y)
                    za = A.lab_zeta(a, x, y)
                    rhs = None if za is None else A.lab_box(za, b)
                except _BRUTE_ILL_FORMED as exc:
                    checked += 1
                    _brute_failed(violations, "C3", exc, a.elem, b.elem,
                                  (x, y))
                    continue
                if lhs is None or rhs is None:
                    continue
                checked += 1
                if not A.lab_eq(lhs, rhs):
                    _brute_note(violations, "C3", a.elem, b.elem, (x, y))
    om = S.palette.omega
    for a in pool:
        col = S.colour_of(a.elem)
        for i, x in enumerate(a.labels):
            e = A.lab(A.eps(om[col[i]]), (("e", 0), ("e", 1)))
            try:
                ae = A.lab_box(a, e)
                if ae is None:
                    continue
                got = A.lab_zeta(ae, x, ("e", 0))
            except _BRUTE_ILL_FORMED as exc:
                checked += 1
                _brute_failed(violations, "eps", exc, a.elem, x)
                continue
            if got is None:
                continue
            want = A.lab_rename(a, {x: ("e", 1)})
            checked += 1
            if not A.lab_eq(got, want):
                _brute_note(violations, "eps", a.elem, x)
    for c in sorted(S.palette.colours, key=brute_idkey):
        checked += 1
        if S.key(S.act(A.eps(c), (1, 0))) != S.key(A.eps(om[c])):
            _brute_note(violations, "eps-omega", c)
    return _brute_report(violations, checked)


def brute_modular_axioms(A, max_arity=None) -> dict:
    """check_modular_axioms, recomputing every operation where it is used."""
    S = A.species
    om = S.palette.omega

    def diamond(a, b, x, y):
        if A.colour_at(a, x) != om[A.colour_at(b, y)]:
            raise ColourMismatch("diamond needs matched colours")
        ab = A.lab_box(a, b)
        return None if ab is None else A.lab_zeta(ab, x, y)

    def matched(a, b):
        return [(x, y) for x in a.labels for y in b.labels
                if A.colour_at(a, x) == om[A.colour_at(b, y)]]

    pool, pool_b, pool_c = _brute_pools(A, max_arity)
    violations = []
    checked = 0
    for a in pool:
        for b in pool_b:
            for (x, y) in matched(a, b):
                for c in pool_c:
                    for u in b.labels:
                        if u == y:
                            continue
                        for v in c.labels:
                            if A.colour_at(b, u) != om[A.colour_at(c, v)]:
                                continue
                            try:
                                ab = diamond(a, b, x, y)
                                lhs = None if ab is None \
                                    else diamond(ab, c, u, v)
                                bc = diamond(b, c, u, v)
                                rhs = None if bc is None \
                                    else diamond(a, bc, x, y)
                            except _BRUTE_ILL_FORMED as exc:
                                checked += 1
                                _brute_failed(violations, "M1", exc, a.elem,
                                              b.elem, c.elem, (x, y, u, v))
                                continue
                            if lhs is None or rhs is None:
                                continue
                            checked += 1
                            if not A.lab_eq(lhs, rhs):
                                _brute_note(violations, "M1", a.elem, b.elem,
                                            c.elem, (x, y, u, v))
    checked += _brute_contractions_commute(A, pool, "M2", violations)
    for a in pool:
        for b in pool_b:
            for (x, y) in matched(a, b):
                for (u, v) in _brute_pairs(A, a):
                    if {u, v} & {x}:
                        continue
                    try:
                        ab = diamond(a, b, x, y)
                        lhs = None if ab is None else A.lab_zeta(ab, u, v)
                        za = A.lab_zeta(a, u, v)
                        rhs = None if za is None or x not in za.labels \
                            else diamond(za, b, x, y)
                    except _BRUTE_ILL_FORMED as exc:
                        checked += 1
                        _brute_failed(violations, "M3", exc, a.elem, b.elem,
                                      (x, y, u, v))
                        continue
                    if lhs is None or rhs is None:
                        continue
                    checked += 1
                    if not A.lab_eq(lhs, rhs):
                        _brute_note(violations, "M3", a.elem, b.elem,
                                    (x, y, u, v))
    for a in pool:
        for b in pool_b:
            ms = matched(a, b)
            for (x, y) in ms:
                for (u, v) in ms:
                    if x == u or y == v:
                        continue
                    try:
                        ab1 = diamond(a, b, x, y)
                        lhs = None if ab1 is None else A.lab_zeta(ab1, u, v)
                        ab2 = diamond(a, b, u, v)
                        rhs = None if ab2 is None else A.lab_zeta(ab2, x, y)
                    except _BRUTE_ILL_FORMED as exc:
                        checked += 1
                        _brute_failed(violations, "M4", exc, a.elem, b.elem,
                                      (x, y, u, v))
                        continue
                    if lhs is None or rhs is None:
                        continue
                    checked += 1
                    if not A.lab_eq(lhs, rhs):
                        _brute_note(violations, "M4", a.elem, b.elem,
                                    (x, y, u, v))
    for a in pool:
        col = S.colour_of(a.elem)
        for i, x in enumerate(a.labels):
            e = A.lab(A.eps(om[col[i]]), (("e", 0), ("e", 1)))
            try:
                got = diamond(a, e, x, ("e", 0))
            except _BRUTE_ILL_FORMED as exc:
                checked += 1
                _brute_failed(violations, "Munit", exc, a.elem, x)
                continue
            want = A.lab_rename(a, {x: ("e", 1)})
            if got is None:
                continue
            checked += 1
            if not A.lab_eq(got, want):
                _brute_note(violations, "Munit", a.elem, x)
    return _brute_report(violations, checked)


# -- Kleisli normal forms -----------------------------------------------------------
#
# make_kleisli as it was before it split into a frame and a tail step:
# every morphism deletes, pushes, substitutes and canonicalizes its
# refinement afresh.  It pushes the bivalent deletions in stages, with a
# new substitution and a checked, normalized tail at each stage, until
# none is left; the library pushes them once and checks the tail once.
# The tail checks (_push_forward, and the pointed normal form with its
# key) and the piece labelings are the library's.


def _brute_pointed_key(g, d, e) -> tuple:
    """The key of the pointed morphism that deletes d.deleted and maps by
    e, after absorbing bivalent vertices one at a time: each is deleted
    from the last deletion's target, and the search restarts after every
    vertex absorbed."""
    from feyngraph.errors import Mismatch, NotCommuting, NotLocallyBijective
    from feyngraph.graphs import idstr
    from feyngraph.monads import (_push_forward, deletable_vertices,
                                  delete_vertices)
    w, last = d.deleted, d.target
    corr = dict(d.edge_correspondence)
    vcorr = dict(d.vertex_map)
    fresh = dict(d.fresh_sticks)
    changed = True
    while changed:
        changed = False
        inv_v = {tv: v for v, tv in vcorr.items()}
        for tv in deletable_vertices(last):
            if last.valency(tv) != 2:
                continue
            d2 = delete_vertices(last, [tv])
            try:
                e2 = _push_forward(d2, e.target, e.edge_map, e.half_map,
                                   e.vertex_map)
            except (Mismatch, NotCommuting, NotLocallyBijective):
                continue
            w = w | {inv_v[tv]}
            corr = {x: d2.edge_correspondence[c] for x, c in corr.items()}
            vcorr = {v: d2.vertex_map[c] for v, c in vcorr.items() if c != tv}
            fresh = {v: (d2.edge_correspondence[a], d2.edge_correspondence[b])
                     for v, (a, b) in fresh.items()}
            last, e, changed = d2.target, e2, True
            break
    em = tuple(sorted((idstr(x), idstr(e.edge_map[corr[x]]))
                      for x in g.edges))
    vm = tuple(sorted((idstr(v), idstr(e.vertex_map[vcorr[v]]))
                      for v in vcorr))
    fr = []
    for v in sort_ids(fresh):
        a, b = fresh[v]
        ia, ib = idstr(e.edge_map[a]), idstr(e.edge_map[b])
        fr.append((idstr(v),) + ((ia, ib) if ia <= ib else (ib, ia)))
    return (tuple(sorted(map(idstr, w))), em, vm, tuple(fr))


def brute_hom_pointed(g: FeynmanGraph, h: FeynmanGraph) -> list:
    """The keys of hom_pointed(g, h), in its order, with every deletion
    made afresh and absorbed as a chain (_brute_pointed_key)."""
    from feyngraph.monads import deletable_vertices, delete_vertices, hom_etale
    dels = deletable_vertices(g)
    keys = []
    for r in range(len(dels) + 1):
        for w0 in itertools.combinations(dels, r):
            d = delete_vertices(g, w0)
            for e in hom_etale(d.target, h):
                key = _brute_pointed_key(g, d, e)
                if key not in keys:
                    keys.append(key)
    return keys


def _brute_transport(old_sub, new_sub, per_piece_maps, deleted, edge_image,
                     vertex_image, half_image, fresh_images) -> tuple:
    def back(v, i, x):
        maps = per_piece_maps.get(v)
        return x if maps is None else maps[i][x]

    em = {}
    for c in new_sub.colimit.edges:
        m = next(iter(c))
        old = (old_sub.edge_class[m[1]] if m[0] == "b"
               else old_sub.piece_edge[(m[1], back(m[1], 0, m[2]))])
        em[c] = edge_image(old)
    w, hm, vm, fresh_em = set(), {}, {}, {}
    for cv in new_sub.colimit.vertices:
        _, v, u = cv
        old_cv = ("p", v, back(v, 1, u))
        if old_cv in deleted:
            w.add(cv)
            fresh_em[cv] = fresh_images(old_cv)
        else:
            vm[cv] = vertex_image(old_cv)
            for h in new_sub.colimit.halves_at(cv):
                hm[h] = half_image(("p", v, back(v, 2, h[2])))
    return w, em, hm, vm, fresh_em


def brute_make_kleisli(sub, target, w, em, hm, vm, fresh_em=None):
    """make_kleisli, normalizing each morphism from scratch."""
    from feyngraph.graphs import idstr, sort_ids
    from feyngraph.monads import (_normalized_pointed, _push_forward,
                                  delete_vertices)
    from feyngraph.nerve import (KleisliMorphism, _apply_labeling,
                                 _piece_labelings)
    from feyngraph.substitution import GraphOfGraphs, substitute

    def inverse(maps):
        return tuple({b: a for a, b in m.items()} for m in maps)

    source = sub.gog.base
    pieces = dict(sub.gog.pieces)
    fresh_em = dict(fresh_em or {})
    while True:
        colim = sub.colimit
        d = delete_vertices(colim, w)
        etale = _push_forward(d, target, em, hm, vm, fresh_em)
        tail = _normalized_pointed(colim, target, d, etale, absorb=False)
        push = {cv for cv in tail.deleted if colim.valency(cv) == 2}
        if not push:
            break
        per_v = {}
        for cv in push:
            per_v.setdefault(cv[1], set()).add(cv[2])
        shrink = {}
        for v, ws in per_v.items():
            piece, boundary = pieces[v]
            dd = delete_vertices(piece, ws)
            nb = {dd.edge_correspondence[p]: h for p, h in boundary.items()}
            pieces[v] = (dd.target, nb)
            shrink[v] = inverse((dd.edge_correspondence, dd.vertex_map,
                                 dd.half_map))
        sub2 = substitute(GraphOfGraphs(source, pieces))
        w, em, hm, vm, fresh_em = _brute_transport(
            sub, sub2, shrink, tail.deleted, tail.edge_image,
            tail.vertex_image, tail.half_image, tail.fresh_images)
        sub = sub2
    vs = sort_ids(source.vertices)
    certs, labsets = {}, {}
    for v in vs:
        piece, boundary = pieces[v]
        certs[v], labsets[v] = _piece_labelings(piece, boundary)
    best = None
    for combo in itertools.product(*(labsets[v] for v in vs)):
        labs = dict(zip(vs, combo))
        canon = {v: _apply_labeling(pieces[v][0], pieces[v][1], labs[v])
                 for v in vs}
        sub2 = substitute(GraphOfGraphs(source, canon))
        w2, em2, hm2, vm2, fresh2 = _brute_transport(
            sub, sub2, {v: inverse(labs[v]) for v in vs}, w,
            em.__getitem__, vm.__getitem__, hm.__getitem__,
            fresh_em.__getitem__)
        d = delete_vertices(sub2.colimit, w2)
        etale = _push_forward(d, target, em2, hm2, vm2, fresh2)
        tail = _normalized_pointed(sub2.colimit, target, d, etale,
                                   absorb=False)
        key = (tuple((idstr(v), certs[v]) for v in vs), tail.key())
        cand = KleisliMorphism(source, target, sub2.gog, tail, sub2, key)
        if best is None or key < best.key():
            best = cand
    return best


def _brute_identity_data(g):
    from feyngraph.substitution import GraphOfGraphs, substitute
    sub = substitute(GraphOfGraphs.identity(g))
    em = {sub.edge_class[e]: e for e in g.edges}
    vm, hm = {}, {}
    for v in g.vertices:
        vm[("p", v, "*")] = v
        for h in g.halves_at(v):
            hm[("p", v, ("h", ("p", h)))] = h
    return sub, em, hm, vm


def brute_kleisli_from_etale(e):
    sub, em, hm, vm = _brute_identity_data(e.source)
    return brute_make_kleisli(
        sub, e.target, set(), {c: e.edge_map[x] for c, x in em.items()},
        {c: e.half_map[x] for c, x in hm.items()},
        {c: e.vertex_map[x] for c, x in vm.items()})


def brute_kleisli_from_pointed(pm):
    g = pm.source
    sub, em, hm, vm = _brute_identity_data(g)
    w, vm2, fresh = set(), {}, {}
    for cv, v in vm.items():
        if v in pm.deleted:
            w.add(cv)
            if g.valency(v) == 0:
                fresh[cv] = pm.fresh_images(v)
        else:
            vm2[cv] = pm.vertex_image(v)
    em2 = {c: pm.edge_image(x) for c, x in em.items()}
    hm2 = {c: pm.half_image(x) for c, x in hm.items()
           if x in pm.similarity_part.half_map}
    return brute_make_kleisli(sub, pm.target, w, em2, hm2, vm2, fresh)


# -- monad laws ----------------------------------------------------------------------
#
# Each law written out for each monad, with a loop of its own.  The units
# and multiplications are looked up on feyngraph.monads at every use, so
# that a monkeypatched one is checked here as in the library.


def brute_monad_laws(S, max_arity=2, max_vertices=2, max_valency=3) -> dict:
    """The unit laws of T, D and L and the associativity of D and L, as
    check_monad_laws states them."""
    from feyngraph import monads as m
    violations, checked = [], 0
    TS = m.TSpecies(S, max_vertices, max_valency)
    DS, LS = m.DSpecies(S), m.LSpecies(S, 4)
    DDS, LLS = m.DSpecies(DS), m.LSpecies(m.LSpecies(S, 2), 2)

    for n in range(max_arity + 1):
        for t in TS.elements(n):
            checked += 2
            # left unit: decorate the corolla on t with t
            lt = m.mu_T(TS, m.eta_T(TS, t))
            if TS.key(lt) != TS.key(t):
                _brute_note(violations, "T-left-unit", TS.key(t))
            # right unit: decorate each vertex of t with its corolla
            rt = m.mu_T(TS, m._fmap_T(lambda x: m.eta_T(S, x), t))
            if TS.key(rt) != TS.key(t):
                _brute_note(violations, "T-right-unit", TS.key(t))
        # D and L associativity: on A(A(A S)), flattening the two outer
        # layers first equals flattening each factor first
        for ddd in m.DSpecies(DDS).elements(n):
            checked += 1
            lhs = m.mu_D(m.mu_D(ddd))
            rhs = m.mu_D(m._fmap_D(m.mu_D, ddd))
            if DS.key(lhs) != DS.key(rhs):
                _brute_note(violations, "D-assoc", DS.key(lhs), DS.key(rhs))
        for lll in m.LSpecies(LLS, 2).elements(n):
            checked += 1
            lhs = m.mu_L(LS, m.mu_L(LLS, lll))
            rhs = m.mu_L(LS, m._fmap_L(lambda ll: m.mu_L(LS, ll), lll))
            if LS.key(lhs) != LS.key(rhs):
                _brute_note(violations, "L-assoc", LS.key(lhs), LS.key(rhs))
    # D and L unit laws
    for n in range(max_arity + 1):
        for d in DS.elements(n):
            checked += 2
            if m.mu_D(m.eta_D(d)) != d:
                _brute_note(violations, "D-left-unit", DS.key(d))
            if m.mu_D(m._fmap_D(m.eta_D, d)) != d:
                _brute_note(violations, "D-right-unit", DS.key(d))
        for x in LS.elements(n):
            checked += 2
            if LS.key(m.mu_L(LS, m.eta_L(LS, x))) != LS.key(x):
                _brute_note(violations, "L-left-unit", LS.key(x))
            if LS.key(m.mu_L(LS, m._fmap_L(lambda y: m.eta_L(S, y), x))) != \
                    LS.key(x):
                _brute_note(violations, "L-right-unit", LS.key(x))
    return _brute_report(violations, checked)


def brute_t_associativity(S, max_arity=1, max_vertices=2,
                          max_valency=2) -> dict:
    """Substitution associativity on T(T(T S)), as check_t_associativity
    states it."""
    from feyngraph import monads as m
    violations, checked = [], 0
    TS = m.TSpecies(S, max_vertices, max_valency)
    TTS = m.TSpecies(TS, max_vertices, max_valency)
    T3 = m.TSpecies(TTS, max_vertices, max_valency)
    for n in range(max_arity + 1):
        for t3 in T3.elements(n):
            checked += 1
            # outer-first: flatten the two outer layers, then the inner
            lhs = m.mu_T(TS, m.mu_T(TTS, t3))
            # inner-first: flatten each decoration, then the outer layer
            rhs = m.mu_T(TS, m._fmap_T(lambda tt: m.mu_T(TS, tt), t3))
            if TS.key(lhs) != TS.key(rhs):
                _brute_note(violations, "T-assoc", TS.key(lhs), TS.key(rhs))
    return _brute_report(violations, checked)


# -- substitution colimits -----------------------------------------------------------
#
# The substitution colimit by the general union-find, and mu_T and
# delete_vertices through it.  Each of the latter returns the
# substitution with its result, so that the edge classes can be compared
# too.


def brute_substitute(gog):
    """substitute(gog) by union-find over every base and piece edge, with
    each class's tau checked and the graph built by the validating
    constructor."""
    from feyngraph.errors import InvalidGraphOfGraphs
    from feyngraph.graphs import _UF
    from feyngraph.substitution import Substitution

    base = gog.base
    uf = _UF()
    for e in base.edges:
        uf.add(("b", e))
    for v, (piece, _) in gog.pieces.items():
        for pe in piece.edges:
            uf.add(("p", v, pe))
    for v, (piece, boundary) in gog.pieces.items():
        for p_port, h in boundary.items():
            e = base.s[h]
            uf.union(("b", base.tau[e]), ("p", v, p_port))
            uf.union(("b", e), ("p", v, piece.tau[p_port]))
    cls = {r: frozenset(xs) for r, xs in uf.classes().items()}
    edge_of = {x: cls[uf.find(x)] for x in uf.parent}
    new_edges = set(edge_of.values())
    new_tau = {}
    for c in new_edges:
        imgs = set()
        for item in c:
            if item[0] == "b":
                imgs.add(edge_of[("b", base.tau[item[1]])])
            else:
                _, v, pe = item
                imgs.add(edge_of[("p", v, gog.pieces[v][0].tau[pe])])
        if len(imgs) != 1:
            raise InvalidGraphOfGraphs("piece boundaries are inconsistent with tau")
        new_tau[c] = imgs.pop()
    halves, s, t, verts = set(), {}, {}, set()
    for v, (piece, _) in gog.pieces.items():
        for h in piece.half_edges:
            hh = ("p", v, h)
            halves.add(hh)
            s[hh] = edge_of[("p", v, piece.s[h])]
            t[hh] = ("p", v, piece.t[h])
        verts.update(("p", v, w) for w in piece.vertices)
    colimit = FeynmanGraph(new_edges, new_tau, halves, s, t, verts)
    edge_class = {e: edge_of[("b", e)] for e in base.edges}
    piece_edge = {(v, pe): edge_of[("p", v, pe)]
                  for v, (piece, _) in gog.pieces.items() for pe in piece.edges}
    return Substitution(gog, colimit, edge_class, piece_edge)


def brute_mu_T(TS, t):
    """(mu_T(TS, t), the substitution it is the colimit of)."""
    from feyngraph.errors import ColourMismatch
    from feyngraph.monads import TElem
    from feyngraph.substitution import GraphOfGraphs

    pieces = {}
    for v in t.graph.vertices:
        tv = t.vdec[v]
        pieces[v] = (tv.graph, dict(zip(tv.ports, t.graph.halves_at(v))))
    sub = brute_substitute(GraphOfGraphs(t.graph, pieces))
    colours = {}

    def put(e, c):
        if e in colours and colours[e] != c:
            raise ColourMismatch("inconsistent colours in substitution")
        colours[e] = c

    for e, c in t.colours.items():
        put(sub.edge_class[e], c)
    vdec = {}
    for v in t.graph.vertices:
        tv = t.vdec[v]
        for pe, c in tv.colours.items():
            put(sub.piece_edge[(v, pe)], c)
        for wv in tv.graph.vertices:
            vdec[("p", v, wv)] = tv.vdec[wv]
    ports = tuple(sub.edge_class[e] for e in t.ports)
    return TElem(sub.colimit, ports, colours, vdec), sub


def brute_delete_vertices(g: FeynmanGraph, w):
    """delete_vertices(g, w) through brute_substitute: a stick at each
    deleted bivalent vertex, the identity corolla at every other vertex."""
    from feyngraph.errors import NotDeletable
    from feyngraph.monads import VertexDeletion, _deleted_stick
    from feyngraph.substitution import (GraphOfGraphs, identity_half,
                                        identity_piece)

    w = frozenset(w)
    for v in w:
        if v not in g.vertices:
            raise NotDeletable(f"unknown vertex {v!r}")
        if g.valency(v) not in (0, 2):
            raise NotDeletable(f"vertex {v!r} has valency {g.valency(v)}")
    isolated = {v for v in w if g.valency(v) == 0}
    bivalent = w - isolated
    g1 = g if not isolated else FeynmanGraph(
        g.edges, g.tau, g.half_edges, g.s, g.t,
        [v for v in g.vertices if v not in isolated])
    if bivalent:
        kept = [v for v in g1.vertices if v not in bivalent]
        sub = brute_substitute(GraphOfGraphs(g1, {
            v: _deleted_stick(g1, v) if v in bivalent
            else identity_piece(g1, v) for v in g1.vertices}))
        target = sub.colimit
        edge_corr = dict(sub.edge_class)
        vmap = {v: ("p", v, "*") for v in kept}
        hmap = {h: identity_half(v, h) for v in kept for h in g1.halves_at(v)}
    else:
        target = g1
        edge_corr = {e: e for e in g1.edges}
        vmap = {v: v for v in g1.vertices}
        hmap = {h: h for h in g1.half_edges}
    fresh = {}
    for v in sort_ids(isolated):
        e1, e2 = (("z", v), "1"), (("z", v), "2")
        tau = target.tau.copy()
        tau[e1], tau[e2] = e2, e1
        target = FeynmanGraph(target.edges | {e1, e2}, tau,
                              target.half_edges, target.s, target.t,
                              target.vertices)
        fresh[v] = (e1, e2)
    return VertexDeletion(g, w, target, edge_corr, hmap, vmap, fresh)


# -- distributive laws ---------------------------------------------------------------

def brute_law_LT(S, t):
    """lambda_LT through the general machinery: substitute (by
    brute_substitute) the disjoint union of the factors' corollas at
    every vertex, then split the
    colimit into connected components."""
    from feyngraph.graphs import (corolla, isolated_vertex, sort_ids,
                                  tagged_union)
    from feyngraph.monads import LSpecies, TElem, TSpecies
    from feyngraph.substitution import GraphOfGraphs

    om = S.palette.omega
    pieces = {}
    vdec = {}  # colimit vertex -> element
    for v in sort_ids(t.graph.vertices):
        le, order = t.vdec[v], t.graph.halves_at(v)
        graphs, boundary = [], {}
        for fi, (block, elem) in enumerate(le):
            tag = ("f", fi)
            if block:
                labels = [("fp", p) for p in block]
                c = corolla(labels)
                graphs.append((tag, c))
                for p in block:
                    boundary[(tag, ("fp", p))] = order[p]
                # elem follows the block; the corolla reads its own order
                src = [("h", x) for x in labels]
                elem = S.act(elem, tuple(src.index(h)
                                         for h in c.halves_at("*")))
            else:
                graphs.append((tag, isolated_vertex()))
            vdec[("p", v, (tag, "*"))] = elem
        # the empty product deletes the (isolated) vertex outright
        pieces[v] = (tagged_union(graphs), boundary)
    sub = brute_substitute(GraphOfGraphs(t.graph, pieces))
    colours = {}
    for e, c in t.colours.items():
        colours[sub.edge_class[e]] = c
    for v in t.graph.vertices:
        for fi, (block, elem) in enumerate(t.vdec[v]):
            tag = ("f", fi)
            cols = S.colour_of(elem)
            for i, p in enumerate(block):
                colours[sub.piece_edge[(v, (tag, ("fp", p)))]] = cols[i]
                colours[sub.piece_edge[(v, (tag, ("in", ("fp", p))))]] = \
                    om[cols[i]]
    port_class = [sub.edge_class[e] for e in t.ports]
    factors = []
    for comp in sub.colimit.connected_components():
        block = tuple(i for i, e in enumerate(port_class)
                      if e in comp.edges)
        factors.append((block, TElem(
            comp, tuple(port_class[i] for i in block),
            {e: colours[e] for e in comp.edges},
            {v2: vdec[v2] for v2 in comp.vertices})))
    return LSpecies(TSpecies(S)).norm(factors)


def brute_telem_key(S, t) -> tuple:
    """telem_key as a loop over the labelings of canonical_labelings: for
    each, every vertex's element moved into the order of its edges'
    labels, listed by vertex label; the least of these."""
    from feyngraph.graphs import canonical_labelings

    g = t.graph
    port_pos = {e: i for i, e in enumerate(t.ports)}
    tokens = {e: (repr(t.colours[e]), port_pos.get(e, -1)) for e in g.edges}
    cert, labs = canonical_labelings(g, edge_tokens=tokens)
    best = None
    for eidx, vidx in labs:
        vser = []
        for v in g.vertices:
            order = g.halves_at(v)
            new_order = sorted(order, key=lambda hh: eidx[g.s[hh]])
            perm = tuple(order.index(hh) for hh in new_order)
            vser.append((vidx[v], S.key_text(S.act(t.vdec[v], perm))))
        cand = (repr(cert), tuple(sorted(vser)))
        if best is None or cand < best:
            best = cand
    return best


# -- restriction along a Kleisli morphism --------------------------------------------
#
# restrict_kleisli and algebra_evaluate as they were before restriction
# kept a plan on the morphism: every call works out the half orders, tail
# images, contractions and realignments afresh.

def brute_algebra_evaluate(A: CircuitAlgebraOps, piece: FeynmanGraph,
                           boundary: dict, colours: dict, elems: dict):
    """Evaluate a decorated piece to a single algebra element whose
    positions follow the base vertex's sorted half order: box the vertex
    elements together, contract every internal edge pair, box a formal
    unit for each stick component, then realign the positions, which now
    face the piece ports, along the boundary."""
    S = A.species
    acc = A.unit0()
    slots = []
    for u in sort_ids(piece.vertices):
        order = piece.halves_at(u)
        acc = A.box(acc, elems[u])
        if acc is None:
            raise OutOfBounds("piece evaluation exceeds the algebra bounds")
        slots += list(order)
    if not piece.vertices:
        # degenerate stick piece: the formal unit on its edge colour
        ports = sort_ids(piece.ports)
        if len(ports) != 2:
            raise FormatError("vertex-free piece must be a stick")
        return A.eps(colours[ports[0]])
    # contract internal pairs
    changed = True
    while changed:
        changed = False
        for i in range(len(slots)):
            for j in range(i + 1, len(slots)):
                if piece.tau[piece.s[slots[i]]] == piece.s[slots[j]]:
                    acc = A.zeta(acc, i, j)
                    if acc is None:
                        raise OutOfBounds("contraction exceeds bounds")
                    del slots[j], slots[i]
                    changed = True
                    break
            if changed:
                break
    ports = [piece.tau[piece.s[h]] for h in slots]
    if len(ports) < len(boundary):
        # a stick component faces two ports and no slot: a formal unit
        for e, f in piece.stick_components():
            acc = A.box(acc, A.eps(colours[e]))
            if acc is None:
                raise OutOfBounds("piece evaluation exceeds the algebra "
                                  "bounds")
            ports += [e, f]
    # realign to the base order
    pos_of = {boundary[p]: i for i, p in enumerate(ports)}
    sigma = tuple(pos_of[h] for h in sorted(boundary.values(), key=idkey))
    return S.act(acc, sigma)


def brute_restrict_kleisli(A: CircuitAlgebraOps, kl: KleisliMorphism,
                           dec: Decoration) -> Decoration:
    """Restriction of the nerve of A along a Kleisli morphism: transport a
    decoration of the target back to the source (structure-map evaluation
    on refinement pieces, unit insertion on deletions)."""
    S = A.species
    tail = kl.pointed_tail
    colim = kl._sub.colimit
    # pull colours back to the colimit
    ccol = {c: dec.edge_colours[tail.edge_image(c)] for c in colim.edges}
    # vertex elements on the colimit
    celems, corders = {}, {}
    for cv in colim.vertices:
        order = colim.halves_at(cv)
        corders[cv] = order
        if cv in tail.deleted:
            if colim.valency(cv) == 0:
                a, _ = tail.fresh_images(cv)
                e = A.eps(dec.edge_colours[a])
                z = A.zeta(e, 0, 1)
                if z is None:
                    raise OutOfBounds("unit insertion exceeds bounds")
                celems[cv] = z
            else:
                want = tuple(ccol[colim.tau[colim.s[h]]] for h in order)
                cand = A.eps(want[0])
                if S.colour_of(cand) != want:
                    raise ColourMismatch("unit colour does not match")
                celems[cv] = cand
        else:
            tv = tail.vertex_image(cv)
            telem = dec.vertex_elems[tv]
            torder = kl.target.halves_at(tv)
            sigma = tuple(torder.index(tail.half_image(h)) for h in order)
            celems[cv] = S.act(telem, sigma)
    # evaluate pieces
    ecol = {e: ccol[kl._sub.edge_class[e]] for e in kl.source.edges}
    velems = {}
    for v in kl.source.vertices:
        piece, boundary = kl.refinement.pieces[v]
        pcol = {pe: ccol[kl._sub.piece_edge[(v, pe)]] for pe in piece.edges}
        pelems = {}
        for u in piece.vertices:
            cu = ("p", v, u)
            elem = celems[cu]
            order = [h[2] for h in corders[cu]]
            want = piece.halves_at(u)
            sigma = tuple(order.index(h) for h in want)
            pelems[u] = S.act(elem, sigma)
        velems[v] = brute_algebra_evaluate(A, piece, boundary, pcol, pelems)
    return Decoration(ecol, velems, S)


# -- algebra morphisms ---------------------------------------------------------------

def brute_is_algebra_morphism(A, B, phi, max_arity) -> bool:
    """Whether phi: A -> B commutes with eps, the external unit, zeta, box
    and the symmetric action, the action tried under every one of the n!
    permutations of each arity n <= max_arity (keep it at 4 or less)."""
    SA, SB = A.species, B.species

    def same(a, b):
        return SB.key(a) == SB.key(b)

    if not all(same(phi(A.eps(c)), B.eps(c)) for c in SA.palette.colours):
        return False
    if not same(phi(A.unit0()), B.unit0()):
        return False
    om = SA.palette.omega
    elems = {n: SA.elements(n) for n in range(max_arity + 1)}
    for n, xs in elems.items():
        for x in xs:
            if not all(same(phi(SA.act(x, sigma)), SB.act(phi(x), sigma))
                       for sigma in itertools.permutations(range(n))):
                return False
            cols = SA.colour_of(x)
            for i, j in itertools.combinations(range(n), 2):
                if cols[i] != om[cols[j]]:
                    continue
                za, zb = A.zeta(x, i, j), B.zeta(phi(x), i, j)
                if za is not None and zb is not None and \
                        not same(phi(za), zb):
                    return False
            for y in (y for m in range(max_arity + 1 - n) for y in elems[m]):
                ba = A.box(x, y)
                if ba is None:
                    continue
                bb = B.box(phi(x), phi(y))
                if bb is not None and not same(phi(ba), bb):
                    return False
    return True


def brute_algebra_morphisms(A, B, max_arity) -> list:
    """Every colour-preserving map A -> B up to max_arity, as a dict from
    the key of an element to its image, that brute_is_algebra_morphism
    accepts."""
    SA, SB = A.species, B.species
    xs = [x for n in range(max_arity + 1) for x in SA.elements(n)]
    images = [[y for y in SB.elements(len(SA.colour_of(x)))
               if SB.colour_of(y) == SA.colour_of(x)] for x in xs]
    out = []
    for vals in itertools.product(*images):
        fwd = {SA.key(x): y for x, y in zip(xs, vals)}
        if brute_is_algebra_morphism(A, B, lambda x: fwd[SA.key(x)],
                                     max_arity):
            out.append(fwd)
    return out
