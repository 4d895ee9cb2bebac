"""The normal oplax nerve of a finite strict 2-category, truncated.

A p-simplex consists of vertices x_i, edges x_(i,j): x_i -> x_j for i < j,
and triangles x_(i,j,k): x_(i,k) => x_(j,k) . x_(i,j) for i < j < k, such
that every quadruple i < j < k < l satisfies the tetrahedron pasting
equality

    (x_(k,l) * x_(i,j,k)) . x_(i,k,l) == (x_(j,k,l) * x_(i,j)) . x_(i,j,l).

A simplex is stored flat: its edges and triangles are tuples of cell ids in
the ``combinations`` order of their keys (i, j) and (i, j, k), so the keys
are implicit and fixed per dimension (``layout``).  Faces reindex along the
cofaces of the cosimplicial family of orientals (which carry generators to
generators); the degeneracy s_i repeats vertex i with an identity edge and
identity triangles.  Both are tuple gathers through index tables computed
once per (p, i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .core import TwoCategory, TwoFunctor


class Layout(NamedTuple):
    pairs: tuple               # edge keys (i, j), in combinations order
    triples: tuple             # triangle keys (i, j, k), likewise
    edge_at: dict              # key -> position in OrientedSimplex.edges
    tri_at: dict               # key -> position in OrientedSimplex.triangles


@lru_cache(maxsize=None)
def layout(p: int) -> Layout:
    """The keys of a p-simplex's edges and triangles and their positions."""
    pairs = tuple(combinations(range(p + 1), 2))
    triples = tuple(combinations(range(p + 1), 3))
    return Layout(pairs, triples, {k: n for n, k in enumerate(pairs)},
                  {k: n for n, k in enumerate(triples)})


class OrientedSimplex(NamedTuple):
    """Compared and hashed as the tuple (dim, vertices, edges, triangles);
    the keys being fixed per dimension, same-dimension simplices sort as
    they would with each id paired with its key."""
    dim: int
    vertices: tuple            # length dim+1, object ids
    edges: tuple               # 1-cell ids keyed by layout(dim).pairs
    triangles: tuple           # 2-cell ids keyed by layout(dim).triples

    def edge(self, i: int, j: int) -> str:
        return self.edges[layout(self.dim).edge_at[(i, j)]]

    def triangle(self, i: int, j: int, k: int) -> str:
        return self.triangles[layout(self.dim).tri_at[(i, j, k)]]


@lru_cache(maxsize=None)
def _search_plan(p: int):
    """By position, per edge (j, k): the triangles (i, j, k), i < j, it
    completes, as their position and those of (i, k) and (i, j); per
    triangle (j, k, l): the tetrahedra (i, j, k, l) it completes, as the
    positions of (k, l), (i, j, k), (i, k, l), (i, j) and (i, j, l)."""
    L = layout(p)
    ea, ta = L.edge_at, L.tri_at
    return (tuple(tuple((ta[(i, j, k)], ea[(i, k)], ea[(i, j)])
                        for i in range(j)) for j, k in L.pairs),
            tuple(tuple((ea[(k, l)], ta[(i, j, k)], ta[(i, k, l)],
                         ea[(i, j)], ta[(i, j, l)]) for i in range(j))
                  for j, k, l in L.triples))


def enumerate_simplices(D: TwoCategory, p: int,
                        pinned_vertices: dict | None = None,
                        pinned_edges: dict | None = None,
                        pinned_triangles: dict | None = None):
    """All p-simplices of the normal oplax nerve of D, in lexicographic
    order of (vertices, edges, triangles), edges and triangles being keyed
    in ``combinations`` order.

    One depth-first search fills vertices, then edges, then triangles, and
    cuts a branch as soon as it cannot be completed: a vertex pair without
    an edge, a triangle (i, j, k) without a 2-cell once its last edge (j, k)
    is placed, or a failed tetrahedron once its last triangle (j, k, l) is.
    Only non-simplices are cut, so the order is that of the filtered
    product of all choices.  The cells placed so far are two lists, E and
    T, in the positions of ``layout(p)``; what each placed cell completes
    is read off ``_search_plan(p)``, and candidates off ``D.homs``.

    Cells can be pinned in advance (used when enumerating relative to a
    fixed boundary part); a pinned cell admits itself if it lies in the
    hom-set it would be drawn from, and nothing otherwise."""
    L = layout(p)
    tri_plan, tet_plan = _search_plan(p)
    ne, nt = len(L.pairs), len(L.triples)
    pv = [(pinned_vertices or {}).get(m) for m in range(p + 1)]
    pe = [(pinned_edges or {}).get(k) for k in L.pairs]
    pt = [(pinned_triangles or {}).get(k) for k in L.triples]
    objects = sorted(D.objects)
    hom1, hom2 = D.homs[0].get, D.homs[1].get
    comp1, vcomp, whisk_l, whisk_r = D.comp1, D.vcomp, D.whisk_l, D.whisk_r
    vs, vt, E, T = [], (), [None] * ne, [None] * nt
    edge_choices, tri_choices = [()] * ne, [()] * nt
    out = []

    def fill_vertices(m):
        nonlocal vt
        if m > p:
            vt = tuple(vs)    # shared by all simplices on these vertices
            return fill_edges(0)
        for v in objects if pv[m] is None else (pv[m],):
            vs.append(v)
            for l in range(m):
                n = L.edge_at[(l, m)]
                cands = hom1((vs[l], v), ())
                if pe[n] is not None:
                    cands = (pe[n],) if pe[n] in cands else ()
                edge_choices[n] = cands
                if not cands:
                    break
            else:
                fill_vertices(m + 1)
            vs.pop()

    def fill_edges(n):
        if n == ne:
            return fill_triangles(0)
        for e in edge_choices[n]:
            E[n] = e
            for m, ik, ij in tri_plan[n]:
                cands = hom2((E[ik], comp1[(e, E[ij])]), ())
                if pt[m] is not None:
                    cands = (pt[m],) if pt[m] in cands else ()
                tri_choices[m] = cands
                if not cands:
                    break
            else:
                fill_edges(n + 1)

    def fill_triangles(n):
        if n == nt:
            out.append(OrientedSimplex(p, vt, tuple(E), tuple(T)))
            return
        for t in tri_choices[n]:
            T[n] = t
            # the pasting equality of each tetrahedron (i, j, k, l) that t
            # completes, (k,l) * (i,j,k) . (i,k,l) == t * (i,j) . (i,j,l)
            for kl, ijk, ikl, ij, ijl in tet_plan[n]:
                if vcomp[(whisk_l[(E[kl], T[ijk])], T[ikl])] != \
                        vcomp[(whisk_r[(t, E[ij])], T[ijl])]:
                    break
            else:
                fill_triangles(n + 1)

    fill_vertices(0)
    # the fill functions reach each other through closure cells; unbinding
    # them frees this call's lists without waiting for the cyclic GC
    fill_vertices = fill_edges = fill_triangles = None
    return out


@lru_cache(maxsize=None)
def _extension_plan(p: int):
    """The positions in layout(p) of a (p-1)-simplex's edges and triangles,
    and, in placement order, the new edges (j, p) and triangles (i, j, p)
    with what each completes, read off ``_search_plan(p)``."""
    L, L0 = layout(p), layout(p - 1)
    tri_plan, tet_plan = _search_plan(p)
    new_e = [L.edge_at[(j, p)] for j in range(p)]
    new_t = [L.tri_at[(i, j, p)] for i, j in L0.pairs]
    return ([L.edge_at[k] for k in L0.pairs],
            [L.tri_at[k] for k in L0.triples],
            tuple((n, tri_plan[n]) for n in new_e),
            tuple((n, tet_plan[n]) for n in new_t))


def extensions(D: TwoCategory, x: OrientedSimplex) -> list:
    """Every (x.dim+1)-simplex y of the nerve of D with d_last y = x, in
    lexicographic order.  The search of ``enumerate_simplices`` restricted
    to the new vertex p = x.dim + 1: it places p, the edges (j, p) and the
    triangles (i, j, p), and checks the tetrahedra (i, j, k, p); x itself
    is taken to be a simplex and is not re-checked."""
    p = x.dim + 1
    old_e, old_t, edge_steps, tri_steps = _extension_plan(p)
    L = layout(p)
    E, T = [None] * len(L.pairs), [None] * len(L.triples)
    for n, e in zip(old_e, x.edges):
        E[n] = e
    for n, t in zip(old_t, x.triangles):
        T[n] = t
    hom1, hom2 = D.homs[0].get, D.homs[1].get
    comp1, vcomp, whisk_l, whisk_r = D.comp1, D.vcomp, D.whisk_l, D.whisk_r
    tri_choices = [()] * len(T)
    out = []

    def fill_edges(j):
        if j == p:
            return fill_triangles(0)
        n, completes = edge_steps[j]
        for e in edge_choices[j]:
            E[n] = e
            for m, ik, ij in completes:
                tri_choices[m] = hom2((E[ik], comp1[(e, E[ij])]), ())
                if not tri_choices[m]:
                    break
            else:
                fill_edges(j + 1)

    def fill_triangles(j):
        if j == len(tri_steps):
            out.append(OrientedSimplex(p, vt, tuple(E), tuple(T)))
            return
        n, completes = tri_steps[j]
        for t in tri_choices[n]:
            T[n] = t
            for kl, ijk, ikl, ij, ijl in completes:
                if vcomp[(whisk_l[(E[kl], T[ijk])], T[ikl])] != \
                        vcomp[(whisk_r[(t, E[ij])], T[ijl])]:
                    break
            else:
                fill_triangles(j + 1)

    for v in sorted(D.objects):
        edge_choices = [hom1((u, v), ()) for u in x.vertices]
        if all(edge_choices):
            vt = x.vertices + (v,)
            fill_edges(0)
    fill_edges = fill_triangles = None    # free the closure cycle now
    return out


@lru_cache(maxsize=None)
def _face_table(p: int, i: int):
    """Positions in a p-simplex of the vertices, edges and triangles of
    its face d_i, in the layout of dimension p - 1."""
    dl = lambda m: m if m < i else m + 1
    L, L0 = layout(p), layout(p - 1)
    return (tuple(dl(m) for m in range(p)),
            tuple(L.edge_at[(dl(a), dl(b))] for a, b in L0.pairs),
            tuple(L.tri_at[(dl(a), dl(b), dl(c))] for a, b, c in L0.triples))


def face(D: TwoCategory, x: OrientedSimplex, i: int) -> OrientedSimplex:
    """d_i: delete vertex i and reindex along the coface [p-1] -> [p]."""
    p = x.dim
    if not 0 <= i <= p or p < 1:
        raise ValueError("no face d_%d of a %d-simplex" % (i, p))
    vt, et, tt = _face_table(p, i)
    v, e, t = x.vertices, x.edges, x.triangles
    return OrientedSimplex(p - 1, tuple([v[m] for m in vt]),
                           tuple([e[m] for m in et]),
                           tuple([t[m] for m in tt]))


@lru_cache(maxsize=None)
def _degeneracy_table(p: int, i: int):
    """Positions in a p-simplex of the vertices, edges and triangles of
    s_i, in the layout of dimension p + 1.  A negative edge entry -1-v is
    the identity 1-cell of vertex v; a negative triangle entry -1-m is the
    identity 2-cell of the new edge m (the collapsed triangles
    x_(i,c) => x_(i,c) . 1 and x_(a,i) => 1 . x_(a,i))."""
    sg = lambda m: m if m <= i else m - 1
    L, L1 = layout(p), layout(p + 1)
    return (tuple(sg(m) for m in range(p + 2)),
            tuple(-1 - sg(a) if sg(a) == sg(b) else L.edge_at[(sg(a), sg(b))]
                  for a, b in L1.pairs),
            tuple(-1 - L1.edge_at[(a, c)] if sg(b) in (sg(a), sg(c))
                  else L.tri_at[(sg(a), sg(b), sg(c))]
                  for a, b, c in L1.triples))


def degeneracy(D: TwoCategory, x: OrientedSimplex, i: int) -> OrientedSimplex:
    """s_i: repeat vertex i; the collapsed edge is an identity 1-cell and
    collapsed triangles are identity 2-cells."""
    p = x.dim
    if not 0 <= i <= p:
        raise ValueError("no degeneracy s_%d of a %d-simplex" % (i, p))
    vt, et, tt = _degeneracy_table(p, i)
    v, e, t, id1, id2 = x.vertices, x.edges, x.triangles, D.id1, D.id2
    edges = tuple([e[m] if m >= 0 else id1[v[-1 - m]] for m in et])
    return OrientedSimplex(
        p + 1, tuple([v[m] for m in vt]), edges,
        tuple([t[m] if m >= 0 else id2[edges[-1 - m]] for m in tt]))


@dataclass
class TruncSimplicialSet:
    N: int
    levels: tuple              # levels[n] = sorted tuple of n-simplices
    face: dict                 # (i, x) -> simplex
    degen: dict                # (i, x) -> simplex
    degenerate: dict           # x -> bool

    def nondegenerate(self, n: int):
        return [x for x in self.levels[n] if not self.degenerate[x]]


def nerve(D: TwoCategory, N: int) -> TruncSimplicialSet:
    levels = tuple(tuple(sorted(enumerate_simplices(D, n)))
                   for n in range(N + 1))
    fmap = {}
    dmap = {}
    for n in range(1, N + 1):
        for x in levels[n]:
            for i in range(n + 1):
                fmap[(i, x)] = face(D, x, i)
    for n in range(N):
        for x in levels[n]:
            for i in range(n + 1):
                dmap[(i, x)] = degeneracy(D, x, i)
    # degenerate simplices are exactly the images of degeneracies
    image = set(dmap.values())
    degenerate = {x: x in image for lev in levels for x in lev}
    return TruncSimplicialSet(N, levels, fmap, dmap, degenerate)


def check_simplicial_identities(X: TruncSimplicialSet) -> bool:
    """All identities among face/degeneracy maps that stay within the
    truncation, verified exhaustively."""
    for n in range(2, X.N + 1):
        for x in X.levels[n]:
            for j in range(n + 1):
                for i in range(j):
                    # d_i d_j = d_{j-1} d_i for i < j
                    if X.face[(i, X.face[(j, x)])] != \
                            X.face[(j - 1, X.face[(i, x)])]:
                        return False
    for n in range(X.N - 1):
        for x in X.levels[n]:
            for j in range(n + 1):
                for i in range(j + 1):
                    # s_i s_j = s_{j+1} s_i for i <= j
                    if X.degen[(j + 1, X.degen[(i, x)])] != \
                            X.degen[(i, X.degen[(j, x)])]:
                        return False
    for n in range(X.N):
        for x in X.levels[n]:
            for j in range(n + 1):
                for i in range(n + 2):
                    y = X.degen[(j, x)]
                    got = X.face[(i, y)]
                    if i < j:
                        want = X.degen[(j - 1, X.face[(i, x)])] \
                            if n >= 1 else None
                        if n >= 1 and got != want:
                            return False
                    elif i in (j, j + 1):
                        if got != x:
                            return False
                    else:
                        want = X.degen[(j, X.face[(i - 1, x)])] \
                            if n >= 1 else None
                        if n >= 1 and got != want:
                            return False
    return True


def map_simplex(F: TwoFunctor, x: OrientedSimplex) -> OrientedSimplex:
    return OrientedSimplex(
        x.dim,
        tuple(F.on_objects[v] for v in x.vertices),
        tuple(F.on_one[e] for e in x.edges),
        tuple(F.on_two[t] for t in x.triangles))


def induced_map(F: TwoFunctor, N: int):
    """The simplicial map nerve(F.source, N) -> nerve(F.target, N) as a
    dict simplex -> simplex over all levels."""
    out = {}
    for n in range(N + 1):
        for x in enumerate_simplices(F.source, n):
            out[x] = map_simplex(F, x)
    return out
