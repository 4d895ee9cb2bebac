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

Simplices are found one vertex at a time: ``extensions(D, x)`` gives every
simplex whose last face is x, and ``simplex_levels`` grows the levels
0..N from the objects of D by it.  This is the only simplex search.
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
def _extension_plan(p: int):
    """The positions in layout(p) of a (p-1)-simplex's edges and triangles,
    and, in placement order, the new cells with what each completes: per
    edge (j, p), the triangles (i, j, p), i < j, as their position and
    those of (i, p) and (i, j); per triangle (j, k, p), the tetrahedra
    (i, j, k, p), i < j, as the positions of (k, p), (i, j, k), (i, k, p),
    (i, j) and (i, j, p)."""
    L, L0 = layout(p), layout(p - 1)
    ea, ta = L.edge_at, L.tri_at
    return ([ea[k] for k in L0.pairs], [ta[k] for k in L0.triples],
            tuple((ea[(j, p)], tuple((ta[(i, j, p)], ea[(i, p)], ea[(i, j)])
                                     for i in range(j)))
                  for j in range(p)),
            tuple((ta[(j, k, p)], tuple((ea[(k, p)], ta[(i, j, k)],
                                         ta[(i, k, p)], ea[(i, j)],
                                         ta[(i, j, p)]) for i in range(j)))
                  for j, k in L0.pairs))


def extensions(D: TwoCategory, x: OrientedSimplex) -> list:
    """Every (x.dim+1)-simplex y of the nerve of D with d_last y = x, in
    lexicographic order of (vertices, edges, triangles).

    A depth-first search at the new vertex p = x.dim + 1 places p, then
    the edges (j, p), then the triangles (i, j, p), and cuts a branch as
    soon as it cannot be completed: a vertex without an edge from some
    vertex of x, a triangle (i, j, p) without a 2-cell once its last edge
    (j, p) is placed, or a failed tetrahedron (i, j, k, p) once its last
    triangle (j, k, p) is.  The cells are two lists, E and T, in the
    positions of ``layout(p)``; what each new cell completes is read off
    ``_extension_plan(p)``, and candidates off ``D.homs``.  x itself is
    taken to be a simplex and is not re-checked."""
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


def simplex_levels(D: TwoCategory, N: int) -> list:
    """The p-simplices of the nerve of D for p = 0..N, each level a sorted
    list: level 0 is the objects, and each later level the union of the
    ``extensions`` of the level below."""
    levels = [[OrientedSimplex(0, (v,), (), ()) for v in sorted(D.objects)]]
    for _ in range(N):
        levels.append(sorted(y for x in levels[-1] for y in extensions(D, x)))
    return levels


def enumerate_simplices(D: TwoCategory, p: int) -> list:
    """All p-simplices of the nerve of D, in lexicographic order of
    (vertices, edges, triangles): level p of ``simplex_levels``."""
    return simplex_levels(D, p)[p]


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
    levels = tuple(map(tuple, simplex_levels(D, N)))
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

