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
identity triangles.

Simplices are found one vertex at a time, as the children of their last
face.  Up to dimension 3, ``extensions(D, x)`` searches for every simplex
whose last face is x, and ``grow`` extends a level by it, from ROOT, the
empty (-1)-simplex, whose extensions are the objects of D.  Above it there
is nothing left to search: the nerve of a 2-category is 3-coskeletal, so
``join`` reads the children of x off those of its faces d_0 x, ..., d_3 x
and the face tables one level down, composing no 2-cell.
``simplex_operators`` builds the levels 0..N so.

The nerve's operators are found, not built.  On the grown levels 0..3
they are found by key from the parent: ``grow`` keys each simplex y by
the position of its parent d_last y and its new cells; then d_last y is
the parent, and for i < last, d_i y is the child of d_i(parent) and s_i y
that of s_i(parent) whose new cells are a gather of y's, while s_last y is
a child of y itself (``operator_row``).  From dimension 3 up, a simplex w
is fixed by its faces d_0 w, ..., d_3 w, so every joined level has a
face-key index, the 4-tuple of those positions -> the position of w, and
every operator landing on it is an integer lookup there: its faces
d_0 .. d_3 follow from the simplicial identities and the tables already
built.  A key two simplices share, or a lookup that misses, is an
AxiomError naming the level, the operator and the simplex.
``simplex_operators`` keeps the operators as position tables, which
``nerve`` returns as they come, in a ``TruncSimplicialSet``, and off
which ``build_B`` (``specseq``) reads every cell and operator of B(F).
``check_simplicial_identities`` composes those tables row by row; it
checks nerves, loaded nerve files and both directions of B(F).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .core import AxiomError, TwoCategory, TwoFunctor


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
    taken to be a simplex and is not re-checked.  ``simplex_operators``
    runs it up to p = 3 only, where the one tetrahedron checked is
    (0, 1, 2, 3); above that ``join`` needs no search."""
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


# the empty simplex, of dimension -1: its extensions are the vertices
ROOT = OrientedSimplex(-1, (), (), ())


@lru_cache(maxsize=None)
def _delta_plan(m: int):
    """Gathers for a simplex y with last vertex m, which extends its parent
    d_m y by the new cells N: vertex m, the edges (j, m) and the triangles
    (a, b, m) in layout(m - 1).pairs order.  X is N followed by the
    identity 1-cell of vertex m and the identity 2-cell of each edge (j, m).
    Returns the positions in y's edges and triangles of its new ones, and
    per i, as positions in X, the new cells of d_i y (i < m, over
    d_i d_m y) and of s_i y (i <= m, over s_i d_m y, or over y for i = m)."""
    L, L1 = layout(m), layout(m - 1)
    n = 1 + m + len(L1.pairs)    # X[n], X[n + 1 + j]: the identities
    tri = lambda a, b: 1 + m + L1.edge_at[(a, b)]
    faces = []
    for i in range(m):
        dl = lambda j: j if j < i else j + 1
        faces.append((0,) + tuple(1 + dl(j) for j in range(m - 1)) + tuple(
            tri(dl(a), dl(b)) for a, b in layout(m - 2).pairs))
    degens = []
    for i in range(m):
        sg = lambda j: j if j <= i else j - 1
        degens.append((0,) + tuple(1 + sg(j) for j in range(m + 1)) + tuple(
            n + 1 + i if (a, b) == (i, i + 1) else tri(sg(a), sg(b))
            for a, b in L.pairs))
    degens.append((0,) + tuple(range(1, m + 1)) + (n,) + tuple(
        tri(a, b) if b < m else n + 1 + a for a, b in L.pairs))
    return ([L.edge_at[(j, m)] for j in range(m)],
            [L.tri_at[(a, b, m)] for a, b in L1.pairs], faces, degens)


def _gather(idx):
    """The function taking a sequence to the tuple of its entries at idx."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda s: tuple([s[k] for k in idx])


class Growth(NamedTuple):
    """The m-simplices that ``grow`` or ``join`` found, sorted.  A grown
    level keeps the keys by which ``operator_row`` finds its simplices; a
    joined one is looked up by its face-key index instead."""
    m: int
    cells: list                # the m-simplices y
    parent: list               # per y, the position of d_m y in the parents
    ext: list                  # per y, X: its new cells N (then, if grown,
                               # identities: see _delta_plan)
    kids: dict = None          # grown only: (parent position, N) -> position


def grow(D: TwoCategory, m: int, parents) -> Growth:
    """The ``extensions`` of the (m-1)-simplices in parents, an iterable of
    (position, simplex) pairs, sorted.  Each y is keyed by its parent's
    position and its new cells N (see ``_delta_plan``), the key by which
    ``operator_row`` finds it as an operator's image."""
    new_e, new_t = map(_gather, _delta_plan(m)[:2])
    id1, id2 = D.id1, D.id2
    found = sorted((y, a, (y.vertices[m],) + new_e(y.edges)
                    + new_t(y.triangles))
                   for a, x in parents for y in extensions(D, x))
    return Growth(m, [y for y, _, _ in found], [a for _, a, _ in found],
                  [N + (id1[N[0]],) + tuple([id2[c] for c in N[1:m + 1]])
                   for _, _, N in found],
                  {(a, N): k for k, (_, a, N) in enumerate(found)})


def operator_row(g: Growth, i: int, kids: dict, below=None,
                 degen: bool = False) -> list:
    """d_i (s_i when degen) on the cells of g, as the position of each
    image in the growth whose ``kids`` are given, or None where that has
    no such key.  For i < m, d_i y extends d_i of y's parent by N without
    vertex i, and s_i y extends s_i of the parent by N with vertex i
    repeated: below is that operator's row on the parents.  s_m y extends
    y itself; d_m y is the parent, g.parent."""
    faces, degens = _delta_plan(g.m)[2:]
    gather = (degens if degen else faces)[i]
    up = range(len(g.ext)) if degen and i == g.m else g.parent
    below = up if below is None else below
    get = _gather(gather)
    return [kids.get((below[a], get(X))) for a, X in zip(up, g.ext)]


def _face_key_index(m: int, cells: list, rows: list) -> dict:
    """The face-key index of the m-simplices cells, m >= 3, whose face rows
    d_0 .. d_3 are rows: (d_0 w, d_1 w, d_2 w, d_3 w) -> the position of
    w.  The nerve is 3-coskeletal, so no two simplices share a key;
    AxiomError naming the level and both where two do."""
    index = dict(zip(zip(*rows), range(len(cells))))
    if len(index) < len(cells):
        for k, key in enumerate(zip(*rows)):
            if index[key] != k:
                raise AxiomError(
                    "level %d: the %d-simplices %r and %r have the same "
                    "faces d_0 .. d_3" % (m, m, cells[k], cells[index[key]]))
    return index


def _look_up(index: dict, rows: list, op: str, cells: list, n: int) -> list:
    """op on the simplices cells, as the position in level n of each image,
    read off level n's face-key index at the image's faces d_0 .. d_3,
    given as four position rows over cells; AxiomError naming the level,
    op and the simplex where the index has no such key."""
    try:
        return list(map(index.__getitem__, zip(*rows)))
    except KeyError:
        x = next(x for x, key in zip(cells, zip(*rows)) if key not in index)
        raise AxiomError("level %d holds no %s of the %d-simplex %r"
                         % (n, op, x.dim, x)) from None


@lru_cache(maxsize=None)
def _join_plan(m: int):
    """For m >= 4, gathers that assemble a child y of an (m-1)-simplex x
    from its faces z_l = d_l y, l = 0, 1, 2, each a child of d_l x, all off
    one concatenation C = x.edges + x.triangles + X_0 + X_1 + X_2, X_l the
    X of z_l (see ``_delta_plan``): y's X, each cell at vertex m read off
    the first z_l that holds it (every such cell misses one of the
    vertices 0, 1, 2), y's edges and its triangles.  A joined X is its new
    cells only: a grown X's identities are read by ``operator_row`` on
    levels 0..2 and by this join of level 4, and by nothing else."""
    L, L1, L2 = layout(m), layout(m - 1), layout(m - 2)
    ne = len(L1.pairs)
    # len(X) one level down, whose m identities are there if it was grown
    width = m + len(L2.pairs) + (m if m == 4 else 0)
    base = ne + len(L1.triples)              # where X_0 starts in C

    def at(*cell):                           # a cell at vertex m, less m
        l = min({0, 1, 2}.difference(cell))
        r = [v - (v > l) for v in cell]
        if not r:
            return base + l * width
        return base + l * width + (1 + r[0] if len(r) == 1
                                   else m + L2.edge_at[tuple(r)])

    X = [at()] + [at(j) for j in range(m)] + [at(a, b) for a, b in L1.pairs]
    return (_gather(X),
            _gather([L1.edge_at[k] if k[1] < m else X[1 + k[0]]
                     for k in L.pairs]),
            _gather([ne + L1.tri_at[k] if k[2] < m
                     else X[1 + m + L1.edge_at[k[:2]]] for k in L.triples]))


def join(m: int, g: Growth, f: list):
    """Level m >= 4 of the nerve from level m - 1, g, and its face rows f:
    the Growth that ``grow`` would give, less its keys and its X's
    identities, and the face rows d_0 .. d_3 of level m, which key its
    face-key index.  The nerve is 3-coskeletal: every cell of an m-simplex
    y at vertex m lies in one of its faces d_0 y, ..., d_3 y, and so does
    every tetrahedron.  So the children y of x are the tuples
    (z_0, ..., z_3), z_l a child of d_l x, with d_a z_b = d_(b-1) z_a for
    a < b <= 3, read off f; then z_l = d_l y, and no 2-cell is composed.
    Each y is gathered from one concatenation of x's cells and the X's of
    z_0, z_1 and z_2 (``_join_plan``)."""
    f0, f1, f2, f3 = f[:4]
    kids, by1, by2, tops = {}, {}, {}, {}
    for z, P in enumerate(g.parent):
        kids.setdefault(P, []).append(z)
        by1.setdefault((P, f0[z]), []).append(z)
        by2.setdefault((P, f0[z], f1[z]), []).append(z)
        tops[(P, f0[z], f1[z], f2[z])] = z
    gx, ge, gt = _join_plan(m)
    ext, found = g.ext, []
    for a, x in enumerate(g.cells):
        P1, P2, P3 = f1[a], f2[a], f3[a]
        vx, cx = x.vertices, x.edges + x.triangles
        for z0 in kids.get(f0[a], ()):
            c0 = cx + ext[z0]
            for z1 in by1.get((P1, f0[z0]), ()):
                c1 = c0 + ext[z1]
                for z2 in by2.get((P2, f1[z0], f1[z1]), ()):
                    z3 = tops.get((P3, f2[z0], f2[z1], f2[z2]))
                    if z3 is not None:
                        C = c1 + ext[z2]
                        X = gx(C)
                        found.append((OrientedSimplex(
                            m, vx + X[:1], ge(C), gt(C)), a, X,
                            z0, z1, z2, z3))
    found.sort(key=itemgetter(0))
    cells, parent, exts, *low = (map(list, zip(*found)) if found
                                 else ([] for _ in range(7)))
    return Growth(m, cells, parent, exts), low


def simplex_operators(D: TwoCategory, N: int):
    """The nerve of D to dimension N as position tables: the sorted levels
    0..N, faces[n][i][k], the position in level n - 1 of d_i of the k-th
    n-simplex, and degens[n][i][k], that in level n + 1 of s_i (faces[0]
    and degens[N] are empty).  The levels to 3 are grown from ROOT, and
    every operator landing on them is found by key (``operator_row``).
    The levels above are joined, and every operator landing on one of
    them is read off its face-key index: for a y of level n, d_i y, i >= 4,
    has the faces d_(i-1) d_l y, l <= 3, and s_i y has the faces
    s_(i-1) d_l y for l < i, y for l = i, i + 1 and s_i d_(l-1) y for
    l > i + 1.  No face or degeneracy is built."""
    gs = [grow(D, 0, [(0, ROOT)])]
    faces = [[gs[0].parent]]              # d_0 of a vertex is ROOT
    index = {}                            # level m >= 4 -> face-key index
    for m in range(1, N + 1):
        up = faces[-1]
        if m < 4:
            g = grow(D, m, enumerate(gs[-1].cells))
            rows = [operator_row(g, i, gs[-1].kids, up[i]) for i in range(m)]
        else:
            g, rows = join(m, gs[-1], up)
            rows += [_look_up(index[m - 1],
                              [compose_rows(up[i - 1], r) for r in rows[:4]],
                              "d_%d" % i, g.cells, m - 1)
                     for i in range(4, m)]
            index[m] = _face_key_index(m, g.cells, rows[:4])
        faces.append(rows + [g.parent])
        gs.append(g)
    degens = []
    for m in range(N):
        if m < 3:
            degens.append([operator_row(gs[m], i, gs[m + 1].kids,
                                        degens[-1][i] if i < m else None,
                                        True) for i in range(m + 1)])
        else:
            f, s, ys = faces[m], degens[-1], range(len(gs[m].cells))
            degens.append([_look_up(index[m + 1], [
                compose_rows(s[i - 1], f[l]) if l < i else ys if l <= i + 1
                else compose_rows(s[i], f[l - 1]) for l in range(4)],
                "s_%d" % i, gs[m].cells, m + 1) for i in range(m + 1)])
    return [g.cells for g in gs], [[]] + faces[1:], degens + [[]]


@dataclass
class TruncSimplicialSet:
    """A simplicial set truncated at N, its operators as position tables:
    faces[n][i][k] is the position in levels[n - 1] of d_i of the k-th
    n-simplex, degens[n][i][k] that in levels[n + 1] of s_i (faces[0] and
    degens[N] are empty), and degenerate[n][k] whether the k-th n-simplex
    is a value of some s_i, worked out from degens."""
    N: int
    levels: list               # levels[n] = the n-simplices, in order
    faces: list
    degens: list
    degenerate: list = field(init=False)

    def __post_init__(self):
        self.degenerate = [[False] * len(lev) for lev in self.levels]
        for n, rows in enumerate(self.degens):
            for row in rows:
                for k in row:
                    self.degenerate[n + 1][k] = True

    def nondegenerate(self, n: int):
        return [x for x, d in zip(self.levels[n], self.degenerate[n])
                if not d]


def nerve(D: TwoCategory, N: int) -> TruncSimplicialSet:
    """The nerve of D truncated at N, with the position tables of
    ``simplex_operators`` as they come."""
    return TruncSimplicialSet(N, *simplex_operators(D, N))


def check_simplicial_identities(X: TruncSimplicialSet) -> bool:
    """True when every identity among the faces and degeneracies of X that
    stays within the truncation holds, as a composite of position rows:
    d_i d_j = d_(j-1) d_i (i < j), s_(j+1) s_i = s_i s_j (i <= j), and
    d_i s_j = s_(j-1) d_i (i < j), id (i = j, j + 1), s_j d_(i-1)
    (i > j + 1).  AxiomError naming the first failing identity and a
    simplex where it fails otherwise."""
    f, s = X.faces, X.degens

    def same(n, a, b, identity):
        if a != b:
            k = next(k for k, (u, v) in enumerate(zip(a, b)) if u != v)
            raise AxiomError("simplicial identity %s fails at %s"
                             % (identity, X.levels[n][k]))

    for n in range(X.N + 1):
        for j in range(n + 1):
            for i in range(j):
                if n >= 2:
                    same(n, compose_rows(f[n - 1][i], f[n][j]),
                         compose_rows(f[n - 1][j - 1], f[n][i]),
                         "d_%d d_%d = d_%d d_%d" % (i, j, j - 1, i))
            if n >= X.N:
                continue
            if n + 1 < X.N:
                for i in range(j + 1):
                    same(n, compose_rows(s[n + 1][j + 1], s[n][i]),
                         compose_rows(s[n + 1][i], s[n][j]),
                         "s_%d s_%d = s_%d s_%d" % (j + 1, i, i, j))
            for i in range(n + 2):
                got = compose_rows(f[n + 1][i], s[n][j])
                if i in (j, j + 1):
                    same(n, got, list(range(len(got))),
                         "d_%d s_%d = id" % (i, j))
                elif n >= 1:
                    k, m = (j - 1, i) if i < j else (j, i - 1)
                    same(n, got, compose_rows(s[n - 1][k], f[n][m]),
                         "d_%d s_%d = s_%d d_%d" % (i, j, k, m))
    return True


def compose_rows(g: list, f: list) -> list:
    """The composite g . f of two operator rows (position tables)."""
    return [g[k] for k in f]


def map_simplex(F: TwoFunctor, x: OrientedSimplex) -> OrientedSimplex:
    return OrientedSimplex(
        x.dim,
        tuple(F.on_objects[v] for v in x.vertices),
        tuple(F.on_one[e] for e in x.edges),
        tuple(F.on_two[t] for t in x.triangles))

