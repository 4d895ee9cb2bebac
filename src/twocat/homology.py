"""Integral and local-coefficient homology of truncated simplicial sets.

Normalized chains: the degree-n chain group is free on the nondegenerate
n-simplices, and the boundary is the alternating sum of faces with
degenerate faces dropped.  Computing H_n requires truncation level
N >= n + 1 (one level of headroom); the API enforces this.

Local coefficients are functors on the category of elements, presented on
its generators: a finitely presented abelian group per simplex and a matrix
per face map; the twisted boundary multiplies each face summand by the
corresponding matrix.

Simplicial sets hold their faces as position tables
(``nerve.TruncSimplicialSet``).  Chain complexes and chain maps are sparse
columns (``intlinalg.sparse_columns``).  ``level_boundary`` builds every
normalized boundary from a level's face rows and the ``basis_rows`` of it
and the level below: those of ``chain_complex``, which checks d^2 = 0
(``check_square_zero``, shared with ``dnerve``), for a nerve or a column of the bisimplicial set B(F), and those of the
d^1 and the totalization of B(F).  Every
group here, H_n with or without coordinates, with local coefficients, and
the canonical form of a presented group, is the ``.group`` of the one
homology primitive ``intlinalg.chain_homology``.  ``homology_subquotient``
builds a chain complex once for all the degrees asked of it, up to level
max(degrees) + 1 only, and ``homology_induced`` reads coordinates between
two of its ``Homology`` records (``induced_matrix``).  Whether columns lie
in the relations of a presented group (``in_relations``) and whether a map
of presented groups is an isomorphism (``iso_inverse``, and
``induced_iso`` on H_n) are decided here only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .core import AxiomError, TwoFunctor
from .intlinalg import (FGAbGroup, Subquotient, chain_homology, columns,
                        from_columns, hstack, induced_matrix, mid, mmul,
                        mshape, mzeros, order_relations, smith_normal_form,
                        solve, sparse_columns)
from .nerve import TruncSimplicialSet, map_simplex


def basis_rows(flags: list, start: int = 0) -> list:
    """Per cell of a level, its row in the basis of the cells not flagged
    degenerate, counted from start, or None for a flagged cell."""
    return [None if d else r for d, r in
            zip(flags, accumulate((not d for d in flags), initial=start))]


def level_boundary(table: list, src: list, tgt: list) -> list:
    """sum_i (-1)^i e_(d_i x) as a sparse column for each basis cell x of a
    level, table[i][k] being the position in the level below of d_i of its
    k-th cell; src and tgt are the ``basis_rows`` of the two levels, and a
    face on a degenerate cell (row None) drops out."""
    cols = []
    for k, r in enumerate(src):
        if r is None:
            continue
        col, sign = {}, 1
        for row in table:
            t = tgt[row[k]]
            if t is not None:
                col[t] = col.get(t, 0) + sign
            sign = -sign
        cols.append(tuple(sorted((t, v) for t, v in col.items() if v)))
    return cols


def check_square_zero(cols: list, below: list, n: int) -> None:
    """AxiomError unless d_(n-1) d_n = 0, d_n being the sparse columns cols
    and d_(n-1) the columns below."""
    for col in cols:
        dd = {}
        for r, v in col:
            for s, w in below[r]:
                dd[s] = dd.get(s, 0) + v * w
        if any(dd.values()):
            raise AxiomError("boundary squared is nonzero in degree %d" % n)


@dataclass
class ChainComplexZ:
    N: int
    basis: list          # basis[n] = list of nondegenerate n-simplices
    boundary: list       # boundary[n][j] = d_n basis[n][j], sparse (n >= 1)
    rows: list           # rows[n] = the basis_rows of level n

    def rank(self, n):
        return len(self.basis[n])


def chain_complex(X: TruncSimplicialSet, top: int | None = None
                  ) -> ChainComplexZ:
    """The normalized chain complex of X up to level top (default X.N),
    d^2 = 0 checked on every boundary built."""
    top = X.N if top is None else top
    rows = [basis_rows(flags) for flags in X.degenerate[:top + 1]]
    boundary = [None] + [level_boundary(X.faces[n], rows[n], rows[n - 1])
                         for n in range(1, top + 1)]
    for n in range(2, top + 1):
        check_square_zero(boundary[n], boundary[n - 1], n)
    return ChainComplexZ(top, [X.nondegenerate(n) for n in range(top + 1)],
                         boundary, rows)


def _check_degree(X: TruncSimplicialSet, n: int):
    if n < 0 or n > X.N - 1:
        raise ValueError(
            "H_%d needs truncation level >= %d, have %d" % (n, n + 1, X.N))


class Homology(NamedTuple):
    """H_n(X; Z) in coordinates (``homology_subquotient``)."""
    n: int
    sq: Subquotient
    basis: list          # the nondegenerate n-simplices, one per chain row
    row: dict            # n-simplex of X -> its row in basis, or None


def homology_subquotient(X: TruncSimplicialSet, degrees) -> list:
    """The ``Homology`` of X in each of the degrees, all off one chain
    complex, built to level max(degrees) + 1, each degree reduced once."""
    degrees = list(degrees)
    for n in degrees:
        _check_degree(X, n)
    C = chain_complex(X, max(degrees, default=-1) + 1)
    return [Homology(n, chain_homology(C.boundary[n] if n else (),
                                       C.boundary[n + 1], C.rank(n),
                                       C.rank(n - 1) if n else 0),
                     C.basis[n], dict(zip(X.levels[n], C.rows[n])))
            for n in degrees]


def homology(X: TruncSimplicialSet, n: int) -> FGAbGroup:
    """H_n(X; Z), the group of ``homology_subquotient``."""
    return homology_subquotient(X, [n])[0].sq.group


def homology_induced(F: TwoFunctor, Hs: Homology, Ht: Homology):
    """Matrix of H_n(F) in canonical coordinates, for a 2-functor F from
    the 2-category whose nerve has the homology Hs to the one whose nerve
    has Ht, both in degree n; only the basis n-simplices of Hs are mapped
    (``nerve.map_simplex``), and a degenerate image drops out."""
    M = [() if r is None else ((r, 1),)
         for r in (Ht.row[map_simplex(F, x)] for x in Hs.basis)]
    return induced_matrix(Hs.sq, Ht.sq, M)


# ---------------------------------------------------------------------------
# local coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PresentedGroup:
    """Z^gens modulo the columns of rels.  Frozen, so its canonical form
    is computed once, on first use, and kept."""
    gens: int
    rels: list            # gens x nrels matrix; [] when no relations

    def rel_matrix(self):
        return self.rels if self.rels and self.rels[0] else mzeros(self.gens, 0)

    @cached_property
    def canonical(self) -> FGAbGroup:
        return chain_homology((), (), self.gens, 0,
                              sparse_columns(self.rel_matrix())).group


def presentation_of(sq: Subquotient) -> PresentedGroup:
    """Canonical presentation Z^g / diag(torsion) of a subquotient."""
    return PresentedGroup(len(sq.orders), order_relations(sq.orders))


@dataclass
class LocalCoeffSystem:
    """Coefficients on the category of elements of a truncated simplicial
    set, given on generators: a presented group per simplex (all levels,
    including degenerate ones) and a matrix per face map (i, x)."""
    group: dict           # simplex -> PresentedGroup
    face_map: dict        # (i, x) -> matrix L(x) -> L(d_i x)
    degen_map: dict = field(default_factory=dict)   # (i, x) -> matrix


def in_relations(M, pres: PresentedGroup) -> bool:
    """Whether every column of M lies in the span of the relations of pres,
    which are factored once, and only when some column needs it."""
    cols = columns(M)
    R = pres.rel_matrix()
    if not cols or not mshape(R)[1]:
        return not any(map(any, cols))
    snf = smith_normal_form(R)
    return all(solve(snf, col) is not None for col in cols)


def iso_inverse(M, src: PresentedGroup, tgt: PresentedGroup):
    """The inverse, on generators, of the homomorphism M: src -> tgt, or
    None when M is not an isomorphism: equal canonical forms, and a preimage
    of every generator of tgt by the SNF of [M | relations of tgt] (a
    surjection of isomorphic f.g. abelian groups is an isomorphism)."""
    if src.canonical != tgt.canonical:
        return None
    snf = smith_normal_form(hstack(M, tgt.rel_matrix()))
    cols = [solve(snf, e) for e in columns(mid(tgt.gens))]
    if None in cols:
        return None
    return from_columns([col[:src.gens] for col in cols], nrows=src.gens)


def induced_iso(F: TwoFunctor, Hs: Homology, Ht: Homology):
    """The matrix of H_n(F) and its inverse, in canonical coordinates;
    AxiomError, naming the degree and both groups, when there is none."""
    M = homology_induced(F, Hs, Ht)
    inv = iso_inverse(M, presentation_of(Hs.sq), presentation_of(Ht.sq))
    if inv is None:
        raise AxiomError("H_%d map %s -> %s is not an isomorphism"
                         % (Hs.n, Hs.sq.group, Ht.sq.group))
    return M, [[v % t if t else v for v in row]
               for row, t in zip(inv, Hs.sq.orders)]


def check_local_system(L: LocalCoeffSystem, X: TruncSimplicialSet) -> None:
    """Shapes first: a group for every simplex, with gens rows of
    relations, a face map (i, x) of shape gens(d_i x) x gens(x) for every
    simplex x of positive dimension, and each gens > 0 the length of a list
    of the input (relation rows, the rows of a face map into x or a row of
    one out of it), so that no claimed size is built.  Then preservation of
    relations and functoriality on face generators.  AxiomError at the
    first violation."""
    def misshapen(M, rows, cols):
        # rows and cols are claimed sizes, so nothing of their size is built
        return len(M) != rows or any(len(r) != cols for r in M)

    for lev in X.levels:
        for x in lev:
            if x not in L.group:
                raise AxiomError("simplex %r has no coefficient group" % (x,))
            g = L.group[x]
            if g.rels and misshapen(g.rels, g.gens, len(g.rels[0])):
                raise AxiomError("relations of the group at %r are not a "
                                 "matrix with %d rows" % (x, g.gens))
    faces = [(i, x, X.levels[n - 1][row[k]]) for n in range(1, X.N + 1)
             for k, x in enumerate(X.levels[n])
             for i, row in enumerate(X.faces[n])]
    for i, x, y in faces:
        M = L.face_map.get((i, x))
        rows, cols = L.group[y].gens, L.group[x].gens
        if M is None or misshapen(M, rows, cols):
            raise AxiomError("face map (%d, %r) is not a %d x %d matrix"
                             % (i, x, rows, cols))
    backed = {y for _i, _x, y in faces} | {x for i, x, _y in faces
                                           if L.face_map[(i, x)]}
    for lev in X.levels:
        for x in lev:
            g = L.group[x]
            if g.gens and not g.rels and x not in backed:
                raise AxiomError("the group at %r claims %d generators that "
                                 "no matrix row backs" % (x, g.gens))
    for i, x, y in faces:
        if not in_relations(mmul(L.face_map[(i, x)],
                                 L.group[x].rel_matrix()), L.group[y]):
            raise AxiomError("face map (%d, %r) does not preserve relations"
                             % (i, x))
    for n in range(2, X.N + 1):
        up, lo, at = X.faces[n], X.faces[n - 1], X.levels[n - 1]
        for k, x in enumerate(X.levels[n]):
            for j in range(n + 1):
                for i in range(j):
                    a = mmul(L.face_map[(i, at[up[j][k]])],
                             L.face_map[(j, x)])
                    b = mmul(L.face_map[(j - 1, at[up[i][k]])],
                             L.face_map[(i, x)])
                    diff = [[p - q for p, q in zip(ra, rb)]
                            for ra, rb in zip(a, b)]
                    tgt = L.group[X.levels[n - 2][lo[i][up[j][k]]]]
                    if not in_relations(diff, tgt):
                        raise AxiomError(
                            "face functoriality fails at %r (%d,%d)"
                            % (x, i, j))


def _local_complex(L: LocalCoeffSystem, X: TruncSimplicialSet):
    """Per degree n, the relation columns and the twisted boundary d_n
    (None for n = 0) as sparse columns, and the number of generators."""
    # offs[n][k]: the first generator of the k-th n-simplex, if nondegenerate
    offs = [list(accumulate((0 if d else L.group[x].gens
                             for x, d in zip(lev, flags)), initial=0))
            for lev, flags in zip(X.levels, X.degenerate)]
    rels = [[tuple((o[k] + r, v) for r, v in col)
             for k, x in enumerate(lev) if not flags[k]
             for col in sparse_columns(L.group[x].rel_matrix())]
            for lev, flags, o in zip(X.levels, X.degenerate, offs)]
    bnds = [None]
    for n in range(1, X.N + 1):
        lo, flags, cols = X.levels[n - 1], X.degenerate[n - 1], []
        for k, x in enumerate(X.levels[n]):
            if X.degenerate[n][k]:
                continue
            faces = []          # sign, matrix, first row, rows of each face
            for i, row in enumerate(X.faces[n]):
                if not flags[row[k]]:
                    faces.append(((-1) ** i, L.face_map[(i, x)],
                                  offs[n - 1][row[k]],
                                  L.group[lo[row[k]]].gens))
            for c in range(L.group[x].gens):
                col = {}
                for sign, M, o, g in faces:
                    for r in range(g):
                        if M[r][c]:
                            col[o + r] = col.get(o + r, 0) + sign * M[r][c]
                cols.append(tuple(sorted((r, v) for r, v in col.items()
                                         if v)))
        bnds.append(cols)
    return rels, bnds, [o[-1] for o in offs]


def local_homology_groups(X: TruncSimplicialSet, L: LocalCoeffSystem,
                          degrees) -> list:
    """H_n(X; L) for each n of degrees, from one check of L and one twisted
    complex."""
    for n in degrees:
        _check_degree(X, n)
    check_local_system(L, X)
    rels, bnds, tot = _local_complex(L, X)
    return [chain_homology(bnds[n] if n else (), bnds[n + 1], tot[n],
                           tot[n - 1] if n else 0, rels[n],
                           rels[n - 1] if n else ()).group for n in degrees]


def homology_local(X: TruncSimplicialSet, L: LocalCoeffSystem,
                   n: int) -> FGAbGroup:
    return local_homology_groups(X, L, (n,))[0]
