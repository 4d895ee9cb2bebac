"""Integral and local-coefficient homology of truncated simplicial sets.

Normalized chains: the degree-n chain group is free on the nondegenerate
n-simplices, and the boundary is the alternating sum of faces with
degenerate faces dropped.  Computing H_n requires truncation level
N >= n + 1 (one level of headroom); the API enforces this.

Local coefficients are functors on the category of elements, presented on
its generators: a finitely presented abelian group per simplex and a matrix
per face map; the twisted boundary multiplies each face summand by the
corresponding matrix.

``chain_complex`` stores each boundary d_n sparse, one column per
nondegenerate n-simplex (a tuple of (row, coefficient) pairs, nonzero only,
in increasing row order), and checks d^2 = 0 in every degree by composing
columns; ``ChainComplexZ.matrix(n)`` gives d_n dense.

Entry points that need only the group are ``homology`` and, through
``intlinalg.cokernel``, ``PresentedGroup.canonical``; they read invariant
factors of sparse columns from ``intlinalg.invariant_factors`` and keep no
transforms.  Entry points that carry coordinates are
``homology_subquotient``, ``homology_induced`` and the local-coefficient
functions; they reduce to ``intlinalg.chain_homology`` on dense matrices,
the homology at one spot of a complex of presented groups, as do the
spectral-sequence pages.  Whether columns lie in the relations of a
presented group (``in_relations``) and whether a map of presented groups
is an isomorphism (``iso_inverse``, and ``induced_iso`` on H_n) are
decided here only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import AxiomError, TwoFunctor
from .intlinalg import (FGAbGroup, Subquotient, chain_homology, cokernel,
                        columns, from_columns, hstack, induced_matrix,
                        invariant_factors, mid, mmul, mshape, mzeros,
                        order_relations, smith_normal_form, solve,
                        sparse_columns)
from .nerve import TruncSimplicialSet, map_simplex


@dataclass
class ChainComplexZ:
    N: int
    basis: list          # basis[n] = list of nondegenerate n-simplices
    boundary: list       # boundary[n][j] = d_n basis[n][j], sparse (n >= 1)

    def rank(self, n):
        return len(self.basis[n])

    def matrix(self, n):
        """d_n : C_n -> C_{n-1} as a dense matrix (n >= 1)."""
        M = mzeros(self.rank(n - 1), self.rank(n))
        for j, col in enumerate(self.boundary[n]):
            for i, v in col:
                M[i][j] = v
        return M


def chain_complex(X: TruncSimplicialSet) -> ChainComplexZ:
    basis = [X.nondegenerate(n) for n in range(X.N + 1)]
    index = [{x: i for i, x in enumerate(b)} for b in basis]
    boundary = [None]
    for n in range(1, X.N + 1):
        cols = []
        for x in basis[n]:
            col = {}
            for i in range(n + 1):
                y = X.face[(i, x)]
                if not X.degenerate[y]:
                    r = index[n - 1][y]
                    col[r] = col.get(r, 0) + (-1) ** i
            cols.append(tuple(sorted((r, v) for r, v in col.items() if v)))
        boundary.append(cols)
    for n in range(2, X.N + 1):
        below = boundary[n - 1]
        for col in boundary[n]:
            dd = {}
            for r, v in col:
                for s, w in below[r]:
                    dd[s] = dd.get(s, 0) + v * w
            if any(dd.values()):
                raise AxiomError(
                    "boundary squared is nonzero in degree %d" % n)
    return ChainComplexZ(X.N, basis, boundary)


def _check_degree(X: TruncSimplicialSet, n: int):
    if n < 0 or n > X.N - 1:
        raise ValueError(
            "H_%d needs truncation level >= %d, have %d" % (n, n + 1, X.N))


def homology_subquotient(X: TruncSimplicialSet, n: int):
    """(Subquotient, basis of nondegenerate n-simplices)."""
    _check_degree(X, n)
    C = chain_complex(X)
    return (chain_homology(C.matrix(n) if n else None, C.matrix(n + 1)),
            C.basis[n])


def homology(X: TruncSimplicialSet, n: int) -> FGAbGroup:
    """H_n(X; Z) as a group only: Z^(c_n - rank d_n - rank d_{n+1}) plus
    the torsion of d_{n+1}.  ``homology_subquotient`` gives the same group
    with coordinates."""
    _check_degree(X, n)
    C = chain_complex(X)
    rank_in = len(invariant_factors(C.boundary[n])) if n else 0
    H = cokernel(C.boundary[n + 1], C.rank(n))
    return FGAbGroup(H.free_rank - rank_in, H.torsion)


def homology_induced(F: TwoFunctor, Xs: TruncSimplicialSet,
                     Xt: TruncSimplicialSet, n: int):
    """Matrix of H_n(F) in canonical coordinates, for a 2-functor F from
    the 2-category whose nerve is Xs to the one whose nerve is Xt; only
    the basis n-simplices of Xs are mapped (``nerve.map_simplex``).
    Returns (matrix, src subquotient, tgt subquotient)."""
    sq_s, basis_s = homology_subquotient(Xs, n)
    sq_t, basis_t = homology_subquotient(Xt, n)
    idx_t = {x: i for i, x in enumerate(basis_t)}
    M = mzeros(len(basis_t), len(basis_s))
    for j, x in enumerate(basis_s):
        y = map_simplex(F, x)
        if not Xt.degenerate[y]:
            M[idx_t[y]][j] += 1
    return induced_matrix(sq_s, sq_t, M), sq_s, sq_t


# ---------------------------------------------------------------------------
# local coefficients
# ---------------------------------------------------------------------------

@dataclass
class PresentedGroup:
    gens: int
    rels: list            # gens x nrels matrix; [] when no relations

    def rel_matrix(self):
        return self.rels if self.rels and self.rels[0] else mzeros(self.gens, 0)

    def canonical(self) -> FGAbGroup:
        return cokernel(sparse_columns(self.rel_matrix()), self.gens)


def presentation_of(sq: Subquotient) -> PresentedGroup:
    """Canonical presentation Z^g / diag(torsion) of a subquotient."""
    return PresentedGroup(len(sq.orders), order_relations(sq.orders))


ZCONST = PresentedGroup(1, [])


@dataclass
class LocalCoeffSystem:
    """Coefficients on the category of elements of a truncated simplicial
    set, given on generators: a presented group per simplex (all levels,
    including degenerate ones) and a matrix per face map (i, x)."""
    group: dict           # simplex -> PresentedGroup
    face_map: dict        # (i, x) -> matrix L(x) -> L(d_i x)
    degen_map: dict = field(default_factory=dict)   # (i, x) -> matrix


def constant_system(X: TruncSimplicialSet,
                    pres: PresentedGroup = ZCONST) -> LocalCoeffSystem:
    group = {}
    for lev in X.levels:
        for x in lev:
            group[x] = pres
    n = pres.gens
    face_map = {k: mid(n) for k in X.face}
    degen_map = {k: mid(n) for k in X.degen}
    return LocalCoeffSystem(group, face_map, degen_map)


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
    if src.canonical() != tgt.canonical():
        return None
    snf = smith_normal_form(hstack(M, tgt.rel_matrix()))
    cols = [solve(snf, e) for e in columns(mid(tgt.gens))]
    if None in cols:
        return None
    return from_columns([col[:src.gens] for col in cols], nrows=src.gens)


def induced_iso(F: TwoFunctor, Xs: TruncSimplicialSet,
                Xt: TruncSimplicialSet, n: int):
    """The matrix of H_n(F) and its inverse, in canonical coordinates;
    AxiomError, naming the degree and both groups, when there is none."""
    M, sq_s, sq_t = homology_induced(F, Xs, Xt, n)
    inv = iso_inverse(M, presentation_of(sq_s), presentation_of(sq_t))
    if inv is None:
        raise AxiomError("H_%d map %s -> %s is not an isomorphism"
                         % (n, sq_s.group, sq_t.group))
    return M, [[v % t if t else v for v in row]
               for row, t in zip(inv, sq_s.orders)]


def check_local_system(L: LocalCoeffSystem, X: TruncSimplicialSet) -> None:
    """Functoriality on face generators and preservation of relations;
    raises AxiomError at the first violation."""
    for n in range(1, X.N + 1):
        for x in X.levels[n]:
            for i in range(n + 1):
                src, tgt = L.group[x], L.group[X.face[(i, x)]]
                if not in_relations(mmul(L.face_map[(i, x)],
                                         src.rel_matrix()), tgt):
                    raise AxiomError(
                        "face map (%d, %r) does not preserve relations"
                        % (i, x))
    for n in range(2, X.N + 1):
        for x in X.levels[n]:
            for j in range(n + 1):
                for i in range(j):
                    a = mmul(L.face_map[(i, X.face[(j, x)])],
                             L.face_map[(j, x)])
                    b = mmul(L.face_map[(j - 1, X.face[(i, x)])],
                             L.face_map[(i, x)])
                    diff = [[p - q for p, q in zip(ra, rb)]
                            for ra, rb in zip(a, b)]
                    tgt = L.group[X.face[(i, X.face[(j, x)])]]
                    if not in_relations(diff, tgt):
                        raise AxiomError(
                            "face functoriality fails at %r (%d,%d)"
                            % (x, i, j))


def _local_complex(L: LocalCoeffSystem, X: TruncSimplicialSet):
    basis = [X.nondegenerate(n) for n in range(X.N + 1)]
    offs = []
    tot = []
    for b in basis:
        o = {}
        t = 0
        for x in b:
            o[x] = t
            t += L.group[x].gens
        offs.append(o)
        tot.append(t)
    rels = []
    for n, b in enumerate(basis):
        cols = []
        for x in b:
            for col in columns(L.group[x].rel_matrix()):
                full = [0] * tot[n]
                for k, v in enumerate(col):
                    full[offs[n][x] + k] = v
                cols.append(full)
        rels.append(from_columns(cols, nrows=tot[n]))
    bnds = [None]
    for n in range(1, X.N + 1):
        M = mzeros(tot[n - 1], tot[n])
        for x in basis[n]:
            for i in range(n + 1):
                y = X.face[(i, x)]
                if X.degenerate[y]:
                    continue
                Fm = L.face_map[(i, x)]
                sgn = (-1) ** i
                for r in range(L.group[y].gens):
                    for c in range(L.group[x].gens):
                        M[offs[n - 1][y] + r][offs[n][x] + c] += sgn * Fm[r][c]
        bnds.append(M)
    return rels, bnds


def homology_local_subquotient(X: TruncSimplicialSet, L: LocalCoeffSystem,
                               n: int):
    _check_degree(X, n)
    check_local_system(L, X)
    rels, bnds = _local_complex(L, X)
    return chain_homology(bnds[n], bnds[n + 1], rels[n],
                          rels[n - 1] if n else None)


def homology_local(X: TruncSimplicialSet, L: LocalCoeffSystem,
                   n: int) -> FGAbGroup:
    return homology_local_subquotient(X, L, n).group
