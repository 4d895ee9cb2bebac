"""Homology of a finite strict 2-category off its double (Segal) nerve,
and the maps strict 2-functors induce on it.

A (p, q)-cell of the double nerve of D is a string of objects x_0 .. x_p
with a q-simplex of the hom-category D(x_(i-1), x_i) for each i: a 1-cell
followed by q composable 2-cells.  A cell is held as the tuple of its p
factors, each (1-cell, 2-cell, ..., 2-cell), and a (0, 0)-cell as its
object.  The horizontal face d^h_k drops an end, or composes factors k and
k + 1 (``comp1``, ``hcomp``); the vertical face d^v_j drops an end of every
factor, or composes its 2-cells j and j + 1 (``vcomp``).

The normalized total complex is free in degree n on the cells with
p + q = n nondegenerate in both directions.  A cell is horizontally
degenerate at i when factor i is an identity 1-cell with identity
2-cells, and vertically at j when the j-th 2-cell of every factor is an
identity, so every cell with p = 0 < q is.  The differential is
d^h + (-1)^p d^v, as in ``specseq.total_boundary``.  Its homology is that
of the classifying space of D, the oplax nerve's (Segal, *Classifying
spaces and spectral sequences*, 1968; Bullejos & Cegarra, *On the
geometry of 2-categories and their classifying spaces*, 2003), from far
fewer cells: no degenerate cell is ever listed.

Faces, and images under a strict 2-functor, are found by key among the
listed cells.  One that is neither listed nor degenerate by the local
test raises ``AxiomError`` naming it, and d^2 = 0 is checked on every
boundary built.  Only ``sinv.group_completion_check`` reads homology here;
the ``Homology`` records hold double-nerve cells and stay inside it.
"""

from __future__ import annotations

from .core import AxiomError, TwoCategory, TwoFunctor
from .homology import Homology, check_square_zero
from .intlinalg import chain_homology, induced_matrix


def _factors(D: TwoCategory, top: int) -> list:
    """Per q < top, per object x, the q-simplices of the hom-categories
    out of x but the identity ones, as (factor, target, mask): bit j - 1 of
    mask is set when the j-th 2-cell is no identity."""
    out2 = {}
    for a in sorted(D.two_src):
        out2.setdefault(D.two_src[a], []).append(a)
    chains = [((f,), f, 0) for f in sorted(D.one_src)]   # with last 1-cell
    per_q = []
    for q in range(top):
        if q:
            bit = 1 << (q - 1)
            chains = [(fac + (a,), D.two_tgt[a], m | (a != D.id2[g]) * bit)
                      for fac, g, m in chains for a in out2[g]]
        by_src = {x: [] for x in D.objects}
        for fac, _g, m in chains:
            f = fac[0]
            if m or not D.is_id1(f):
                by_src[D.one_src[f]].append((fac, D.one_tgt[f], m))
        per_q.append(by_src)
    return per_q


def _cells(D: TwoCategory, factors: list, n: int) -> list:
    """The cells of degree n nondegenerate in both directions, by p."""
    if n == 0:
        return list(D.objects)
    cells = []
    for p in range(1, n + 1):
        by_src = factors[n - p]
        strings = [((fac,), y, m) for x in D.objects
                   for fac, y, m in by_src[x]]
        for _ in range(p - 1):
            strings = [(c + (fac,), z, m | mf) for c, y, m in strings
                       for fac, z, mf in by_src[y]]
        full = (1 << (n - p)) - 1
        cells += [c for c, _y, m in strings if m == full]
    return cells


def _degenerate(D: TwoCategory, cell, n: int) -> bool:
    """The local test: the cell, of degree n, is degenerate in some
    direction."""
    if isinstance(cell, str):
        return n > 0
    ids = [[D.id2[D.two_src[a]] == a for a in fac[1:]] for fac in cell]
    return any(D.is_id1(fac[0]) and all(row) for fac, row in zip(cell, ids)) \
        or any(map(all, zip(*ids)))


def _faces(D: TwoCategory, c: tuple):
    """(face, sign) for each term of d^h + (-1)^p d^v on the cell c."""
    p, q = len(c), len(c[0]) - 1
    f = c[0][0]
    yield (D.one_tgt[f] if p == 1 else c[1:]), 1
    for k in range(1, p):
        a, b = c[k - 1], c[k]
        comp = (D.comp1[(b[0], a[0])],) + tuple(
            D.hcomp(y, x) for x, y in zip(a[1:], b[1:]))
        yield c[:k - 1] + (comp,) + c[k + 1:], (-1) ** k
    yield (D.one_src[f] if p == 1 else c[:-1]), (-1) ** p
    if q:
        yield tuple((D.two_tgt[fac[1]],) + fac[2:] for fac in c), (-1) ** p
        for j in range(1, q):
            yield tuple(fac[:j] + (D.vcomp[(fac[j + 1], fac[j])],)
                        + fac[j + 2:] for fac in c), (-1) ** (p + j)
        yield tuple(fac[:-1] for fac in c), (-1) ** (p + q)


def total_complex(D: TwoCategory, top: int):
    """The cells of degrees 0..top nondegenerate in both directions, and
    the boundary of each degree as sparse columns (none in degree 0), with
    d^2 = 0 checked."""
    factors = _factors(D, top)
    basis = [_cells(D, factors, n) for n in range(top + 1)]
    bnd = [()]
    for n in range(1, top + 1):
        row, cols = {c: r for r, c in enumerate(basis[n - 1])}, []
        for c in basis[n]:
            col = {}
            for b, sign in _faces(D, c):
                r = row.get(b)
                if r is not None:
                    col[r] = col.get(r, 0) + sign
                elif not _degenerate(D, b, n - 1):
                    raise AxiomError("face %r of the double-nerve cell %r is "
                                     "no cell" % (b, c))
            cols.append(tuple(sorted((r, v) for r, v in col.items() if v)))
        if n >= 2:
            check_square_zero(cols, bnd[n - 1], n)
        bnd.append(cols)
    return basis, bnd


def homology(D: TwoCategory, degrees) -> list:
    """The ``Homology`` of D's double nerve in each of the degrees, all off
    one total complex built to degree max(degrees) + 1, each degree reduced
    once."""
    degrees = list(degrees)
    basis, bnd = total_complex(D, max(degrees, default=-1) + 1)
    return [Homology(n, chain_homology(bnd[n], bnd[n + 1], len(basis[n]),
                                       len(basis[n - 1]) if n else 0),
                     basis[n], {c: r for r, c in enumerate(basis[n])})
            for n in degrees]


def induced(F: TwoFunctor, Hs: Homology, Ht: Homology):
    """The matrix, in canonical coordinates, of the map F induces from Hs
    to Ht, of one degree: each basis cell of Hs goes to its image, a basis
    cell of Ht or a degenerate one, which drops out."""
    M = []
    for c in Hs.basis:
        img = F.on_objects[c] if isinstance(c, str) else tuple(
            (F.on_one[fac[0]],) + tuple(F.on_two[a] for a in fac[1:])
            for fac in c)
        r = Ht.row.get(img)
        if r is None and not _degenerate(F.target, img, Hs.n):
            raise AxiomError("image %r of the double-nerve cell %r is no "
                             "cell" % (img, c))
        M.append(() if r is None else ((r, 1),))
    return induced_matrix(Hs.sq, Ht.sq, M)
