"""The bisimplicial resolution of a 2-functor and its spectral sequence.

For a 2-functor F: C -> D, the bisimplicial set B(F) has (p, q)-cells the
triples (omega, delta, sigma) where omega is a q-simplex of the nerve of C,
sigma a p-simplex of the nerve of D, and delta a (q+1+p)-simplex of the
nerve of D restricting to F(omega) on the first q+1 vertices and to sigma
on the last p+1.  Horizontal operators act through the sigma block of
delta, vertical operators through the omega block.

So B(F)_{p,q} = N_q(C) x_{N_q(D)} N_{q+1+p}(D), the pullback along the
nerve of F of the total decalage of the nerve of D (Illusie, Complexe
cotangent et deformations II, 1972; Stevenson, Decalage and Kan's
simplicial loop group functor, 2012), and sigma is a face of delta.
``build_B`` reads every cell and operator off two nerves, each grown once
with its operators as position tables (``nerve.simplex_operators``): C's
to Q and D's to P + Q + 1.  The front and back faces of a delta are
composites of D's face rows, its horizontal operators are D's rows past
the front block and its vertical ones D's rows in it, paired with C's on
omega; so no simplex is built or searched for an operator.  B(F) is held
as its rows and columns, each a ``nerve.TruncSimplicialSet`` whose
operators are position tables, so the identity check, the pages (E^1 is
the ``homology_subquotient`` of each column) and the totalization read
integers, not cells.

The module computes the first two pages of the homology spectral sequence
of B(F) (vertical homology first) and the homology of the totalization.
The two filtration identifications that drive the theory (at fixed sigma
the diagram-shaped comma object of F over sigma, at fixed omega the
codiagram-shaped one under F(omega)) are checked on the test side, in
``tests/diagram_comma.py``.

When F is a certified opfibration the E^2 page is identified with the
homology of the base with local coefficients in the fiber homology; the
coefficient system is constructed here (``fiber_coeff_system``), its
transition along an edge f the base change of the comma objects over the
points (post-composition with f, a ``constructs.mediate_laco``), and
``e2_vs_local`` checks the identification row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import or_
from typing import NamedTuple

from . import intlinalg as il
from .constructs import CommaResult, laco, mediate_laco, strict_fiber
from .core import (LAX, TWO_NATURAL, AxiomError, Transformation, TwoFunctor,
                   compose_functors)
from .fixtures import bang_functor, point_functor
from .homology import (LocalCoeffSystem, basis_rows, homology_induced,
                       homology_subquotient, induced_iso, level_boundary,
                       local_homology_groups, presentation_of)
from .nerve import (OrientedSimplex, TruncSimplicialSet,
                    check_simplicial_identities, compose_rows, map_simplex,
                    nerve, simplex_operators)


# ---------------------------------------------------------------------------
# the bisimplicial set B(F)
# ---------------------------------------------------------------------------

class Bisimplex(NamedTuple):
    om: OrientedSimplex        # q-simplex of the nerve of C
    de: OrientedSimplex        # (q+1+p)-simplex of the nerve of D
    si: OrientedSimplex        # p-simplex of the nerve of D


@dataclass
class BisimplicialTrunc:
    """B(F) truncated at p <= P, q <= Q, as its rows and its columns, which
    hold the tuples of levels: row q is p -> levels[(p, q)] under d^h and
    s^h, truncated at P, and column p is q -> levels[(p, q)] under d^v and
    s^v, truncated at Q.  So rows[q].faces[p][i][k] is the position in
    levels[(p - 1, q)] of d^h_i of the k-th cell of levels[(p, q)]."""
    F: TwoFunctor
    P: int
    Q: int
    levels: dict               # (p, q) -> sorted tuple of Bisimplex
    rows: list                 # q -> TruncSimplicialSet under d^h, s^h
    cols: list                 # p -> TruncSimplicialSet under d^v, s^v


def build_B(F: TwoFunctor, P: int, Q: int) -> BisimplicialTrunc:
    """B(F) truncated at p <= P, q <= Q: the pullback of the total
    decalage of the nerve of D along the nerve of F.  The (p, q)-cells
    are the pairs (omega, delta) of a q-simplex of C and a
    (q+1+p)-simplex of D whose front q-face, its first q + 1 vertices, is
    F(omega); sigma is delta's back p-face, its last p + 1 vertices.
    Both nerves are grown once with their operators as position tables
    (``nerve.simplex_operators``), C's to Q and D's to P + Q + 1, and
    every cell and operator is read off them: the front face is a
    composite of D's rows d_last, the back face one of its rows d_0;
    d^h_i and s^h_i are D's rows q + 1 + i on delta, and d^v_i and s^v_i
    pair C's row i on omega with D's row i on delta.  A cell's operator
    is then a pair of integers, and the tables of each row and column make
    one ``TruncSimplicialSet``.  An image that is no cell (F no 2-functor)
    raises AxiomError naming the first such Bisimplex, read off the same
    tables with sigma the back face of its delta."""
    C, D = F.source, F.target
    oms, om_face, om_degen = simplex_operators(C, Q)
    d_levels, d_face, d_degen = simplex_operators(D, P + Q + 1)
    # front[(m, n)], back[(m, n)]: per m-simplex of D, the position in
    # level n of its first, last n + 1 vertices
    front, back = {}, {}
    for m in range(1, P + Q + 2):
        last, first = d_face[m][m], d_face[m][0]
        for n in range(m - 1):
            front[(m, n)] = compose_rows(front[(m - 1, n)], last)
            back[(m, n)] = compose_rows(back[(m - 1, n)], first)
        front[(m, m - 1)], back[(m, m - 1)] = last, first
    # per q and omega, the position of F(omega) in level q of D, None
    # where F(omega) is no simplex of D (then no delta lies over it)
    block_of = []
    for q, lev in enumerate(oms):
        at = {s: n for n, s in enumerate(d_levels[q])}
        block_of.append([at.get(map_simplex(F, x)) for x in lev])
    # cells sort by (omega, delta): position start[omega] + rank[delta],
    # rank being delta's place among the deltas over its front face
    levels, start, rank, pairs = {}, {}, {}, {}
    for p in range(P + 1):
        for q in range(Q + 1):
            m = q + 1 + p
            over = [[] for _ in d_levels[q]]
            rk = []
            for d, b in enumerate(front[(m, q)]):
                rk.append(len(over[b]))
                over[b].append(d)
            st, pq = [], []
            for o, b in enumerate(block_of[q]):
                st.append(len(pq))
                if b is not None:
                    pq.extend((o, d) for d in over[b])
            start[(p, q)], rank[(p, q)], pairs[(p, q)] = st, rk, pq
            de, si, back_p = d_levels[m], d_levels[p], back[(m, p)]
            levels[(p, q)] = tuple(
                Bisimplex(oms[q][o], de[d], si[back_p[d]]) for o, d in pq)

    def row(p, q, o_map, d_map, tgt):
        """Positions in level tgt of (o_map[omega], d_map[delta]) for the
        cells of level (p, q), omega kept when o_map is None, and None
        where that pair is not a cell of tgt."""
        st, rk = start[tgt], rank[tgt]
        fr, bo = front[(tgt[0] + tgt[1] + 1, tgt[1])], block_of[tgt[1]]
        out = []
        for o, d in pairs[(p, q)]:
            o = o if o_map is None else o_map[o]
            d = d_map[d]
            out.append(st[o] + rk[d] if fr[d] == bo[o] else None)
        return out

    def raise_first_miss(p, q, fh, dh, fv, dv):
        """AxiomError naming the first operator image, cell by cell and in
        the order d^h_i, s^h_i, ..., d^v_i, s^v_i, ..., that the rows of
        level (p, q) mark as outside B(F): omega's image read off C's
        tables, delta's off D's, and sigma as the back face of delta's."""
        def miss(o, d, tgt):    # omega's and delta's positions at tgt
            tp, tq = tgt
            n = tq + 1 + tp
            raise AxiomError(
                "bisimplicial set not closed under faces and degeneracies "
                "at %r" % (Bisimplex(oms[tq][o], d_levels[n][d],
                                     d_levels[tp][back[(n, tp)][d]]),))

        m = q + 1 + p
        for k, (o, d) in enumerate(pairs[(p, q)]):
            for i in range(p + 1):
                if fh and fh[i][k] is None:
                    miss(o, d_face[m][q + 1 + i][d], (p - 1, q))
                if dh and dh[i][k] is None:
                    miss(o, d_degen[m][q + 1 + i][d], (p + 1, q))
            for i in range(q + 1):
                if fv and fv[i][k] is None:
                    miss(om_face[q][i][o], d_face[m][i][d], (p, q - 1))
                if dv and dv[i][k] is None:
                    miss(om_degen[q][i][o], d_degen[m][i][d], (p, q + 1))

    ops = {}                    # (p, q) -> d^h, s^h, d^v, s^v rows
    for p, q in levels:
        m = q + 1 + p
        fh = [row(p, q, None, d_face[m][q + 1 + i], (p - 1, q))
              for i in range(p + 1)] if p >= 1 else []
        dh = [row(p, q, None, d_degen[m][q + 1 + i], (p + 1, q))
              for i in range(p + 1)] if p < P else []
        fv = [row(p, q, om_face[q][i], d_face[m][i], (p, q - 1))
              for i in range(q + 1)] if q >= 1 else []
        dv = [row(p, q, om_degen[q][i], d_degen[m][i], (p, q + 1))
              for i in range(q + 1)] if q < Q else []
        if any(None in r for r in fh + dh + fv + dv):
            raise_first_miss(p, q, fh, dh, fv, dv)
        ops[(p, q)] = fh, dh, fv, dv

    def line(n, keys, a):
        return TruncSimplicialSet(n, [levels[k] for k in keys],
                                  [ops[k][a] for k in keys],
                                  [ops[k][a + 1] for k in keys])
    return BisimplicialTrunc(
        F, P, Q, levels,
        [line(P, [(p, q) for p in range(P + 1)], 0) for q in range(Q + 1)],
        [line(Q, [(p, q) for q in range(Q + 1)], 2) for p in range(P + 1)])


def check_bisimplicial(B: BisimplicialTrunc) -> bool:
    """The simplicial identities of every row and every column
    (``nerve.check_simplicial_identities``) plus commutation of every
    horizontal operator with every vertical one, verified exhaustively
    within the truncation."""
    try:
        for X in B.rows + B.cols:
            check_simplicial_identities(X)
    except AxiomError:
        return False

    # v_j h_i = h_i v_j for h a horizontal face or degeneracy from (p, q)
    # to (p + dp, q) and v a vertical one from (p, q) to (p, q + dq)
    steps = ((-1, "faces"), (1, "degens"))
    for p, q in B.levels:
        for dp, hs in steps:
            for dq, vs in steps:
                if not (0 <= p + dp <= B.P and 0 <= q + dq <= B.Q):
                    continue
                h, h2 = (getattr(B.rows[r], hs)[p] for r in (q, q + dq))
                v, v2 = (getattr(B.cols[c], vs)[q] for c in (p, p + dp))
                for i in range(p + 1):
                    for j in range(q + 1):
                        if compose_rows(v2[j], h[i]) != \
                                compose_rows(h2[i], v[j]):
                            return False
    return True


# ---------------------------------------------------------------------------
# pages of the spectral sequence (vertical homology first)
# ---------------------------------------------------------------------------

@dataclass
class SSPages:
    B: BisimplicialTrunc
    E1: dict                   # (p, q) -> FGAbGroup, p <= P, q <= Q-1
    E1_sq: dict                # (p, q) -> Subquotient
    d1: dict                   # (p, q) -> matrix E1[p,q] -> E1[p-1,q]
    E2: dict                   # (p, q) -> FGAbGroup, p <= P-1, q <= Q-1
    trusted: tuple             # (P-1, Q-1)


def pages(B: BisimplicialTrunc) -> SSPages:
    """E^1 (the homology of each column, ``homology_subquotient``, which
    checks d^2 = 0 on it) and E^2 (homology of the E^1 rows under the
    d^1 that the horizontal boundary induces on the vertically normalized
    chains).  Entries are trusted for p <= P-1 and q <= Q-1; the extra
    column p = P on E^1 is computed only to supply boundaries for E^2."""
    E1, E1_sq, d1, rows = {}, {}, {}, {}
    for p, col in enumerate(B.cols):
        for H in homology_subquotient(col, range(B.Q)):
            E1_sq[(p, H.n)], E1[(p, H.n)] = H.sq, H.sq.group
            rows[(p, H.n)] = list(H.row.values())
    for p in range(1, B.P + 1):
        for q in range(B.Q):
            M = level_boundary(B.rows[q].faces[p], rows[(p, q)],
                               rows[(p - 1, q)])
            d1[(p, q)] = il.induced_matrix(E1_sq[(p, q)], E1_sq[(p - 1, q)],
                                           M)
    E2 = {}
    for q in range(B.Q):
        orders = [E1_sq[(p, q)].orders for p in range(B.P + 1)]
        rels = [il.sparse_columns(il.order_relations(o)) for o in orders]
        for p in range(B.P):
            E2[(p, q)] = il.chain_homology(
                il.sparse_columns(d1[(p, q)]) if p else (),
                il.sparse_columns(d1[(p + 1, q)]), len(orders[p]),
                len(orders[p - 1]) if p else 0, rels[p],
                rels[p - 1] if p else ()).group
    return SSPages(B, E1, E1_sq, d1, E2, (B.P - 1, B.Q - 1))


def total_boundary(B: BisimplicialTrunc, m: int) -> list:
    """The total differential d^H + (-1)^p d^V from degree m to m - 1, as
    sparse columns on the cells nondegenerate in both directions, taken
    level (p, m - p) by level in increasing p.  So the rows of a cell's
    horizontal faces, at (p - 1, q), come before those of its vertical
    ones, at (p, q - 1), and its column is the one followed by the
    other."""
    def rows(d):                # basis_rows of the levels of degree d
        out, start = {}, 0
        for p in range(max(0, d - B.Q), min(d, B.P) + 1):
            flags = list(map(or_, B.rows[d - p].degenerate[p],
                             B.cols[p].degenerate[d - p]))
            out[(p, d - p)] = basis_rows(flags, start)
            start += flags.count(False)
        return out

    tgt, cols = rows(m - 1), []
    for (p, q), src in rows(m).items():
        h = level_boundary(B.rows[q].faces[p], src, tgt.get((p - 1, q)))
        v = level_boundary(B.cols[p].faces[q], src, tgt.get((p, q - 1)))
        cols += [a + tuple((r, -w if p % 2 else w) for r, w in b)
                 for a, b in zip(h, v)]
    return cols


def totalization_homology(B: BisimplicialTrunc, n: int) -> il.FGAbGroup:
    """Homology of the total complex on the bidegreewise nondegenerate
    triples, with differential d^H + (-1)^p d^V (degenerate faces
    dropped); agrees with the homology of the nerve of the source
    2-category.  Trusted for n <= min(P, Q) - 1."""
    if n < 0 or n > min(B.P, B.Q) - 1:
        raise ValueError(
            "total H_%d needs bisimplicial bounds >= %d, have (%d, %d)"
            % (n, n + 1, B.P, B.Q))
    d_in = total_boundary(B, n)         # empty columns for n = 0
    f = sum(not (h or v) for p in range(max(0, n - 1 - B.Q), n)
            for h, v in zip(B.rows[n - 1 - p].degenerate[p],
                            B.cols[p].degenerate[n - 1 - p]))
    return il.chain_homology(d_in, total_boundary(B, n + 1), len(d_in),
                             f).group


# ---------------------------------------------------------------------------
# the fiber-homology coefficient system of a certified opfibration
# ---------------------------------------------------------------------------

def base_change(F: TwoFunctor, f: str, Lx: CommaResult,
                Ly: CommaResult) -> TwoFunctor:
    """laco(F, x-hat) -> laco(F, y-hat) for a 1-cell f: x -> y of F's
    target, given the two comma objects: the mediator of Lx's projections
    and of Lx.pi whiskered by f, so [c, g, pt] goes to [c, f.g, pt] and
    [s, a, t] to [s, f*a, t], and each 2-cell [phi, ga] is kept."""
    D = F.target
    lam = replace(
        Lx.pi,
        target=compose_functors(point_functor(D, D.one_tgt[f]), Lx.p_right),
        at_object={o: D.comp1[(f, g)] for o, g in Lx.pi.at_object.items()},
        at_one={m: D.whisk_l[(f, a)] for m, a in Lx.pi.at_one.items()})
    return mediate_laco(Ly, Lx.p_left, Lx.p_right, lam)


@dataclass
class FiberCoeffData:
    system: LocalCoeffSystem
    fiber_group: dict          # object of D -> PresentedGroup
    edge_matrix: dict          # nonidentity 1-cell of D -> matrix


def fiber_coeff_system(F: TwoFunctor, cert, q: int,
                       X: TruncSimplicialSet) -> FiberCoeffData:
    """Local coefficients on the nerve X of F's target: at each simplex,
    the degree-q homology of the strict fiber of F over its leading
    vertex; the only nontrivial transition, along the face d_0, is
    transported through the comma objects of F over the points:

        fiber(x) -> laco(F, x-hat) -> laco(F, y-hat) <- fiber(y),

    all ``mediate_laco`` functors: the inclusions have identity laxity,
    the middle one is base change along f: x -> y, and the right-hand one
    is inverted on homology (it induces an isomorphism when F is a
    certified opfibration; this is checked and an AxiomError raised
    otherwise).  The local homology reads no degeneracy map."""
    if cert.functor is not F:
        raise ValueError("certificate does not belong to the given functor")
    D = F.target

    obj_cache = {}

    def object_data(x):
        if x not in obj_cache:
            fib, incl = strict_fiber(F, x)
            H, = homology_subquotient(nerve(fib, q + 1), [q])
            obj_cache[x] = (incl, H, presentation_of(H.sq))
        return obj_cache[x]

    comma_cache = {}

    def comma_data(x):
        # laco(F, x-hat) with its fiber inclusion and homology data
        if x not in comma_cache:
            xhat = point_functor(D, x)
            Lx = laco(F, xhat)
            incl, Hf, _ = object_data(x)
            bang = bang_functor(incl.source)
            lam = Transformation(
                compose_functors(F, incl), compose_functors(xhat, bang),
                {o: D.id1[x] for o in incl.source.objects},
                {m: D.id2[D.id1[x]] for m in incl.source.one_src},
                direction=LAX, flavor=TWO_NATURAL)
            inc = mediate_laco(Lx, incl, bang, lam)
            HL, = homology_subquotient(nerve(Lx.cat, q + 1), [q])
            try:
                _, inv = induced_iso(inc, Hf, HL)
            except AxiomError as e:
                raise AxiomError("fiber inclusion at %r is not a homology "
                                 "isomorphism: %s" % (x, e)) from None
            comma_cache[x] = (Lx, inc, HL, inv)
        return comma_cache[x]

    edge_matrix = {}

    def edge_data(f):
        if f not in edge_matrix:
            x, y = D.one_src[f], D.one_tgt[f]
            _, Hfx, _ = object_data(x)
            Lx, inc_x, _, _ = comma_data(x)
            Ly, _, HLy, inv_y = comma_data(y)
            route = compose_functors(base_change(F, f, Lx, Ly), inc_x)
            M = il.mmul(inv_y, homology_induced(route, Hfx, HLy))
            orders = object_data(y)[1].sq.orders
            edge_matrix[f] = [[v % t if t else v for v in row]
                              for row, t in zip(M, orders)]
        return edge_matrix[f]

    group = {}
    face_map = {}
    for n, lev in enumerate(X.levels):
        for x in lev:
            group[x] = object_data(x.vertices[0])[2]
            g = group[x].gens
            for i in range(len(X.faces[n])):
                f = x.edge(0, 1) if i == 0 else None
                face_map[(i, x)] = il.mid(g) if f is None or D.is_id1(f) \
                    else edge_data(f)
    fiber_group = {v: object_data(v)[2]
                   for v in {x.vertices[0] for lev in X.levels for x in lev}}
    return FiberCoeffData(LocalCoeffSystem(group, face_map), fiber_group,
                          edge_matrix)


def e2_vs_local(pg: SSPages, cert, q: int) -> list:
    """For each trusted p, in order, whether E^2_{p,q} of the pages pg of
    B(F) equals H_p of the nerve of the target with local coefficients in
    the degree-q fiber homology.  E^2_{p,q} reads only the levels
    (p +- 1, q +- 1) of B, the same in every B that holds them, so any
    pages trusted at (p, q) serve; and H_p reads only the levels p +- 1 of
    the nerve, so one coefficient system, on the nerve truncated at the top
    trusted p + 1, serves every p.  A q outside pg.trusted raises
    ValueError."""
    tp, tq = pg.trusted
    if not 0 <= q <= tq:
        raise ValueError("row q = %d lies outside the trusted window q <= %d"
                         % (q, tq))
    F = pg.B.F
    X = nerve(F.target, tp + 1)
    system = fiber_coeff_system(F, cert, q, X).system
    return [pg.E2[(p, q)] == H for p, H in
            enumerate(local_homology_groups(X, system, range(tp + 1)))]
