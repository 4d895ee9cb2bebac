from ast import literal_eval
from dataclasses import replace
from functools import lru_cache, partial
from types import SimpleNamespace

import pytest

from twocat import homology as hm
from twocat import intlinalg as il
from twocat import nerve as nv
from twocat import opfib as of
from twocat import pgm, sinv
from twocat import specseq as ss
from twocat.constructs import laco, pullback, strict_fiber
from twocat.core import (AxiomError, TwoFunctor, compose_functors,
                         functors_equal, identity_functor, make_two_category,
                         validate_two_category)
from twocat.fixtures import (fix_c2, fix_g2, fix_i, fix_prod, fix_t,
                             locally_discrete, point_functor)
from twocat.nerve import OrientedSimplex, nerve

from comparison import comma_inclusion
from diagram_comma import (cell_level_first_miss, degeneracy, face,
                           filtration_check_p, filtration_check_q,
                           find_oplax_initial, laco_diagram, lp_initial_d_e,
                           oplaco_codiagram, path_id, simplex_functor)
from test_homology import (dense_chain_homology, free_homology,
                           is_morphism_inverting, operator_dicts)
from test_nerve import dict_keyed_search, enumerate_simplices


def pr2_c2():
    prod, pr1, pr2 = fix_prod(fix_g2(), fix_c2())
    return prod, pr2


def pr2_i():
    prod, pr1, pr2 = fix_prod(fix_g2(), fix_i())
    return prod, pr2


def swap_projection():
    """P: E -> BZ/2, with E the action groupoid of Z/2 swapping {a, b}: an
    opfibration whose base acts on the fiber {a, b}, so its transition
    matrix on H_0 = Z^2 is the swap, not the identity."""
    base = locally_discrete(
        ["*"], {"id_*": ("*", "*"), "t": ("*", "*")},
        {("id_*", "id_*"): "id_*", ("t", "id_*"): "t", ("id_*", "t"): "t",
         ("t", "t"): "id_*"})
    E = locally_discrete(
        ["a", "b"], {"id_a": ("a", "a"), "id_b": ("b", "b"),
                     "t_a": ("a", "b"), "t_b": ("b", "a")},
        {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
         ("t_a", "id_a"): "t_a", ("id_b", "t_a"): "t_a",
         ("t_b", "id_b"): "t_b", ("id_a", "t_b"): "t_b",
         ("t_b", "t_a"): "id_a", ("t_a", "t_b"): "id_b"})
    on_one = {"id_a": "id_*", "id_b": "id_*", "t_a": "t", "t_b": "t"}
    return TwoFunctor(E, base, {"a": "*", "b": "*"}, on_one,
                      {"ii_" + f: "ii_" + g for f, g in on_one.items()})


def crossed_module(m, n, act, bd):
    """The one-object strict 2-group of a crossed module bd: Z/m -> Z/n with
    Z/n acting on Z/m by act(k, g): 1-cells 'h<k>', k in Z/n, composed in
    Z/n, and 2-cells 'g<j>h<k>' = (j, k): h<k> => h<bd(j) + k>, composed
    vertically in Z/m, with k * (g, h) = (k.g, k + h) and
    (g, h) * k = (g, h + k).  The result is validated, which checks that act
    and bd make a crossed module."""
    h = lambda k: "h%d" % (k % n)
    c = lambda j, k: "g%dh%d" % (j % m, k % n)
    G, H = range(m), range(n)
    return validate_two_category(make_two_category(
        ["*"], {h(k): ("*", "*") for k in H},
        {c(j, k): (h(k), h(bd(j) + k)) for j in G for k in H},
        {"*": h(0)}, {h(k): c(0, k) for k in H},
        {(h(a), h(b)): h(a + b) for a in H for b in H},
        {(c(i, bd(j) + k), c(j, k)): c(i + j, k)
         for i in G for j in G for k in H},
        {(h(a), c(j, k)): c(act(a, j), a + k)
         for a in H for j in G for k in H},
        {(c(j, k), h(a)): c(j, k + a) for a in H for j in G for k in H}))


def xmod_projection():
    """P: X -> BZ/2, with X the crossed module Z/3 -> Z/2 (bd = 0, Z/2
    acting by inversion), whose classifying space has pi_1 = Z/2 and
    pi_2 = Z/3: an opfibration whose fiber has H_2 = Z/3, on which the base
    acts by inversion."""
    X = crossed_module(3, 2, lambda k, j: -j if k % 2 else j, lambda j: 0)
    base = crossed_module(1, 2, lambda k, j: j, lambda j: 0)
    return TwoFunctor(X, base, {"*": "*"}, {h: h for h in X.one_src},
                      {a: "g0" + a[a.index("h"):] for a in X.two_src})


# --- simplex classifiers -----------------------------------------------------

def test_simplex_functor_validates():
    D = fix_g2()
    for n in (2, 3):
        for x in enumerate_simplices(D, n):
            simplex_functor(D, x)  # validated on construction


def test_codiagram_counts_match_nerve():
    # cocones under a point diagram in G2 at each level p are the
    # (p+1)-simplices of the nerve of G2
    D = fix_g2()
    W = simplex_functor(D, enumerate_simplices(D, 0)[0])
    R = oplaco_codiagram(W)
    for p in range(3):
        assert len(enumerate_simplices(R.cat, p)) == \
            len(enumerate_simplices(D, p + 1))


# --- the bisimplicial set ----------------------------------------------------

def test_terminal_singleton_everywhere():
    B = ss.build_B(identity_functor(fix_t()), 2, 2)
    assert all(len(v) == 1 for v in B.levels.values())
    assert ss.check_bisimplicial(B)


def test_interval_counts():
    B = ss.build_B(identity_functor(fix_i()), 1, 1)
    assert len(B.levels[(0, 0)]) == 3
    assert ss.check_bisimplicial(B)


def test_g2_row_counts_match_nerve():
    # over the identity, delta determines the triple, so the (p, 0) level
    # is the set of (p+1)-simplices of the nerve
    G2 = fix_g2()
    B = ss.build_B(identity_functor(G2), 2, 0)
    for p in range(3):
        assert len(B.levels[(p, 0)]) == \
            len(enumerate_simplices(G2, p + 1))
    assert ss.check_bisimplicial(B)


def test_bisimplicial_identities_product_projection():
    _, pr2 = pr2_c2()
    assert ss.check_bisimplicial(ss.build_B(pr2, 2, 2))


def z2():
    """Z/2 on one object *, its generator a."""
    return locally_discrete(
        ["*"], {"id_*": ("*", "*"), "a": ("*", "*")},
        {("id_*", "id_*"): "id_*", ("a", "id_*"): "a", ("id_*", "a"): "a",
         ("a", "a"): "id_*"})


def z2_flip():
    """Z/2 -> Z/2 swapping the identity 1-cell and the generator a: no
    2-functor, as it sends an identity to a non-identity.  The generator
    sorts before id_*, so the first miss lies over the edge a, whose
    degeneracies s_0 and s_1 differ, and omega's image is not the first
    1-simplex of the source."""
    return TwoFunctor(z2(), z2(), {"*": "*"}, {"id_*": "a", "a": "id_*"},
                      {"ii_id_*": "ii_a", "ii_a": "ii_id_*"})


def z2_flip_over_an_edge():
    """The flip of Z/2 into Z/2 at x with an edge x -> w, * going to x:
    the first miss lies over an edge u: x -> w, so sigma, delta's last
    vertex w, is not its first."""
    arrows = {"id_w": ("w", "w"), "id_x": ("x", "x"), "a": ("x", "x"),
              "u": ("x", "w"), "v": ("x", "w")}
    comp = {("id_w", "id_w"): "id_w", ("id_x", "id_x"): "id_x",
            ("a", "id_x"): "a", ("id_x", "a"): "a", ("a", "a"): "id_x",
            ("u", "a"): "v", ("v", "a"): "u"}
    for f in ("u", "v"):
        comp[(f, "id_x")] = comp[("id_w", f)] = f
    D = locally_discrete(["w", "x"], arrows, comp)
    return TwoFunctor(z2(), D, {"*": "x"}, {"id_*": "a", "a": "id_x"},
                      {"ii_id_*": "ii_a", "ii_a": "ii_id_x"})


def swap_e0_e1():
    """G2 -> G2 swapping its two 2-cells: no 2-functor, as it moves the
    identity 2-cell e0."""
    G = fix_g2()
    return TwoFunctor(G, G, {"*": "*"}, {"i": "i"}, {"e0": "e1", "e1": "e0"})


SWAP_MISS = (
    "bisimplicial set not closed under faces and degeneracies at "
    "Bisimplex(om=OrientedSimplex(dim=2, vertices=('*', '*', '*'), "
    "edges=('i', 'i', 'i'), triangles=('e0',)), "
    "de=OrientedSimplex(dim=3, vertices=('*', '*', '*', '*'), "
    "edges=('i', 'i', 'i', 'i', 'i', 'i'), "
    "triangles=('e0', 'e0', 'e0', 'e0')), "
    "si=OrientedSimplex(dim=0, vertices=('*',), edges=(), triangles=()))")
FLIP_MISS = (
    "bisimplicial set not closed under faces and degeneracies at "
    "Bisimplex(om=OrientedSimplex(dim=1, vertices=('*', '*'), "
    "edges=('id_*',), triangles=()), "
    "de=OrientedSimplex(dim=2, vertices=('*', '*', '*'), "
    "edges=('id_*', 'a', 'a'), triangles=('ii_a',)), "
    "si=OrientedSimplex(dim=0, vertices=('*',), edges=(), triangles=()))")
EDGE_MISS = (
    "bisimplicial set not closed under faces and degeneracies at "
    "Bisimplex(om=OrientedSimplex(dim=1, vertices=('*', '*'), "
    "edges=('id_*',), triangles=()), "
    "de=OrientedSimplex(dim=2, vertices=('x', 'x', 'w'), "
    "edges=('id_x', 'u', 'u'), triangles=('ii_u',)), "
    "si=OrientedSimplex(dim=0, vertices=('w',), edges=(), triangles=()))")


def test_build_B_rejects_a_non_functor():
    # only an s^v image can leave B(F): d^h and s^h keep delta's front
    # block, d^v commutes with F cell by cell, and a degeneracy inserts
    # identities, which a non-functor need not keep.  The swap of G2's
    # 2-cells moves the identity e0, so a vertically degenerate bisimplex
    # out of q = 1 leaves the levels; the flip of Z/2 moves the identity
    # 1-cell, so one out of q = 0 does.  build_B names the miss off its
    # position tables in the words pinned here, as the oracles do cell by
    # cell.
    cases = [(swap_e0_e1, 0, 2, SWAP_MISS), (swap_e0_e1, 2, 2, SWAP_MISS),
             (swap_e0_e1, 1, 3, SWAP_MISS), (z2_flip, 0, 1, FLIP_MISS),
             (z2_flip, 1, 1, FLIP_MISS), (z2_flip, 2, 2, FLIP_MISS),
             (z2_flip_over_an_edge, 0, 1, EDGE_MISS),
             (z2_flip_over_an_edge, 2, 2, EDGE_MISS)]
    for make, P, Q, want in cases:
        F = make()
        for build in (ss.build_B, oracle_build_B, grown_build_B):
            with pytest.raises(AxiomError) as got:
                build(F, P, Q)
            assert str(got.value) == want


# --- the grown B(F) as an oracle ---------------------------------------------

@lru_cache(maxsize=None)
def _tail(m: int, p: int):
    """Positions in an m-simplex of the edges and triangles of its last
    p + 1 vertices, in the layout of dimension p."""
    L, o = nv.layout(m), m - p
    return ([L.edge_at[(o + a, o + b)] for a, b in nv.layout(p).pairs],
            [L.tri_at[(o + a, o + b, o + c)]
             for a, b, c in nv.layout(p).triples])


def grown_build_B(F, P, Q):
    """B(F) as first grown from the blocks up, the oracle for build_B:
    the omegas of each q are grouped by their block F(omega); the deltas
    at (p, q) are the one-vertex extensions (``nerve.grow``) of those at
    (p - 1, q), the blocks being level p = -1, and sigma is each delta's
    last p + 1 vertices, looked up in D's levels.  A delta is known by its
    parent d_last delta and its new cells, so its faces and degeneracies
    are found by key (``nerve.operator_row``).  The nerves of C and D are
    grown to Q and max(P, Q) with their operators as position tables: the
    omegas and their operators are C's, a block's operators are read off
    D's tables, and a block that is no simplex of D grows no delta."""
    C, D = F.source, F.target
    oms, om_face, om_degen = nv.simplex_operators(C, Q)
    d_levels, d_face, d_degen = nv.simplex_operators(D, max(P, Q))
    d_at = [{s: n for n, s in enumerate(lev)} for lev in d_levels]
    block_at, block_of = [], []             # q -> F(omega) -> id; q -> ids
    for lev in oms:
        at = {}
        block_of.append([at.setdefault(nv.map_simplex(F, x), len(at))
                         for x in lev])
        block_at.append(at)
    # the deltas at (p, q) as grown from their parents, with the id of
    # their block and the position of sigma; per i, the id of d_i / s_i
    grown, simp, root, sig_of, dface, ddeg = {}, {}, {}, {}, {}, {}
    for q, at in enumerate(block_at):
        simp[(-1, q)] = blocks = list(at)
        root[(-1, q)] = list(range(len(blocks)))
        # a block that F does not map to a simplex grows no delta, and
        # its operators are never read
        pos = [d_at[q].get(b) for b in blocks]
        ids = lambda row, lo: [None if n is None else
                               block_at[lo].get(d_levels[lo][row[n]])
                               for n in pos]
        dface[(-1, q)] = [ids(row, q - 1) for row in d_face[q]]
        ddeg[(-1, q)] = [ids(row, q + 1) for row in d_degen[q]] \
            if q < Q else []
    levels = {}
    for p in range(P + 1):
        for q in range(Q + 1):
            m = q + 1 + p
            tail_e, tail_t = _tail(m, p)
            g = nv.grow(D, m, ((a, x) for a, x in enumerate(simp[(p - 1, q)])
                               if p or x in d_at[q]))
            rt, sp = root[(p - 1, q)], []
            for y in g.cells:
                e, t = y.edges, y.triangles
                si = nv.OrientedSimplex(p, y.vertices[q + 1:],
                                        tuple([e[k] for k in tail_e]),
                                        tuple([t[k] for k in tail_t]))
                if si not in d_at[p]:
                    raise AxiomError("delta %r ends outside the "
                                     "%d-simplices of the target" % (y, p))
                sp.append(d_at[p][si])
            grown[(p, q)], simp[(p, q)], sig_of[(p, q)] = g, g.cells, sp
            root[(p, q)] = [rt[a] for a in g.parent]
    for p in range(P + 1):
        for q in range(Q + 1):
            m = q + 1 + p
            g = grown[(p, q)]
            rows = [None] * (m + 1)
            rows[m] = g.parent
            for i in range(0 if q else 1, m):
                kids = grown[(p, q - 1) if i <= q else (p - 1, q)].kids
                rows[i] = nv.operator_row(g, i, kids, dface[(p - 1, q)][i])
            dface[(p, q)] = rows
            rows = [None] * (m + 1)
            for i in range(m + 1):
                if (q == Q) if i <= q else (p == P):
                    continue
                kids = grown[(p, q + 1) if i <= q else (p + 1, q)].kids
                rows[i] = nv.operator_row(g, i, kids, ddeg[(p - 1, q)][i]
                                          if i < m else None, True)
            ddeg[(p, q)] = rows
    # cells sort by (omega, delta): position start[omega] + rank[delta],
    # rank being delta's place among the deltas of its block, which grow
    # sorted
    start, rank, pairs = {}, {}, {}
    for p in range(P + 1):
        for q in range(Q + 1):
            xs, rt = simp[(p, q)], root[(p, q)]
            members = [[] for _ in simp[(-1, q)]]
            rk = []
            for d, b in enumerate(rt):
                rk.append(len(members[b]))
                members[b].append(d)
            st, pq = [], []
            for o, b in enumerate(block_of[q]):
                st.append(len(pq))
                pq.extend((o, d) for d in members[b])
            start[(p, q)], rank[(p, q)], pairs[(p, q)] = st, rk, pq
            sig = d_levels[p]
            levels[(p, q)] = tuple(
                ss.Bisimplex(oms[q][o], xs[d], sig[sig_of[(p, q)][d]])
                for o, d in pq)

    def row(p, q, o_map, d_map, tgt):
        """Positions in level tgt of (o_map[omega], d_map[delta]) for the
        cells of level (p, q), omega kept when o_map is None, and None
        where that pair is not a cell of tgt."""
        st, rk, rt = start[tgt], rank[tgt], root[tgt]
        bo = block_of[tgt[1]]
        out = []
        for o, d in pairs[(p, q)]:
            o = o if o_map is None else o_map[o]
            d = d_map[d]
            out.append(None if o is None or d is None or rt[d] != bo[o]
                       else st[o] + rk[d])
        return out

    face_h, face_v, degen_h, degen_v = {}, {}, {}, {}
    for (p, q), cells in levels.items():
        fh = [row(p, q, None, dface[(p, q)][q + 1 + i], (p - 1, q))
              for i in range(p + 1)] if p >= 1 else []
        dh = [row(p, q, None, ddeg[(p, q)][q + 1 + i], (p + 1, q))
              for i in range(p + 1)] if p < P else []
        fv = [row(p, q, om_face[q][i], dface[(p, q)][i], (p, q - 1))
              for i in range(q + 1)] if q >= 1 else []
        dv = [row(p, q, om_degen[q][i], ddeg[(p, q)][i], (p, q + 1))
              for i in range(q + 1)] if q < Q else []
        if any(None in r for r in fh + dh + fv + dv):
            cell_level_first_miss(C, D, cells, fh, dh, fv, dv)
        face_h[(p, q)], degen_h[(p, q)] = fh, dh
        face_v[(p, q)], degen_v[(p, q)] = fv, dv
    degenerate_h, degenerate_v = {}, {}
    for (p, q), cells in levels.items():
        # x is degenerate when x = s_i d_{i+1} x for some i
        degenerate_h[(p, q)] = [any(
            degen_h[(p - 1, q)][i][face_h[(p, q)][i + 1][k]] == k
            for i in range(p)) for k in range(len(cells))]
        degenerate_v[(p, q)] = [any(
            degen_v[(p, q - 1)][i][face_v[(p, q)][i + 1][k]] == k
            for i in range(q)) for k in range(len(cells))]
    return SimpleNamespace(F=F, P=P, Q=Q, levels=levels, face_h=face_h,
                           face_v=face_v, degen_h=degen_h, degen_v=degen_v,
                           degenerate_h=degenerate_h,
                           degenerate_v=degenerate_v)


# --- the pairwise, dict-keyed B(F) as an oracle ------------------------------

def oracle_build_B(F, P, Q):
    """B(F) as first written, but for the search, and operators as dicts
    (i, cell) -> cell.  The deltas over a pair (omega, sigma) are those
    whose front q-face is F(omega) and whose back p-face is sigma, found
    by their faces among one dict-keyed oracle search per level of N(D)."""
    C, D = F.source, F.target
    # the name-based operators, each simplex's computed once
    dC, sC, dD, sD = (lru_cache(maxsize=None)(partial(op, E))
                      for E in (C, D) for op in (face, degeneracy))
    omegas = {q: enumerate_simplices(C, q) for q in range(Q + 1)}
    sigmas = {p: enumerate_simplices(D, p) for p in range(P + 1)}
    over = {}       # (front q-face, back p-face) -> deltas
    for n in range(P + Q + 2):
        for de in dict_keyed_search(D, n):
            # fronts[k] and backs[k]: de without its last or first k vertices
            fronts, backs = [de], [de]
            for _ in range(n):
                fronts.append(dD(fronts[-1], fronts[-1].dim))
                backs.append(dD(backs[-1], 0))
            for p in range(max(0, n - 1 - Q), min(P, n - 1) + 1):
                over.setdefault((fronts[p + 1], backs[n - p]), []).append(de)
    levels = {}
    level_of = {}
    for p in range(P + 1):
        for q in range(Q + 1):
            cells = []
            for om in omegas[q]:
                F_om = nv.OrientedSimplex(
                    q, tuple(F.on_objects[v] for v in om.vertices),
                    tuple(F.on_one[e] for e in om.edges),
                    tuple(F.on_two[t] for t in om.triangles))
                for si in sigmas[p]:
                    for de in over.get((F_om, si), ()):
                        cells.append(ss.Bisimplex(om, de, si))
            levels[(p, q)] = tuple(sorted(cells))
            for x in levels[(p, q)]:
                level_of[x] = (p, q)
    lsets = {k: set(v) for k, v in levels.items()}

    def member(y, level):
        if y not in lsets[level]:
            raise AxiomError("bisimplicial set not closed under faces and "
                             "degeneracies at %r" % (y,))
        return y

    face_h, face_v, degen_h, degen_v = {}, {}, {}, {}
    for (p, q), cells in levels.items():
        for x in cells:
            for i in range(p + 1):
                if p >= 1:
                    face_h[(i, x)] = member(ss.Bisimplex(
                        x.om, dD(x.de, q + 1 + i), dD(x.si, i)), (p - 1, q))
                if p < P:
                    degen_h[(i, x)] = member(ss.Bisimplex(
                        x.om, sD(x.de, q + 1 + i), sD(x.si, i)), (p + 1, q))
            for i in range(q + 1):
                if q >= 1:
                    face_v[(i, x)] = member(ss.Bisimplex(
                        dC(x.om, i), dD(x.de, i), x.si), (p, q - 1))
                if q < Q:
                    degen_v[(i, x)] = member(ss.Bisimplex(
                        sC(x.om, i), sD(x.de, i), x.si), (p, q + 1))
    degenerate_h, degenerate_v = {}, {}
    for (p, q), cells in levels.items():
        for x in cells:
            degenerate_h[x] = p >= 1 and any(
                x == degen_h[(i, face_h[(i + 1, x)])] for i in range(p))
            degenerate_v[x] = q >= 1 and any(
                x == degen_v[(i, face_v[(i + 1, x)])] for i in range(q))
    return SimpleNamespace(P=P, Q=Q, levels=levels, face_h=face_h,
                           face_v=face_v, degen_h=degen_h, degen_v=degen_v,
                           degenerate_h=degenerate_h,
                           degenerate_v=degenerate_v, level_of=level_of)


def oracle_check_bisimplicial(O):
    """The simplicial and commutation identities on the dict-keyed
    operators of oracle_build_B, cell by cell, each cell numbered once so
    that the identities compare numbers."""
    number = {x: k for k, x in enumerate(O.level_of)}
    B = SimpleNamespace(P=O.P, Q=O.Q, level_of=dict(enumerate(
        O.level_of.values())), **{name: {
            (i, number[x]): number[y]
            for (i, x), y in getattr(O, name).items()} for name in SHIFTS})

    def ok_direction(fc, dg, coord):
        for x, (p, q) in B.level_of.items():
            n = p if coord == 0 else q
            for j in range(n + 1):
                for i in range(j):
                    if n >= 2 and fc[(i, fc[(j, x)])] != \
                            fc[(j - 1, fc[(i, x)])]:
                        return False
                cap = B.P if coord == 0 else B.Q
                if n + 1 < cap:
                    for i in range(j + 1):
                        if dg[(j + 1, dg[(i, x)])] != dg[(i, dg[(j, x)])]:
                            return False
                if n < cap:
                    for i in range(n + 2):
                        y = dg[(j, x)]
                        if i == j or i == j + 1:
                            if fc[(i, y)] != x:
                                return False
                        elif n >= 1:
                            if i < j:
                                if fc[(i, y)] != dg[(j - 1, fc[(i, x)])]:
                                    return False
                            elif fc[(i, y)] != dg[(j, fc[(i - 1, x)])]:
                                return False
        return True

    if not ok_direction(B.face_h, B.degen_h, 0):
        return False
    if not ok_direction(B.face_v, B.degen_v, 1):
        return False
    for x, (p, q) in B.level_of.items():
        for i in range(p + 1):
            for j in range(q + 1):
                if p >= 1 and q >= 1 and \
                        B.face_v[(j, B.face_h[(i, x)])] != \
                        B.face_h[(i, B.face_v[(j, x)])]:
                    return False
                if p < B.P and q < B.Q and \
                        B.degen_v[(j, B.degen_h[(i, x)])] != \
                        B.degen_h[(i, B.degen_v[(j, x)])]:
                    return False
                if p >= 1 and q < B.Q and \
                        B.degen_v[(j, B.face_h[(i, x)])] != \
                        B.face_h[(i, B.degen_v[(j, x)])]:
                    return False
                if p < B.P and q >= 1 and \
                        B.face_v[(j, B.degen_h[(i, x)])] != \
                        B.degen_h[(i, B.face_v[(j, x)])]:
                    return False
    return True


# where each operator table points, as a shift of (p, q)
SHIFTS = {"face_h": (-1, 0), "face_v": (0, -1),
          "degen_h": (1, 0), "degen_v": (0, 1)}


def tables(B):
    """The rows and columns of B as (p, q)-keyed tables: face_h[(p, q)] is
    rows[q].faces[p], face_v[(p, q)] is cols[p].faces[q], and likewise for
    the degeneracies and the degenerate flags.  Every row and column must
    hold the tuples of B.levels."""
    assert all(B.rows[q].levels[p] is B.cols[p].levels[q] is cells
               for (p, q), cells in B.levels.items())
    out = SimpleNamespace(F=B.F, P=B.P, Q=B.Q, levels=B.levels)
    for name, attr in (("face_", "faces"), ("degen_", "degens"),
                       ("degenerate_", "degenerate")):
        setattr(out, name + "h", {(p, q): getattr(B.rows[q], attr)[p]
                                  for p, q in B.levels})
        setattr(out, name + "v", {(p, q): getattr(B.cols[p], attr)[q]
                                  for p, q in B.levels})
    return out


def as_dicts(B):
    """The tables of B in the oracle's dict-keyed form."""
    B = tables(B)
    out = SimpleNamespace(P=B.P, Q=B.Q, levels=B.levels, level_of={
        x: k for k, cells in B.levels.items() for x in cells})
    for name, (dp, dq) in SHIFTS.items():
        table = {}
        for (p, q), rows in getattr(B, name).items():
            for i, row in enumerate(rows):
                tgt = B.levels[(p + dp, q + dq)]
                for x, k in zip(B.levels[(p, q)], row):
                    table[(i, x)] = tgt[k]
        setattr(out, name, table)
    for name in ("degenerate_h", "degenerate_v"):
        setattr(out, name, {x: flag for k, cells in B.levels.items()
                            for x, flag in zip(cells, getattr(B, name)[k])})
    return out


def _rho(make):
    P = make()
    return sinv.rho_projection(sinv.s_inv_x(P, pgm.self_action(P)),
                               sinv.s_inv_point(P))


def _point(D):
    return point_functor(D, sorted(D.objects)[0])


# three functors whose image misses at least half of the target's nerve:
# build_B reads its cells off all of N(D), the grown oracle only off the
# deltas over F's blocks
NON_SURJECTIVE = [
    ("point-rho-c2", lambda: _point(_rho(pgm.fix_c2_pgm).target), 3, 3),
    ("point-g2xc2", lambda: _point(fix_prod(fix_g2(), fix_c2())[0]), 2, 2),
    ("fiber-projection", lambda: strict_fiber(pr2_c2()[1], "0")[1], 2, 2),
]

# every functor and window that this file and criterion 05 build B for,
# each at its largest window and at a non-square one where built, and the
# functors above; of criterion 05's 5 x 5 windows, the projection's and
# rho-c2's are left out (5 s and 25 s against this oracle, on a 2-vCPU VM),
# their 4 x 4 windows standing in for them here, and compared with the
# grown oracle only
ORACLE_CASES = NON_SURJECTIVE + [
    ("terminal", lambda: identity_functor(fix_t()), 2, 2),
    ("terminal", lambda: identity_functor(fix_t()), 2, 1),
    ("interval", lambda: identity_functor(fix_i()), 3, 3),
    ("g2", lambda: identity_functor(fix_g2()), 2, 2),
    ("g2", lambda: identity_functor(fix_g2()), 2, 0),
    ("projection", lambda: pr2_c2()[1], 3, 3),
    ("projection", lambda: pr2_c2()[1], 2, 1),
    ("projection-interval", lambda: pr2_i()[1], 2, 2),
    ("rho-c2", lambda: _rho(pgm.fix_c2_pgm), 3, 3),
    ("rho-g2", lambda: _rho(pgm.fix_g2_pgm), 3, 3),
    ("interval", lambda: identity_functor(fix_i()), 4, 4),
    ("projection", lambda: pr2_c2()[1], 4, 4),
    ("rho-c2", lambda: _rho(pgm.fix_c2_pgm), 4, 4),
    ("rho-g2", lambda: _rho(pgm.fix_g2_pgm), 4, 4),
    ("swap", swap_projection, 4, 4),
    ("interval", lambda: identity_functor(fix_i()), 5, 5),
    ("rho-g2", lambda: _rho(pgm.fix_g2_pgm), 5, 5),
]


@pytest.mark.parametrize("make,P,Q", [c[1:] for c in ORACLE_CASES],
                         ids=["%s-%dx%d" % (c[0], c[2], c[3])
                              for c in ORACLE_CASES])
def test_build_B_matches_the_pairwise_oracle(make, P, Q):
    F = make()
    B = ss.build_B(F, P, Q)
    O = oracle_build_B(F, P, Q)
    got = as_dicts(B)
    assert got.levels == O.levels
    for name in list(SHIFTS) + ["degenerate_h", "degenerate_v"]:
        assert getattr(got, name) == getattr(O, name), name
    assert ss.check_bisimplicial(B) and oracle_check_bisimplicial(O)


GROWN_CASES = ORACLE_CASES + [
    ("projection", lambda: pr2_c2()[1], 5, 5),
    ("rho-c2", lambda: _rho(pgm.fix_c2_pgm), 5, 5),
]


@pytest.mark.parametrize("make,P,Q", [c[1:] for c in GROWN_CASES],
                         ids=["%s-%dx%d" % (c[0], c[2], c[3])
                              for c in GROWN_CASES])
def test_build_B_matches_the_grown_oracle(make, P, Q):
    F = make()
    got, G = tables(ss.build_B(F, P, Q)), grown_build_B(F, P, Q)
    assert vars(got).keys() == vars(G).keys()
    for name, want in vars(G).items():
        assert getattr(got, name) == want, name


@pytest.mark.parametrize("make,P,Q", [c[1:] for c in NON_SURJECTIVE],
                         ids=[c[0] for c in NON_SURJECTIVE])
def test_non_surjective_cases_miss_half_of_the_target(make, P, Q):
    F = make()
    B = ss.build_B(F, P, Q)
    deltas = {x.de for cells in B.levels.values() for x in cells}
    assert 2 * len(deltas) <= sum(map(len, nv.simplex_operators(
        F.target, P + Q + 1)[0][1:]))


def test_build_B_grows_no_delta_over_a_block_outside_the_target():
    # F sends a01 to id_0, so F(omega) for the edge a01 is no simplex of
    # I: no delta lies over it, as in the oracle
    I = fix_i()
    F = TwoFunctor(I, I, {"0": "0", "1": "1"},
                   {"id_0": "id_0", "id_1": "id_1", "a01": "id_0"},
                   {a: a for a in I.two_src})
    B = ss.build_B(F, 2, 2)
    O = oracle_build_B(F, 2, 2)
    assert B.levels == O.levels
    assert all(x.om.edges != ("a01",) for x in B.levels[(0, 1)])
    assert as_dicts(B).face_v == O.face_v


def _corrupted(B, name, level, i, k, value):
    """B with entry k of row i of the table name ("face_h", ...) at level
    set to value, in the row or column of B that holds it; replace works
    out that line's degenerate flags again."""
    op, d = name.split("_")
    (p, q), attr, side = level, op + "s", "rows" if d == "h" else "cols"
    at, n = (q, p) if d == "h" else (p, q)
    lines = list(getattr(B, side))
    table = list(getattr(lines[at], attr))
    table[n] = [list(r) for r in table[n]]
    assert table[n][i][k] != value
    table[n][i][k] = value
    lines[at] = replace(lines[at], **{attr: table})
    return replace(B, **{side: lines})


@pytest.mark.parametrize("direction", ["h", "v"])
def test_check_bisimplicial_rejects_a_corrupted_table(direction):
    # d_0 s_0 = id: send d_0 of s_0 x_0 to x_1, or s_0 x_0 to s_0 x_1
    B = ss.build_B(pr2_c2()[1], 2, 2)
    assert ss.check_bisimplicial(B)
    low, high = ((0, 1), (1, 1)) if direction == "h" else ((1, 0), (1, 1))
    assert len(B.levels[low]) >= 2
    fc, dg = "face_" + direction, "degen_" + direction
    s0 = getattr(tables(B), dg)[low][0]
    bad = [_corrupted(B, fc, high, 0, s0[0], 1),
           _corrupted(B, dg, low, 0, 0, s0[1])]
    for C in bad:
        assert not ss.check_bisimplicial(C)
        assert not oracle_check_bisimplicial(as_dicts(C))


def test_check_bisimplicial_reads_the_column_identities(monkeypatch):
    # d^v_0 and d^v_1 swapped on level q = 1 of every column: each
    # commutation identity with a horizontal operator holds for j if it
    # held for 1 - j, but d_0 d_1 = d_0 d_0 on level q = 2 now reads
    # d_1 d_1 = d_1 d_0, which fails; only the column check sees it
    B = ss.build_B(swap_projection(), 2, 2)
    C = replace(B, cols=[replace(X, faces=[X.faces[0], X.faces[1][::-1],
                                           *X.faces[2:]]) for X in B.cols])
    assert tables(C).face_v != tables(B).face_v
    assert not ss.check_bisimplicial(C)
    assert not oracle_check_bisimplicial(as_dicts(C))
    monkeypatch.setattr(ss, "check_simplicial_identities", lambda X: None)
    assert ss.check_bisimplicial(C)


def test_pages_check_d2_on_every_column():
    # d^v_0 := d^v_1 on a nondegenerate 2-cell x of column 0 whose two faces
    # differ: the boundary of x is then d^v_2 x alone, whose own boundary
    # is not zero; E1 is homology_subquotient of each column, which checks
    # d^2 = 0 there
    B = ss.build_B(swap_projection(), 2, 2)
    faces, flags = B.cols[0].faces[2], B.cols[0].degenerate[2]
    k = next(k for k, d in enumerate(flags)
             if not d and faces[0][k] != faces[1][k])
    C = _corrupted(B, "face_v", (0, 2), 0, k, faces[1][k])
    with pytest.raises(AxiomError, match="boundary squared is nonzero"):
        ss.pages(C)


# --- pages and totalization --------------------------------------------------

def alt_sum_matrix(src, tgt, faces):
    """Oracle: the dense matrix of k -> sum_i (-1)^i * faces[i][k] on the
    given bases of positions, dropping faces outside tgt."""
    idx = {y: r for r, y in enumerate(tgt)}
    M = il.mzeros(len(tgt), len(src))
    for i, row in enumerate(faces):
        s = (-1) ** i
        for j, k in enumerate(src):
            r = idx.get(row[k])
            if r is not None:
                M[r][j] += s
    return M


def nondegenerate(flags):
    return [k for k, d in enumerate(flags) if not d]


def total_basis(B, m):
    """(level, position) of each cell of total degree m that is
    nondegenerate in both directions."""
    B, out = tables(B), []
    for p in range(m + 1):
        q = m - p
        if p <= B.P and q <= B.Q:
            out.extend(((p, q), k) for k, (h, v) in enumerate(zip(
                B.degenerate_h[(p, q)], B.degenerate_v[(p, q)]))
                if not h and not v)
    return out


def dense_total_d(B, m):
    """Oracle: the dense total differential d^H + (-1)^p d^V of degree m."""
    src, tgt = total_basis(B, m), total_basis(B, m - 1)
    B = tables(B)
    idx = {y: r for r, y in enumerate(tgt)}
    M = il.mzeros(len(tgt), len(src))
    for j, ((p, q), k) in enumerate(src):
        for lo, faces, sign in (((p - 1, q), B.face_h[(p, q)], 1),
                                ((p, q - 1), B.face_v[(p, q)], (-1) ** p)):
            for i, row in enumerate(faces):
                r = idx.get((lo, row[k]))
                if r is not None:
                    M[r][j] += sign * (-1) ** i
    return M


def row_homology(B, q, p):
    """Homology of the horizontally normalized row at vertical level q,
    before taking vertical homology; trusted for p <= P-1."""
    B = tables(B)
    if p > B.P - 1:
        raise ValueError("row H_%d needs horizontal bound >= %d, have %d"
                         % (p, p + 1, B.P))
    rows = {r: hm.basis_rows(B.degenerate_h[(r, q)]) for r in range(B.P + 1)}

    def d(r):
        return hm.level_boundary(B.face_h[(r, q)], rows[r], rows[r - 1])
    return free_homology(d(p) if p else (), d(p + 1),
                         B.degenerate_h[(p, q)].count(False))


def horizontal_collapse_check(B, q):
    """Each row collapses onto the q-simplices of the nerve of the source:
    H_0 of row q is free on all q-simplices of C (each augmentation piece
    is connected with a lax terminal cocone) and H_p vanishes for
    0 < p <= P-1."""
    nq = len(enumerate_simplices(B.F.source, q))
    if row_homology(B, q, 0) != il.FGAbGroup(nq, ()):
        return False
    return all(row_homology(B, q, p).is_trivial for p in range(1, B.P))


def as_columns(M, ncols):
    """sparse_columns of M, also for a matrix with no rows and ncols
    columns."""
    return il.sparse_columns(M) if M else [()] * ncols


# the five functors whose B criterion 05 checks at 4 x 4
CRITERION_05 = [("interval", lambda: identity_functor(fix_i())),
                ("projection", lambda: pr2_c2()[1]),
                ("rho-c2", lambda: _rho(pgm.fix_c2_pgm)),
                ("rho-g2", lambda: _rho(pgm.fix_g2_pgm)),
                ("swap", swap_projection)]


@pytest.mark.parametrize("make", [m for _, m in CRITERION_05],
                         ids=[n for n, _ in CRITERION_05])
def test_boundary_columns_match_dense_oracles(make):
    B = ss.build_B(make(), 3, 3)
    T = tables(B)
    rows = {d: {k: hm.basis_rows(flags) for k, flags in
                getattr(T, "degenerate_" + d).items()} for d in "hv"}
    for (p, q) in B.levels:
        for d, lo, n in (("h", (p - 1, q), p), ("v", (p, q - 1), q)):
            if not n:
                continue
            src = nondegenerate(getattr(T, "degenerate_" + d)[(p, q)])
            tgt = nondegenerate(getattr(T, "degenerate_" + d)[lo])
            faces = getattr(T, "face_" + d)[(p, q)]
            got = hm.level_boundary(faces, rows[d][(p, q)], rows[d][lo])
            assert got == as_columns(alt_sum_matrix(src, tgt, faces),
                                     len(src))
    for m in range(1, 4):
        assert ss.total_boundary(B, m) == as_columns(
            dense_total_d(B, m), len(total_basis(B, m))), m


@pytest.mark.parametrize("make", [m for _, m in CRITERION_05],
                         ids=[n for n, _ in CRITERION_05])
def test_totalization_matches_dense_chain_homology(make):
    B = ss.build_B(make(), 4, 4)
    for n in range(4):
        d_in = dense_total_d(B, n) if n else []
        g = len(total_basis(B, n))
        sq = dense_chain_homology(il.sparse_columns(d_in), il.sparse_columns(
            dense_total_d(B, n + 1)), g, len(total_basis(B, n - 1)) if n
            else 0)
        assert ss.totalization_homology(B, n) == sq.group, n


def test_pages_take_each_column_level_basis_once(monkeypatch):
    # one basis_rows per level 0..Q of each column: the column's chain
    # complex takes it, and its homology and d^1 read it there
    B = ss.build_B(_rho(pgm.fix_c2_pgm), 3, 3)
    want = ss.pages(B)
    calls, basis_rows = [], hm.basis_rows
    for module in (hm, ss):
        monkeypatch.setattr(module, "basis_rows",
                            lambda *a: calls.append(a) or basis_rows(*a))
    got = ss.pages(B)
    assert len(calls) == (B.P + 1) * (B.Q + 1) == 16
    assert (got.E1, got.d1, got.E2) == (want.E1, want.d1, want.E2)


def test_pages_of_rho_c2_take_no_smith_form(monkeypatch):
    # the unit pivots leave every E1 group of rho-c2 free, with no cycle
    # row and no boundary column: E1, d1 and E2 read the identity there
    B = ss.build_B(_rho(pgm.fix_c2_pgm), 3, 3)
    calls, snf = [], il.smith_normal_form
    monkeypatch.setattr(il, "smith_normal_form",
                        lambda M: calls.append(M) or snf(M))
    ss.pages(B)
    assert calls == []


@pytest.mark.parametrize("make,P,Q", [
    (lambda: _rho(pgm.fix_c2_pgm), 3, 3), (xmod_projection, 2, 3)],
    ids=["rho-c2", "xmod"])
def test_pages_match_the_dense_oracle(monkeypatch, make, P, Q):
    # rho-c2 takes only the identity route, the crossed module's Z/3 rows
    # the dense one too
    B = ss.build_B(make(), P, Q)
    want = ss.pages(B)
    for module in (hm, il):
        monkeypatch.setattr(module, "chain_homology", dense_chain_homology)
    got = ss.pages(B)
    assert (got.E1, got.d1, got.E2) == (want.E1, want.d1, want.E2)


def test_pages_terminal():
    pg = ss.pages(ss.build_B(identity_functor(fix_t()), 2, 2))
    assert str(pg.E2[(0, 0)]) == "Z"
    assert all(g.is_trivial for k, g in pg.E2.items() if k != (0, 0))
    assert pg.trusted == (1, 1)


def test_pages_product_projection():
    _, pr2 = pr2_c2()
    pg = ss.pages(ss.build_B(pr2, 2, 2))
    assert str(pg.E2[(0, 0)]) == "Z + Z"
    assert all(g.is_trivial for k, g in pg.E2.items() if k != (0, 0))


def test_d1_squares_to_zero():
    _, pr2 = pr2_c2()
    pg = ss.pages(ss.build_B(pr2, 2, 2))
    for q in range(2):
        for p in range(1, 2):
            M = il.mmul(pg.d1[(p, q)], pg.d1[(p + 1, q)])
            pres = hm.presentation_of(pg.E1_sq[(p - 1, q)])
            assert hm.in_relations(M, pres)


def test_totalization_matches_source_homology():
    prod, pr2 = pr2_c2()
    B = ss.build_B(pr2, 2, 2)
    X = nerve(prod, 2)
    assert ss.totalization_homology(B, 0) == hm.homology(X, 0)
    assert ss.totalization_homology(B, 1) == hm.homology(X, 1)
    assert str(ss.totalization_homology(B, 0)) == "Z + Z"


def test_totalization_degree_error():
    B = ss.build_B(identity_functor(fix_t()), 1, 1)
    with pytest.raises(ValueError):
        ss.totalization_homology(B, 1)


def test_horizontal_collapse():
    B = ss.build_B(identity_functor(fix_t()), 2, 2)
    assert horizontal_collapse_check(B, 0)
    assert horizontal_collapse_check(B, 1)
    _, pr2 = pr2_c2()
    B2 = ss.build_B(pr2, 2, 2)
    for q in range(3):
        assert horizontal_collapse_check(B2, q)
    B3 = ss.build_B(identity_functor(fix_g2()), 2, 0)
    assert horizontal_collapse_check(B3, 0)


# --- filtration identifications ----------------------------------------------

def test_filtration_terminal():
    T = fix_t()
    F = identity_functor(T)
    for si in enumerate_simplices(T, 1):
        for q in range(3):
            assert filtration_check_p(F, si, q)
    for om in enumerate_simplices(T, 1):
        for p in range(3):
            assert filtration_check_q(F, om, p)


def test_filtration_interval():
    I = fix_i()
    F = identity_functor(I)
    for si in enumerate_simplices(I, 0):
        assert filtration_check_p(F, si, 1)
    for om in enumerate_simplices(I, 0):
        assert filtration_check_q(F, om, 1)


def test_filtration_g2():
    G2 = fix_g2()
    F = identity_functor(G2)
    om0 = enumerate_simplices(G2, 0)[0]
    for p in range(3):
        assert filtration_check_q(F, om0, p)
    om1 = enumerate_simplices(G2, 1)[0]
    assert filtration_check_q(F, om1, 1)
    si1 = enumerate_simplices(G2, 1)[0]
    assert filtration_check_p(F, si1, 1)


def test_filtration_product_projection():
    prod, pr2 = pr2_c2()
    C2 = fix_c2()
    for si in enumerate_simplices(C2, 2)[:2]:
        assert filtration_check_p(pr2, si, 2)
    for om in enumerate_simplices(prod, 1)[:3]:
        assert filtration_check_q(pr2, om, 1)


# --- the fiber coefficient system --------------------------------------------

def test_fiber_system_discrete_base():
    _, pr2 = pr2_c2()
    cert = of.check_opfibration(pr2)
    X = nerve(fix_c2(), 2)
    data = ss.fiber_coeff_system(pr2, cert, 0, X)
    assert all(str(g.canonical) == "Z" for g in data.fiber_group.values())
    assert not data.edge_matrix  # no nonidentity edges downstairs
    data2 = ss.fiber_coeff_system(pr2, cert, 2, nerve(fix_c2(), 1))
    assert all(str(g.canonical) == "Z/2"
               for g in data2.fiber_group.values())


def test_fiber_system_interval_base():
    _, pr2 = pr2_i()
    cert = of.check_opfibration(pr2)
    X = nerve(fix_i(), 2)
    for q, h0 in [(0, "Z"), (2, "Z/2")]:
        data = ss.fiber_coeff_system(pr2, cert, q, X)
        assert data.edge_matrix == {"a01": [[1]]}
        assert is_morphism_inverting(data.system, operator_dicts(X))
        assert str(hm.homology_local(X, data.system, 0)) == h0
        assert hm.homology_local(X, data.system, 1).is_trivial


def test_swap_fixture_has_monodromy():
    # the base loop t swaps the two points of the fiber: E2 row 0 is the
    # homology of BZ/2 with coefficients in Z^2 under the swap, Z, 0, 0,
    # where identity transitions would give Z^2 and (Z/2)^2
    F = swap_projection()
    cert = of.check_opfibration(F)
    data = ss.fiber_coeff_system(F, cert, 0, nerve(F.target, 2))
    assert data.edge_matrix == {"t": [[0, 1], [1, 0]]}
    pg = ss.pages(ss.build_B(F, 3, 3))
    assert [str(pg.E2[(p, 0)]) for p in range(3)] == ["Z", "0", "0"]
    assert ss.e2_vs_local(pg, cert, 0) == [True] * 3


def test_fiber_system_rejects_foreign_certificate():
    _, pr2 = pr2_c2()
    cert = of.check_opfibration(identity_functor(fix_t()))
    with pytest.raises(ValueError):
        ss.fiber_coeff_system(pr2, cert, 0, nerve(fix_c2(), 1))


def discrete_pair():
    """C2 -> I, objects to objects: not an opfibration (criterion 09), and
    over the object 1 its strict fiber is a point while laco(P, 1-hat) has
    two components."""
    return TwoFunctor(fix_c2(), fix_i(), {"0": "0", "1": "1"},
                      {"id_0": "id_0", "id_1": "id_1"},
                      {"ii_0": "ii_id_0", "ii_1": "ii_id_1"})


def test_comparison_of_non_opfibration_is_not_a_homology_iso():
    # a counterexample to Theorem B without the opfibration hypothesis,
    # already at N = 1
    P = discrete_pair()
    G = point_functor(fix_i(), "1")
    PB, L = pullback(P, G), laco(P, G)
    inc = comma_inclusion(PB, L, P, G)
    with pytest.raises(AxiomError, match=r"H_0 map Z -> Z \+ Z "):
        hm.induced_iso(inc, *(hm.homology_subquotient(nerve(C, 1), [0])[0]
                              for C in (PB.cat, L.cat)))


def test_fiber_system_rejects_non_iso_fiber_inclusion():
    P = discrete_pair()
    with pytest.raises(AxiomError, match=r"fiber inclusion at '1' .*"
                                         r"H_0 map Z -> Z \+ Z "):
        ss.fiber_coeff_system(P, SimpleNamespace(functor=P), 0,
                              nerve(fix_i(), 1))


def diagram_comma_reindex(Lsrc, Ltgt, vmap: dict) -> TwoFunctor:
    """The 2-functor between diagram-shaped comma objects induced by a
    monotone reindexing of oriental shapes: vmap sends each vertex of the
    target shape to a vertex of the source shape, and the two diagrams
    must agree accordingly (cones restrict along vmap)."""
    def map_path(Ptup):
        mp = [vmap[a] for a in Ptup]
        out = [mp[0]]
        for v in mp[1:]:
            if v != out[-1]:
                out.append(v)
        return tuple(out)

    tverts = sorted(int(i) for i in Ltgt.E.objects)
    on_obj = {}
    for (c, comps, cells), o in Lsrc.obj_id.items():
        dcomps, dcells = dict(comps), dict(cells)
        comps2 = tuple(sorted((str(j), dcomps[str(vmap[j])])
                              for j in tverts))
        cells2 = {}
        for e in Ltgt.E.one_src:
            cells2[e] = dcells[path_id(map_path(literal_eval(e)))]
        on_obj[o] = Ltgt.obj_id[(c, comps2, tuple(sorted(cells2.items())))]
    on_one = {}
    for (o, o2, s, la), m in Lsrc.one_id.items():
        dla = dict(la)
        la2 = tuple(sorted((str(j), dla[str(vmap[j])]) for j in tverts))
        on_one[m] = Ltgt.one_id[(on_obj[o], on_obj[o2], s, la2)]
    on_two = {}
    for (m, m2, phi), cc in Lsrc.two_id.items():
        on_two[cc] = Ltgt.two_id[(on_one[m], on_one[m2], phi)]
    return TwoFunctor(Lsrc.cat, Ltgt.cat, on_obj, on_one, on_two)


def comma_route(F, f, Lx, Ly) -> TwoFunctor:
    """The oracle for ss.base_change: laco(F, x-hat) -> laco(F, y-hat) along
    f: x -> y through the diagram comma objects over orientals, as d into
    the comma object over the 1-simplex f, restriction to its vertex 1, and
    e out of the comma object over the 0-simplex y."""
    D = F.target
    x, y = D.one_src[f], D.one_tgt[f]
    Gf = simplex_functor(D, OrientedSimplex(1, (x, y), (f,), ()))
    d, _, _, _, Lf = lp_initial_d_e(F, Gf, find_oplax_initial(Gf.source),
                                    Lpt=Lx)
    Gy = simplex_functor(D, OrientedSimplex(0, (y,), (), ()))
    Ly_dia = laco_diagram(F, Gy)
    restrict = diagram_comma_reindex(Lf, Ly_dia, {0: 1})
    _, ey, _, _, _ = lp_initial_d_e(F, Gy, find_oplax_initial(Gy.source),
                                    Lpt=Ly, Ldia=Ly_dia)
    return compose_functors(ey, compose_functors(restrict, d))


def test_transition_matrix_is_base_change(monkeypatch):
    # the edge matrices of base change equal those of the route through
    # the diagram comma objects over orientals, at q = 0, 1, 2
    cases = [pr2_i()[1], pr2_c2()[1], swap_projection(),
             _rho(pgm.fix_c2_pgm), _rho(pgm.fix_m2_pgm), xmod_projection()]
    certs = [of.check_opfibration(F) for F in cases]

    def edge_matrices():
        return [ss.fiber_coeff_system(F, cert, q, nerve(F.target, 1))
                .edge_matrix for F, cert in zip(cases, certs)
                for q in range(3)]
    got = edge_matrices()
    monkeypatch.setattr(ss, "base_change", comma_route)
    assert got == edge_matrices()


def fiber_coeff_cases():
    """The opfibrations whose fiber coefficients the tests pin: pr2 over I
    and over C2, the swap, rho-c2, rho-m2 and the crossed-module
    projection."""
    return [pr2_i()[1], pr2_c2()[1], swap_projection(),
            _rho(pgm.fix_c2_pgm), _rho(pgm.fix_m2_pgm), xmod_projection()]


def base_change_by_keys(F, f, Lx, Ly) -> TwoFunctor:
    """The oracle for ss.base_change, read off the comma objects' keys:
    [c, g, pt] goes to [c, f.g, pt], [s, a, t] to [s, f*a, t], and each
    2-cell [phi, ga] is kept."""
    D = F.target
    on_obj = {o: Ly.obj_id[(c, D.comp1[(f, g)], pt)]
              for (c, g, pt), o in Lx.obj_id.items()}
    on_one = {m: Ly.one_id[(on_obj[o], on_obj[o2], s, D.whisk_l[(f, a)], t)]
              for (o, o2, s, a, t), m in Lx.one_id.items()}
    on_two = {c: Ly.two_id[(on_one[m], on_one[m2], phi, ga)]
              for (m, m2, phi, ga), c in Lx.two_id.items()}
    return TwoFunctor(Lx.cat, Ly.cat, on_obj, on_one, on_two)


def fiber_to_comma_by_keys(F, x, fib, Lx) -> TwoFunctor:
    """The oracle for the fiber inclusion of F at x into laco(F, x-hat),
    read off the comma object's keys: each cell c of the fiber goes to
    [c, 1_x, pt] (with identity laxity on 1-cells)."""
    D = F.target
    T = Lx.p_right.target
    idx, pt = D.id1[x], T.id1["pt"]
    on_obj = {o: Lx.obj_id[(o, idx, "pt")] for o in fib.objects}
    on_one = {m: Lx.one_id[(on_obj[fib.one_src[m]], on_obj[fib.one_tgt[m]],
                            m, D.id2[idx], pt)] for m in fib.one_src}
    on_two = {c: Lx.two_id[(on_one[fib.two_src[c]], on_one[fib.two_tgt[c]],
                            c, T.id2[pt])] for c in fib.two_src}
    return TwoFunctor(fib, Lx.cat, on_obj, on_one, on_two)


@pytest.mark.parametrize("idx", range(6))
def test_base_change_equals_the_key_oracle(idx):
    # on every 1-cell of the base, identities included
    F = fiber_coeff_cases()[idx]
    D = F.target
    L = {x: laco(F, point_functor(D, x)) for x in D.objects}
    for f in sorted(D.one_src):
        Lx, Ly = L[D.one_src[f]], L[D.one_tgt[f]]
        assert functors_equal(ss.base_change(F, f, Lx, Ly),
                              base_change_by_keys(F, f, Lx, Ly)), f


@pytest.mark.parametrize("idx", range(6))
def test_fiber_inclusion_equals_the_key_oracle(monkeypatch, idx):
    # fiber_coeff_system builds the inclusion at each end of a nonidentity
    # 1-cell (none over a discrete base) and hands it to induced_iso
    F = fiber_coeff_cases()[idx]
    D = F.target
    built = []

    def recording(inc, *args):
        built.append(inc)
        return hm.induced_iso(inc, *args)
    monkeypatch.setattr(ss, "induced_iso", recording)
    ss.fiber_coeff_system(F, of.check_opfibration(F), 0, nerve(D, 1))
    # the fibers of these opfibrations are nonempty: name each by its point
    got = {F.on_objects[inc.source.objects[0]]: inc for inc in built}
    assert len(got) == len(built)
    assert sorted(got) == sorted({v for f in D.one_src if not D.is_id1(f)
                                  for v in (D.one_src[f], D.one_tgt[f])})
    for x, inc in got.items():
        assert functors_equal(inc, fiber_to_comma_by_keys(
            F, x, strict_fiber(F, x)[0], laco(F, point_functor(D, x)))), x


def test_crossed_module_base_inverts_the_fiber_h2():
    # the base acts on the fiber's H_2 = Z/3 by inversion, so E2 row 2 is
    # 0, 0, 0; identity transitions would make H_0(BZ/2; Z/3) = Z/3
    P = xmod_projection()
    cert = of.check_opfibration(P)
    assert isinstance(cert, of.OpfibrationCertificate)
    data = ss.fiber_coeff_system(P, cert, 2, nerve(P.target, 1))
    assert data.edge_matrix == {"h1": [[2]]}
    pg = ss.pages(ss.build_B(P, 3, 3))
    assert [str(pg.E2[(p, 2)]) for p in range(3)] == ["0"] * 3
    assert ss.e2_vs_local(pg, cert, 2) == [True] * 3


# --- E^2 against local coefficients ------------------------------------------

def test_e2_vs_local_terminal():
    F = identity_functor(fix_t())
    cert = of.check_opfibration(F)
    pg = ss.pages(ss.build_B(F, 2, 1))
    assert ss.e2_vs_local(pg, cert, 0) == [True, True]


def test_e2_vs_local_discrete_base():
    _, pr2 = pr2_c2()
    cert = of.check_opfibration(pr2)
    pg = ss.pages(ss.build_B(pr2, 2, 2))
    for q in (0, 1):
        assert ss.e2_vs_local(pg, cert, q) == [True, True]


def test_e2_vs_local_interval_base():
    _, pr2 = pr2_i()
    cert = of.check_opfibration(pr2)
    pg = ss.pages(ss.build_B(pr2, 2, 2))
    for q in (0, 1):
        assert ss.e2_vs_local(pg, cert, q) == [True, True]


def test_e2_vs_local_rejects_untrusted_degrees():
    _, pr2 = pr2_c2()
    cert = of.check_opfibration(pr2)
    pg = ss.pages(ss.build_B(pr2, 2, 1))
    assert pg.trusted == (1, 0)
    for q in (1, -1):
        with pytest.raises(ValueError):
            ss.e2_vs_local(pg, cert, q)


@pytest.mark.parametrize("make", [lambda: pr2_c2()[1],
                                  lambda: _rho(pgm.fix_c2_pgm)],
                         ids=["projection", "rho-c2"])
def test_e2_reads_only_neighbouring_levels(make):
    # E2_{p,q} from B(3, 3) equals E2_{p,q} from the smallest B trusted
    # there, which is what lets e2_vs_local reuse the caller's pages
    F = make()
    big = ss.pages(ss.build_B(F, 3, 3))
    for p in range(big.trusted[0] + 1):
        for q in range(big.trusted[1] + 1):
            small = ss.pages(ss.build_B(F, p + 1, q + 1))
            assert small.trusted == (p, q)
            assert big.E2[(p, q)] == small.E2[(p, q)], (p, q)
