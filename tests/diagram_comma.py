"""Diagram-shaped comma objects over orientals, and the two filtration
identifications of B(F) they check.

No command runs any of this: it is the oracle side of the spectral
sequence of ``twocat.specseq``, which carries the fiber homology by base
change (``constructs.mediate_laco``) and reads every cell of B(F) off two
nerves.  The two identifications are

* at fixed sigma, the vertical q-cells over sigma are the q-simplices of
  the nerve of the diagram-shaped comma object of F over sigma
  (``filtration_check_p``);
* at fixed omega, the horizontal p-cells under omega are the p-simplices
  of the nerve of the codiagram-shaped comma object under F(omega)
  (``filtration_check_q``).

The diagram a simplex classifies is a 2-functor out of an oriental.  The
oriental 2-categories O(p) are given in their concrete finite model.
Objects are 0..p; the 1-cells i -> j are the strictly increasing vertex
paths from i to j (composition is concatenation, the identity is the
one-vertex path); hom(i, j) is a poset under refinement: there is a unique
2-cell P => Q exactly when the vertex set of P is contained in that of Q.
The generating triangle (i, j, k) is the 2-cell (i,k) => (i,j,k), read with
the short spine as the source.  The tables are filled by
``core.build_two_category`` from the rule: compose by concatenating paths.

The comma object of cones over a diagram, ``laco_diagram``, comes with
its oplax-initial search (an oplax terminal object is an oplax initial
one of the op-dual) and ``lp_initial_d_e``, the equivalence with the
comma object over the diagram's value at an oplax initial object; the
comma object of cocones under a diagram, ``oplaco_codiagram``, is the
op-dual of ``laco_diagram`` over D^op.

Both checks build faces and degeneracies one simplex at a time, by
``face`` and ``degeneracy``: reindexing along a coface, and repeating a
vertex with identity cells.  The library reads every operator off
position tables (``nerve.simplex_operators``), so these are its oracles
too, and ``cell_level_first_miss`` names the first operator image that
leaves B(F) with them, the way ``specseq.build_B`` names it off its
tables.
"""

from __future__ import annotations

from ast import literal_eval
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, product

from twocat.constructs import CommaResult, _cospan_apex, laco, mediate_laco
from twocat.core import (LAX, TWO_NATURAL, AxiomError, Transformation,
                         TwoCategory, TwoFunctor, build_two_category,
                         co_dual, compose_functors, identity_functor,
                         op_dual, validate_two_functor)
from twocat.fixtures import bang_functor, nm, point_functor
from twocat.nerve import (OrientedSimplex, layout, map_simplex,
                          simplex_operators)
from twocat.specseq import Bisimplex, build_B


# ---------------------------------------------------------------------------
# orientals
# ---------------------------------------------------------------------------

ORIENTAL_BOUND = 4


def increasing_paths(i: int, j: int):
    """All strictly increasing vertex paths from i to j, as tuples."""
    if i > j:
        return []
    if i == j:
        return [(i,)]
    out = []
    interior = range(i + 1, j)
    for r in range(0, j - i):
        for mid in combinations(interior, r):
            out.append((i,) + mid + (j,))
    return sorted(out)


def path_id(P: tuple) -> str:
    return repr(P)


def cell_id(P: tuple, Q: tuple) -> str:
    return repr((P, Q))


def materialize_oriental(p: int, bound: int = ORIENTAL_BOUND) -> TwoCategory:
    if p < 0:
        raise ValueError("dimension must be nonnegative")
    if p > bound:
        raise ValueError("oriental dimension %d exceeds bound %d" % (p, bound))
    objects = [str(i) for i in range(p + 1)]
    paths = []
    for i in range(p + 1):
        for j in range(i, p + 1):
            paths.extend(increasing_paths(i, j))
    path = {path_id(P): P for P in paths}
    one = {pid: (str(P[0]), str(P[-1])) for pid, P in path.items()}
    two = {cell_id(P, Q): (path_id(P), path_id(Q))
           for P in paths for Q in paths
           if (P[0], P[-1]) == (Q[0], Q[-1]) and set(P) <= set(Q)}
    id1 = {str(i): path_id((i,)) for i in range(p + 1)}
    id2 = {path_id(P): cell_id(P, P) for P in paths}
    # composition concatenates paths; a refinement P => Q composed or
    # whiskered is the refinement of the composite paths
    return build_two_category(
        objects, one, two, id1, id2,
        lambda Q, P: path_id(path[P] + path[Q][1:]),
        lambda b, a: cell_id(path[two[a][0]], path[two[b][1]]),
        lambda K, a: cell_id(*(path[P] + path[K][1:] for P in two[a])),
        lambda a, K: cell_id(*(path[K] + path[P][1:] for P in two[a])))


# ---------------------------------------------------------------------------
# dualities of 2-functors
# ---------------------------------------------------------------------------

def functor_op(F: TwoFunctor) -> TwoFunctor:
    return replace(F, source=op_dual(F.source), target=op_dual(F.target))


def functor_co(F: TwoFunctor) -> TwoFunctor:
    return replace(F, source=co_dual(F.source), target=co_dual(F.target))


# ---------------------------------------------------------------------------
# oplax initial objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OplaxInitialWitness:
    obj: str
    at_object: dict[str, str]   # j -> 1-cell iota -> j
    at_one: dict[str, str]      # f: i -> j  ->  2-cell h_j => f . h_i


def find_oplax_initial(E: TwoCategory) -> OplaxInitialWitness | None:
    """The first witness in identifier order: for each object iota, the
    first oplax cone from iota over the identity of E (components h_j:
    iota -> j, cells h_f: h_j => f . h_i) whose component at iota is the
    identity 1-cell."""
    Id = identity_functor(E)
    for iota in E.objects:
        for comps, cells in _enumerate_cones(Id, iota, E, Id):
            at_object = dict(comps)
            if at_object[iota] == E.id1[iota]:
                return OplaxInitialWitness(iota, at_object, dict(cells))
    return None


# ---------------------------------------------------------------------------
# diagram-shaped comma objects: laco(Delta F, G-hat) over oplax(E, D)
# ---------------------------------------------------------------------------
#
# For F: C -> D and a diagram G: E -> D, the comma object below is built
# directly from its concrete cell description (the functor 2-category
# oplax(E, D) is never materialized):
#
# * objects (c, nu): c in C, nu an oplax transformation Delta F(c) => G,
#   i.e. components nu_j: F(c) -> G(j) and cells nu_e: nu_j => G(e).nu_i
#   per 1-cell e: i -> j of E, unital and compatible with composition and
#   with 2-cells of E;
# * 1-cells (s, La): s: c -> c' in C, La a modification nu => nu'.DeltaF(s)
#   with components La_j: nu_j => nu'_j . F(s);
# * 2-cells phi: s => s' with La'_j = (nu'_j * F phi) . La_j for all j.


@dataclass(frozen=True)
class DiagramCommaResult:
    cat: TwoCategory
    p_left: TwoFunctor          # projection to C
    obj_id: dict                # (c, comps, cells) -> id
    one_id: dict                # (src_obj, tgt_obj, s, La) -> id
    two_id: dict                # (src_one, tgt_one, phi) -> id
    obj_data: dict
    one_data: dict
    two_data: dict
    E: TwoCategory


def _oplax_cone_ok(D: TwoCategory, E: TwoCategory, G: TwoFunctor,
                   comps: dict, cells: dict) -> bool:
    """Axioms for an oplax transformation Delta(dom) => G with the given
    components; `cells[e]: comps[j] => G(e) . comps[i]` for e: i -> j."""
    # composition axiom
    for e2 in E.one_src:
        for e1 in E.one_src:
            if E.one_tgt[e1] != E.one_src[e2]:
                continue
            e21 = E.comp1[(e2, e1)]
            # nu_{e2 e1} = (G e2 * nu_{e1}) . nu_{e2} ... with Delta source:
            # nu_k => G(e2).nu_j => G(e2).G(e1).nu_i
            want = D.vcomp[(D.whisk_l[(G.on_one[e2], cells[e1])], cells[e2])]
            if cells[e21] != want:
                return False
    # naturality in 2-cells of E
    for d in E.two_src:
        e1, e2 = E.two_src[d], E.two_tgt[d]
        i = E.one_src[e1]
        # (G d * nu_i) . nu_{e1} == nu_{e2}
        lhs = D.vcomp[(D.whisk_r[(G.on_two[d], comps[i])], cells[e1])]
        if lhs != cells[e2]:
            return False
    return True


def _enumerate_cones(F: TwoFunctor, c: str, E: TwoCategory, G: TwoFunctor):
    """The oplax transformations Delta F(c) => G, as (comps, cells) pairs of
    sorted tuples, lazily in product order of the components (by sorted
    object of E), then of the structure cells."""
    D = F.target
    fc = F.on_objects[c]
    eobjs = sorted(E.objects)
    nonid = [e for e in sorted(E.one_src) if not E.is_id1(e)]
    comp_choices = [D.hom1(fc, G.on_objects[j]) for j in eobjs]
    for comps_tuple in product(*comp_choices):
        comps = dict(zip(eobjs, comps_tuple))
        cell_choices = []
        ok = True
        for e in nonid:
            i, j = E.one_src[e], E.one_tgt[e]
            cand = D.hom2(comps[j], D.comp1[(G.on_one[e], comps[i])])
            if not cand:
                ok = False
                break
            cell_choices.append(cand)
        if not ok:
            continue
        for cells_tuple in product(*cell_choices):
            cells = dict(zip(nonid, cells_tuple))
            for e in E.one_src:
                if E.is_id1(e):
                    cells[e] = D.id2[comps[E.one_src[e]]]
            if _oplax_cone_ok(D, E, G, comps, cells):
                yield (tuple(sorted(comps.items())),
                       tuple(sorted(cells.items())))


def laco_diagram(F: TwoFunctor, G: TwoFunctor) -> DiagramCommaResult:
    """laco(Delta F, G-hat) for F: C -> D and a diagram G: E -> D."""
    C, D = F.source, F.target
    E = G.source
    _cospan_apex(F, G)
    objs = {}
    for c in C.objects:
        for comps, cells in _enumerate_cones(F, c, E, G):
            objs[(c, comps, cells)] = nm("o", c, comps, cells)
    ones = {}
    for (c, comps, cells), o in sorted(objs.items()):
        dcomps = dict(comps)
        for (c2, comps2, cells2), o2 in sorted(objs.items()):
            dcomps2 = dict(comps2)
            for s in C.hom1(c, c2):
                # modification La: nu => nu'.DeltaF(s)
                la_choices = []
                ok = True
                for j in sorted(E.objects):
                    cand = D.hom2(dcomps[j], D.comp1[(dcomps2[j], F.on_one[s])])
                    if not cand:
                        ok = False
                        break
                    la_choices.append(cand)
                if not ok:
                    continue
                for la_tuple in product(*la_choices):
                    la = dict(zip(sorted(E.objects), la_tuple))
                    if _modification_ok(D, E, G, F.on_one[s],
                                        dict(comps), dict(cells),
                                        dict(comps2), dict(cells2), la):
                        key = tuple(sorted(la.items()))
                        ones[(o, o2, s, key)] = nm("1", o, o2, s, key)
    obj_data = {v: k for k, v in objs.items()}
    twos = {}
    for (o, o2, s, la), m in sorted(ones.items()):
        dla = dict(la)
        (_, comps2, _) = obj_data[o2]
        dcomps2 = dict(comps2)
        for (p, p2, s2, la2), m2 in sorted(ones.items()):
            if (p, p2) != (o, o2):
                continue
            dla2 = dict(la2)
            for phi in C.hom2(s, s2):
                if all(dla2[j] == D.vcomp[(D.whisk_l[(dcomps2[j],
                                                      F.on_two[phi])], dla[j])]
                       for j in E.objects):
                    twos[(m, m2, phi)] = nm("2", m, m2, phi)

    one_data = {v: k for k, v in ones.items()}
    two_data = {v: k for k, v in twos.items()}
    one_cells = {m: (k[0], k[1]) for k, m in ones.items()}
    two_cells = {x: (k[0], k[1]) for k, x in twos.items()}
    id1 = {}
    for (c, comps, cells), o in objs.items():
        la = tuple(sorted((j, D.id2[f]) for j, f in comps))
        id1[o] = ones[(o, o, C.id1[c], la)]
    id2 = {m: twos[(m, m, C.id2[k[2]])] for k, m in ones.items()}

    def comp1(m2, m1):
        (o1, _, s1, la1), (_, o3, s2, la2) = one_data[m1], one_data[m2]
        d1, d2 = dict(la1), dict(la2)
        la = tuple(sorted(
            (j, D.vcomp[(D.whisk_r[(d2[j], F.on_one[s1])], d1[j])])
            for j in E.objects))
        return ones[(o1, o3, C.comp1[(s2, s1)], la)]

    def vcomp(c2, c1):
        (_, mb, phi2), (m0, _, phi1) = two_data[c2], two_data[c1]
        return twos[(m0, mb, C.vcomp[(phi2, phi1)])]

    def whisk_l(k, cc):
        (m, m2, phi) = two_data[cc]
        return twos[(comp1(k, m), comp1(k, m2),
                     C.whisk_l[(one_data[k][2], phi)])]

    def whisk_r(cc, k):
        (m, m2, phi) = two_data[cc]
        return twos[(comp1(m, k), comp1(m2, k),
                     C.whisk_r[(phi, one_data[k][2])])]

    cat = build_two_category(objs.values(), one_cells, two_cells, id1, id2,
                             comp1, vcomp, whisk_l, whisk_r)
    p_left = TwoFunctor(cat, C,
                        {o: k[0] for k, o in objs.items()},
                        {m: k[2] for k, m in ones.items()},
                        {x: k[2] for k, x in twos.items()})
    return DiagramCommaResult(cat, p_left, objs, ones, twos,
                              obj_data, one_data, two_data, E)


def _modification_ok(D, E, G, fs, comps, cells, comps2, cells2, la) -> bool:
    """Modification axiom for La: nu => nu'.DeltaF(s) between oplax cones:
    for each e: i -> j of E,
      (G e * La_i) . nu_e  ==  (nu'_e * Fs) . La_j.
    """
    for e in E.one_src:
        i, j = E.one_src[e], E.one_tgt[e]
        lhs = D.vcomp[(D.whisk_l[(G.on_one[e], la[i])], cells[e])]
        rhs = D.vcomp[(D.whisk_r[(cells2[e], fs)], la[j])]
        if lhs != rhs:
            return False
    return True


def lp_initial_d_e(F: TwoFunctor, G: TwoFunctor,
                   w: OplaxInitialWitness,
                   Lpt: CommaResult | None = None,
                   Ldia: DiagramCommaResult | None = None):
    """The 2-functors d: laco(F, G(iota)-hat) -> laco(Delta F, G-hat) and
    e back, plus the 2-natural transformation Id => d.e, for an oplax
    initial object witness w of E = G.source.

    Returns (d, e, eta, Lpt, Ldia)."""
    C, D = F.source, F.target
    E = G.source
    iota = w.obj
    xhat = point_functor(D, G.on_objects[iota])
    if Lpt is None:
        Lpt = laco(F, xhat)
    if Ldia is None:
        Ldia = laco_diagram(F, G)

    def push_cone(f_iota):
        comps = {j: D.comp1[(G.on_one[w.at_object[j]], f_iota)]
                 for j in E.objects}
        cells = {e: D.whisk_r[(G.on_two[w.at_one[e]], f_iota)]
                 for e in E.one_src}
        return (tuple(sorted(comps.items())), tuple(sorted(cells.items())))

    d_obj = {}
    for (c, f, _), o in Lpt.obj_id.items():
        comps, cells = push_cone(f)
        d_obj[o] = Ldia.obj_id[(c, comps, cells)]
    d_one = {}
    for (o, o2, s, a, t), m in Lpt.one_id.items():
        la = tuple(sorted(
            (j, D.whisk_l[(G.on_one[w.at_object[j]], a)])
            for j in E.objects))
        d_one[m] = Ldia.one_id[(d_obj[o], d_obj[o2], s, la)]
    d_two = {}
    for (m, m2, phi, ga), cc in Lpt.two_id.items():
        d_two[cc] = Ldia.two_id[(d_one[m], d_one[m2], phi)]
    d = TwoFunctor(Lpt.cat, Ldia.cat, d_obj, d_one, d_two)

    # e reads each cone's and each modification's component at iota
    bang = bang_functor(Ldia.cat)
    lam = Transformation(
        compose_functors(F, Ldia.p_left), compose_functors(xhat, bang),
        {o: dict(k[1])[iota] for o, k in Ldia.obj_data.items()},
        {m: dict(k[3])[iota] for m, k in Ldia.one_data.items()})
    e = mediate_laco(Lpt, Ldia.p_left, bang, lam)

    # 2-natural Id => d.e with component at (c, nu) the 1-cell
    # [1_c, {nu_{h_j}}_j]: (c, nu) -> de(c, nu)
    de = compose_functors(d, e)
    at_obj = {}
    for (c, comps, cells), o in Ldia.obj_id.items():
        dcells = dict(cells)
        la = tuple(sorted((j, dcells[w.at_object[j]]) for j in E.objects))
        at_obj[o] = Ldia.one_id[(o, de.on_objects[o], C.id1[c], la)]
    at_one = {}
    for m in Ldia.cat.one_src:
        o = Ldia.cat.one_src[m]
        composite = Ldia.cat.comp1[(de.on_one[m], at_obj[o])]
        at_one[m] = Ldia.cat.id2[composite]
    eta = Transformation(identity_functor(Ldia.cat), de, at_obj, at_one,
                         direction=LAX, flavor=TWO_NATURAL)
    return d, e, eta, Lpt, Ldia


def oplaco_codiagram(W: TwoFunctor) -> DiagramCommaResult:
    """The comma object of lax cocones under the diagram W: E -> D: an
    object is an object d of D with a lax cocone W => Delta d.

    A lax cocone under W into d is an oplax cone from d over W^op in D^op,
    so this is the op-dual of laco_diagram(Id, W^op) over D^op.  op_dual
    keeps cell ids: obj_data and the La slot of one_data read as for
    laco_diagram, but a 1-cell keyed (o, o2, t, La) runs from o2 to o,
    with t: d2 -> d in D.  p_left is the projection to D."""
    L = laco_diagram(identity_functor(op_dual(W.target)), functor_op(W))
    return replace(L, cat=op_dual(L.cat), p_left=functor_op(L.p_left))


# ---------------------------------------------------------------------------
# faces and degeneracies, one simplex at a time
# ---------------------------------------------------------------------------

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


def cell_level_first_miss(C: TwoCategory, D: TwoCategory, cells,
                          fh, dh, fv, dv):
    """AxiomError naming the first operator image, cell by cell and in the
    order d^h_i, s^h_i, ..., d^v_i, s^v_i, ..., that the rows of a level
    of B(F) (None where the image is no cell) mark as outside B(F), each
    image built by ``face`` and ``degeneracy``."""
    def not_closed(*y):
        raise AxiomError("bisimplicial set not closed under faces and "
                         "degeneracies at %r" % (Bisimplex(*y),))

    for k, x in enumerate(cells):
        q1 = x.om.dim + 1
        for i in range(x.si.dim + 1):
            if fh and fh[i][k] is None:
                not_closed(x.om, face(D, x.de, q1 + i), face(D, x.si, i))
            if dh and dh[i][k] is None:
                not_closed(x.om, degeneracy(D, x.de, q1 + i),
                           degeneracy(D, x.si, i))
        for i in range(q1):
            if fv and fv[i][k] is None:
                not_closed(face(C, x.om, i), face(D, x.de, i), x.si)
            if dv and dv[i][k] is None:
                not_closed(degeneracy(C, x.om, i), degeneracy(D, x.de, i),
                           x.si)


# ---------------------------------------------------------------------------
# simplices as 2-functors out of orientals
# ---------------------------------------------------------------------------

def _path_composite(D: TwoCategory, x: OrientedSimplex, P: tuple) -> str:
    """The composite in D of the edges of x along the vertex path P."""
    if len(P) == 1:
        return D.id1[x.vertices[P[0]]]
    acc = x.edge(P[0], P[1])
    for a, b in zip(P[1:], P[2:]):
        acc = D.comp1[(x.edge(a, b), acc)]
    return acc


def simplex_functor(D: TwoCategory, x: OrientedSimplex) -> TwoFunctor:
    """The 2-functor from the x.dim-th oriental to D classified by the
    simplex x: vertices to vertices, paths to edge composites, and each
    refinement 2-cell to the pasting of x's triangles obtained by
    inserting the missing vertices one at a time in increasing order.
    The result is validated, which checks that the assignment of the
    refinement cells is independent of any bracketing."""
    O = materialize_oriental(x.dim, bound=max(4, x.dim))
    on_objects = {str(i): x.vertices[i] for i in range(x.dim + 1)}
    on_one = {}
    for pid in O.one_src:
        P = literal_eval(pid)  # path ids print as int tuples
        on_one[pid] = _path_composite(D, x, P)
    on_two = {}
    for cid in O.two_src:
        P, Q = literal_eval(cid)
        cur = list(P)
        acc = D.id2[on_one[path_id(P)]]
        missing = [v for v in Q if v not in P]
        for v in missing:
            k = max(i for i in range(len(cur)) if cur[i] < v)
            step = x.triangles[layout(x.dim).tri_at[(cur[k], v, cur[k + 1])]]
            step = D.whisk_r[(step, _path_composite(D, x, tuple(cur[:k + 1])))]
            step = D.whisk_l[(_path_composite(D, x, tuple(cur[k + 1:])), step)]
            acc = D.vcomp[(step, acc)]
            cur.insert(k + 1, v)
        on_two[cid] = acc
    return validate_two_functor(TwoFunctor(O, D, on_objects, on_one, on_two))


# ---------------------------------------------------------------------------
# the two filtration identifications
# ---------------------------------------------------------------------------

def _block_cells(fom: OrientedSimplex, si: OrientedSimplex):
    """The edges and triangles of a delta inside its two blocks, keyed by
    position in delta: F(omega) on the first q+1 vertices, sigma on the
    last p+1."""
    q1 = fom.dim + 1
    Lo, Ls = layout(fom.dim), layout(si.dim)
    edges = dict(zip(Lo.pairs, fom.edges))
    edges.update(zip([(q1 + a, q1 + b) for a, b in Ls.pairs], si.edges))
    tris = dict(zip(Lo.triples, fom.triangles))
    tris.update(zip([(q1 + a, q1 + b, q1 + c) for a, b, c in Ls.triples],
                    si.triangles))
    return edges, tris


def _assemble_join(F: TwoFunctor, comma, Y: OrientedSimplex,
                   other: OrientedSimplex, over: bool) -> Bisimplex:
    """The cell of B(F) that a simplex Y of the nerve of a comma object
    stands for.  Over sigma (``over``), comma is laco_diagram(F, sigma),
    other is sigma and omega the image of the q-simplex Y under p_left;
    under omega, comma is the codiagram comma object under F(omega), other
    is omega and sigma the image of the p-simplex Y under p_left.  The
    cones at Y's vertices fill the mixed edges and the mixed triangles with
    one vertex on Y's side; the cells at Y's edges fill those with two."""
    image = map_simplex(comma.p_left, Y)
    om, si = (image, other) if over else (other, image)
    q1 = om.dim + 1
    fom = map_simplex(F, om)
    edges, tris = _block_cells(fom, si)
    # offsets in delta of Y's block and of the other block
    ho, to = (0, q1) if over else (q1, 0)
    key = lambda *ms: tuple(sorted(ms))
    for m, y in enumerate(Y.vertices):
        _, comps, cells = comma.obj_data[y]
        dcomps, dcells = dict(comps), dict(cells)
        for n in range(other.dim + 1):
            edges[key(ho + m, to + n)] = dcomps[str(n)]
        for a, b in layout(other.dim).pairs:
            tris[key(ho + m, to + a, to + b)] = dcells[path_id((a, b))]
    for (a, b), f in zip(layout(Y.dim).pairs, Y.edges):
        dla = dict(comma.one_data[f][3])
        for n in range(other.dim + 1):
            tris[key(ho + a, ho + b, to + n)] = dla[str(n)]
    L = layout(q1 + si.dim)
    de = OrientedSimplex(q1 + si.dim, fom.vertices + si.vertices,
                         tuple(map(edges.__getitem__, L.pairs)),
                         tuple(map(tris.__getitem__, L.triples)))
    return Bisimplex(om, de, si)


def filtration_check_p(F: TwoFunctor, si: OrientedSimplex, q: int) -> bool:
    """At fixed sigma, the vertical q-cells of B(F) over sigma are in
    face/degeneracy-preserving bijection with the q-simplices of the nerve
    of the comma object of F over the diagram classified by sigma; the
    cells over sigma are read off ``build_B(F, sigma.dim, q)``."""
    C, D = F.source, F.target
    L = laco_diagram(F, simplex_functor(D, si))
    Yl = simplex_operators(L.cat, q)[0]
    Ys = Yl[q]
    assembled = {Y: _assemble_join(F, L, Y, si, True) for Y in Ys}
    target = {x for x in build_B(F, si.dim, q).levels[(si.dim, q)]
              if x.si == si}
    if len(set(assembled.values())) != len(Ys):
        return False
    if set(assembled.values()) != target:
        return False
    if q >= 1:
        for Y, x in assembled.items():
            for i in range(q + 1):
                got = _assemble_join(F, L, face(L.cat, Y, i), si, True)
                if got != Bisimplex(face(C, x.om, i), face(D, x.de, i), si):
                    return False
        for Y in Yl[q - 1]:
            x = _assemble_join(F, L, Y, si, True)
            for i in range(q):
                got = _assemble_join(F, L, degeneracy(L.cat, Y, i), si, True)
                if got != Bisimplex(degeneracy(C, x.om, i),
                                    degeneracy(D, x.de, i), si):
                    return False
    return True


def filtration_check_q(F: TwoFunctor, om: OrientedSimplex, p: int) -> bool:
    """At fixed omega, the horizontal p-cells of B(F) under omega are in
    face/degeneracy-preserving bijection with the p-simplices of the
    nerve of the codiagram comma object under F(omega); the cells under
    omega are read off ``build_B(F, p, omega.dim)``."""
    C, D = F.source, F.target
    W = compose_functors(F, simplex_functor(C, om))
    R = oplaco_codiagram(W)
    Yl = simplex_operators(R.cat, p)[0]
    Ys = Yl[p]
    assembled = {Y: _assemble_join(F, R, Y, om, False) for Y in Ys}
    target = {x for x in build_B(F, p, om.dim).levels[(p, om.dim)]
              if x.om == om}
    if len(set(assembled.values())) != len(Ys):
        return False
    if set(assembled.values()) != target:
        return False
    if p >= 1:
        q1 = om.dim + 1
        for Y, x in assembled.items():
            for i in range(p + 1):
                got = _assemble_join(F, R, face(R.cat, Y, i), om, False)
                if got != Bisimplex(om, face(D, x.de, q1 + i),
                                    face(D, x.si, i)):
                    return False
        for Y in Yl[p - 1]:
            x = _assemble_join(F, R, Y, om, False)
            for i in range(p):
                got = _assemble_join(F, R, degeneracy(R.cat, Y, i), om, False)
                if got != Bisimplex(om, degeneracy(D, x.de, q1 + i),
                                    degeneracy(D, x.si, i)):
                    return False
    return True
