"""Limit-type constructions on finite 2-categories.

Strict pullbacks, the lax comma object laco(F, G) and its oplax variant,
mediating 2-functors from the universal property, strict fibers, oplax
initial witnesses (an oplax terminal one is an oplax initial one of the
op-dual), and the diagram-shaped comma objects of cones over a diagram and
(as its op-dual) of cocones under one.  Each 2-functor into a lax comma
object, ``specseq``'s base change along a 1-cell among them, is the
``mediate_laco`` of two projections and a laxity.
The uniqueness and identity checks of the mediators are lemma checks that
only tests run (``tests/test_constructs.py``).

Cells of a comma object are named by canonical tuples of constituent
identifiers (via fixtures.nm), so outputs are deterministic and diffable.
Each construction states its composition rule, and
``core.build_two_category`` fills the tables from it; a strict fiber's
rule is the source's own tables.

Conventions (cospan F: X -> Y <- Z : G):

* object [x, f, z] with f: F(x) -> G(z);
* laco 1-cell [s, a, t]: [x,f,z] -> [x',f',z'] with a: Gt.f => f'.Fs;
* oplaco 1-cell: a: f'.Fs => Gt.f;
* 2-cell [phi, ga] subject to the pasting equality relating a, a'.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .core import (LAX, OPLAX, TWO_NATURAL, Transformation, TwoCategory,
                   TwoFunctor, build_two_category, compose_functors,
                   functor_op, identity_functor, op_dual)
from .fixtures import bang_functor, nm, point_functor


# ---------------------------------------------------------------------------
# strict pullback
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PullbackResult:
    cat: TwoCategory
    pr_left: TwoFunctor
    pr_right: TwoFunctor
    obj_id: dict
    one_id: dict
    two_id: dict


def _cospan_apex(F: TwoFunctor, G: TwoFunctor) -> TwoCategory:
    """The common target Y of a cospan F: X -> Y <- Z : G."""
    if F.target != G.target:
        raise ValueError("not a cospan: the functors have different targets")
    return F.target


def pullback(F: TwoFunctor, G: TwoFunctor) -> PullbackResult:
    """Strict pullback of the cospan F: X -> Y <- Z : G; cells are pairs
    agreeing in Y on the nose."""
    _cospan_apex(F, G)
    X, Z = F.source, G.source
    objs = {}
    for x in X.objects:
        for z in Z.objects:
            if F.on_objects[x] == G.on_objects[z]:
                objs[(x, z)] = nm("o", x, z)
    ones = {}
    for s in sorted(X.one_src):
        for t in sorted(Z.one_src):
            if F.on_one[s] == G.on_one[t]:
                ones[(s, t)] = nm("1", s, t)
    twos = {}
    for p in sorted(X.two_src):
        for q in sorted(Z.two_src):
            if F.on_two[p] == G.on_two[q]:
                twos[(p, q)] = nm("2", p, q)
    one_cells = {v: (objs[(X.one_src[s], Z.one_src[t])],
                     objs[(X.one_tgt[s], Z.one_tgt[t])])
                 for (s, t), v in ones.items()}
    two_cells = {v: (ones[(X.two_src[p], Z.two_src[q])],
                     ones[(X.two_tgt[p], Z.two_tgt[q])])
                 for (p, q), v in twos.items()}
    id1 = {o: ones[(X.id1[x], Z.id1[z])] for (x, z), o in objs.items()}
    id2 = {f: twos[(X.id2[s], Z.id2[t])] for (s, t), f in ones.items()}
    key = {v: k for d in (ones, twos) for k, v in d.items()}

    def pairwise(cells, x_table, z_table):   # compose in X and in Z
        return lambda u, v: cells[(x_table[(key[u][0], key[v][0])],
                                   z_table[(key[u][1], key[v][1])])]

    cat = build_two_category(objs.values(), one_cells, two_cells, id1, id2,
                             pairwise(ones, X.comp1, Z.comp1),
                             pairwise(twos, X.vcomp, Z.vcomp),
                             pairwise(twos, X.whisk_l, Z.whisk_l),
                             pairwise(twos, X.whisk_r, Z.whisk_r))
    pr_left = TwoFunctor(cat, X,
                         {o: x for (x, z), o in objs.items()},
                         {f: s for (s, t), f in ones.items()},
                         {a: p for (p, q), a in twos.items()})
    pr_right = TwoFunctor(cat, Z,
                          {o: z for (x, z), o in objs.items()},
                          {f: t for (s, t), f in ones.items()},
                          {a: q for (p, q), a in twos.items()})
    return PullbackResult(cat, pr_left, pr_right, objs, ones, twos)


# ---------------------------------------------------------------------------
# lax and oplax comma objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommaResult:
    cat: TwoCategory
    p_left: TwoFunctor        # projection to X
    p_right: TwoFunctor       # projection to Z
    pi: Transformation        # lax (laco) or oplax (oplaco)
    obj_id: dict              # (x, f, z) -> object id
    one_id: dict              # (src_obj, tgt_obj, s, a, t) -> 1-cell id
    two_id: dict              # (src_one, tgt_one, phi, ga) -> 2-cell id
    obj_data: dict
    one_data: dict
    two_data: dict
    lax: bool = True


def _comma(F: TwoFunctor, G: TwoFunctor, lax: bool) -> CommaResult:
    X, Z = F.source, G.source
    Y = _cospan_apex(F, G)
    objs = {}
    for x in X.objects:
        for z in Z.objects:
            for f in Y.hom1(F.on_objects[x], G.on_objects[z]):
                objs[(x, f, z)] = nm("o", x, f, z)
    ones = {}
    for (x, f, z), o in sorted(objs.items()):
        for (x2, f2, z2), o2 in sorted(objs.items()):
            for s in X.hom1(x, x2):
                for t in Z.hom1(z, z2):
                    gt_f = Y.comp1[(G.on_one[t], f)]
                    f2_fs = Y.comp1[(f2, F.on_one[s])]
                    pair = (gt_f, f2_fs) if lax else (f2_fs, gt_f)
                    for a in Y.hom2(*pair):
                        ones[(o, o2, s, a, t)] = nm("1", o, o2, s, a, t)
    obj_data = {v: k for k, v in objs.items()}
    twos = {}
    for (o, o2, s, a, t), m in sorted(ones.items()):
        for (p, p2, s2, a2, t2), m2 in sorted(ones.items()):
            if (p, p2) != (o, o2):
                continue
            (_, f, _) = obj_data[o]
            (_, f2, _) = obj_data[o2]
            for phi in X.hom2(s, s2):
                for ga in Z.hom2(t, t2):
                    if lax:
                        lhs = Y.vcomp[(Y.whisk_l[(f2, F.on_two[phi])], a)]
                        rhs = Y.vcomp[(a2, Y.whisk_r[(G.on_two[ga], f)])]
                    else:
                        lhs = Y.vcomp[(a2, Y.whisk_l[(f2, F.on_two[phi])])]
                        rhs = Y.vcomp[(Y.whisk_r[(G.on_two[ga], f)], a)]
                    if lhs == rhs:
                        twos[(m, m2, phi, ga)] = nm("2", m, m2, phi, ga)
    one_data = {v: k for k, v in ones.items()}
    two_data = {v: k for k, v in twos.items()}

    one_cells = {m: (o, o2) for (o, o2, s, a, t), m in ones.items()}
    two_cells = {c: (m, m2) for (m, m2, phi, ga), c in twos.items()}
    id1 = {o: ones[(o, o, X.id1[x], Y.id2[f], Z.id1[z])]
           for (x, f, z), o in objs.items()}
    id2 = {m: twos[(m, m, X.id2[s], Z.id2[t])]
           for (o, o2, s, a, t), m in ones.items()}

    def comp1(m2, m1):
        (o1, _, s1, a1, t1) = one_data[m1]
        (_, o3, s2, a2, t2) = one_data[m2]
        if lax:
            # G t2 . (G t1 . f) => G t2 . f' . F s1 => f'' . F s2 . F s1
            step1 = Y.whisk_l[(G.on_one[t2], a1)]
            step2 = Y.whisk_r[(a2, F.on_one[s1])]
        else:
            # f'' . F s2 . F s1 => G t2 . f' . F s1 => G t2 . G t1 . f
            step1 = Y.whisk_r[(a2, F.on_one[s1])]
            step2 = Y.whisk_l[(G.on_one[t2], a1)]
        a = Y.vcomp[(step2, step1)]
        return ones[(o1, o3, X.comp1[(s2, s1)], a, Z.comp1[(t2, t1)])]

    def vcomp(c2, c1):
        (_, m2, phi2, ga2), (m0, _, phi1, ga1) = two_data[c2], two_data[c1]
        return twos[(m0, m2, X.vcomp[(phi2, phi1)], Z.vcomp[(ga2, ga1)])]

    def whisk_l(k, c):   # k . (m => m2)
        (m, m2, phi, ga), (_, _, ks, _, kt) = two_data[c], one_data[k]
        return twos[(comp1(k, m), comp1(k, m2),
                     X.whisk_l[(ks, phi)], Z.whisk_l[(kt, ga)])]

    def whisk_r(c, k):   # (m => m2) . k
        (m, m2, phi, ga), (_, _, ks, _, kt) = two_data[c], one_data[k]
        return twos[(comp1(m, k), comp1(m2, k),
                     X.whisk_r[(phi, ks)], Z.whisk_r[(ga, kt)])]

    cat = build_two_category(objs.values(), one_cells, two_cells, id1, id2,
                             comp1, vcomp, whisk_l, whisk_r)
    p_left = TwoFunctor(cat, X,
                        {o: k[0] for k, o in objs.items()},
                        {m: k[2] for k, m in ones.items()},
                        {c: k[2] for k, c in twos.items()})
    p_right = TwoFunctor(cat, Z,
                         {o: k[2] for k, o in objs.items()},
                         {m: k[4] for k, m in ones.items()},
                         {c: k[3] for k, c in twos.items()})
    pi = Transformation(
        source=compose_functors(F, p_left),
        target=compose_functors(G, p_right),
        at_object={o: k[1] for k, o in objs.items()},
        at_one={m: k[3] for k, m in ones.items()},
        direction=LAX if lax else OPLAX,
        flavor=LAX if lax else OPLAX)
    return CommaResult(cat, p_left, p_right, pi, objs, ones, twos,
                       obj_data, one_data, two_data, lax)


def laco(F: TwoFunctor, G: TwoFunctor) -> CommaResult:
    """Lax comma object of the cospan F: X -> Y <- Z : G."""
    return _comma(F, G, lax=True)


def oplaco(F: TwoFunctor, G: TwoFunctor) -> CommaResult:
    """Oplax comma object (2-cell slot reversed)."""
    return _comma(F, G, lax=False)


def mediate_laco(L: CommaResult, R: TwoFunctor, Q: TwoFunctor,
                 lam: Transformation) -> TwoFunctor:
    """The unique mediating 2-functor h: K -> laco(F, G) with p_X.h = R,
    p_Z.h = Q and pi recovered as lam.

    lam must be a lax transformation F.R => G.Q (oplax for an oplax comma).
    Raises AxiomError/KeyError if lam does not fit."""
    K = R.source
    want = LAX if L.lax else OPLAX
    if lam.direction != want:
        raise ValueError("mediating transformation has direction %r, need %r"
                         % (lam.direction, want))
    on_obj = {}
    for k in K.objects:
        on_obj[k] = L.obj_id[(R.on_objects[k], lam.at_object[k], Q.on_objects[k])]
    on_one = {}
    for m in K.one_src:
        o = on_obj[K.one_src[m]]
        o2 = on_obj[K.one_tgt[m]]
        on_one[m] = L.one_id[(o, o2, R.on_one[m], lam.at_one[m], Q.on_one[m])]
    on_two = {}
    for c in K.two_src:
        m = on_one[K.two_src[c]]
        m2 = on_one[K.two_tgt[c]]
        on_two[c] = L.two_id[(m, m2, R.on_two[c], Q.on_two[c])]
    return TwoFunctor(K, L.cat, on_obj, on_one, on_two)


def comma_inclusion(PB: PullbackResult, L: CommaResult,
                    F: TwoFunctor, G: TwoFunctor) -> TwoFunctor:
    """The inclusion i: pb(F,G) -> laco(F,G) mediated by identity laxity."""
    Y = F.target
    lam = Transformation(
        source=compose_functors(F, PB.pr_left),
        target=compose_functors(G, PB.pr_right),
        at_object={o: Y.id1[F.on_objects[x]]
                   for (x, z), o in PB.obj_id.items()},
        at_one={m: Y.id2[F.on_one[s]] for (s, t), m in PB.one_id.items()},
        direction=LAX if L.lax else OPLAX,
        flavor=TWO_NATURAL)
    return mediate_laco(L, PB.pr_left, PB.pr_right, lam)


def strict_fiber(P: TwoFunctor, x: str):
    """Sub-2-category of P's source on cells mapping to (x, 1_x, 1_{1_x});
    returns (fiber, inclusion)."""
    C, D = P.source, P.target
    objs = [o for o in C.objects if P.on_objects[o] == x]
    idx1 = D.id1[x]
    idx2 = D.id2[idx1]
    ones = {f: (C.one_src[f], C.one_tgt[f]) for f in C.one_src
            if P.on_one[f] == idx1 and C.one_src[f] in set(objs)
            and C.one_tgt[f] in set(objs)}
    twos = {a: (C.two_src[a], C.two_tgt[a]) for a in C.two_src
            if P.on_two[a] == idx2 and C.two_src[a] in ones
            and C.two_tgt[a] in ones}
    # the rules are C's own tables
    fib = build_two_category(objs, ones, twos, {o: C.id1[o] for o in objs},
                             {f: C.id2[f] for f in ones},
                             *(lambda *key, table=table: table[key]
                               for table in (C.comp1, C.vcomp, C.whisk_l,
                                             C.whisk_r)))
    incl = TwoFunctor(fib, C, {o: o for o in objs}, {f: f for f in ones},
                      {a: a for a in twos})
    return fib, incl


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
