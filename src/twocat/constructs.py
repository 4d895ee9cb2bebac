"""Limit-type constructions on finite 2-categories.

Strict pullbacks, the lax comma object laco(F, G) and its oplax variant,
mediating 2-functors from the universal property, and strict fibers.  Each
2-functor into a lax comma object, ``specseq``'s base change along a
1-cell among them, is the ``mediate_laco`` of two projections and a
laxity.  The uniqueness and identity checks of the mediators are lemma
checks that only tests run (``tests/test_constructs.py``), and so are the
diagram-shaped comma objects over orientals (``tests/diagram_comma.py``)
and the inclusion of the strict pullback (``tests/comparison.py``).

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

from dataclasses import dataclass
from functools import cache
from itertools import product

from .core import (LAX, OPLAX, Transformation, TwoCategory, TwoFunctor,
                   build_two_category, compose_functors)
from .fixtures import nm


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
    # the 1-cells by their ends, each group contiguous in sorted order, so
    # the pairs below are visited in sorted order
    by_ends = {}
    for k, m in sorted(ones.items()):
        by_ends.setdefault(k[:2], []).append((k, m))
    twos = {}
    for (o, o2), cells in by_ends.items():
        (_, f, _), (_, f2, _) = obj_data[o], obj_data[o2]
        for ((_, _, s, a, t), m), ((_, _, s2, a2, t2), m2) in product(
                cells, repeat=2):
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

    @cache                  # whisk_l and whisk_r ask for each composite again
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
