"""Standard small 2-categories used throughout the test corpus.

FIX_T      terminal 2-category (one object, identities only)
FIX_I      the poset [1] = (0 -> 1), locally discrete
FIX_G2     one object, one 1-cell, 2-cells Z/2 under vcomp
FIX_G2sat  same carrier, but vcomp(1,1) = 1 (saturation monoid {0,1})
FIX_C2     discrete 2-category on {0,1}
FIX_M2     same underlying 2-category as FIX_C2 (the max-monoid structure
           lives in the PGM fixture, see twocat.pgm)
FIX_PROD   binary product generator

Products and locally discrete 2-categories fill their tables through
``core.build_two_category`` from a composition rule; the literal fixtures
are written out with ``make_two_category``.
"""

from __future__ import annotations

from .core import (TwoCategory, TwoFunctor, build_two_category,
                   make_two_category)


def nm(*parts) -> str:
    """Canonical collision-free name for a constructed cell: the repr of the
    tuple of constituents (strings or nested tuples of strings)."""
    return repr(parts)


def discrete_two_category(objects) -> TwoCategory:
    """Only identity 1- and 2-cells."""
    objects = sorted(objects)
    one = {"id_%s" % x: (x, x) for x in objects}
    two = {"ii_%s" % x: ("id_%s" % x, "id_%s" % x) for x in objects}
    id1 = {x: "id_%s" % x for x in objects}
    id2 = {"id_%s" % x: "ii_%s" % x for x in objects}
    comp1 = {("id_%s" % x, "id_%s" % x): "id_%s" % x for x in objects}
    vcomp = {("ii_%s" % x, "ii_%s" % x): "ii_%s" % x for x in objects}
    whisk_l = {("id_%s" % x, "ii_%s" % x): "ii_%s" % x for x in objects}
    whisk_r = {("ii_%s" % x, "id_%s" % x): "ii_%s" % x for x in objects}
    return make_two_category(objects, one, two, id1, id2,
                             comp1, vcomp, whisk_l, whisk_r)


def locally_discrete(objects, arrows, compose) -> TwoCategory:
    """A 1-category presented as (objects, arrows: dict id -> (src, tgt),
    compose: dict (g, f) -> gf including identities) viewed as a 2-category
    with only identity 2-cells."""
    two = {"ii_%s" % f: (f, f) for f in arrows}
    return build_two_category(
        objects, arrows, two, {x: "id_%s" % x for x in objects},
        {f: "ii_%s" % f for f in arrows},
        lambda g, f: compose[(g, f)],
        lambda b, a: a,
        lambda k, a: "ii_%s" % compose[(k, two[a][0])],
        lambda a, k: "ii_%s" % compose[(two[a][0], k)])


def fix_t() -> TwoCategory:
    return discrete_two_category(["pt"])


def fix_c2() -> TwoCategory:
    return discrete_two_category(["0", "1"])


def fix_m2() -> TwoCategory:
    return fix_c2()


def fix_i() -> TwoCategory:
    arrows = {"id_0": ("0", "0"), "id_1": ("1", "1"), "a01": ("0", "1")}
    compose = {
        ("id_0", "id_0"): "id_0",
        ("id_1", "id_1"): "id_1",
        ("a01", "id_0"): "a01",
        ("id_1", "a01"): "a01",
    }
    return locally_discrete(["0", "1"], arrows, compose)


def _one_object_monoid_2cells(add: dict) -> TwoCategory:
    """One object, one 1-cell, 2-cells {e0, e1} with vcomp given by add
    (a commutative monoid table on {0,1} with unit 0)."""
    one = {"i": ("*", "*")}
    two = {"e0": ("i", "i"), "e1": ("i", "i")}
    id1 = {"*": "i"}
    id2 = {"i": "e0"}
    comp1 = {("i", "i"): "i"}
    vcomp = {("e%d" % b, "e%d" % a): "e%d" % add[(b, a)]
             for b in (0, 1) for a in (0, 1)}
    # whiskering by the unique (identity) 1-cell is the identity operation
    whisk_l = {("i", "e%d" % a): "e%d" % a for a in (0, 1)}
    whisk_r = {("e%d" % a, "i"): "e%d" % a for a in (0, 1)}
    return make_two_category(["*"], one, two, id1, id2,
                             comp1, vcomp, whisk_l, whisk_r)


def fix_g2() -> TwoCategory:
    add = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    return _one_object_monoid_2cells(add)


def fix_g2sat() -> TwoCategory:
    add = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    return _one_object_monoid_2cells(add)


def fix_prod(A: TwoCategory, B: TwoCategory):
    """Product 2-category with componentwise structure; returns
    (A x B, pr1, pr2)."""
    def cells(xs, ys):
        return {nm(x, y): (x, y) for x in xs for y in ys}

    objs = cells(A.objects, B.objects)
    ones = cells(sorted(A.one_src), sorted(B.one_src))
    twos = cells(sorted(A.two_src), sorted(B.two_src))
    part = {**objs, **ones, **twos}   # a name is the repr of its pair

    def pairwise(a_table, b_table):
        return lambda u, v: nm(a_table[(part[u][0], part[v][0])],
                               b_table[(part[u][1], part[v][1])])

    P = build_two_category(
        objs,
        {n: (nm(A.one_src[f], B.one_src[g]), nm(A.one_tgt[f], B.one_tgt[g]))
         for n, (f, g) in ones.items()},
        {n: (nm(A.two_src[a], B.two_src[b]), nm(A.two_tgt[a], B.two_tgt[b]))
         for n, (a, b) in twos.items()},
        {n: nm(A.id1[x], B.id1[y]) for n, (x, y) in objs.items()},
        {n: nm(A.id2[f], B.id2[g]) for n, (f, g) in ones.items()},
        pairwise(A.comp1, B.comp1), pairwise(A.vcomp, B.vcomp),
        pairwise(A.whisk_l, B.whisk_l), pairwise(A.whisk_r, B.whisk_r))
    pr1, pr2 = (TwoFunctor(P, T, {o: part[o][i] for o in P.objects},
                           {f: part[f][i] for f in P.one_src},
                           {a: part[a][i] for a in P.two_src})
                for i, T in enumerate((A, B)))
    return P, pr1, pr2


def point_functor(D: TwoCategory, x: str) -> TwoFunctor:
    """The 2-functor from the terminal 2-category picking out object x."""
    T = fix_t()
    return TwoFunctor(T, D, {"pt": x}, {T.id1["pt"]: D.id1[x]},
                      {T.id2[T.id1["pt"]]: D.id2[D.id1[x]]})


def bang_functor(C: TwoCategory) -> TwoFunctor:
    """The unique 2-functor C -> terminal."""
    T = fix_t()
    return TwoFunctor(C, T, {x: "pt" for x in C.objects},
                      {f: T.id1["pt"] for f in C.one_src},
                      {a: T.id2[T.id1["pt"]] for a in C.two_src})
