import hashlib
from itertools import chain, product

import pytest

from twocat import constructs, fixtures, pgm, sinv
from twocat import io as tio
from twocat.constructs import CommaResult, laco, mediate_laco
from twocat.core import (AxiomError, Transformation, compose_functors,
                         functors_equal, identity_functor, op_dual, co_dual,
                         coop_dual, make_two_category,
                         validate_two_category, validate_two_functor)
from twocat.core import LAX, OPLAX, TWO_NATURAL, TwoFunctor
from twocat.fixtures import (bang_functor, fix_c2, fix_g2, fix_i, fix_prod,
                             fix_t, nm, point_functor)
from twocat.nerve import simplex_operators
from twocat.specseq import base_change

from comparison import comma_inclusion
from diagram_comma import (OplaxInitialWitness, find_oplax_initial,
                           functor_co, functor_op, laco_diagram,
                           lp_initial_d_e, materialize_oriental,
                           oplaco_codiagram, simplex_functor)
from test_core import find_isomorphism, validate_transformation
from test_nerve import enumerate_simplices


# --- base change and the mediators' lemma checks ---------------------------

def base_change_along(F: TwoFunctor, phi: str) -> TwoFunctor:
    """base_change along phi between the comma objects over its ends."""
    D = F.target
    return base_change(F, phi, *(laco(F, point_functor(D, v))
                                 for v in (D.one_src[phi], D.one_tgt[phi])))


def check_mediator_unique(L: CommaResult, R: TwoFunctor, Q: TwoFunctor,
                          lam: Transformation, h: TwoFunctor) -> bool:
    """Every cell of the comma object is determined by its two projections
    and its pi-component, so any mediator agreeing with (R, Q, lam) equals h;
    verified by exhaustive enumeration of candidate images."""
    K = R.source
    for k in K.objects:
        cands = [o for (x, f, z), o in L.obj_id.items()
                 if x == R.on_objects[k] and z == Q.on_objects[k]
                 and f == lam.at_object[k]]
        if cands != [h.on_objects[k]]:
            return False
    for m in K.one_src:
        cands = [c for (o, o2, s, a, t), c in L.one_id.items()
                 if s == R.on_one[m] and t == Q.on_one[m]
                 and a == lam.at_one[m]
                 and o == h.on_objects[K.one_src[m]]
                 and o2 == h.on_objects[K.one_tgt[m]]]
        if cands != [h.on_one[m]]:
            return False
    for d in K.two_src:
        cands = [c for (m, m2, phi, ga), c in L.two_id.items()
                 if phi == R.on_two[d] and ga == Q.on_two[d]
                 and m == h.on_one[K.two_src[d]]
                 and m2 == h.on_one[K.two_tgt[d]]]
        if cands != [h.on_two[d]]:
            return False
    return True


def lp_id_data(G: TwoFunctor, L: CommaResult | None = None):
    """For G: E -> D, the inclusion J: E -> laco(1_D, G), z -> [Gz, 1, z],
    together with the lax transformation mu: Id => J . p_E that exhibits
    the projection p_E as a deformation retraction; returns (L, J, mu)."""
    E, D = G.source, G.target
    if L is None:
        L = laco(identity_functor(D), G)
    lam = Transformation(G, G,
                         {z: D.id1[G.on_objects[z]] for z in E.objects},
                         {m: D.id2[G.on_one[m]] for m in E.one_src},
                         direction=LAX, flavor=TWO_NATURAL)
    J = mediate_laco(L, G, identity_functor(E), lam)
    JpE = compose_functors(J, L.p_right)
    at_obj = {}
    for (x, f, z), o in L.obj_id.items():
        at_obj[o] = L.one_id[(o, JpE.on_objects[o], f, D.id2[f], E.id1[z])]
    at_one = {}
    for m in L.cat.one_src:
        o, o2 = L.cat.one_src[m], L.cat.one_tgt[m]
        src1 = L.cat.comp1[(JpE.on_one[m], at_obj[o])]
        tgt1 = L.cat.comp1[(at_obj[o2], m)]
        (_, _, s, a, t) = L.one_data[m]
        at_one[m] = L.two_id[(src1, tgt1, a, E.id2[t])]
    mu = Transformation(identity_functor(L.cat), JpE, at_obj, at_one,
                        direction=LAX, flavor=LAX)
    return L, J, mu


def collapse_functor(E, D, obj, one, two):
    """Functor sending every cell of E to the given cells of D."""
    return TwoFunctor(E, D, {x: obj for x in E.objects},
                      {f: one for f in E.one_src},
                      {a: two for a in E.two_src})


# --- pullback ---------------------------------------------------------------

def test_pullback_terminal():
    T = fix_t()
    PB = constructs.pullback(identity_functor(T), identity_functor(T))
    validate_two_category(PB.cat)
    assert len(PB.cat.objects) == 1
    assert len(PB.cat.one_src) == 1
    assert len(PB.cat.two_src) == 1


def test_pullback_of_projection_is_fiber():
    P, pr1, pr2 = fix_prod(fix_g2(), fix_c2())
    PB = constructs.pullback(pr2, point_functor(fix_c2(), "0"))
    validate_two_category(PB.cat)
    validate_two_functor(PB.pr_left)
    validate_two_functor(PB.pr_right)
    assert find_isomorphism(PB.cat, fix_g2()) is not None


def test_pullback_diagonal_counts():
    C = fix_g2()
    PB = constructs.pullback(identity_functor(C), identity_functor(C))
    validate_two_category(PB.cat)
    assert len(PB.cat.objects) == len(C.objects)
    assert len(PB.cat.one_src) == len(C.one_src)
    assert len(PB.cat.two_src) == len(C.two_src)


# --- laco / oplaco ----------------------------------------------------------

def test_laco_terminal():
    T = fix_t()
    L = constructs.laco(identity_functor(T), identity_functor(T))
    validate_two_category(L.cat)
    validate_transformation(L.pi)
    assert (len(L.cat.objects), len(L.cat.one_src), len(L.cat.two_src)) \
        == (1, 1, 1)


def test_laco_over_interval_point():
    I = fix_i()
    L = constructs.laco(identity_functor(I), point_functor(I, "1"))
    validate_two_category(L.cat)
    assert sorted(L.obj_id) == [("0", "a01", "pt"), ("1", "id_1", "pt")]
    assert find_isomorphism(L.cat, I) is not None


def test_laco_g2_counts():
    C = fix_g2()
    L = constructs.laco(identity_functor(C), identity_functor(C))
    validate_two_category(L.cat)
    validate_two_functor(L.p_left)
    validate_two_functor(L.p_right)
    validate_transformation(L.pi)
    assert len(L.cat.objects) == 1
    # one 2-cell slot per choice in hom2(i, i): two 1-cells per endpoint pair
    assert len(L.cat.one_src) == 2
    assert len(L.cat.two_src) == 8


def test_oplaco_terminal():
    T = fix_t()
    L = constructs.oplaco(identity_functor(T), identity_functor(T))
    validate_two_category(L.cat)
    validate_transformation(L.pi)
    assert len(L.cat.objects) == 1


COSPANS = []


def _cospans():
    out = []
    I = fix_i()
    out.append((identity_functor(I), point_functor(I, "1")))
    out.append((point_functor(I, "0"), point_functor(I, "1")))
    G2 = fix_g2()
    out.append((identity_functor(G2), identity_functor(G2)))
    out.append((point_functor(G2, "*"), identity_functor(G2)))
    return out


@pytest.mark.parametrize("idx", range(4))
def test_duality_squares(idx):
    F, G = _cospans()[idx]
    lhs = op_dual(constructs.laco(G, F).cat)
    rhs = constructs.oplaco(functor_op(F), functor_op(G)).cat
    validate_two_category(lhs)
    validate_two_category(rhs)
    assert find_isomorphism(lhs, rhs) is not None
    lhs2 = coop_dual(constructs.laco(G, F).cat)
    rhs2 = constructs.laco(functor_co(functor_op(F)),
                           functor_co(functor_op(G))).cat
    assert find_isomorphism(lhs2, rhs2) is not None


@pytest.mark.parametrize("idx", range(4))
def test_comma_outputs_validate(idx):
    F, G = _cospans()[idx]
    for build in (constructs.laco, constructs.oplaco):
        L = build(F, G)
        validate_two_category(L.cat)
        validate_two_functor(L.p_left)
        validate_two_functor(L.p_right)
        validate_transformation(L.pi)


# --- mediation --------------------------------------------------------------

def test_mediate_terminal():
    T = fix_t()
    L = constructs.laco(identity_functor(T), identity_functor(T))
    lam = Transformation(identity_functor(T), identity_functor(T),
                         {"pt": T.id1["pt"]}, {T.id1["pt"]: T.id2[T.id1["pt"]]},
                         direction=LAX, flavor=TWO_NATURAL)
    h = constructs.mediate_laco(L, identity_functor(T), identity_functor(T),
                                lam)
    validate_two_functor(h)
    assert check_mediator_unique(
        L, identity_functor(T), identity_functor(T), lam, h)


def test_mediate_round_trip_and_uniqueness():
    # mediate a nontrivial lax square into laco(Id, Id) over FIX_G2 and
    # recover (R, Q, lam) through the projections and pi
    C = fix_g2()
    L = constructs.laco(identity_functor(C), identity_functor(C))
    R = Q = identity_functor(C)
    lam = Transformation(R, Q, {"*": "i"}, {"i": "e0"},
                         direction=LAX, flavor=TWO_NATURAL)
    h = constructs.mediate_laco(L, R, Q, lam)
    validate_two_functor(h)
    assert functors_equal(compose_functors(L.p_left, h), R)
    assert functors_equal(compose_functors(L.p_right, h), Q)
    for k in C.objects:
        assert L.pi.at_object[h.on_objects[k]] == lam.at_object[k]
    for m in C.one_src:
        assert L.pi.at_one[h.on_one[m]] == lam.at_one[m]
    assert check_mediator_unique(L, R, Q, lam, h)


def test_lp_id_retraction():
    # J: E -> laco(1_D, G) with p_E . J = Id and a validating mu: Id => J.p_E
    G2 = fix_g2()
    G = bang_functor(G2)
    L, J, mu = lp_id_data(G)
    validate_two_category(L.cat)
    validate_two_functor(J)
    validate_transformation(mu)
    assert functors_equal(compose_functors(L.p_right, J),
                          identity_functor(G2))


def test_comma_inclusion_of_pullback():
    P, pr1, pr2 = fix_prod(fix_g2(), fix_c2())
    F = pr2
    G = point_functor(fix_c2(), "0")
    PB = constructs.pullback(F, G)
    L = constructs.laco(F, G)
    i = comma_inclusion(PB, L, F, G)
    validate_two_functor(i)
    assert functors_equal(compose_functors(L.p_left, i), PB.pr_left)
    assert functors_equal(compose_functors(L.p_right, i), PB.pr_right)


# --- base change ------------------------------------------------------------

def test_base_change_interval():
    I = fix_i()
    bc = base_change_along(identity_functor(I), "a01")
    validate_two_functor(bc)
    assert sorted(bc.source.objects) == [repr(("o", "0", "id_0", "pt"))]
    assert len(bc.target.objects) == 2


def test_base_change_functorial():
    I = fix_i()
    F = identity_functor(I)
    for x in I.objects:
        bid = base_change_along(F, I.id1[x])
        assert functors_equal(bid, identity_functor(bid.source))
    # chain: a01 . id_0 and id_1 . a01
    L0 = constructs.laco(F, point_functor(I, "0"))
    L1 = constructs.laco(F, point_functor(I, "1"))
    f = base_change(F, "id_0", Lx=L0, Ly=L0)
    g = base_change(F, "a01", Lx=L0, Ly=L1)
    gf = base_change(F, I.comp1[("a01", "id_0")], Lx=L0, Ly=L1)
    assert functors_equal(compose_functors(g, f), gf)
    h = base_change(F, "id_1", Lx=L1, Ly=L1)
    hg = base_change(F, I.comp1[("id_1", "a01")], Lx=L0, Ly=L1)
    assert functors_equal(compose_functors(h, g), hg)


# --- strict fibers ----------------------------------------------------------

def test_strict_fiber_identity_functor():
    C = fix_i()
    fib, incl = constructs.strict_fiber(identity_functor(C), "0")
    validate_two_category(fib)
    validate_two_functor(incl)
    assert fib.objects == ("0",)
    assert sorted(fib.one_src) == ["id_0"]


def test_strict_fiber_product_projection():
    P, pr1, pr2 = fix_prod(fix_g2(), fix_c2())
    fib, incl = constructs.strict_fiber(pr2, "1")
    validate_two_category(fib)
    assert find_isomorphism(fib, fix_g2()) is not None


# --- oplax initial / terminal -----------------------------------------------

def test_interval_oplax_initial_terminal():
    I = fix_i()
    w = find_oplax_initial(I)
    assert w is not None and w.obj == "0"
    validate_transformation(witness_transformation(I, w))
    wt = find_oplax_initial(op_dual(I))
    assert wt is not None and wt.obj == "1"


def test_g2_has_no_oplax_initial():
    assert find_oplax_initial(fix_g2()) is None


def test_discrete_pair_has_no_oplax_initial():
    assert find_oplax_initial(fix_c2()) is None


# --- diagram comma and the initial-object equivalence ------------------------

def _diagram_setup():
    I = fix_i()
    G2 = fix_g2()
    G = collapse_functor(I, G2, "*", "i", "e0")
    F = point_functor(G2, "*")
    return I, G2, F, G


def test_laco_diagram_validates():
    I, G2, F, G = _diagram_setup()
    Ldia = laco_diagram(F, G)
    validate_two_category(Ldia.cat)
    validate_two_functor(Ldia.p_left)
    assert (len(Ldia.cat.objects), len(Ldia.cat.one_src),
            len(Ldia.cat.two_src)) == (2, 8, 8)


def e_by_keys(Lpt, Ldia, iota) -> TwoFunctor:
    """The oracle for lp_initial_d_e's e, read off the comma objects' keys:
    each cone goes to its component at iota and each modification to its
    component at iota, over the point's identity cells."""
    T = Lpt.p_right.target
    pt = T.id1["pt"]
    on_obj = {o: Lpt.obj_id[(c, dict(comps)[iota], "pt")]
              for (c, comps, cells), o in Ldia.obj_id.items()}
    on_one = {m: Lpt.one_id[(on_obj[o], on_obj[o2], s, dict(la)[iota], pt)]
              for (o, o2, s, la), m in Ldia.one_id.items()}
    on_two = {cc: Lpt.two_id[(on_one[m], on_one[m2], phi, T.id2[pt])]
              for (m, m2, phi), cc in Ldia.two_id.items()}
    return TwoFunctor(Ldia.cat, Lpt.cat, on_obj, on_one, on_two)


def test_lp_initial_shadow():
    I, G2, F, G = _diagram_setup()
    w = find_oplax_initial(I)
    d, e, eta, Lpt, Ldia = lp_initial_d_e(F, G, w)
    validate_two_functor(d)
    validate_two_functor(e)
    assert functors_equal(e, e_by_keys(Lpt, Ldia, w.obj))
    assert functors_equal(compose_functors(e, d), identity_functor(Lpt.cat))
    assert eta.flavor == TWO_NATURAL
    validate_transformation(eta)


def test_lp_initial_shadow_interval_base():
    # diagram of shape [1] inside [1] itself
    I = fix_i()
    F = point_functor(I, "0")
    G = identity_functor(I)
    w = find_oplax_initial(I)
    d, e, eta, Lpt, Ldia = lp_initial_d_e(F, G, w)
    validate_two_functor(d)
    validate_two_functor(e)
    assert functors_equal(e, e_by_keys(Lpt, Ldia, w.obj))
    assert functors_equal(compose_functors(e, d), identity_functor(Lpt.cat))
    validate_transformation(eta)


# --- independent oracles for the cone enumerator ----------------------------
#
# find_oplax_initial and oplaco_codiagram both go through the cone
# enumerator of laco_diagram.  The oracles share none of it: a product
# search checked by validate_transformation, and a builder written
# directly in terms of cocones, 1-cells (t, La) and 2-cells ga.

def witness_transformation(E, w):
    """The oplax transformation Delta(iota) => Id_E that a witness names."""
    const = TwoFunctor(E, E, {j: w.obj for j in E.objects},
                       {f: E.id1[w.obj] for f in E.one_src},
                       {a: E.id2[E.id1[w.obj]] for a in E.two_src})
    return Transformation(const, identity_functor(E), dict(w.at_object),
                          dict(w.at_one), direction=OPLAX, flavor=OPLAX)


def product_oplax_initial(E):
    for iota in E.objects:
        others = [j for j in E.objects if j != iota]
        comp_choices = [E.hom1(iota, j) for j in others]
        if any(not ch for ch in comp_choices):
            continue
        nonid_ones = [f for f in sorted(E.one_src) if not E.is_id1(f)]
        for comps in product(*comp_choices):
            at_obj = dict(zip(others, comps))
            at_obj[iota] = E.id1[iota]
            cell_choices = []
            for f in nonid_ones:
                i, j = E.one_src[f], E.one_tgt[f]
                cand = E.hom2(at_obj[j], E.comp1[(f, at_obj[i])])
                if not cand:
                    break
                cell_choices.append(cand)
            else:
                for cells in product(*cell_choices):
                    at_one = dict(zip(nonid_ones, cells))
                    for f in E.one_src:
                        if E.is_id1(f):
                            at_one[f] = E.id2[at_obj[E.one_src[f]]]
                    w = OplaxInitialWitness(iota, at_obj, at_one)
                    try:
                        validate_transformation(witness_transformation(E, w))
                    except AxiomError:
                        continue
                    return w
    return None


def _lax_cocone_ok(D, E, W, comps, cells):
    for e2 in E.one_src:
        for e1 in E.one_src:
            if E.one_tgt[e1] != E.one_src[e2]:
                continue
            e21 = E.comp1[(e2, e1)]
            want = D.vcomp[(D.whisk_r[(cells[e2], W.on_one[e1])], cells[e1])]
            if cells[e21] != want:
                return False
    for chi in E.two_src:
        e1, e2 = E.two_src[chi], E.two_tgt[chi]
        lhs = D.vcomp[(D.whisk_l[(comps[E.one_tgt[e1]], W.on_two[chi])],
                       cells[e1])]
        if lhs != cells[e2]:
            return False
    return True


def _enumerate_cocones(W, d):
    D, E = W.target, W.source
    eobjs = sorted(E.objects)
    nonid = [e for e in sorted(E.one_src) if not E.is_id1(e)]
    out = []
    for comps_tuple in product(*[D.hom1(W.on_objects[i], d) for i in eobjs]):
        comps = dict(zip(eobjs, comps_tuple))
        cell_choices = []
        for e in nonid:
            i, i2 = E.one_src[e], E.one_tgt[e]
            cand = D.hom2(comps[i], D.comp1[(comps[i2], W.on_one[e])])
            if not cand:
                break
            cell_choices.append(cand)
        else:
            for cells_tuple in product(*cell_choices):
                cells = dict(zip(nonid, cells_tuple))
                for e in E.one_src:
                    if E.is_id1(e):
                        cells[e] = D.id2[comps[E.one_src[e]]]
                if _lax_cocone_ok(D, E, W, comps, cells):
                    out.append((tuple(sorted(comps.items())),
                                tuple(sorted(cells.items()))))
    return out


def _cocone_mod_ok(D, E, W, t, cells, cells2, la):
    """(La_{i'} * W e) . nu'_e == (t * nu_e) . La_i for e: i -> i'."""
    for e in E.one_src:
        i, i2 = E.one_src[e], E.one_tgt[e]
        lhs = D.vcomp[(D.whisk_r[(la[i2], W.on_one[e])], cells2[e])]
        rhs = D.vcomp[(D.whisk_l[(t, cells[e])], la[i])]
        if lhs != rhs:
            return False
    return True


def handwritten_codiagram(W):
    """Cocones under W: E -> D, with 1-cells (t, La), La_i: nu'_i => t.nu_i,
    and 2-cells ga: t => t' with La'_i = (ga * nu_i) . La_i.  Returns
    (cat, obj_id, one_id, two_id, projection to D)."""
    D, E = W.target, W.source
    objs = {}
    for d in D.objects:
        for comps, cells in _enumerate_cocones(W, d):
            objs[(d, comps, cells)] = nm("o", d, comps, cells)
    ones = {}
    for (d, comps, cells), o in sorted(objs.items()):
        dcomps = dict(comps)
        for (d2, comps2, cells2), o2 in sorted(objs.items()):
            dcomps2 = dict(comps2)
            for t in D.hom1(d, d2):
                la_choices = [D.hom2(dcomps2[i], D.comp1[(t, dcomps[i])])
                              for i in sorted(E.objects)]
                for la_tuple in product(*la_choices):
                    la = dict(zip(sorted(E.objects), la_tuple))
                    if _cocone_mod_ok(D, E, W, t, dict(cells), dict(cells2),
                                      la):
                        key = tuple(sorted(la.items()))
                        ones[(o, o2, t, key)] = nm("1", o, o2, t, key)
    obj_data = {v: k for k, v in objs.items()}
    twos = {}
    for (o, o2, t, la), m in sorted(ones.items()):
        dla = dict(la)
        dcomps = dict(obj_data[o][1])
        for (p, p2, t2, la2), m2 in sorted(ones.items()):
            if (p, p2) != (o, o2):
                continue
            dla2 = dict(la2)
            for ga in D.hom2(t, t2):
                if all(dla2[i] == D.vcomp[(D.whisk_r[(ga, dcomps[i])], dla[i])]
                       for i in E.objects):
                    twos[(m, m2, ga)] = nm("2", m, m2, ga)
    one_cells = {m: (k[0], k[1]) for k, m in ones.items()}
    two_cells = {x: (k[0], k[1]) for k, x in twos.items()}
    id1 = {o: ones[(o, o, D.id1[d], tuple(sorted((i, D.id2[f])
                                                   for i, f in comps)))]
           for (d, comps, cells), o in objs.items()}
    id2 = {m: twos[(m, m, D.id2[k[2]])] for k, m in ones.items()}
    comp1 = {}
    for (o1, omid, t1, la1), m1 in ones.items():
        for (p, o3, t2, la2), m2 in ones.items():
            if omid == p:
                d1, d2 = dict(la1), dict(la2)
                la = tuple(sorted(
                    (i, D.vcomp[(D.whisk_l[(t2, d1[i])], d2[i])])
                    for i in E.objects))
                comp1[(m2, m1)] = ones[(o1, o3, D.comp1[(t2, t1)], la)]
    vcomp = {}
    for (ma, mb, ga2), c2 in twos.items():
        for (m0, m1, ga1), c1 in twos.items():
            if m1 == ma:
                vcomp[(c2, c1)] = twos[(m0, mb, D.vcomp[(ga2, ga1)])]
    whisk_l, whisk_r = {}, {}
    for (m, m2, ga), cc in twos.items():
        for (ko, ko2, kt, _), k in ones.items():
            if ko == one_cells[m][1]:
                whisk_l[(k, cc)] = twos[(comp1[(k, m)], comp1[(k, m2)],
                                         D.whisk_l[(kt, ga)])]
            if ko2 == one_cells[m][0]:
                whisk_r[(cc, k)] = twos[(comp1[(m, k)], comp1[(m2, k)],
                                         D.whisk_r[(ga, kt)])]
    cat = make_two_category(objs.values(), one_cells, two_cells, id1, id2,
                            comp1, vcomp, whisk_l, whisk_r)
    proj = TwoFunctor(cat, D, {o: k[0] for k, o in objs.items()},
                      {m: k[2] for k, m in ones.items()},
                      {x: k[2] for k, x in twos.items()})
    return cat, objs, ones, twos, proj


def _witness_categories():
    """(label, E): every fixture (fix_prod on G2 x C2), I x I, I x G2, the
    orientals O(0)..O(4), the point completions of C2 and M2, S^-1 M2, and
    the op- and co-duals of all of these."""
    cats = [(n, getattr(fixtures, n)()) for n in sorted(dir(fixtures))
            if n.startswith("fix_") and n != "fix_prod"]
    cats += [("fix_prod", fix_prod(fix_g2(), fix_c2())[0]),
             ("IxI", fix_prod(fix_i(), fix_i())[0]),
             ("IxG2", fix_prod(fix_i(), fix_g2())[0])]
    cats += [("O%d" % p, materialize_oriental(p)) for p in range(5)]
    M2 = pgm.fix_m2_pgm()
    cats += [("pt-C2", sinv.s_inv_point(pgm.fix_c2_pgm()).cat),
             ("pt-M2", sinv.s_inv_point(M2).cat),
             ("S-1M2", sinv.s_inv_x(M2, pgm.self_action(M2)).cat)]
    return [(name + suffix, dual(E)) for name, E in cats
            for suffix, dual in (("", lambda E: E), ("-op", op_dual),
                                 ("-co", co_dual))]


WITNESS_CATEGORIES = _witness_categories()


@pytest.mark.parametrize("E", [E for _, E in WITNESS_CATEGORIES],
                         ids=[name for name, _ in WITNESS_CATEGORIES])
def test_oplax_initial_matches_product_search(E):
    w = find_oplax_initial(E)
    assert w == product_oplax_initial(E)
    if w is not None:
        validate_transformation(witness_transformation(E, w))


def _codiagrams():
    """(label, W): the simplices of G2 and I of dimension <= 2, and F(omega)
    for the 0- and 1-simplices omega of the source of rho-c2."""
    out = []
    for name, D in (("G2", fix_g2()), ("I", fix_i())):
        out += [("%s-%d.%d" % (name, n, k), simplex_functor(D, x))
                for n in range(3)
                for k, x in enumerate(enumerate_simplices(D, n))]
    P = pgm.fix_c2_pgm()
    F = sinv.rho_projection(sinv.s_inv_x(P, pgm.self_action(P)),
                            sinv.s_inv_point(P))
    out += [("rho-c2-%d.%d" % (n, k),
             compose_functors(F, simplex_functor(F.source, om)))
            for n in range(2)
            for k, om in enumerate(enumerate_simplices(F.source, n))]
    return out


CODIAGRAMS = _codiagrams()


@pytest.mark.parametrize("W", [W for _, W in CODIAGRAMS],
                         ids=[name for name, _ in CODIAGRAMS])
def test_codiagram_matches_handwritten_builder(W):
    R = oplaco_codiagram(W)
    cat, objs, ones, twos, proj = handwritten_codiagram(W)
    assert R.obj_id == objs
    # the op-dual keys each 1-cell by its endpoints in D^op: swapped, the
    # keys are the hand-written ones
    to_old = {}
    for (o, o2, t, la), m in R.one_id.items():
        assert (R.cat.one_src[m], R.cat.one_tgt[m]) == (o2, o)
        to_old[m] = ones[(o2, o, t, la)]
    assert len(to_old) == len(ones)
    # and the cell correspondence is an isomorphism over D
    iso = TwoFunctor(R.cat, cat, {o: o for o in R.cat.objects}, to_old,
                     {c: twos[(to_old[m], to_old[m2], ga)]
                      for (m, m2, ga), c in R.two_id.items()})
    validate_two_functor(iso)
    assert len(R.two_id) == len(twos)
    assert functors_equal(compose_functors(proj, iso), R.p_left)
    for p in range(3):
        assert len(enumerate_simplices(R.cat, p)) == \
            len(enumerate_simplices(cat, p))


# --- the constructed tables, pinned -----------------------------------------
#
# One SHA-256 per family over io.two_category_to_dict of each category it
# builds, in order: the orientals, the fixtures, each product of two
# fixtures with its pullback, laco and oplaco of (pr1, pr1), laco over
# every point and every strict fiber of pr1; rho-c2's source and target
# with laco over every point of the target; and laco_diagram and
# oplaco_codiagram over every simplex of dimension <= 2 of rho-c2's target
# and source.  The digests were recorded before the table builders were
# routed through core.build_two_category; any change to a table shows.

PIN_FIXTURES = {"t": fix_t, "i": fix_i, "g2": fix_g2,
                "g2sat": fixtures.fix_g2sat, "c2": fix_c2}


def _rho_c2():
    P = pgm.fix_c2_pgm()
    return sinv.rho_projection(sinv.s_inv_x(P, pgm.self_action(P)),
                               sinv.s_inv_point(P))


def _product_family(a, b):
    Pr, pr1, _ = fix_prod(PIN_FIXTURES[a](), PIN_FIXTURES[b]())
    A = pr1.target
    out = [Pr, constructs.pullback(pr1, pr1).cat, laco(pr1, pr1).cat,
           constructs.oplaco(pr1, pr1).cat]
    for x in A.objects:
        out.append(laco(pr1, point_functor(A, x)).cat)
        out.append(constructs.strict_fiber(pr1, x)[0])
    return out


def _rho_family():
    rho = _rho_c2()
    D = rho.target
    return [rho.source, D] + [laco(rho, point_functor(D, y)).cat
                              for y in D.objects]


def _diagram_family():
    rho = _rho_c2()
    C, D = rho.source, rho.target
    out = []
    for si in chain.from_iterable(simplex_operators(D, 2)[0]):
        out.append(laco_diagram(rho, simplex_functor(D, si)).cat)
    for om in chain.from_iterable(simplex_operators(C, 2)[0]):
        out.append(oplaco_codiagram(
            compose_functors(rho, simplex_functor(C, om))).cat)
    return out


PIN_FAMILIES = {
    **{"oriental-%d" % p: (lambda p=p: [materialize_oriental(p)])
       for p in range(5)},
    **{"fixture-" + a: (lambda f=f: [f()]) for a, f in PIN_FIXTURES.items()},
    **{"prod-%s-%s" % (a, b): (lambda a=a, b=b: _product_family(a, b))
       for a in PIN_FIXTURES for b in PIN_FIXTURES},
    "rho-c2": _rho_family,
    "rho-c2-diagrams": _diagram_family,
}


def family_digest(name: str) -> str:
    rows = [tio.two_category_to_dict(C) for C in PIN_FAMILIES[name]()]
    return hashlib.sha256(tio.dumps({"tables": rows}).encode()).hexdigest()


PINNED_DIGESTS = {
    'fixture-c2': 'bbe31102372b7d0ae9bfc93a5481f43025bc6fb020d07b9730fa9f1f4014759a',
    'fixture-g2': 'f0a916bd1a9dd39184540067c7babf3c4ce1c061f254da41995f0144f65f3e59',
    'fixture-g2sat': '5a803729ff4f6b344124fdcf6c5f289cc430430a3dbf019ac4fa5fbdcbb497fb',
    'fixture-i': '34d7dd80f4a67c72e94c0138031040c6fffcf487f66234565a448f747ad8922d',
    'fixture-t': '5f10698a765955432363045a45e53a84cd1bab36c03eed4fd4906b0265aa925b',
    'oriental-0': '66c30d6d8d56af70be64d4e01a119186e3790d8e20bb22adaa4d65e9deab689b',
    'oriental-1': '0800992f6f5271249f601c233b78c4639e96cc96fa7de321e629f4a8f3bca5b4',
    'oriental-2': 'dc9ea7c372fd09c6cc074afc9ce46491cbb818b69121c65a9450076629c97c6f',
    'oriental-3': '89586b9fa59575a266814e6e29cc381b9f1ebb8128f4f3c8ab69aae94cdf5bf7',
    'oriental-4': '8b5156912fa1d9428f8b79b9aa190541560f1d0d7af3ef0f4ec7a88f0f8ab354',
    'prod-c2-c2': '16730d55ba66f5fddedb9c161fc8953ed64a3d93e9121aaa74eb80d5944fb8e5',
    'prod-c2-g2': '89dccc7f12d2402e8842690bcc289a3f28bf0ac60a71c4e68d516885ca10fa0a',
    'prod-c2-g2sat': 'b44e5e3c73d636593a6027d882f37c1b665843211949409dee327c03ad009706',
    'prod-c2-i': '252a6a8b7018ff57272a1310a1b75caf9f4802c1c4f05ba5bf6278d7eadac023',
    'prod-c2-t': '302bbb15665e77e6e1668ed68025046548d7d8ddecdcb0514944ade0fe12f436',
    'prod-g2-c2': '60fbd26885de40d0f9c12b7510b9efc3f0f3404a4d5e97fb3d01d445521eaf09',
    'prod-g2-g2': '5c36371b1a939e0a3a98a13afd3d1ad01c3d6d765dd74eb5396c25f4092a40e8',
    'prod-g2-g2sat': '2a72d41a37ca8d935b5398463074ac8fd6e78632664b6db9a1a4be15468408cb',
    'prod-g2-i': '223fd1df05323a56e0394c9f29a51bb83284c53391ffd010e5ea70292b2582ed',
    'prod-g2-t': '8c49a7f8f0185f68f36e4f0fafc2247efab5597676fbebd7adc24643008ebb67',
    'prod-g2sat-c2': 'ca0e9cfedb5bba7323cbcc32f3941cc8adcf75ade8e031e67aedca8f49b1733c',
    'prod-g2sat-g2': 'c6a4c21bfae3d9b028d6d75565af6625f75d83da6ada1cd24ef374b1db1db076',
    'prod-g2sat-g2sat': 'ac2d705115e8c0d473201280d3a3ec410a6ae3c55c4ab612f873eeedcf8735e2',
    'prod-g2sat-i': '9154c8452632123abc8f4c95056eeebf56c82007740d6ec84c36eb88084e6c3a',
    'prod-g2sat-t': '2adf71dd5b8eb07b13a992f19bff881fbc0b4dd50ae1ea240ab17e16fdb21918',
    'prod-i-c2': 'a8b08ab6f70643b70858a1d455a08f796de064afb2bd7aac4db5a3c68cc72a26',
    'prod-i-g2': 'fa0f3b7a61b7ea4a86288d021d9bf4ecb3ed46b2c50b96be3824260aaa4b7ff0',
    'prod-i-g2sat': '4971c5b687620c9e6810bee2789b94ede87f101a15d2fed699b6350494480710',
    'prod-i-i': '5ac0e804b3ceaa4781ec5a83e1a3d04310ede0533bd24b2ad97a3ee97f7ec21d',
    'prod-i-t': '7297b7fe4c64d8995de3bb8bfb3ce22e66750b1a8f23f90825e6f5f02bb92be3',
    'prod-t-c2': 'e77043d304d10af3c23587e7d83e7d2067ce4ef7cf18052045e8c57474c58e71',
    'prod-t-g2': 'cd8a8d7cb6807426ce5e750fa05094e38f655eaf88902252fa29c31a14c17364',
    'prod-t-g2sat': '2888250be658e23351c370b9badf04574ccf5466b8114093b0cbcd2e3193a238',
    'prod-t-i': 'b61050064763636072f8df1741a5a63859f57cd2ec1376132d45a7d4375adbc8',
    'prod-t-t': '6593f9a2a35626176d4e29aff35963d879ed0ac6327e35f9881b5808f247dc96',
    'rho-c2': '8a587f0542a28c4d6cf71b018c9694fd1555ee5470355c83f22a53f01423f13d',
    'rho-c2-diagrams': '29183267762a16638e2fafbb7fcc1c1203ed570fdf5ee5045fe50efd32154afb',
}


@pytest.mark.parametrize("name", sorted(PIN_FAMILIES))
def test_constructed_tables_are_pinned(name):
    assert family_digest(name) == PINNED_DIGESTS[name]
