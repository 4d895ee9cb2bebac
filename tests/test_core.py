from dataclasses import fields, replace
from itertools import permutations

import pytest

from twocat import core, fixtures, io, pgm, sinv
from twocat.constructs import laco
from twocat.core import (LAX, PSEUDONATURAL, TWO_NATURAL, AxiomError,
                         Transformation, TwoCategory, TwoFunctor, co_dual,
                         coop_dual, compose_functors, ensure, identity_functor,
                         op_dual, validate_two_category, validate_two_functor)
from twocat.fixtures import (bang_functor, discrete_two_category, fix_c2,
                             fix_g2, fix_g2sat, fix_i, fix_prod, fix_t)


# --- isomorphism search (small categories only), which only tests use ------

def find_isomorphism(C: TwoCategory, D: TwoCategory) -> TwoFunctor | None:
    """Search for a strict 2-category isomorphism C -> D by backtracking on
    the object map, then extending greedily on hom data.  Exponential; use
    only on fixture-scale inputs."""
    if len(C.objects) != len(D.objects):
        return None
    if len(C.one_src) != len(D.one_src) or len(C.two_src) != len(D.two_src):
        return None
    for perm in permutations(D.objects):
        on_obj = dict(zip(C.objects, perm))
        F = _extend_iso(C, D, on_obj)
        if F is not None:
            return F
    return None


def _extend_iso(C: TwoCategory, D: TwoCategory, on_obj) -> TwoFunctor | None:
    # match 1-cells hom by hom, then 2-cells, by backtracking
    ones_c = sorted(C.one_src)
    for x in C.objects:
        for y in C.objects:
            hc = C.hom1(x, y)
            hd = D.hom1(on_obj[x], on_obj[y])
            if len(hc) != len(hd):
                return None
    def backtrack_ones(i, cur):
        if i == len(ones_c):
            yield dict(cur)
            return
        f = ones_c[i]
        x, y = C.one_src[f], C.one_tgt[f]
        for g in D.hom1(on_obj[x], on_obj[y]):
            if g in cur.values():
                continue
            if C.is_id1(f) != D.is_id1(g):
                continue
            cur[f] = g
            ok = True
            # partial comp1 consistency
            for (a, b), r in C.comp1.items():
                if a in cur and b in cur and r in cur:
                    if D.comp1[(cur[a], cur[b])] != cur[r]:
                        ok = False
                        break
            if ok:
                yield from backtrack_ones(i + 1, cur)
            del cur[f]
    for on_one in backtrack_ones(0, {}):
        F = _extend_iso_twos(C, D, on_obj, on_one)
        if F is not None:
            return F
    return None


def _extend_iso_twos(C, D, on_obj, on_one) -> TwoFunctor | None:
    twos_c = sorted(C.two_src)
    def backtrack(i, cur):
        if i == len(twos_c):
            return dict(cur)
        a = twos_c[i]
        f, g = C.two_src[a], C.two_tgt[a]
        for b in D.hom2(on_one[f], on_one[g]):
            if b in cur.values():
                continue
            if C.is_id2(a) != D.is_id2(b):
                continue
            cur[a] = b
            ok = True
            for (p, q), r in C.vcomp.items():
                if p in cur and q in cur and r in cur:
                    if D.vcomp[(cur[p], cur[q])] != cur[r]:
                        ok = False
                        break
            if ok:
                for (k, p), r in C.whisk_l.items():
                    if p in cur and r in cur:
                        if D.whisk_l[(on_one[k], cur[p])] != cur[r]:
                            ok = False
                            break
            if ok:
                for (p, k), r in C.whisk_r.items():
                    if p in cur and r in cur:
                        if D.whisk_r[(cur[p], on_one[k])] != cur[r]:
                            ok = False
                            break
            if ok:
                res = backtrack(i + 1, cur)
                if res is not None:
                    return res
            del cur[a]
        return None
    on_two = backtrack(0, {})
    if on_two is None:
        return None
    F = TwoFunctor(C, D, dict(on_obj), dict(on_one), on_two)
    try:
        validate_two_functor(F)
    except AxiomError:
        return None
    return F


# --- the axioms of a transformation, which only tests check ------------------

def validate_transformation(t: Transformation) -> Transformation:
    F, G = t.source, t.target
    if F.source != G.source or F.target != G.target:
        raise ValueError("a transformation needs parallel 2-functors")
    C, D = F.source, F.target
    lax = t.direction == LAX
    for x in C.objects:
        ensure(x in t.at_object, "transformation missing object component", (x,))
        ax = t.at_object[x]
        ensure(D.one_src[ax] == F.on_objects[x] and D.one_tgt[ax] == G.on_objects[x],
               "transformation component badly typed", (x, ax))

    def expected(f: str) -> tuple[str, str]:
        x, y = C.one_src[f], C.one_tgt[f]
        pre = D.comp1[(G.on_one[f], t.at_object[x])]   # Gf . a_x
        post = D.comp1[(t.at_object[y], F.on_one[f])]  # a_y . Ff
        return (pre, post) if lax else (post, pre)

    for f in sorted(C.one_src):
        ensure(f in t.at_one, "transformation missing 1-cell component", (f,))
        af = t.at_one[f]
        s, g = expected(f)
        ensure(D.two_src[af] == s and D.two_tgt[af] == g,
               "transformation 1-cell component badly typed", (f, af))
    # unit axiom: a_{1_x} is the identity 2-cell
    for x in C.objects:
        f = C.id1[x]
        ensure(t.at_one[f] == D.id2[D.two_src[t.at_one[f]]],
               "transformation unit axiom", (x,))
    # composition axiom: a_{g.f} is the pasting of a_f and a_g
    for g in sorted(C.one_src):
        for f in sorted(C.one_src):
            if C.one_tgt[f] != C.one_src[g]:
                continue
            gf = C.comp1[(g, f)]
            x = C.one_src[f]
            z = C.one_tgt[g]
            if lax:
                # Ggf.a_x = Gg.(Gf.a_x) =(Gg*a_f)=> Gg.a_y.Ff =(a_g*Ff)=> a_z.Fg.Ff
                step1 = D.whisk_l[(G.on_one[g], t.at_one[f])]
                step2 = D.whisk_r[(t.at_one[g], F.on_one[f])]
                want = D.vcomp[(step2, step1)]
            else:
                # a_z.Fg.Ff =(a_g*Ff)=> Gg.a_y.Ff =(Gg*a_f)=> Gg.Gf.a_x
                step1 = D.whisk_r[(t.at_one[g], F.on_one[f])]
                step2 = D.whisk_l[(G.on_one[g], t.at_one[f])]
                want = D.vcomp[(step2, step1)]
            ensure(t.at_one[gf] == want, "transformation composition axiom", (g, f))
    # naturality in 2-cells d: f => g
    for d in sorted(C.two_src):
        f, g = C.two_src[d], C.two_tgt[d]
        x, y = C.one_src[f], C.one_tgt[f]
        if lax:
            # (a_y * Fd) . a_f  ==  a_g . (Gd * a_x)
            lhs = D.vcomp[(D.whisk_l[(t.at_object[y], F.on_two[d])], t.at_one[f])]
            rhs = D.vcomp[(t.at_one[g], D.whisk_r[(G.on_two[d], t.at_object[x])])]
        else:
            # (Gd * a_x) . a_f  ==  a_g . (a_y * Fd)
            lhs = D.vcomp[(D.whisk_r[(G.on_two[d], t.at_object[x])], t.at_one[f])]
            rhs = D.vcomp[(t.at_one[g], D.whisk_l[(t.at_object[y], F.on_two[d])])]
        ensure(lhs == rhs, "transformation naturality in 2-cells", (d,))
    if t.flavor == PSEUDONATURAL:
        for f in sorted(C.one_src):
            ensure(D.is_invertible2(t.at_one[f]),
                   "pseudonatural component not invertible", (f,))
    if t.flavor == TWO_NATURAL:
        for f in sorted(C.one_src):
            ensure(D.is_id2(t.at_one[f]), "2-natural component not identity", (f,))
    return t


ALL_FIXTURES = [fix_t, fix_i, fix_g2, fix_g2sat, fix_c2]


@pytest.mark.parametrize("mk", ALL_FIXTURES)
def test_fixtures_validate(mk):
    validate_two_category(mk())


def test_empty_two_category_valid():
    validate_two_category(discrete_two_category([]))


def test_product_validates():
    P, pr1, pr2 = fix_prod(fix_g2(), fix_c2())
    validate_two_category(P)
    validate_two_functor(pr1)
    validate_two_functor(pr2)
    assert len(P.objects) == 2
    assert len(P.one_src) == 2
    assert len(P.two_src) == 4


def test_partial_table_rejected():
    C = fix_i()
    bad = core.TwoCategory(
        objects=C.objects, one_src=dict(C.one_src), one_tgt=dict(C.one_tgt),
        two_src=dict(C.two_src), two_tgt=dict(C.two_tgt),
        id1=dict(C.id1), id2=dict(C.id2),
        comp1={k: v for k, v in C.comp1.items() if k != ("a01", "id_0")},
        vcomp=dict(C.vcomp), whisk_l=dict(C.whisk_l), whisk_r=dict(C.whisk_r))
    with pytest.raises(AxiomError, match="comp1"):
        validate_two_category(bad)


def test_broken_interchange_detected():
    # corrupt FIX_G2's vcomp into a non-associative table
    C = fix_g2()
    vcomp = dict(C.vcomp)
    vcomp[("e1", "e1")] = "e1"
    vcomp[("e0", "e1")] = "e0"
    bad = core.TwoCategory(
        objects=C.objects, one_src=dict(C.one_src), one_tgt=dict(C.one_tgt),
        two_src=dict(C.two_src), two_tgt=dict(C.two_tgt),
        id1=dict(C.id1), id2=dict(C.id2), comp1=dict(C.comp1),
        vcomp=vcomp, whisk_l=dict(C.whisk_l), whisk_r=dict(C.whisk_r))
    with pytest.raises(AxiomError):
        validate_two_category(bad)


@pytest.mark.parametrize("mk", ALL_FIXTURES)
def test_identity_functor_validates(mk):
    C = mk()
    validate_two_functor(identity_functor(C))
    validate_two_functor(bang_functor(C))


def test_functor_composition_validates():
    P, pr1, pr2 = fix_prod(fix_g2(), fix_c2())
    F = compose_functors(bang_functor(fix_c2()), pr2)
    validate_two_functor(F)
    with pytest.raises(ValueError, match="cannot compose"):
        compose_functors(bang_functor(fix_g2()), pr2)


@pytest.mark.parametrize("mk", ALL_FIXTURES)
def test_duals_are_involutions(mk):
    C = mk()
    assert op_dual(op_dual(C)) == C
    assert co_dual(co_dual(C)) == C
    assert coop_dual(coop_dual(C)) == C
    validate_two_category(op_dual(C))
    validate_two_category(co_dual(C))
    validate_two_category(coop_dual(C))


def test_op_dual_reverses_arrows():
    C = op_dual(fix_i())
    assert C.hom1("1", "0") == ["a01"]
    assert C.hom1("0", "1") == []


def test_co_dual_g2_isomorphic_to_g2():
    # negation of 2-cells is an isomorphism FIX_G2^co = FIX_G2
    F = find_isomorphism(co_dual(fix_g2()), fix_g2())
    assert F is not None


def test_hcomp_and_inverses_g2():
    C = fix_g2()
    assert C.hcomp("e1", "e1") == "e0"
    assert C.vcomp_inverse("e1") == "e1"
    S = fix_g2sat()
    assert S.vcomp_inverse("e1") is None


def test_transformation_validation_catches_unit_violation():
    # a self-transformation of Id on FIX_G2 whose component at the identity
    # 1-cell is the nonidentity 2-cell must be rejected
    C = fix_g2()
    F = identity_functor(C)
    t = Transformation(F, F, {"*": "i"}, {"i": "e1"})
    with pytest.raises(AxiomError, match="unit"):
        validate_transformation(t)
    ok = Transformation(F, F, {"*": "i"}, {"i": "e0"})
    validate_transformation(ok)
    G = identity_functor(fix_g2sat())
    with pytest.raises(ValueError, match="parallel"):
        validate_transformation(Transformation(F, G, {"*": "i"},
                                               {"i": "e0"}))


def test_json_roundtrip():
    for mk in ALL_FIXTURES:
        C = mk()
        d = io.two_category_to_dict(C)
        C2 = io.two_category_from_dict(d)
        assert C2 == C
        assert io.two_category_to_dict(C2) == d
    F = identity_functor(fix_g2())
    assert io.two_functor_from_dict(io.two_functor_to_dict(F)) == F


def test_json_deterministic():
    C = fix_g2()
    s1 = io.dumps(io.two_category_to_dict(C))
    s2 = io.dumps(io.two_category_to_dict(io.two_category_from_dict(
        io.two_category_to_dict(C))))
    assert s1 == s2


# --- hom-set index ----------------------------------------------------------------

def _index_test_categories():
    cats = {n: getattr(fixtures, n)() for n in dir(fixtures)
            if n.startswith("fix_") and n != "fix_prod"}
    cats["G2xC2"] = fix_prod(fix_g2(), fix_c2())[0]
    I = fixtures.fix_i()
    cats["laco_I_1"] = laco(identity_functor(I),
                              fixtures.point_functor(I, "1")).cat
    P = pgm.fix_c2_pgm()
    cats["sinv_C2"] = sinv.s_inv_x(P, pgm.self_action(P)).cat
    return cats


INDEX_CATS = _index_test_categories()


@pytest.mark.parametrize("C", list(INDEX_CATS.values()), ids=list(INDEX_CATS))
def test_hom_index_matches_linear_scan(C):
    objs = list(C.objects) + ["not-an-object"]
    ones = list(C.one_src) + ["not-a-1-cell"]
    for x in objs:
        for y in objs:
            assert C.hom1(x, y) == sorted(
                f for f in C.one_src
                if C.one_src[f] == x and C.one_tgt[f] == y)
    for f in ones:
        for g in ones:
            assert C.hom2(f, g) == sorted(
                a for a in C.two_src
                if C.two_src[a] == f and C.two_tgt[a] == g)


def test_hom_index_returns_fresh_lists():
    C = fix_g2sat()
    for _ in range(2):
        got = (C.hom1("*", "*"), C.hom2("i", "i"))
        assert got == (["i"], ["e0", "e1"])
        for cells in got:
            cells.append("junk")
            cells.reverse()


def test_hom_index_is_not_part_of_equality():
    C = fix_c2()
    assert C == fix_c2() and replace(C) == C
    assert "_homs" not in {f.name for f in fields(C)}
    with pytest.raises(TypeError):               # dict fields: unhashable
        hash(C)
