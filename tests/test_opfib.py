import pytest

from twocat import homology as hm
from twocat import opfib as of
from twocat.core import (AxiomError, NormalPseudofunctor, TwoFunctor, ensure,
                         identity_functor, make_two_category,
                         validate_two_category)
from twocat.fixtures import (bang_functor, fix_c2, fix_g2, fix_g2sat, fix_i,
                             fix_prod, fix_t, point_functor)
from twocat.nerve import nerve


# --- the comparison's coherence checks, run by the tests below -------------

def validate_pseudofunctor(H: NormalPseudofunctor) -> NormalPseudofunctor:
    C, D = H.source, H.target
    for f in sorted(C.one_src):
        ensure(D.one_src[H.on_one[f]] == H.on_objects[C.one_src[f]]
               and D.one_tgt[H.on_one[f]] == H.on_objects[C.one_tgt[f]],
               "pseudofunctor 1-cell typing", (f,))
    for a in sorted(C.two_src):
        ensure(D.two_src[H.on_two[a]] == H.on_one[C.two_src[a]]
               and D.two_tgt[H.on_two[a]] == H.on_one[C.two_tgt[a]],
               "pseudofunctor 2-cell typing", (a,))
    # strictly preserved hom-structure
    for x in C.objects:
        ensure(H.on_one[C.id1[x]] == D.id1[H.on_objects[x]],
               "pseudofunctor normality (F0 = id)", (x,))
    for f in sorted(C.one_src):
        ensure(H.on_two[C.id2[f]] == D.id2[H.on_one[f]],
               "pseudofunctor preserves identity 2-cells", (f,))
    for (b, a), ba in sorted(C.vcomp.items()):
        ensure(D.vcomp[(H.on_two[b], H.on_two[a])] == H.on_two[ba],
               "pseudofunctor preserves vcomp", (b, a))
    # constraints: typing, invertibility
    for g in sorted(C.one_src):
        for f in sorted(C.one_src):
            if C.one_tgt[f] != C.one_src[g]:
                continue
            ensure((g, f) in H.constraint, "pseudofunctor constraint missing", (g, f))
            c = H.constraint[(g, f)]
            ensure(D.two_src[c] == D.comp1[(H.on_one[g], H.on_one[f])]
                   and D.two_tgt[c] == H.on_one[C.comp1[(g, f)]],
                   "pseudofunctor constraint typing", (g, f, c))
            ensure(D.is_invertible2(c), "pseudofunctor constraint not invertible",
                   (g, f, c))
    # unit axioms: F2(1,f) and F2(g,1) are identities (normality)
    for f in sorted(C.one_src):
        y = C.one_tgt[f]
        x = C.one_src[f]
        ensure(D.is_id2(H.constraint[(C.id1[y], f)]),
               "pseudofunctor left unit axiom", (f,))
        ensure(D.is_id2(H.constraint[(f, C.id1[x])]),
               "pseudofunctor right unit axiom", (f,))
    # naturality of F2 in both arguments
    for (b, _bs) in sorted(C.two_src.items()):
        b_src, b_tgt = C.two_src[b], C.two_tgt[b]
        for f in sorted(C.one_src):
            # right argument fixed 1-cell f, left argument varies along b
            if C.one_tgt[f] == C.one_src[b_src]:
                lhs = D.vcomp[(H.on_two[C.whisk_r[(b, f)]],
                               H.constraint[(b_src, f)])]
                rhs = D.vcomp[(H.constraint[(b_tgt, f)],
                               D.whisk_r[(H.on_two[b], H.on_one[f])])]
                ensure(lhs == rhs, "pseudofunctor constraint naturality (left)",
                       (b, f))
            if C.one_src[f] == C.one_tgt[b_src]:
                lhs = D.vcomp[(H.on_two[C.whisk_l[(f, b)]],
                               H.constraint[(f, b_src)])]
                rhs = D.vcomp[(H.constraint[(f, b_tgt)],
                               D.whisk_l[(H.on_one[f], H.on_two[b])])]
                ensure(lhs == rhs, "pseudofunctor constraint naturality (right)",
                       (b, f))
    # associativity axiom for composable triples
    for h in sorted(C.one_src):
        for g in sorted(C.one_src):
            if C.one_tgt[g] != C.one_src[h]:
                continue
            hg = C.comp1[(h, g)]
            for f in sorted(C.one_src):
                if C.one_tgt[f] != C.one_src[g]:
                    continue
                gf = C.comp1[(g, f)]
                # (Fh.Fg).Ff => F(hg).Ff => F(hg.f)
                via_left = D.vcomp[(H.constraint[(hg, f)],
                                    D.whisk_r[(H.constraint[(h, g)], H.on_one[f])])]
                # Fh.(Fg.Ff) => Fh.F(gf) => F(h.gf)
                via_right = D.vcomp[(H.constraint[(h, gf)],
                                     D.whisk_l[(H.on_one[h], H.constraint[(g, f)])])]
                ensure(via_left == via_right, "pseudofunctor associativity", (h, g, f))
    return H


def postcompose_pseudofunctor(i: TwoFunctor,
                              H: NormalPseudofunctor) -> NormalPseudofunctor:
    return NormalPseudofunctor(
        H.source, i.target,
        {o: i.on_objects[v] for o, v in H.on_objects.items()},
        {m: i.on_one[v] for m, v in H.on_one.items()},
        {c: i.on_two[v] for c, v in H.on_two.items()},
        {k: i.on_two[v] for k, v in H.constraint.items()})


def validate_pseudonatural_unit(G: NormalPseudofunctor, at_obj: dict,
                                at_one: dict) -> None:
    """Axioms for a pseudonatural transformation 1 => G where the source is
    the strict identity on G.source; raises AxiomError on failure."""
    C = G.source
    if G.target is not C:
        raise ValueError("source and target of the endo-pseudofunctor differ")
    for o in C.objects:
        comp = at_obj[o]
        if C.one_src[comp] != o or C.one_tgt[comp] != G.on_objects[o]:
            raise AxiomError("component typing at %r" % o)
    for m, cell in at_one.items():
        o, o2 = C.one_src[m], C.one_tgt[m]
        src = C.comp1[(G.on_one[m], at_obj[o])]
        tgt = C.comp1[(at_obj[o2], m)]
        if C.two_src[cell] != src or C.two_tgt[cell] != tgt:
            raise AxiomError("constraint typing at %r" % m)
        if not C.is_invertible2(cell):
            raise AxiomError("constraint not invertible at %r" % m)
    for o in C.objects:
        if at_one[C.id1[o]] != C.id2[at_obj[o]]:
            raise AxiomError("unit axiom at %r" % o)
    for m2 in C.one_src:
        for m1 in C.one_src:
            if C.one_tgt[m1] != C.one_src[m2]:
                continue
            m21 = C.comp1[(m2, m1)]
            o = C.one_src[m1]
            lhs = C.vcomp[(at_one[m21],
                           C.whisk_r[(G.constraint[(m2, m1)], at_obj[o])])]
            rhs = C.vcomp[(C.whisk_r[(at_one[m2], m1)],
                           C.whisk_l[(G.on_one[m2], at_one[m1])])]
            if lhs != rhs:
                raise AxiomError("composition axiom at (%r, %r)" % (m2, m1))
    for c in C.two_src:
        m, m2 = C.two_src[c], C.two_tgt[c]
        o, o2 = C.one_src[m], C.one_tgt[m]
        lhs = C.vcomp[(at_one[m2], C.whisk_r[(G.on_two[c], at_obj[o])])]
        rhs = C.vcomp[(C.whisk_l[(at_obj[o2], c)], at_one[m])]
        if lhs != rhs:
            raise AxiomError("2-cell naturality at %r" % c)


# --- cartesian 2-cells ----------------------------------------------------------

def test_identity_functor_everything_cartesian():
    D = fix_g2()
    P = identity_functor(D)
    for a in D.two_src:
        cert = of.is_cartesian_2cell(P, a)
        assert isinstance(cert, of.CartesianCertificate)
        # over the identity functor the unique lift is the given 2-cell
        for (psi, phi), c in cert.lifts.items():
            assert c == phi


def test_g2_over_terminal_cartesian():
    P = bang_functor(fix_g2())
    for a in ("e0", "e1"):
        assert isinstance(of.is_cartesian_2cell(P, a),
                          of.CartesianCertificate)


def test_g2sat_idempotent_not_cartesian():
    P = bang_functor(fix_g2sat())
    cex = of.is_cartesian_2cell(P, "e1")
    assert isinstance(cex, of.Counterexample)
    assert cex.clause == "cartesian-2cell"
    assert cex.detail[0] == "e1"
    # the identity 2-cell still is cartesian
    assert isinstance(of.is_cartesian_2cell(P, "e0"),
                      of.CartesianCertificate)


# --- opcartesian 1-cells ---------------------------------------------------------

def test_product_projection_opcartesian():
    prod, pr1, pr2 = fix_prod(fix_g2(), fix_i())
    h = repr(("i", "a01"))
    cert = of.is_opcartesian_1cell(pr2, h)
    assert isinstance(cert, of.OpcartesianCertificate)
    assert cert.lifts  # nonempty lift table


def test_interval_over_terminal_has_no_opcartesian_lift():
    # id_0 does not factor through a01 up to an invertible 2-cell
    cex = of.is_opcartesian_1cell(bang_functor(fix_i()), "a01")
    assert isinstance(cex, of.Counterexample)
    assert cex.clause == "opcartesian-lift-existence"
    assert cex.detail == ("a01", "id_0", "id_pt", "ii_pt")


def retract_with_a_whiskered_away_2cell():
    """h: a -> d with a retraction r (r.h = id_a), so e = h.r is an
    idempotent on d, and a Z/2 of 2-cells z on id_d that whiskering by h,
    r or e sends to an identity."""
    ones = {"id_a": ("a", "a"), "id_d": ("d", "d"), "h": ("a", "d"),
            "r": ("d", "a"), "e": ("d", "d")}
    comp = {("id_a", "id_a"): "id_a", ("id_d", "id_d"): "id_d",
            ("h", "id_a"): "h", ("id_d", "h"): "h", ("r", "id_d"): "r",
            ("id_a", "r"): "r", ("e", "id_d"): "e", ("id_d", "e"): "e",
            ("r", "h"): "id_a", ("h", "r"): "e", ("e", "e"): "e",
            ("e", "h"): "h", ("r", "e"): "r"}
    twos = {"ii_" + f: (f, f) for f in ones}
    twos["z"] = ("id_d", "id_d")
    vcomp = {("ii_" + f, "ii_" + f): "ii_" + f for f in ones}
    vcomp.update({("z", "ii_id_d"): "z", ("ii_id_d", "z"): "z",
                  ("z", "z"): "ii_id_d"})
    whisk_l, whisk_r = {}, {}
    for a, (f, _) in twos.items():
        x, y = ones[f]
        for k, (ks, kt) in ones.items():
            if ks == y:
                whisk_l[(k, a)] = a if k == "id_d" else "ii_" + comp[(k, f)]
            if kt == x:
                whisk_r[(a, k)] = a if k == "id_d" else "ii_" + comp[(f, k)]
    return validate_two_category(make_two_category(
        ["a", "d"], ones, twos, {"a": "id_a", "d": "id_d"},
        {f: "ii_" + f for f in ones}, comp, vcomp, whisk_l, whisk_r))


def test_comparison_2cell_between_lifts_must_be_unique():
    # h lifts every 1-cell out of a, but both 2-cells on id_d compare the
    # lift of h with itself, since whiskering by h forgets z; the bang
    # functor is still an opfibration, through the identity lifts
    P = bang_functor(retract_with_a_whiskered_away_2cell())
    cex = of.is_opcartesian_1cell(P, "h")
    assert isinstance(cex, of.Counterexample)
    assert cex.clause == "opcartesian-beta-uniqueness"
    assert cex.detail[-1] == ("ii_id_d", "z")
    assert isinstance(of.check_opfibration(P), of.OpfibrationCertificate)


def test_opcartesian_lifts_prefer_identities():
    D = fix_g2()
    P = identity_functor(D)
    cert = of.is_opcartesian_1cell(P, D.id1["*"])
    for (u, t, al), (tt, a1, a2) in cert.lifts.items():
        if D.is_id2(al) and u == t:
            assert tt == u and D.is_id2(a1) and D.is_id2(a2)


# --- the opfibration check -------------------------------------------------------

def test_identity_is_opfibration():
    D = fix_g2()
    cert = of.check_opfibration(identity_functor(D))
    assert isinstance(cert, of.OpfibrationCertificate)
    assert all(cert.cartesian.values())
    assert cert.opcart_lift[("*", "i")] == "i"


def test_product_projections_are_opfibrations():
    for B in (fix_i(), fix_c2()):
        prod, pr1, pr2 = fix_prod(fix_g2(), B)
        cert = of.check_opfibration(pr2)
        assert isinstance(cert, of.OpfibrationCertificate)
        # identity 1-cells lift to identity 1-cells
        for (x, f), m in cert.opcart_lift.items():
            if B.is_id1(f):
                assert prod.is_id1(m)


def test_discrete_over_interval_fails_lift():
    C, I = fix_c2(), fix_i()
    P = TwoFunctor(C, I, {"0": "0", "1": "1"},
                   {"id_0": "id_0", "id_1": "id_1"},
                   {"ii_0": "ii_id_0", "ii_1": "ii_id_1"})
    cex = of.check_opfibration(P)
    assert isinstance(cex, of.Counterexample)
    assert cex.clause == "opcartesian-lift-missing"
    assert cex.detail == ("0", "a01")


def test_g2sat_over_terminal_certifies():
    # e1 is not cartesian, but identities suffice for every lift
    cert = of.check_opfibration(bang_functor(fix_g2sat()))
    assert isinstance(cert, of.OpfibrationCertificate)
    assert cert.cartesian == {"e0": True, "e1": False}


def test_certificate_is_serializable():
    import json
    cert = of.check_opfibration(identity_functor(fix_g2()))
    json.dumps({"opcart_lift": {repr(k): v for k, v in
                                cert.opcart_lift.items()},
                "cart_lift": {repr(k): v for k, v in cert.cart_lift.items()},
                "cartesian": cert.cartesian})


# --- the comparison pseudofunctor ------------------------------------------------

def _check_comparison(P, F):
    cert = of.check_opfibration(P)
    assert isinstance(cert, of.OpfibrationCertificate)
    res = of.comparison_H(P, F, cert)
    validate_two_category(res.L.cat)
    validate_pseudofunctor(res.H)
    # H restricted along the inclusion of the strict pullback is the identity
    PBC = res.PB.cat
    i = res.inclusion
    for o in PBC.objects:
        assert res.H.on_objects[i.on_objects[o]] == o
    for m in PBC.one_src:
        assert res.H.on_one[i.on_one[m]] == m
    for c in PBC.two_src:
        assert res.H.on_two[i.on_two[c]] == c
    for m2 in PBC.one_src:
        for m1 in PBC.one_src:
            if PBC.one_src[m2] == PBC.one_tgt[m1]:
                k = (i.on_one[m2], i.on_one[m1])
                assert PBC.is_id2(res.H.constraint[k])
    # the unit is pseudonatural into the composite endo-pseudofunctor
    G = postcompose_pseudofunctor(i, res.H)
    validate_pseudonatural_unit(G, res.eta_obj, res.eta_one)
    return res


def test_comparison_identity_cospan():
    D = fix_g2()
    _check_comparison(identity_functor(D), identity_functor(D))


def test_comparison_product_projection():
    prod, pr1, pr2 = fix_prod(fix_g2(), fix_i())
    res = _check_comparison(pr2, identity_functor(fix_i()))
    # the comma construction genuinely exceeds the strict pullback here
    assert len(res.L.cat.objects) > len(res.PB.cat.objects)


def test_comparison_point_fiber():
    prod, pr1, pr2 = fix_prod(fix_g2(), fix_i())
    _check_comparison(pr2, point_functor(fix_i(), "1"))


def test_comparison_rejects_noninvertible_target():
    D = fix_g2sat()
    P = identity_functor(D)
    cert = of.check_opfibration(P)
    assert isinstance(cert, of.OpfibrationCertificate)
    with pytest.raises(Exception):
        of.comparison_H(P, identity_functor(D), cert)


def test_comma_and_pullback_same_homology():
    # the comparison makes the comma object and the strict pullback
    # homologically indistinguishable in low degrees
    prod, pr1, pr2 = fix_prod(fix_g2(), fix_i())
    cert = of.check_opfibration(pr2)
    res = of.comparison_H(pr2, identity_functor(fix_i()), cert)
    Xl = nerve(res.L.cat, 3)
    Xp = nerve(res.PB.cat, 3)
    for n in range(3):
        assert hm.homology(Xl, n) == hm.homology(Xp, n)
