import pytest

from twocat import homology as hm
from twocat import opfib as of
from twocat.core import (AxiomError, TwoFunctor, identity_functor,
                         make_two_category, validate_two_category)
from twocat.fixtures import (bang_functor, fix_c2, fix_g2, fix_g2sat, fix_i,
                             fix_prod, fix_t, point_functor)
from twocat.nerve import nerve

import comparison
from comparison import check_comparison, comparison_H


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

def test_comparison_identity_cospan():
    D = fix_g2()
    check_comparison(identity_functor(D), identity_functor(D))


def test_comparison_product_projection():
    prod, pr1, pr2 = fix_prod(fix_g2(), fix_i())
    res = check_comparison(pr2, identity_functor(fix_i()))
    # the comma construction genuinely exceeds the strict pullback here
    assert len(res.L.cat.objects) > len(res.PB.cat.objects)
    # and H reads opcartesian lifts off the certificate
    assert res.lifts


def test_comparison_checks_each_lift_off_the_certificate(monkeypatch):
    # the checker recomputes each lift H reads, so a lift table that
    # disagrees with the search is caught
    prod, pr1, pr2 = fix_prod(fix_g2(), fix_i())
    monkeypatch.setattr(comparison, "_opcart_lift", lambda *key: None)
    with pytest.raises(AxiomError, match="certificate lift differs"):
        check_comparison(pr2, identity_functor(fix_i()))


def test_comparison_point_fiber():
    prod, pr1, pr2 = fix_prod(fix_g2(), fix_i())
    check_comparison(pr2, point_functor(fix_i(), "1"))


def test_comparison_rejects_noninvertible_target():
    D = fix_g2sat()
    P = identity_functor(D)
    cert = of.check_opfibration(P)
    assert isinstance(cert, of.OpfibrationCertificate)
    with pytest.raises(AxiomError,
                       match=r"target 2-cell .* is not invertible"):
        comparison_H(P, identity_functor(D), cert)


def test_comma_and_pullback_same_homology():
    # the comparison makes the comma object and the strict pullback
    # homologically indistinguishable in low degrees
    prod, pr1, pr2 = fix_prod(fix_g2(), fix_i())
    cert = of.check_opfibration(pr2)
    res = comparison_H(pr2, identity_functor(fix_i()), cert)
    Xl = nerve(res.L.cat, 3)
    Xp = nerve(res.PB.cat, 3)
    for n in range(3):
        assert hm.homology(Xl, n) == hm.homology(Xp, n)
