import pytest

from twocat import homology as hm
from twocat import intlinalg as il
from twocat import opfib as of
from twocat import pgm, sinv
from twocat import specseq as ss
from twocat.constructs import base_change, laco, oplaco_codiagram, strict_fiber
from twocat.core import (AxiomError, TwoFunctor, compose_functors,
                         identity_functor)
from twocat.fixtures import (fix_c2, fix_g2, fix_i, fix_prod, fix_t,
                             point_functor)
from twocat.nerve import enumerate_simplices, induced_map, nerve


def pr2_c2():
    prod, pr1, pr2 = fix_prod(fix_g2(), fix_c2())
    return prod, pr2


def pr2_i():
    prod, pr1, pr2 = fix_prod(fix_g2(), fix_i())
    return prod, pr2


# --- simplex classifiers -----------------------------------------------------

def test_simplex_functor_validates():
    D = fix_g2()
    for n in (2, 3):
        for x in enumerate_simplices(D, n):
            ss.simplex_functor(D, x)  # validated on construction


def test_codiagram_counts_match_nerve():
    # cocones under a point diagram in G2 at each level p are the
    # (p+1)-simplices of the nerve of G2
    D = fix_g2()
    W = ss.simplex_functor(D, enumerate_simplices(D, 0)[0])
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


def test_build_B_rejects_a_non_functor():
    # swapping the two 2-cells of G2 moves the identity e0, so a vertically
    # degenerate bisimplex leaves the enumerated levels
    G = fix_g2()
    F = TwoFunctor(G, G, {"*": "*"}, {"i": "i"}, {"e0": "e1", "e1": "e0"})
    with pytest.raises(AxiomError, match="not closed"):
        ss.build_B(F, 0, 2)


# --- pages and totalization --------------------------------------------------

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
            pres = hm.presentation_of(pg.E1_sq[(p - 1, q)][0])
            for col in il.columns(M):
                assert hm._in_rel_lattice(pres, col)


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
    assert ss.horizontal_collapse_check(B, 0)
    assert ss.horizontal_collapse_check(B, 1)
    _, pr2 = pr2_c2()
    B2 = ss.build_B(pr2, 2, 2)
    for q in range(3):
        assert ss.horizontal_collapse_check(B2, q)
    B3 = ss.build_B(identity_functor(fix_g2()), 2, 0)
    assert ss.horizontal_collapse_check(B3, 0)


# --- filtration identifications ----------------------------------------------

def test_filtration_terminal():
    T = fix_t()
    F = identity_functor(T)
    for si in enumerate_simplices(T, 1):
        for q in range(3):
            assert ss.filtration_check_p(F, si, q)
    for om in enumerate_simplices(T, 1):
        for p in range(3):
            assert ss.filtration_check_q(F, om, p)


def test_filtration_interval():
    I = fix_i()
    F = identity_functor(I)
    for si in enumerate_simplices(I, 0):
        assert ss.filtration_check_p(F, si, 1)
    for om in enumerate_simplices(I, 0):
        assert ss.filtration_check_q(F, om, 1)


def test_filtration_g2():
    G2 = fix_g2()
    F = identity_functor(G2)
    om0 = enumerate_simplices(G2, 0)[0]
    for p in range(3):
        assert ss.filtration_check_q(F, om0, p)
    om1 = enumerate_simplices(G2, 1)[0]
    assert ss.filtration_check_q(F, om1, 1)
    si1 = enumerate_simplices(G2, 1)[0]
    assert ss.filtration_check_p(F, si1, 1)


def test_filtration_product_projection():
    prod, pr2 = pr2_c2()
    C2 = fix_c2()
    for si in enumerate_simplices(C2, 2)[:2]:
        assert ss.filtration_check_p(pr2, si, 2)
    for om in enumerate_simplices(prod, 1)[:3]:
        assert ss.filtration_check_q(pr2, om, 1)


# --- the fiber coefficient system --------------------------------------------

def test_fiber_system_discrete_base():
    _, pr2 = pr2_c2()
    cert = of.check_opfibration(pr2)
    X = nerve(fix_c2(), 2)
    data = ss.fiber_coeff_system(pr2, cert, 0, X)
    assert all(str(g.canonical()) == "Z" for g in data.fiber_group.values())
    assert not data.edge_matrix  # no nonidentity edges downstairs
    data2 = ss.fiber_coeff_system(pr2, cert, 2, nerve(fix_c2(), 1))
    assert all(str(g.canonical()) == "Z/2"
               for g in data2.fiber_group.values())


def test_fiber_system_interval_base():
    _, pr2 = pr2_i()
    cert = of.check_opfibration(pr2)
    X = nerve(fix_i(), 2)
    for q, h0 in [(0, "Z"), (2, "Z/2")]:
        data = ss.fiber_coeff_system(pr2, cert, q, X)
        assert data.edge_matrix == {"a01": [[1]]}
        assert hm.is_morphism_inverting(data.system, X)
        assert str(hm.homology_local(X, data.system, 0)) == h0
        assert hm.homology_local(X, data.system, 1).is_trivial


def test_fiber_system_rejects_foreign_certificate():
    _, pr2 = pr2_c2()
    cert = of.check_opfibration(identity_functor(fix_t()))
    with pytest.raises(ValueError):
        ss.fiber_coeff_system(pr2, cert, 0, nerve(fix_c2(), 1))


def test_transition_matrix_is_base_change():
    # the comma-object route along an edge agrees with base change of the
    # strict fibers, transported through the fiber inclusions
    _, pr2 = pr2_i()
    I = fix_i()
    cert = of.check_opfibration(pr2)
    f = "a01"
    x, y = I.one_src[f], I.one_tgt[f]
    for q in (0, 2):
        data = ss.fiber_coeff_system(pr2, cert, q, nerve(I, 1))
        Lx = laco(pr2, point_functor(I, x))
        Ly = laco(pr2, point_functor(I, y))
        fibx, _ = strict_fiber(pr2, x)
        fiby, _ = strict_fiber(pr2, y)
        incx = ss._fiber_to_comma(pr2, x, fibx, Lx)
        incy = ss._fiber_to_comma(pr2, y, fiby, Ly)
        bc = compose_functors(base_change(pr2, f, Lx, Ly), incx)
        Xfx, Xfy = nerve(fibx, q + 1), nerve(fiby, q + 1)
        XLy = nerve(Ly.cat, q + 1)
        Mbc, _, sq_Ly = hm.homology_induced(induced_map(bc, q + 1),
                                            Xfx, XLy, q)
        Miy, sq_fy, _ = hm.homology_induced(induced_map(incy, q + 1),
                                            Xfy, XLy, q)
        inv = ss._iso_inverse(Miy, sq_fy.orders, sq_Ly.orders)
        M = il.mmul(inv, Mbc)
        M = [[v % t if t else v for v in row]
             for row, t in zip(M, sq_fy.orders)]
        assert M == data.edge_matrix[f]


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


def _rho_c2():
    P = pgm.fix_c2_pgm()
    return sinv.rho_projection(sinv.s_inv_x(P, pgm.self_action(P)),
                               sinv.s_inv_point(P))


@pytest.mark.parametrize("make", [lambda: pr2_c2()[1], _rho_c2],
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
