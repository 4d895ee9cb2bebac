"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS line when it succeeds
(run with ``pytest -v`` or ``-s`` to see them).  Everything is exact
integer arithmetic at desk scale; homology in degree n is trusted when
the nerve truncation is at least n + 1.
"""

import random
from itertools import combinations, product

from twocat import homology as hm
from twocat import intlinalg as il
from twocat import opfib as of
from twocat import pgm, sinv
from twocat import specseq as ss
from twocat.constructs import laco, oplaco, pullback
from twocat.core import TwoFunctor, identity_functor, validate_two_category
from twocat.fixtures import (fix_c2, fix_g2, fix_g2sat, fix_i, fix_m2,
                             fix_prod, fix_t, point_functor)
from twocat.nerve import nerve

from comparison import check_comparison, comma_inclusion
from diagram_comma import laco_diagram, simplex_functor
from test_nerve import enumerate_simplices, tetrahedron_ok
from test_specseq import swap_projection

ALL_CATS = [fix_t, fix_c2, fix_m2, fix_i, fix_g2, fix_g2sat]
ALL_PGMS = [pgm.fix_c2_pgm, pgm.fix_m2_pgm, pgm.fix_g2_pgm,
            pgm.fix_g2sat_pgm]


def _rho(make):
    """The coordinate-erasing projection of a monoid's self-completion."""
    P = make()
    SX = sinv.s_inv_x(P, pgm.self_action(P))
    SP = sinv.s_inv_point(P)
    return sinv.rho_projection(SX, SP)


def _pr2_fixture():
    _prod, _pr1, pr2 = fix_prod(fix_g2(), fix_c2())
    return pr2


def _opfibration_fixtures():
    return [("identity", identity_functor(fix_g2())),
            ("projection", _pr2_fixture()),
            ("rho-c2", _rho(pgm.fix_c2_pgm)),
            ("rho-g2", _rho(pgm.fix_g2_pgm))]


def _homology_range(C, max_deg, N):
    X = nerve(C, N)
    return [str(hm.homology(X, n)) for n in range(max_deg + 1)]


def test_criterion_01_axiom_suites():
    for make in ALL_CATS:
        validate_two_category(make())
    prod, pr1, pr2 = fix_prod(fix_g2(), fix_c2())
    validate_two_category(prod)
    for make in ALL_PGMS:
        pgm.validate_pgm(make())
    idg2 = identity_functor(fix_g2())
    for res in (laco(idg2, idg2), oplaco(idg2, idg2), pullback(pr2, pr2)):
        validate_two_category(res.cat)
    for make in ALL_PGMS:
        P = make()
        validate_two_category(sinv.s_inv_x(P, pgm.self_action(P)).cat)
        validate_two_category(sinv.s_inv_point(P).cat)
    print("ACCEPTANCE 01 PASS: every fixture and constructed 2-category "
          "passes the axiom suites")


def test_criterion_02_fiber_vs_homotopy_fiber_homology():
    for name, P in _opfibration_fixtures():
        assert isinstance(of.check_opfibration(P), of.OpfibrationCertificate)
        for x in P.target.objects:
            F = point_functor(P.target, x)
            hl = _homology_range(laco(P, F).cat, 2, 4)
            hp = _homology_range(pullback(P, F).cat, 2, 4)
            assert hl == hp, (name, x, hl, hp)
    print("ACCEPTANCE 02 PASS: strict and homotopy fibers of every "
          "certified opfibration agree in homology for n <= 2 at N = 4")


def test_criterion_03_comparison_pseudofunctor():
    check_comparison(_pr2_fixture(), identity_functor(fix_c2()))
    print("ACCEPTANCE 03 PASS: the comparison is a normal pseudofunctor, "
          "restricts to the identity on the strict pullback, and its unit "
          "is pseudonatural on the projection fixture")


def _collapse(E, D, obj, one, two):
    return TwoFunctor(
        E, D, {x: obj for x in E.objects},
        {f: (D.id1[obj] if E.is_id1(f) else one) for f in E.one_src},
        {a: (D.id2[D.id1[obj]] if E.is_id2(a) else two) for a in E.two_src})


def test_criterion_04_comma_homology_collapses():
    cases = [
        (fix_g2(), fix_i(), None),   # interval mapped onto the loop
        (fix_i(), fix_i(), "id"),    # the interval over itself
        (fix_g2(), fix_t(), "pt"),   # a point mapped into the loop
    ]
    for D, E, mode in cases:
        if mode == "id":
            G = identity_functor(E)
        elif mode == "pt":
            G = point_functor(D, sorted(D.objects)[0])
        else:
            G = _collapse(E, D, "*", "i", "e0")
        hE = _homology_range(E, 2, 3)
        hL = _homology_range(laco(identity_functor(D), G).cat, 2, 3)
        assert hL == hE, (mode, hL, hE)
        hdia = _homology_range(laco_diagram(identity_functor(D), G).cat, 2, 3)
        assert hdia == ["Z", "0", "0"], (mode, hdia)
    print("ACCEPTANCE 04 PASS: comma objects over identities have the "
          "homology of the indexing 2-category, and the diagram-shaped "
          "comma of a source with an oplax initial object is acyclic")


def test_criterion_05_spectral_sequence():
    # full depth (degrees <= N - 1 need an N x N window) on the fixtures
    # whose bisimplicial objects stay desk-sized; the swap fixture's base
    # BZ/2 acts on its fiber H_0 = Z^2, so only the right transition
    # matrices give E2 row 0 = Z, 0, 0
    full = [("interval-identity", identity_functor(fix_i())),
            ("projection", _pr2_fixture()),
            ("rho-c2", _rho(pgm.fix_c2_pgm)),
            ("rho-g2", _rho(pgm.fix_g2_pgm)),
            ("swap", swap_projection())]
    # each reaches degree 4 (a 5x5 window)
    N = 5
    for name, F in full:
        B, X = ss.build_B(F, N, N), nerve(F.source, N)
        for n in range(N):
            assert ss.totalization_homology(B, n) == hm.homology(X, n), \
                (name, n)
        cert = of.check_opfibration(F)
        pg = ss.pages(B)
        for q in range(N):
            assert ss.e2_vs_local(pg, cert, q) == [True] * N, (name, q)
    # the one-object fixture with 2-cell group Z/2 doubles its simplex
    # count with every level: its window stops at 2x2 (degrees <= 1)
    F = identity_functor(fix_g2())
    B = ss.build_B(F, 2, 2)
    X = nerve(fix_g2(), 2)
    for n in range(2):
        assert ss.totalization_homology(B, n) == hm.homology(X, n)
    cert = of.check_opfibration(F)
    pg = ss.pages(B)
    for q in range(2):
        assert ss.e2_vs_local(pg, cert, q) == [True] * 2, q
    print("ACCEPTANCE 05 PASS: totalization homology matches the source "
          "nerve and E2 matches local-coefficient homology at every "
          "computed (p, q) within bounds (degrees <= 4 on five fixtures, "
          "one with monodromy; <= 1 on G2)")


def test_criterion_06_point_completion_contractible():
    for make in (pgm.fix_c2_pgm, pgm.fix_g2_pgm):
        SP = sinv.s_inv_point(make())
        assert sinv.hom_terminality_check(SP) is True
        assert _homology_range(SP.cat, 2, 4) == ["Z", "0", "0"]
    print("ACCEPTANCE 06 PASS: the point completion is acyclic at N = 4 "
          "(H0 = Z, H1 = H2 = 0) and its distinguished 1-cells are "
          "hom-terminal, verified exhaustively")


def test_criterion_07_pi0_is_a_group():
    for make in ALL_PGMS:
        P = make()
        SX = sinv.s_inv_x(P, pgm.self_action(P))
        Q = sinv.pgm_on_sinvs(SX)
        assert pgm.pi0_is_group(pgm.pi0_monoid(Q)) is True
    print("ACCEPTANCE 07 PASS: the component monoid of every completed "
          "fixture is a group")


def test_criterion_08_group_completion_isomorphisms():
    targets = [
        (pgm.fix_c2_pgm, 3, 4, {0: "Z + Z", 1: "0", 2: "0", 3: "0"}),
        (pgm.fix_m2_pgm, 5, 6, {0: "Z", 1: "0", 2: "0", 3: "0", 4: "0",
                                5: "0"}),
        (pgm.fix_g2_pgm, 2, 4, {0: "Z", 2: "Z/2"}),
    ]
    for make, max_deg, trunc, want in targets:
        r = sinv.group_completion_check(make(), max_deg=max_deg, trunc=trunc)
        assert r.all_iso
        for q, g in want.items():
            assert r.degrees[q]["localized"] == g, (make.__name__, q)
            assert r.degrees[q]["target"] == g, (make.__name__, q)
    print("ACCEPTANCE 08 PASS: localized homology maps isomorphically "
          "onto the completion's homology: Z^2 then 0 in degrees 0-3 for "
          "C2, Z then 0 in degrees 0-5 for M2, Z and Z/2 in degrees 0 and "
          "2 for G2")


def test_criterion_09_projection_opfibration():
    for make in (pgm.fix_c2_pgm, pgm.fix_g2_pgm):
        assert isinstance(of.check_opfibration(_rho(make)),
                          of.OpfibrationCertificate)
    C, I = fix_c2(), fix_i()
    P = TwoFunctor(C, I, {"0": "0", "1": "1"},
                   {"id_0": "id_0", "id_1": "id_1"},
                   {"ii_0": "ii_id_0", "ii_1": "ii_id_1"})
    cex = of.check_opfibration(P)
    assert isinstance(cex, of.Counterexample)
    assert cex.clause == "opcartesian-lift-missing"
    print("ACCEPTANCE 09 PASS: the completion projection is certified as "
          "an opfibration and the discrete-pair-over-interval functor "
          "fails with a clause-tagged counterexample")


def _brute_simplex_count(D, p):
    """Independent labeling oracle: fill every vertex, edge, and triangle
    slot by brute force and keep the labelings whose tetrahedra paste."""
    count = 0
    pairs = list(combinations(range(p + 1), 2))
    triples = list(combinations(range(p + 1), 3))
    quads = list(combinations(range(p + 1), 4))
    for verts in product(D.objects, repeat=p + 1):
        for esel in product(*[D.hom1(verts[i], verts[j])
                              for i, j in pairs]):
            edges = dict(zip(pairs, esel))
            topts = [D.hom2(edges[(i, k)],
                            D.comp1[(edges[(j, k)], edges[(i, j)])])
                     for i, j, k in triples]
            for tsel in product(*topts):
                tris = dict(zip(triples, tsel))
                if all(tetrahedron_ok(D, edges, tris, i, j, k, l)
                       for i, j, k, l in quads):
                    count += 1
    return count


def _naive_elimination_diag(M):
    """Textbook row/column elimination to a divisibility-ordered diagonal,
    with no transform bookkeeping; independent of the production routine."""
    A = [row[:] for row in M]
    m, n = len(A), len(A[0]) if A else 0
    out = []
    t = 0
    while t < min(m, n):
        if not any(A[i][j] for i in range(t, m) for j in range(t, n)):
            break
        while True:
            i0, j0 = min(((i, j) for i in range(t, m) for j in range(t, n)
                          if A[i][j]),
                         key=lambda ij: abs(A[ij[0]][ij[1]]))
            if i0 != t:
                A[t], A[i0] = A[i0], A[t]
            if j0 != t:
                for row in A:
                    row[t], row[j0] = row[j0], row[t]
            dirty = False
            for i in range(t + 1, m):
                q = A[i][t] // A[t][t]
                if q:
                    for j in range(t, n):
                        A[i][j] -= q * A[t][j]
                dirty = dirty or bool(A[i][t])
            for j in range(t + 1, n):
                q = A[t][j] // A[t][t]
                if q:
                    for i in range(t, m):
                        A[i][j] -= q * A[i][t]
                dirty = dirty or bool(A[t][j])
            if dirty:
                continue
            bad = next(((i, j) for i in range(t + 1, m)
                        for j in range(t + 1, n) if A[i][j] % A[t][t]), None)
            if bad is None:
                break
            for j in range(t, n):
                A[t][j] += A[bad[0]][j]
        out.append(abs(A[t][t]))
        t += 1
    return out + [0] * (min(m, n) - len(out))


def test_criterion_10_independent_oracles():
    # nerve counts against the labeling oracle
    G2 = fix_g2()
    counts = [len(enumerate_simplices(G2, p)) for p in range(4)]
    assert counts == [1, 1, 2, 8]
    assert counts == [_brute_simplex_count(G2, p) for p in range(4)]
    I = fix_i()
    for p in range(4):
        assert len(enumerate_simplices(I, p)) == _brute_simplex_count(I, p)
    # Smith normal form against naive elimination, 100 random 6x6
    rng = random.Random(20260823)
    for _ in range(100):
        M = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        assert il.smith_normal_form(M).diag() == _naive_elimination_diag(M)
    # localization against the truncated-colimit oracle, 50 random cases
    from test_pgm import _random_instance, localize_oracle
    rng = random.Random(20260823)
    for _ in range(50):
        A, acts, M = _random_instance(rng)
        assert pgm.localize_module(A, acts, M) == \
            localize_oracle(A, acts, M)
    print("ACCEPTANCE 10 PASS: nerve counts, Smith normal form, and "
          "localization each agree exactly with an independent oracle")


def test_criterion_11_comparison_induces_isomorphisms():
    # H_n is trusted at N = n + 1: n <= 2 at N = 3 along every simplex
    # functor of dimension <= 2
    checks = 0
    for _, P in _opfibration_fixtures():
        D = P.target
        for p in range(3):
            for si in enumerate_simplices(D, p):
                G = simplex_functor(D, si)
                PB, L = pullback(P, G), laco(P, G)
                inc = comma_inclusion(PB, L, P, G)
                Hs, Ht = (hm.homology_subquotient(nerve(C, 3), range(3))
                          for C in (PB.cat, L.cat))
                for H, K in zip(Hs, Ht):
                    hm.induced_iso(inc, H, K)
                    checks += 1
    assert checks == 81
    print("ACCEPTANCE 11 PASS: the comparison pb(P, G) -> laco(P, G) "
          "induces isomorphisms on H_n for every certified opfibration P "
          "and every simplex functor G of the base: n <= 2 at N = 3 along "
          "simplices of dimension <= 2 (%d checks)" % checks)
