import random
from ast import literal_eval
from dataclasses import replace

import pytest

from twocat import pgm, sinv
from twocat.core import (AxiomError, Counterexample, TwoCategory, TwoFunctor,
                         compose_functors, functors_equal, identity_functor,
                         validate_two_functor)
from twocat.homology import PresentedGroup, in_relations, iso_inverse
from twocat.intlinalg import (FGAbGroup, from_columns, hstack, kernel_mod_rels,
                              mid, mmul, order_relations)
from twocat.fixtures import fix_g2, fix_prod, nm
from twocat.pgm import PGM, PGMAction


# --- predicates and actions that only the tests use ------------------------

def trivial_action(P: PGM, X: TwoCategory) -> PGMAction:
    """The action where every element of P acts as the identity of X."""
    S = P.carrier
    ident = identity_functor(X)

    def const(x):
        return TwoFunctor(S, X, {s: x for s in S.objects},
                          {f: X.id1[x] for f in S.one_src},
                          {a: X.id2[X.id1[x]] for a in S.two_src})

    sigma = {(f, g): X.id2[g]
             for f in S.one_src if not S.is_id1(f)
             for g in X.one_src if not X.is_id1(g)}
    return PGMAction(P, X, {(s, x): x for s in S.objects
                            for x in X.objects},
                     {s: ident for s in S.objects},
                     {x: const(x) for x in X.objects}, sigma)


def is_grouplike(P: PGM):
    """Every object has a sum-inverse up to internal equivalence."""
    S = P.carrier
    for a in S.objects:
        found = False
        for y in S.objects:
            left = any(S.is_equivalence1(f)
                       for f in S.hom1(P.sum(a, y), P.unit))
            right = any(S.is_equivalence1(f)
                        for f in S.hom1(P.sum(y, a), P.unit))
            if left and right:
                found = True
                break
        if not found:
            return Counterexample("object-not-invertible", (a,))
    return True


def is_strict_pgm_functor(F: TwoFunctor, P: PGM, Q: PGM):
    """F strictly preserves unit, sum (via the translations), interchangers
    and symmetry; True or a clause-tagged Counterexample."""
    validate_two_functor(F)
    if F.on_objects[P.unit] != Q.unit:
        return Counterexample("unit-not-preserved", (P.unit,))
    for a in P.carrier.objects:
        for b in P.carrier.objects:
            if F.on_objects[P.sum(a, b)] != Q.sum(F.on_objects[a],
                                                  F.on_objects[b]):
                return Counterexample("sum-not-preserved", (a, b))
    for a in P.carrier.objects:
        fa = F.on_objects[a]
        if not functors_equal(compose_functors(F, P.lt(a)),
                              compose_functors(Q.lt(fa), F)):
            return Counterexample("left-translation-not-preserved", (a,))
        if not functors_equal(compose_functors(F, P.rt(a)),
                              compose_functors(Q.rt(fa), F)):
            return Counterexample("right-translation-not-preserved", (a,))
    for f in sorted(P.carrier.one_src):
        for g in sorted(P.carrier.one_src):
            if F.on_two[P.sigma_of(f, g)] != Q.sigma_of(F.on_one[f],
                                                        F.on_one[g]):
                return Counterexample("interchanger-not-preserved", (f, g))
    for a in P.carrier.objects:
        for b in P.carrier.objects:
            if F.on_one[P.beta[(a, b)]] != Q.beta[(F.on_objects[a],
                                                   F.on_objects[b])]:
                return Counterexample("symmetry-not-preserved", (a, b))
    return True


ALL_PGMS = [pgm.fix_c2_pgm, pgm.fix_m2_pgm, pgm.fix_g2_pgm,
            pgm.fix_g2sat_pgm]


# --- axiom suites ------------------------------------------------------------

def test_fixtures_validate():
    for make in ALL_PGMS:
        pgm.validate_pgm(make())


def test_self_actions_validate():
    for make in ALL_PGMS:
        pgm.validate_action(pgm.self_action(make()))


def test_validation_catches_broken_sum():
    P = pgm.fix_m2_pgm()
    broken = dict(P.sum_objects)
    broken[("1", "1")] = "0"
    bad = pgm.PGM(P.carrier, P.unit, broken,
                  P.left_translations, P.right_translations,
                  P.sigma, P.beta)
    with pytest.raises(AxiomError):
        pgm.validate_pgm(bad)


def test_validation_catches_wrong_unit():
    P = pgm.fix_c2_pgm()
    bad = pgm.PGM(P.carrier, "1", P.sum_objects, P.left_translations,
                  P.right_translations, P.sigma, P.beta)
    with pytest.raises(AxiomError):
        pgm.validate_pgm(bad)


# --- one mutant per translation and interchanger-coherence clause ----------
#
# validate_pgm checks these clauses on the self-action of P.  Each mutant
# below raises AxiomError; the message is that of the first check it fails.
# The mutants for translation composition and commutation live on G2 x Q
# (product_pgm): on the fixtures every translation is fixed by its object
# map, so those clauses cannot fail there without an earlier one failing.
# No fixture breaks a sum-coherence clause alone: the only interchangers
# are those of S^-1 C2, which is locally discrete, so any change to them
# or to a translation's 2-cells is mistyped first.


def g2_times(Q: PGM) -> PGM:
    """G2 x Q, componentwise, for a PGM Q with only identity 1-cells: the
    translations act as those of Q on the second factor; no interchanger."""
    C, pr1, pr2 = fix_prod(fix_g2(), Q.carrier)

    def lift(H):    # the identity of G2 times H
        return TwoFunctor(
            C, C, {o: nm("*", H.on_objects[pr2.on_objects[o]])
                   for o in C.objects},
            {f: nm("i", H.on_one[pr2.on_one[f]]) for f in C.one_src},
            {a: nm(pr1.on_two[a], H.on_two[pr2.on_two[a]])
             for a in C.two_src})

    def obj(x):
        return nm("*", x)

    return PGM(C, obj(Q.unit),
               {(obj(a), obj(b)): obj(s)
                for (a, b), s in Q.sum_objects.items()},
               {obj(a): lift(F) for a, F in Q.left_translations.items()},
               {obj(a): lift(F) for a, F in Q.right_translations.items()},
               {}, {(obj(a), obj(b)): nm("i", f)
                    for (a, b), f in Q.beta.items()})


def kill_g2(F: TwoFunctor, at) -> TwoFunctor:
    """F: G2 x Q -> G2 x Q with the G2 part of its image of each 2-cell
    over an object in at made the identity e0; still a 2-functor."""
    C = F.source
    return replace(F, on_two={
        a: nm("e0", literal_eval(b)[1])
        if C.one_src[C.two_src[a]] in at else b
        for a, b in F.on_two.items()})


def with_translation(P: PGM, side: str, a: str, F: TwoFunctor) -> PGM:
    field = side + "_translations"
    return replace(P, **{field: {**getattr(P, field), a: F}})


def g2_swap(F: TwoFunctor) -> TwoFunctor:
    return replace(F, on_two={"e0": "e1", "e1": "e0"})


def g2_collapse(F: TwoFunctor) -> TwoFunctor:
    return replace(F, on_two={"e0": "e0", "e1": "e0"})


def sinv_c2_pgm() -> PGM:
    P = pgm.fix_c2_pgm()
    return sinv.pgm_on_sinvs(sinv.s_inv_x(P, pgm.self_action(P)))


def _translation_missing():
    P = pgm.fix_c2_pgm()
    return replace(P, left_translations={"0": P.lt("0")})


def _translation_not_a_functor():
    P = pgm.fix_g2_pgm()
    return with_translation(P, "left", "*", g2_swap(P.lt("*")))


def _translation_disagrees_with_sum():
    P = pgm.fix_m2_pgm()
    return with_translation(P, "left", "1", identity_functor(P.carrier))


def _unit_translation(side):
    P = pgm.fix_g2_pgm()
    return with_translation(P, side, "*", g2_collapse(P.lt("*")))


def _translation_composition(side):
    # (*, 1) + (*, 1) = (*, 0), but the translation by (*, 1), twice, now
    # kills the G2 part
    P, one = g2_times(pgm.fix_c2_pgm()), nm("*", "1")
    F = getattr(P, side + "_translations")[one]
    return with_translation(P, side, one, kill_g2(F, P.carrier.objects))


def _translation_commutation():
    # under max, the left translation by (*, 1) stays idempotent when it
    # kills the G2 part over (*, 0) alone; the right one does not kill it
    P, one = g2_times(pgm.fix_m2_pgm()), nm("*", "1")
    return with_translation(P, "left", one,
                            kill_g2(P.lt(one), {nm("*", "0")}))


def _coherence(which):
    P = sinv_c2_pgm()
    S = P.carrier
    f, g = sorted(P.sigma)[1]
    b = S.objects[1]
    if which == "middle":
        # the interchanger of (f, g) replaced by that of another pair
        return replace(P, sigma={**P.sigma,
                                 (f, g): P.sigma[sorted(P.sigma)[0]]})
    F = getattr(P, which + "_translations")[b]
    return with_translation(P, which, b, replace(F, on_two={
        **F.on_two, P.sigma[(f, g)]: F.on_two[P.sigma[sorted(P.sigma)[0]]]}))


PGM_MUTANTS = {
    "translation missing": (_translation_missing,
                            "action left translation missing"),
    "translation not a 2-functor": (_translation_not_a_functor,
                                    "functor preserves identity 2-cells"),
    "translation agreement": (_translation_disagrees_with_sum,
                              "action translation agreement"),
    "left unit translation": (lambda: _unit_translation("left"),
                              "action unit law"),
    "right unit translation": (lambda: _unit_translation("right"),
                               "pgm unit translation not identity"),
    "left translation composition": (
        lambda: _translation_composition("left"),
        "action associativity (left translations)"),
    "right translation composition": (
        lambda: _translation_composition("right"),
        "action associativity (right translations)"),
    "translation commutation": (_translation_commutation,
                                "action associativity (mixed)"),
    "interchanger sum coherence (middle)": (
        lambda: _coherence("middle"), "action interchanger typing"),
    "interchanger sum coherence (left)": (
        lambda: _coherence("left"), "functor preserves 2-cell typing"),
    "interchanger sum coherence (right)": (
        lambda: _coherence("right"), "functor preserves 2-cell typing"),
}


def test_product_fixtures_validate():
    for Q in (pgm.fix_c2_pgm(), pgm.fix_m2_pgm()):
        pgm.validate_pgm(g2_times(Q))


@pytest.mark.parametrize("name", sorted(PGM_MUTANTS))
def test_validation_catches_each_clause(name):
    make, first_failure = PGM_MUTANTS[name]
    with pytest.raises(AxiomError) as err:
        pgm.validate_pgm(make())
    assert str(err.value).startswith(first_failure + " at ")


# --- components --------------------------------------------------------------

def test_pi0_monoid_c2():
    M = pgm.pi0_monoid(pgm.fix_c2_pgm())
    assert M.elements == ("0", "1")
    assert M.add[("1", "1")] == "0"
    assert pgm.pi0_is_group(M) is True


def test_pi0_monoid_m2():
    M = pgm.pi0_monoid(pgm.fix_m2_pgm())
    assert M.elements == ("0", "1")
    assert M.add[("1", "1")] == "1"
    cex = pgm.pi0_is_group(M)
    assert isinstance(cex, Counterexample)
    assert (cex.clause, cex.detail) == ("pi0-not-a-group", ("1",))


def test_pi0_monoid_g2():
    M = pgm.pi0_monoid(pgm.fix_g2_pgm())
    assert M.elements == ("*",)
    assert pgm.pi0_is_group(M) is True


def test_pi0_monoid_always_commutative():
    for make in ALL_PGMS:
        pgm.validate_comm_monoid(pgm.pi0_monoid(make()))


# --- predicates --------------------------------------------------------------

def test_c2_predicates():
    P = pgm.fix_c2_pgm()
    assert pgm.is_two_groupoid(P.carrier) is True
    assert is_grouplike(P) is True
    assert pgm.has_faithful_translations(P) is True


def test_m2_predicates():
    P = pgm.fix_m2_pgm()
    assert pgm.is_two_groupoid(P.carrier) is True
    cex = is_grouplike(P)
    assert isinstance(cex, Counterexample)
    assert cex.clause == "object-not-invertible"
    assert cex.detail == ("1",)
    assert pgm.has_faithful_translations(P) is True


def test_g2sat_predicates():
    P = pgm.fix_g2sat_pgm()
    assert pgm.has_faithful_translations(P) is True
    cex = pgm.is_two_groupoid(P.carrier)
    assert isinstance(cex, Counterexample)
    assert cex.clause == "2-cell-not-invertible"
    assert cex.detail == ("e1",)


def test_g2_predicates():
    P = pgm.fix_g2_pgm()
    assert pgm.is_two_groupoid(P.carrier) is True
    assert is_grouplike(P) is True


def test_strict_functor_identity():
    P = pgm.fix_c2_pgm()
    assert is_strict_pgm_functor(identity_functor(P.carrier), P, P) \
        is True


def test_strict_functor_detects_sum_mismatch():
    # the identity of the common carrier does not match Z/2 against max
    P, Q = pgm.fix_c2_pgm(), pgm.fix_m2_pgm()
    cex = is_strict_pgm_functor(identity_functor(P.carrier), P, Q)
    assert isinstance(cex, Counterexample)
    assert cex.clause == "sum-not-preserved"


# --- localization ------------------------------------------------------------

def test_localize_trivial_monoid():
    A = FGAbGroup(2, (2,))
    acts = {"0": mid(3)}
    assert pgm.localize_module(A, acts, pgm.TRIVIAL_MONOID) == A


def test_localize_max_monoid_regular():
    # Z^2 with the max-monoid regular representation collapses to Z
    A = FGAbGroup(2, ())
    acts = {"0": mid(2), "1": [[0, 0], [1, 1]]}
    assert pgm.localize_module(A, acts, pgm.MAX_MONOID) == FGAbGroup(1, ())


def test_localize_z2_group_ring():
    # Z[Z/2] is already a module over the group Z/2: nothing collapses
    A = FGAbGroup(2, ())
    acts = {"0": mid(2), "1": [[0, 1], [1, 0]]}
    assert pgm.localize_module(A, acts, pgm.Z2_MONOID) == FGAbGroup(2, ())


def test_localize_rejects_non_homomorphism():
    A = FGAbGroup(1, ())
    acts = {"0": mid(1), "1": [[2]]}
    with pytest.raises(AxiomError):
        pgm.localize_module(A, acts, pgm.Z2_MONOID)


def _random_unimodular(rng, n):
    U = mid(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            U[i][k] += c * U[j][k]
    return U


def _inverse_unimodular(U):
    from twocat.intlinalg import smith_normal_form, solve
    n = len(U)
    snf = smith_normal_form(U)
    cols = [solve(snf, [1 if i == j else 0 for i in range(n)])
            for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _conjugate(rng, n, diag):
    U = _random_unimodular(rng, n)
    V = _inverse_unimodular(U)
    D = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return mmul(U, mmul(D, V))


def _random_instance(rng):
    """(A, acts, M) with a genuinely homomorphic action: the free part
    carries a conjugated idempotent/involution, the torsion part the
    identity."""
    fr = rng.randint(0, 3)
    tors = rng.choice([(), (2,), (3,), (2, 4)])
    n = fr + len(tors)
    M = rng.choice([pgm.TRIVIAL_MONOID, pgm.Z2_MONOID, pgm.MAX_MONOID])
    acts = {M.unit: mid(n)}
    if len(M.elements) > 1:
        if M is pgm.Z2_MONOID:
            diag = [rng.choice([1, -1]) for _ in range(fr)]
        else:
            diag = [rng.choice([0, 1]) for _ in range(fr)]
        P = _conjugate(rng, fr, diag) if fr else []
        mat = mid(n)
        for i in range(fr):
            for j in range(fr):
                mat[i][j] = P[i][j]
        acts["1"] = mat
    return FGAbGroup(fr, tors), acts, M


def localize_oracle(A: FGAbGroup, acts: dict, M: pgm.CommMonoid,
                    max_steps: int = 64) -> FGAbGroup:
    """Independent route: the localization is the colimit of the chain of
    copies of A along the single composite endomorphism by the product of
    all monoid elements.  Computed by explicit stabilization detection on
    powers of that one matrix."""
    pgm.validate_comm_monoid(M)
    n = A.free_rank + len(A.torsion)
    if n == 0:
        return FGAbGroup(0, ())
    R0 = order_relations([0] * A.free_rank + list(A.torsion))
    theta = M.unit
    for m in M.elements:
        theta = M.add[(theta, m)]
    T = acts[theta]
    power = mid(n)
    prev = None
    for _ in range(max_steps):
        power = mmul(T, power)
        K = kernel_mod_rels(power, R0)
        if prev is not None:
            pk = PresentedGroup(n, hstack(R0, K))
            pp = PresentedGroup(n, hstack(R0, prev))
            if in_relations(prev, pk) and in_relations(K, pp):
                if iso_inverse(T, pk, pk) is None:
                    raise AxiomError("stabilized chain map is not "
                                     "invertible at %r" % (theta,))
                return pk.canonical
        prev = K
    raise ValueError("kernel chain did not stabilize in %d steps"
                     % max_steps)


def test_localize_against_oracle():
    rng = random.Random(20260823)
    for _ in range(50):
        A, acts, M = _random_instance(rng)
        assert pgm.localize_module(A, acts, M) == \
            localize_oracle(A, acts, M)


def test_localize_idempotent():
    # once every element acts invertibly, localization changes nothing
    rng = random.Random(7)
    for _ in range(20):
        A, acts, M = _random_instance(rng)
        L = pgm.localize_module(A, acts, M)
        ident = {m: mid(L.free_rank + len(L.torsion)) for m in M.elements}
        assert pgm.localize_module(L, ident, M) == L


def _dsum(G1, G2):
    n = G1.free_rank + len(G1.torsion) + G2.free_rank + len(G2.torsion)
    orders = [0] * G1.free_rank + list(G1.torsion) + \
        [0] * G2.free_rank + list(G2.torsion)
    cols = []
    for i, t in enumerate(orders):
        if t:
            col = [0] * n
            col[i] = t
            cols.append(col)
    return PresentedGroup(n, from_columns(cols, nrows=n)).canonical


def test_localize_commutes_with_direct_sums():
    rng = random.Random(99)
    for _ in range(15):
        A1, acts1, M = _random_instance(rng)
        # second summand over the same monoid
        while True:
            A2, acts2, M2 = _random_instance(rng)
            if M2 is M:
                break
        n1 = A1.free_rank + len(A1.torsion)
        n2 = A2.free_rank + len(A2.torsion)
        A = FGAbGroup(A1.free_rank + A2.free_rank, ())
        # block coordinates: free of A1, free of A2 (torsion dropped to
        # keep the canonical free-first layout exact)
        acts = {}
        for m in M.elements:
            f1, f2 = A1.free_rank, A2.free_rank
            mat = [[0] * (f1 + f2) for _ in range(f1 + f2)]
            for i in range(f1):
                for j in range(f1):
                    mat[i][j] = acts1[m][i][j]
            for i in range(f2):
                for j in range(f2):
                    mat[f1 + i][f1 + j] = acts2[m][i][j]
            acts[m] = mat
        lhs = pgm.localize_module(A, acts, M)
        r1 = pgm.localize_module(FGAbGroup(A1.free_rank, ()),
                                 {m: [row[:A1.free_rank]
                                      for row in acts1[m][:A1.free_rank]]
                                  for m in M.elements}, M)
        r2 = pgm.localize_module(FGAbGroup(A2.free_rank, ()),
                                 {m: [row[:A2.free_rank]
                                      for row in acts2[m][:A2.free_rank]]
                                  for m in M.elements}, M)
        assert lhs == _dsum(r1, r2)


def test_localize_with_torsion_collapse():
    # (Z/4 + Z) with max acting by killing the free part
    A = FGAbGroup(1, (4,))
    acts = {"0": mid(2), "1": [[0, 0], [0, 1]]}
    assert pgm.localize_module(A, acts, pgm.MAX_MONOID) == FGAbGroup(0, (4,))
