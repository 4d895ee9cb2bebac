"""Permutative Gray monoids: strict 2-categories with a strictly
associative, strictly unital sum whose failure of commutativity at the
1-cell level is recorded by explicit interchanger 2-cells, plus a strict
symmetry.

The sum is encoded cubically: a table on objects, a left translation
2-functor ``(a + -)`` and a right translation 2-functor ``(- + a)`` per
object, and an interchanger 2-cell ``Sigma[(f, g)]`` per pair of
nonidentity 1-cells mediating ``(f + 1)(1 + g) => (1 + g)(f + 1)``.  The
full tensor of two copies of the carrier is never constructed; every
coherence axiom is checked directly on this generating data, those of
the translations and the interchanger as the axioms of the self-action.

Also here: module actions of such a monoid on another 2-category (same
cubical encoding), finite commutative monoids, the component monoid
``pi0``, predicates (2-groupoid, faithful translations), and localization
of a finitely generated abelian group at a commutative monoid of
endomorphisms.  The grouplike and strict sum-preserving functor predicates
and the trivial action, which only tests use, are in ``tests/test_pgm.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (Counterexample, TwoCategory, TwoFunctor,
                   compose_functors, ensure, functors_equal,
                   identity_functor, validate_two_category,
                   validate_two_functor)
from .fixtures import discrete_two_category, fix_g2, fix_g2sat
from .homology import PresentedGroup, in_relations, iso_inverse
from .intlinalg import (FGAbGroup, hstack, kernel_mod_rels, mmul, mshape,
                        order_relations)


# ---------------------------------------------------------------------------
# finite commutative monoids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommMonoid:
    elements: tuple
    unit: str
    add: dict   # (a, b) -> a + b, total

    def power(self, m, n: int):
        out = self.unit
        for _ in range(n):
            out = self.add[(out, m)]
        return out


def validate_comm_monoid(M: CommMonoid) -> CommMonoid:
    elems = list(M.elements)
    ensure(M.unit in elems, "monoid unit missing", (M.unit,))
    for a in elems:
        for b in elems:
            ensure((a, b) in M.add and M.add[(a, b)] in elems,
                   "monoid addition not total", (a, b))
            ensure(M.add[(a, b)] == M.add[(b, a)], "monoid commutativity",
                   (a, b))
        ensure(M.add[(M.unit, a)] == a, "monoid unit law", (a,))
        for b in elems:
            for c in elems:
                ensure(M.add[(M.add[(a, b)], c)] == M.add[(a, M.add[(b, c)])],
                       "monoid associativity", (a, b, c))
    return M


TRIVIAL_MONOID = CommMonoid(("0",), "0", {("0", "0"): "0"})
Z2_MONOID = CommMonoid(("0", "1"), "0",
                       {(a, b): str((int(a) + int(b)) % 2)
                        for a in "01" for b in "01"})
MAX_MONOID = CommMonoid(("0", "1"), "0",
                        {(a, b): str(max(int(a), int(b)))
                         for a in "01" for b in "01"})


# ---------------------------------------------------------------------------
# permutative Gray monoids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PGM:
    carrier: TwoCategory
    unit: str
    sum_objects: dict                 # (a, b) -> a + b
    left_translations: dict           # a -> 2-functor (a + -)
    right_translations: dict          # a -> 2-functor (- + a)
    sigma: dict                       # (f, g) nonidentity 1-cells -> 2-cell
    beta: dict                        # (a, b) -> 1-cell a+b -> b+a

    def sum(self, a: str, b: str) -> str:
        return self.sum_objects[(a, b)]

    def lt(self, a: str) -> TwoFunctor:
        return self.left_translations[a]

    def rt(self, a: str) -> TwoFunctor:
        return self.right_translations[a]

    def sigma_of(self, f: str, g: str) -> str:
        """Interchanger on arbitrary 1-cell pairs; identity when either
        argument is an identity 1-cell."""
        S = self.carrier
        if S.is_id1(f) or S.is_id1(g):
            b2 = S.one_tgt[g]
            a = S.one_src[f]
            comp = S.comp1[(self.rt(b2).on_one[f], self.lt(a).on_one[g])]
            return S.id2[comp]
        return self.sigma[(f, g)]


def _check_sum_tables(P: PGM) -> None:
    S = P.carrier
    objs = set(S.objects)
    ensure(P.unit in objs, "pgm unit object missing", (P.unit,))
    for a in S.objects:
        for b in S.objects:
            ensure((a, b) in P.sum_objects and P.sum_objects[(a, b)] in objs,
                   "pgm sum not total", (a, b))
        ensure(P.sum(P.unit, a) == a, "pgm sum left unit", (a,))
        ensure(P.sum(a, P.unit) == a, "pgm sum right unit", (a,))
    for a in S.objects:
        for b in S.objects:
            for c in S.objects:
                ensure(P.sum(P.sum(a, b), c) == P.sum(a, P.sum(b, c)),
                       "pgm sum associativity", (a, b, c))


def _check_interchanger_table(S, X, lt, rt, sigma):
    """Typing and invertibility of an interchanger table whose first
    argument ranges over nonidentity 1-cells of S and second over
    nonidentity 1-cells of X; values are 2-cells of X.  lt(s): X -> X,
    rt(x): S -> X."""
    nonid_s = [f for f in sorted(S.one_src) if not S.is_id1(f)]
    nonid_x = [g for g in sorted(X.one_src) if not X.is_id1(g)]
    for key in sigma:
        ensure(key[0] in nonid_s and key[1] in nonid_x,
               "action interchanger spurious key", key)
    for f in nonid_s:
        for g in nonid_x:
            ensure((f, g) in sigma, "action interchanger missing", (f, g))
            c = sigma[(f, g)]
            a, a2 = S.one_src[f], S.one_tgt[f]
            b, b2 = X.one_src[g], X.one_tgt[g]
            src = X.comp1[(rt(b2).on_one[f], lt(a).on_one[g])]
            tgt = X.comp1[(lt(a2).on_one[g], rt(b).on_one[f])]
            ensure(c in X.two_src and X.two_src[c] == src
                   and X.two_tgt[c] == tgt, "action interchanger typing",
                   (f, g, c))
            ensure(X.is_invertible2(c), "action interchanger not invertible",
                   (f, g, c))


def _check_interchanger_axioms(S, X, lt, rt, sigma_of):
    """The cubical axioms for an interchanger: composition in each 1-cell
    argument and naturality in each 2-cell argument.  sigma_of(f, g) must
    already handle identity arguments."""
    ones_s = sorted(S.one_src)
    ones_x = sorted(X.one_src)
    for f in ones_s:
        a = S.one_src[f]
        for g in ones_x:
            b, b2 = X.one_src[g], X.one_tgt[g]
            # composition in the first argument
            for f2 in ones_s:
                if S.one_src[f2] != S.one_tgt[f]:
                    continue
                want = X.vcomp[(X.whisk_r[(sigma_of(f2, g), rt(b).on_one[f])],
                                X.whisk_l[(rt(b2).on_one[f2],
                                           sigma_of(f, g))])]
                ensure(sigma_of(S.comp1[(f2, f)], g) == want,
                       "action interchanger left composition", (f2, f, g))
            # composition in the second argument
            a2 = S.one_tgt[f]
            for g2 in ones_x:
                if X.one_src[g2] != b2:
                    continue
                want = X.vcomp[(X.whisk_l[(lt(a2).on_one[g2],
                                           sigma_of(f, g))],
                                X.whisk_r[(sigma_of(f, g2),
                                           lt(a).on_one[g])])]
                ensure(sigma_of(f, X.comp1[(g2, g)]) == want,
                       "action interchanger right composition", (f, g2, g))
    # naturality in 2-cells of S
    for al in sorted(S.two_src):
        f, f2 = S.two_src[al], S.two_tgt[al]
        a, a2 = S.one_src[f], S.one_tgt[f]
        for g in ones_x:
            b, b2 = X.one_src[g], X.one_tgt[g]
            lhs = X.vcomp[(sigma_of(f2, g),
                           X.whisk_r[(rt(b2).on_two[al], lt(a).on_one[g])])]
            rhs = X.vcomp[(X.whisk_l[(lt(a2).on_one[g], rt(b).on_two[al])],
                           sigma_of(f, g))]
            ensure(lhs == rhs, "action interchanger naturality (left)",
                   (al, g))
    # naturality in 2-cells of X
    for ga in sorted(X.two_src):
        g, g2 = X.two_src[ga], X.two_tgt[ga]
        b = X.one_src[g]
        for f in ones_s:
            a, a2 = S.one_src[f], S.one_tgt[f]
            b2 = X.one_tgt[g]
            lhs = X.vcomp[(sigma_of(f, g2),
                           X.whisk_l[(rt(b2).on_one[f], lt(a).on_two[ga])])]
            rhs = X.vcomp[(X.whisk_r[(lt(a2).on_two[ga], rt(b).on_one[f])],
                           sigma_of(f, g))]
            ensure(lhs == rhs, "action interchanger naturality (right)",
                   (f, ga))


def _check_symmetry(P: PGM) -> None:
    S = P.carrier
    for a in S.objects:
        for b in S.objects:
            ensure((a, b) in P.beta, "pgm symmetry missing", (a, b))
            bb = P.beta[(a, b)]
            ensure(bb in S.one_src and S.one_src[bb] == P.sum(a, b)
                   and S.one_tgt[bb] == P.sum(b, a),
                   "pgm symmetry typing", (a, b, bb))
    # every 1-cell is typed before any two are composed
    for a in S.objects:
        for b in S.objects:
            ensure(S.comp1[(P.beta[(b, a)], P.beta[(a, b)])]
                   == S.id1[P.sum(a, b)], "pgm symmetry involution", (a, b))
        ensure(S.is_id1(P.beta[(a, P.unit)]) and S.is_id1(P.beta[(P.unit, a)]),
               "pgm symmetry unit", (a,))
    # hexagon: the symmetry of a sum factors through the translations
    for a in S.objects:
        for b in S.objects:
            for c in S.objects:
                ensure(P.beta[(P.sum(a, b), c)]
                       == S.comp1[(P.rt(b).on_one[P.beta[(a, c)]],
                                   P.lt(a).on_one[P.beta[(b, c)]])],
                       "pgm symmetry hexagon", (a, b, c))
    # strict naturality on 1-cells in either slot
    for f in sorted(S.one_src):
        a, a2 = S.one_src[f], S.one_tgt[f]
        for b in S.objects:
            ensure(S.comp1[(P.beta[(a2, b)], P.rt(b).on_one[f])]
                   == S.comp1[(P.lt(b).on_one[f], P.beta[(a, b)])],
                   "pgm symmetry naturality (left 1-cells)", (f, b))
            ensure(S.comp1[(P.beta[(b, a2)], P.lt(b).on_one[f])]
                   == S.comp1[(P.rt(b).on_one[f], P.beta[(b, a)])],
                   "pgm symmetry naturality (right 1-cells)", (f, b))
    # strict naturality on 2-cells in either slot
    for al in sorted(S.two_src):
        f = S.two_src[al]
        a, a2 = S.one_src[f], S.one_tgt[f]
        for b in S.objects:
            ensure(S.whisk_l[(P.beta[(a2, b)], P.rt(b).on_two[al])]
                   == S.whisk_r[(P.lt(b).on_two[al], P.beta[(a, b)])],
                   "pgm symmetry naturality (left 2-cells)", (al, b))
            ensure(S.whisk_l[(P.beta[(b, a2)], P.lt(b).on_two[al])]
                   == S.whisk_r[(P.rt(b).on_two[al], P.beta[(b, a)])],
                   "pgm symmetry naturality (right 2-cells)", (al, b))
    # naturality against the interchanger 2-cells themselves
    for f in sorted(S.one_src):
        a, a2 = S.one_src[f], S.one_tgt[f]
        for g in sorted(S.one_src):
            b, b2 = S.one_src[g], S.one_tgt[g]
            flip = S.vcomp_inverse(P.sigma_of(g, f))
            ensure(flip is not None,
                   "pgm interchanger not invertible", (g, f))
            ensure(S.whisk_l[(P.beta[(a2, b2)], P.sigma_of(f, g))]
                   == S.whisk_r[(flip, P.beta[(a, b)])],
                   "pgm symmetry interchanger naturality", (f, g))


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PGMAction:
    pgm: PGM
    carrier: TwoCategory              # X, the category acted on
    act_objects: dict                 # (s, x) -> s . x
    mu_left: dict                     # s -> 2-functor (s . -): X -> X
    mu_right: dict                    # x -> 2-functor (- . x): S -> X
    sigma: dict                       # (f in S, g in X) nonidentity -> 2-cell

    def act(self, s: str, x: str) -> str:
        return self.act_objects[(s, x)]

    def ml(self, s: str) -> TwoFunctor:
        return self.mu_left[s]

    def mr(self, x: str) -> TwoFunctor:
        return self.mu_right[x]

    def sigma_of(self, f: str, g: str) -> str:
        S, X = self.pgm.carrier, self.carrier
        if S.is_id1(f) or X.is_id1(g):
            y = X.one_tgt[g]
            a = S.one_src[f]
            comp = X.comp1[(self.mr(y).on_one[f], self.ml(a).on_one[g])]
            return X.id2[comp]
        return self.sigma[(f, g)]


def validate_action(A: PGMAction) -> PGMAction:
    P = A.pgm
    S, X = P.carrier, A.carrier
    validate_two_category(X)
    for s in S.objects:
        ensure(s in A.mu_left, "action left translation missing", (s,))
        validate_two_functor(A.ml(s))
        ensure(A.ml(s).source is X or A.ml(s).source == X,
               "action left translation carrier", (s,))
    for x in X.objects:
        ensure(x in A.mu_right, "action right translation missing", (x,))
        validate_two_functor(A.mr(x))
    for s in S.objects:
        for x in X.objects:
            ensure((s, x) in A.act_objects
                   and A.ml(s).on_objects[x] == A.act(s, x)
                   and A.mr(x).on_objects[s] == A.act(s, x),
                   "action translation agreement", (s, x))
    ensure(functors_equal(A.ml(P.unit), identity_functor(X)),
           "action unit law", (P.unit,))
    for a in S.objects:
        for b in S.objects:
            ensure(functors_equal(A.ml(P.sum(a, b)),
                                  compose_functors(A.ml(a), A.ml(b))),
                   "action associativity (left translations)", (a, b))
    for x in X.objects:
        for a in S.objects:
            ensure(functors_equal(compose_functors(A.mr(x), P.lt(a)),
                                  compose_functors(A.ml(a), A.mr(x))),
                   "action associativity (mixed)", (a, x))
            ensure(functors_equal(compose_functors(A.mr(x), P.rt(a)),
                                  A.mr(A.act(a, x))),
                   "action associativity (right translations)", (a, x))
    _check_interchanger_table(S, X, A.ml, A.mr, A.sigma)
    _check_interchanger_axioms(S, X, A.ml, A.mr, A.sigma_of)
    # interchanger coherence with the sum of the acting monoid
    ones_s = sorted(S.one_src)
    ones_x = sorted(X.one_src)
    for f in ones_s:
        for b in S.objects:
            for g in ones_x:
                ensure(A.sigma_of(P.rt(b).on_one[f], g)
                       == A.sigma_of(f, A.ml(b).on_one[g]),
                       "action interchanger sum coherence (middle)", (f, b, g))
        for b_one in ones_s:
            for x in X.objects:
                ensure(A.mr(x).on_two[P.sigma_of(f, b_one)]
                       == A.sigma_of(f, A.mr(x).on_one[b_one]),
                       "action interchanger sum coherence (right)",
                       (f, b_one, x))
    for a in S.objects:
        for g in ones_s:
            for h in ones_x:
                ensure(A.sigma_of(P.lt(a).on_one[g], h)
                       == A.ml(a).on_two[A.sigma_of(g, h)],
                       "action interchanger sum coherence (left)", (a, g, h))
    return A


def self_action(P: PGM) -> PGMAction:
    """The sum of a permutative Gray monoid as an action on itself."""
    return PGMAction(P, P.carrier, dict(P.sum_objects),
                     dict(P.left_translations), dict(P.right_translations),
                     dict(P.sigma))


def validate_pgm(P: PGM) -> PGM:
    """Check every axiom of a permutative Gray monoid; returns P.  Those of
    the translations and the interchanger are the axioms of the action of P
    on itself, but for the unit law of the right translations."""
    _check_sum_tables(P)
    validate_action(self_action(P))
    ensure(functors_equal(P.rt(P.unit), identity_functor(P.carrier)),
           "pgm unit translation not identity", (P.unit,))
    _check_symmetry(P)
    return P


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def pi0(S: TwoCategory) -> dict:
    """Map each object to the lexicographically least object of its
    component under zigzags of 1-cells."""
    parent = {x: x for x in S.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in S.one_src:
        a, b = find(S.one_src[f]), find(S.one_tgt[f])
        if a != b:
            parent[max(a, b)] = min(a, b)
    # each root is the least element of its class: a union keeps the
    # smaller root
    return {x: find(x) for x in S.objects}


def pi0_monoid(P: PGM) -> CommMonoid:
    """The commutative monoid of components of a validated PGM; the sum
    descends because translations are functors, and commutativity is
    witnessed by the symmetry 1-cells."""
    comp = pi0(P.carrier)
    elems = tuple(sorted(set(comp.values())))
    add = {}
    for r1 in elems:
        for r2 in elems:
            add[(r1, r2)] = comp[P.sum(r1, r2)]
            for a, ca in comp.items():
                for b, cb in comp.items():
                    if ca == r1 and cb == r2:
                        ensure(comp[P.sum(a, b)] == add[(r1, r2)],
                               "component sum not well defined", (a, b))
    M = CommMonoid(elems, comp[P.unit], add)
    # commutativity is forced by beta: a+b and b+a are connected
    for a in elems:
        for b in elems:
            ensure(comp[P.carrier.one_src[P.beta[(a, b)]]]
                   == comp[P.carrier.one_tgt[P.beta[(a, b)]]],
                   "symmetry does not connect the two sums", (a, b))
    return validate_comm_monoid(M)


def pi0_is_group(M: CommMonoid):
    """True, or a Counterexample naming an element with no inverse."""
    for a in M.elements:
        if not any(M.add[(a, b)] == M.unit for b in M.elements):
            return Counterexample("pi0-not-a-group", (a,))
    return True


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def is_two_groupoid(S: TwoCategory):
    """Every 2-cell vcomp-invertible and every 1-cell an internal
    equivalence; returns True or a clause-tagged Counterexample."""
    for a in sorted(S.two_src):
        if not S.is_invertible2(a):
            return Counterexample("2-cell-not-invertible", (a,))
    for f in sorted(S.one_src):
        if not S.is_equivalence1(f):
            return Counterexample("1-cell-not-equivalence", (f,))
    return True


def has_faithful_translations(P: PGM):
    """Left translation by every object is injective on parallel 2-cells."""
    S = P.carrier
    for s in S.objects:
        F = P.lt(s)
        for f in sorted(S.one_src):
            for g in sorted(S.one_src):
                cells = S.hom2(f, g)
                for i, al in enumerate(cells):
                    for be in cells[i + 1:]:
                        if F.on_two[al] == F.on_two[be]:
                            return Counterexample(
                                "translation-not-faithful", (s, al, be))
    return True


# ---------------------------------------------------------------------------
# localization of a module over a commutative monoid
# ---------------------------------------------------------------------------

def localize_presentation(pres: PresentedGroup, acts: dict,
                          M: CommMonoid) -> PresentedGroup:
    """Stabilized presentation (same generators, enlarged relations) of the
    localization of a presented group at the commutative monoid M acting
    through the endomorphism matrices acts[m].

    Iteratively quotients by the stable kernel of each element's action;
    on the resulting quotient every element acts invertibly (verified),
    which identifies the quotient with the localization.
    """
    validate_comm_monoid(M)
    n = pres.gens
    if n == 0:
        return pres
    # the action table must be a monoid homomorphism (mod relations)
    for m in M.elements:
        ensure(m in acts, "action matrix missing", (m,))
        ensure(mshape(acts[m]) == (n, n), "action matrix shape", (m,))
        ensure(in_relations(mmul(acts[m], pres.rel_matrix()), pres),
               "action matrix does not preserve relations", (m,))
    diff = [[acts[M.unit][i][j] - (1 if i == j else 0) for j in range(n)]
            for i in range(n)]
    ensure(in_relations(diff, pres),
           "action table is not a monoid homomorphism (unit)", (M.unit,))
    for a in M.elements:
        for b in M.elements:
            prod = mmul(acts[a], acts[b])
            diff = [[prod[i][j] - acts[M.add[(a, b)]][i][j]
                     for j in range(n)] for i in range(n)]
            ensure(in_relations(diff, pres),
                   "action table is not a monoid homomorphism", (a, b))
    R = pres.rel_matrix()
    k = len(M.elements)
    changed = True
    while changed:
        changed = False
        cur = PresentedGroup(n, R)
        for m in M.elements:
            # m^k lies in the cyclic part of <m>, so its kernel mod R is
            # the full stable kernel of m
            K = kernel_mod_rels(acts[M.power(m, k)], R)
            if not in_relations(K, cur):
                R = hstack(R, K)
                changed = True
                break
    q = PresentedGroup(n, R)
    for m in M.elements:
        ensure(iso_inverse(acts[m], q, q) is not None,
               "element does not act invertibly on the stabilized quotient",
               (m,))
    return q


def localize_module(A: FGAbGroup, acts: dict, M: CommMonoid) -> FGAbGroup:
    """Localize A (canonical coordinates: free generators first, then one
    generator per torsion order) at the commutative monoid M acting
    through the endomorphism matrices acts[m]."""
    orders = [0] * A.free_rank + list(A.torsion)
    return localize_presentation(
        PresentedGroup(len(orders), order_relations(orders)), acts,
        M).canonical


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _discrete_pgm(monoid: CommMonoid) -> PGM:
    """The PGM with discrete carrier on the elements of a finite
    commutative monoid; all interchanger and symmetry data is trivial."""
    S = discrete_two_category(list(monoid.elements))
    lt = {}
    for a in monoid.elements:
        on_obj = {b: monoid.add[(a, b)] for b in monoid.elements}
        lt[a] = TwoFunctor(S, S, on_obj,
                           {"id_%s" % b: "id_%s" % on_obj[b]
                            for b in monoid.elements},
                           {"ii_%s" % b: "ii_%s" % on_obj[b]
                            for b in monoid.elements})
    beta = {(a, b): "id_%s" % monoid.add[(a, b)]
            for a in monoid.elements for b in monoid.elements}
    return PGM(S, monoid.unit,
               {(a, b): monoid.add[(a, b)]
                for a in monoid.elements for b in monoid.elements},
               lt, dict(lt), {}, beta)


def fix_c2_pgm() -> PGM:
    """Discrete Z/2 under addition."""
    return _discrete_pgm(Z2_MONOID)


def fix_m2_pgm() -> PGM:
    """Discrete {0, 1} under max."""
    return _discrete_pgm(MAX_MONOID)


def _one_object_pgm(S: TwoCategory) -> PGM:
    ident = identity_functor(S)
    return PGM(S, "*", {("*", "*"): "*"}, {"*": ident}, {"*": ident},
               {}, {("*", "*"): S.id1["*"]})


def fix_g2_pgm() -> PGM:
    """One object, 2-cells Z/2; the unique sum with trivial interchanger."""
    return _one_object_pgm(fix_g2())


def fix_g2sat_pgm() -> PGM:
    return _one_object_pgm(fix_g2sat())
