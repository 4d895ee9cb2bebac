"""Two-categorical group completion: freely inverting the action of a
permutative Gray monoid S on a 2-category X.

The completed 2-category ``S^-1 X`` has objects the pairs (a, x); a 1-cell
(a, x) -> (b, y) is a triple (s, alpha, phi) with alpha: s + a -> b in S and
phi: s.x -> y in X; a 2-cell is an equivalence class <p, (A, F)> of triples

    p: s -> s'          (1-cell of S)
    A: alpha  => alpha'.(p + 1_a)   (2-cell of S)
    F: phi    => phi'.(p . 1_x)     (2-cell of X)

where two triples are identified exactly when an invertible 2-cell
Theta: p => q of S pastes one onto the other.  Classes are represented by
their lexicographically least member; horizontal composition is computed by
two independent pasting formulas whose agreement is asserted at run time
(a disagreement would expose a quotient inconsistency upstream), and the
class quotient is checked to be a congruence exhaustively during
construction.

Also here: the completion at a point (the X coordinates omitted), the
permutative sum carried by ``S^-1 S``, the projection to the point
completion together with its opfibration certificate, and the
homology-level group completion check.  The constructions and lemma
checks that only tests run (the contraction of the point completion, the
re-action of S on the completion, translation inverses and the inverse
transformation, the fiber isomorphism, iso and lift criteria, the collapse
to a 1-category) live in ``tests/test_sinv.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import opfib as of
from .core import (AxiomError, Counterexample, TwoCategory, TwoFunctor,
                   build_two_category, ensure, identity_functor,
                   validate_two_category, validate_two_functor)
from .fixtures import bang_functor, fix_t, nm
from .homology import (homology_induced, homology_subquotient,
                       in_relations, iso_inverse, presentation_of)
from .intlinalg import mmul
from .nerve import nerve
from .pgm import (PGM, CommMonoid, PGMAction, has_faithful_translations,
                  is_two_groupoid, localize_presentation, pi0, pi0_monoid,
                  self_action, validate_action, validate_pgm)


# ---------------------------------------------------------------------------
# the completed 2-category
# ---------------------------------------------------------------------------

@dataclass
class SInvCategory:
    """The completion S^-1 X with its naming tables.

    ``class_of`` maps every raw 2-cell triple (src 1-cell, tgt 1-cell,
    p, A, F) to the name of its class; ``two_data`` holds the canonical
    (lexicographically least) representative of each class and ``members``
    the full orbit.
    """
    cat: TwoCategory
    pgm: PGM
    action: PGMAction
    point: bool
    obj_name: dict
    obj_data: dict
    one_name: dict
    one_data: dict
    class_of: dict
    two_data: dict
    members: dict
    include: TwoFunctor | None = None

    def obj(self, a: str, x: str | None = None) -> str:
        if x is None:
            ensure(self.point, "x coordinate required", (a,))
            x = self.action.carrier.objects[0]
        return self.obj_name[(a, x)]

    def onep(self, a: str, s: str, al: str) -> str:
        ensure(self.point, "point-completion accessor", (a, s, al))
        T = self.action.carrier
        x = T.objects[0]
        return self.one_name[(a, x, s, al, T.id1[x])]

    def clsp(self, m1: str, m2: str, p: str, A: str) -> str:
        ensure(self.point, "point-completion accessor", (m1, m2, p, A))
        T = self.action.carrier
        return self.class_of[(m1, m2, p, A, T.id2[T.id1[T.objects[0]]])]


def _theta_image(S, X, P, act, one_data, m2, rep, theta):
    """Paste an invertible Theta: p => q onto the representative rep of a
    2-cell into the 1-cell m2 = (a, x, s2, al2, ph2)."""
    a, x, _s2, al2, ph2 = one_data[m2]
    p, A, F = rep
    q = S.two_tgt[theta]
    A2 = S.vcomp[(S.whisk_l[(al2, P.rt(a).on_two[theta])], A)]
    F2 = X.vcomp[(X.whisk_l[(ph2, act.mr(x).on_two[theta])], F)]
    return (q, A2, F2)


def _build_sinv(P: PGM, act: PGMAction, point: bool,
                obj_nm, one_nm, two_nm) -> SInvCategory:
    S, X = P.carrier, act.carrier

    obj_name, obj_data = {}, {}
    for a in S.objects:
        for x in X.objects:
            n = obj_nm(a, x)
            obj_name[(a, x)] = n
            obj_data[n] = (a, x)

    one_name, one_data, one_cells = {}, {}, {}
    for a in S.objects:
        for x in X.objects:
            for s in S.objects:
                sa, sx = P.sum(s, a), act.act(s, x)
                for al in S.one_src:
                    if S.one_src[al] != sa:
                        continue
                    b = S.one_tgt[al]
                    for ph in X.one_src:
                        if X.one_src[ph] != sx:
                            continue
                        y = X.one_tgt[ph]
                        n = one_nm(a, x, s, al, ph)
                        one_name[(a, x, s, al, ph)] = n
                        one_data[n] = (a, x, s, al, ph)
                        one_cells[n] = (obj_name[(a, x)], obj_name[(b, y)])

    id1 = {}
    e = P.unit
    for (a, x), o in obj_name.items():
        id1[o] = one_name[(a, x, e, S.id1[a], X.id1[x])]

    def compose1(n2: str, n1: str) -> str:
        a, x, s, al, ph = one_data[n1]
        _b, _y, t, ga, ps = one_data[n2]
        return one_name[(a, x, P.sum(t, s),
                         S.comp1[(ga, P.lt(t).on_one[al])],
                         X.comp1[(ps, act.ml(t).on_one[ph])])]

    # invertible 2-cells of S out of each 1-cell, for the Theta action
    inv_out = {f: [] for f in S.one_src}
    for th in sorted(S.two_src):
        if S.is_invertible2(th):
            inv_out[S.two_src[th]].append(th)

    class_of, two_data, members, two_cells = {}, {}, {}, {}
    for m1, (a, x, s, al, ph) in sorted(one_data.items()):
        for m2, (a2, x2, s2, al2, ph2) in sorted(one_data.items()):
            if (a, x) != (a2, x2) or one_cells[m1][1] != one_cells[m2][1]:
                continue
            seen = set()
            reps = []
            for p in S.hom1(s, s2):
                tA = S.comp1[(al2, P.rt(a).on_one[p])]
                tF = X.comp1[(ph2, act.mr(x).on_one[p])]
                for A in S.hom2(al, tA):
                    for F in X.hom2(ph, tF):
                        reps.append((p, A, F))
            for rep in reps:
                if rep in seen:
                    continue
                orbit = {rep}
                queue = [rep]
                while queue:
                    cur = queue.pop()
                    for th in inv_out[cur[0]]:
                        nxt = _theta_image(S, X, P, act, one_data, m2,
                                           cur, th)
                        if nxt not in orbit:
                            orbit.add(nxt)
                            queue.append(nxt)
                canon = min(orbit)
                name = two_nm(m1, m2, canon)
                two_data[name] = (m1, m2, canon)
                members[name] = tuple(sorted(orbit))
                two_cells[name] = (m1, m2)
                for r in orbit:
                    ensure((m1, m2, r[0], r[1], r[2]) not in class_of,
                           "overlapping class orbits", (m1, m2, r))
                    class_of[(m1, m2, r[0], r[1], r[2])] = name
                seen |= orbit

    id2 = {}
    for m, (a, x, s, al, ph) in one_data.items():
        id2[m] = class_of[(m, m, S.id1[s], S.id2[al], X.id2[ph])]

    def vcomp_rep(m_top, a_src, rep2, rep1):
        """Paste rep1: m1 => m2 then rep2: m2 => m_top (a_src, x_src fixed)."""
        a, x = a_src
        p1, A1, F1 = rep1
        p2, A2, F2 = rep2
        p = S.comp1[(p2, p1)]
        A = S.vcomp[(S.whisk_r[(A2, P.rt(a).on_one[p1])], A1)]
        F = X.vcomp[(X.whisk_r[(F2, act.mr(x).on_one[p1])], F1)]
        return (p, A, F)

    def vcomp_cls(c2: str, c1: str) -> str:
        m1, m2, rep1 = two_data[c1]
        _m2b, m3, rep2 = two_data[c2]
        a, x = one_data[m1][0], one_data[m1][1]
        p, A, F = vcomp_rep(m3, (a, x), rep2, rep1)
        return class_of[(m1, m3, p, A, F)]

    def hcomp_cls(n1, n2, repD, m1, m2, repG) -> str:
        """Class of the horizontal composite of repG: m1 => m2 (over
        (a,x) -> (b,y)) with repD: n1 => n2 (over (b,y) -> (c,z)),
        computed by both pasting routes; asserts they agree."""
        a, x, s, al, ph = one_data[m1]
        _a, _x, s2, al2, ph2 = one_data[m2]
        _b, _y, t, ga, ps = one_data[n1]
        _b2, _y2, t2, ga2, ps2 = one_data[n2]
        p, A, F = repG
        q, B, G = repD
        msrc = compose1(n1, m1)
        mtgt = compose1(n2, m2)
        # route one: interchange q past the target leg of repG
        r1 = S.comp1[(P.rt(s2).on_one[q], P.lt(t).on_one[p])]
        tpa = P.lt(t).on_one[P.rt(a).on_one[p]]
        C1 = S.vcomp[(S.whisk_l[(ga2, S.whisk_r[(P.sigma_of(q, al2), tpa)])],
                      S.hcomp(B, P.lt(t).on_two[A]))]
        tpx = act.ml(t).on_one[act.mr(x).on_one[p]]
        H1 = X.vcomp[(X.whisk_l[(ps2, X.whisk_r[(act.sigma_of(q, ph2),
                                                 tpx)])],
                      X.hcomp(G, act.ml(t).on_two[F]))]
        out1 = class_of[(msrc, mtgt, r1, C1, H1)]
        # route two: interchange q past the source leg of repG
        r2 = S.comp1[(P.lt(t2).on_one[p], P.rt(s).on_one[q])]
        sa = P.sum(s, a)
        step0 = S.whisk_r[(B, P.lt(t).on_one[al])]
        step1 = S.whisk_l[(ga2, P.sigma_of(q, al))]
        step2 = S.whisk_l[(ga2, S.whisk_r[(P.lt(t2).on_two[A],
                                           P.rt(sa).on_one[q])])]
        C2 = S.vcomp[(step2, S.vcomp[(step1, step0)])]
        sx = act.act(s, x)
        step0x = X.whisk_r[(G, act.ml(t).on_one[ph])]
        step1x = X.whisk_l[(ps2, act.sigma_of(q, ph))]
        step2x = X.whisk_l[(ps2, X.whisk_r[(act.ml(t2).on_two[F],
                                            act.mr(sx).on_one[q])])]
        H2 = X.vcomp[(step2x, X.vcomp[(step1x, step0x)])]
        out2 = class_of[(msrc, mtgt, r2, C2, H2)]
        ensure(out1 == out2,
               "horizontal composite ill defined (quotient inconsistency)",
               ((m1, m2, repG), (n1, n2, repD)))
        return out1

    def whisk_l_cls(k: str, c: str) -> str:
        m1, m2, rep = two_data[c]
        _b, _y, t, ga, ps = one_data[k]
        ident = (S.id1[t], S.id2[ga], X.id2[ps])
        return hcomp_cls(k, k, ident, m1, m2, rep)

    def whisk_r_cls(c: str, k: str) -> str:
        n1, n2, rep = two_data[c]
        _a, _x, s, al, ph = one_data[k]
        ident = (S.id1[s], S.id2[al], X.id2[ph])
        return hcomp_cls(n1, n2, rep, k, k, ident)

    # the class quotient must be a congruence for both compositions
    by_hom = {}
    for cname, (m1, m2) in two_cells.items():
        by_hom.setdefault(one_cells[m1], []).append(cname)
    for c1, (m1, m2) in sorted(two_cells.items()):
        for c2, (m2b, m3) in sorted(two_cells.items()):
            if m2b != m2:
                continue
            a, x = one_data[m1][0], one_data[m1][1]
            out = {class_of[(m1, m3) + vcomp_rep(m3, (a, x), r2, r1)]
                   for r1 in members[c1] for r2 in members[c2]}
            ensure(len(out) == 1,
                   "vertical composite ill defined (quotient inconsistency)",
                   (c1, c2))
    for (xx, yy), lower in sorted(by_hom.items()):
        for (yb, zz), upper in sorted(by_hom.items()):
            if yb != yy:
                continue
            for c1 in lower:
                m1, m2 = two_cells[c1]
                for c2 in upper:
                    n1, n2 = two_cells[c2]
                    out = {hcomp_cls(n1, n2, rD, m1, m2, rG)
                           for rG in members[c1] for rD in members[c2]}
                    ensure(len(out) == 1, "horizontal composite ill defined "
                           "(quotient inconsistency)", (c1, c2))

    cat = validate_two_category(build_two_category(
        list(obj_name.values()), one_cells, two_cells, id1, id2,
        compose1, vcomp_cls, whisk_l_cls, whisk_r_cls))

    out = SInvCategory(cat, P, act, point, obj_name, obj_data,
                       one_name, one_data, class_of, two_data, members)
    if not point:
        on_obj = {x: obj_name[(e, x)] for x in X.objects}
        on_one = {ph: one_name[(e, X.one_src[ph], e, S.id1[e], ph)]
                  for ph in X.one_src}
        on_two = {}
        for F in X.two_src:
            ph, ph2 = X.two_src[F], X.two_tgt[F]
            m1, m2 = on_one[ph], on_one[ph2]
            on_two[F] = class_of[(m1, m2, S.id1[e], S.id2[S.id1[e]], F)]
        out.include = validate_two_functor(
            TwoFunctor(X, cat, on_obj, on_one, on_two))
    return out


def s_inv_x(P: PGM, act: PGMAction) -> SInvCategory:
    """The completion of the action of P on X, with the canonical strict
    inclusion ``X -> S^-1 X`` attached as ``.include``."""
    validate_pgm(P)
    if act != self_action(P):        # validate_pgm has checked P's own
        validate_action(act)
    ensure(act.pgm is P or act.pgm == P,
           "action does not belong to the monoid", ())
    return _build_sinv(
        P, act, False,
        lambda a, x: nm("o", a, x),
        lambda a, x, s, al, ph: nm("m", a, x, s, al, ph),
        lambda m1, m2, rep: nm("c", m1, m2, *rep))


def point_action(P: PGM) -> PGMAction:
    """The unique action of P on the terminal 2-category."""
    T = fix_t()
    pt = T.objects[0]
    ident = identity_functor(T)
    return PGMAction(P, T,
                     {(s, pt): pt for s in P.carrier.objects},
                     {s: ident for s in P.carrier.objects},
                     {pt: bang_functor(P.carrier)},
                     {})


def s_inv_point(P: PGM) -> SInvCategory:
    """The completion at a point: objects are those of S, a 1-cell a -> b
    is a pair (s, alpha: s + a -> b), a 2-cell a class <p, A>."""
    validate_pgm(P)
    act = validate_action(point_action(P))
    return _build_sinv(
        P, act, True,
        lambda a, x: nm("o", a),
        lambda a, x, s, al, ph: nm("m", a, s, al),
        lambda m1, m2, rep: nm("c", m1, m2, rep[0], rep[1]))


# ---------------------------------------------------------------------------
# hom-terminality of the point completion
# ---------------------------------------------------------------------------

def hom_terminality_check(SP: SInvCategory):
    """When every 2-cell of S is invertible, the pair (a, 1_a) is terminal
    in each hom-category out of the unit: every 1-cell e -> a admits
    exactly one 2-cell into it.  Returns True or a Counterexample."""
    P = SP.pgm
    S = P.carrier
    e = P.unit
    for th in sorted(S.two_src):
        if not S.is_invertible2(th):
            return Counterexample("2-cell-not-invertible", (th,))
    C = SP.cat
    for a in S.objects:
        term = SP.onep(e, a, S.id1[a])
        for m in C.hom1(SP.obj(e), SP.obj(a)):
            cells = C.hom2(m, term)
            if len(cells) != 1:
                return Counterexample("hom-terminality", (a, m, len(cells)))
            # the canonical witness <alpha, 1_alpha> realizes it
            _a, _x, s, al, _ph = SP.one_data[m]
            want = SP.clsp(m, term, al, S.id2[al])
            if cells[0] != want:
                return Counterexample("hom-terminality-witness", (a, m))
    return True


# ---------------------------------------------------------------------------
# the permutative sum on S^-1 S
# ---------------------------------------------------------------------------

def pgm_on_sinvs(SX: SInvCategory) -> PGM:
    """The permutative Gray monoid carried by S^-1 S (the completion of
    the sum acting on itself); validated before being returned."""
    P, act = SX.pgm, SX.action
    S = P.carrier
    ensure(act.carrier is S or act.carrier == S,
           "sum structure requires the self action", ())
    C = SX.cat
    e = P.unit

    def rt_functor(o2):
        a2, x2 = SX.obj_data[o2]
        on_obj = {o: SX.obj_name[(P.sum(a, a2), P.sum(x, x2))]
                  for o, (a, x) in SX.obj_data.items()}
        on_one, on_two = {}, {}
        for m, (a, x, s, al, ph) in SX.one_data.items():
            on_one[m] = SX.one_name[(P.sum(a, a2), P.sum(x, x2), s,
                                     P.rt(a2).on_one[al],
                                     P.rt(x2).on_one[ph])]
        for c, (m1, m2, (p, A, F)) in SX.two_data.items():
            on_two[c] = SX.class_of[(on_one[m1], on_one[m2], p,
                                     P.rt(a2).on_two[A],
                                     P.rt(x2).on_two[F])]
        return validate_two_functor(TwoFunctor(C, C, on_obj, on_one,
                                               on_two))

    def lt_functor(o2):
        a2, x2 = SX.obj_data[o2]
        on_obj = {o: SX.obj_name[(P.sum(a2, a), P.sum(x2, x))]
                  for o, (a, x) in SX.obj_data.items()}
        on_one, on_two = {}, {}
        for m, (a, x, s, al, ph) in SX.one_data.items():
            wa = P.rt(a).on_one[P.beta[(s, a2)]]
            wx = P.rt(x).on_one[P.beta[(s, x2)]]
            on_one[m] = SX.one_name[(P.sum(a2, a), P.sum(x2, x), s,
                                     S.comp1[(P.lt(a2).on_one[al], wa)],
                                     S.comp1[(P.lt(x2).on_one[ph], wx)])]
        for c, (m1, m2, (p, A, F)) in SX.two_data.items():
            a, x, s, _al, _ph = SX.one_data[m1]
            wa = P.rt(a).on_one[P.beta[(s, a2)]]
            wx = P.rt(x).on_one[P.beta[(s, x2)]]
            on_two[c] = SX.class_of[(on_one[m1], on_one[m2], p,
                                     S.whisk_r[(P.lt(a2).on_two[A], wa)],
                                     S.whisk_r[(P.lt(x2).on_two[F], wx)])]
        return validate_two_functor(TwoFunctor(C, C, on_obj, on_one,
                                               on_two))

    sum_objects = {}
    for o, (a, x) in SX.obj_data.items():
        for o2, (a2, x2) in SX.obj_data.items():
            sum_objects[(o, o2)] = SX.obj_name[(P.sum(a, a2),
                                                P.sum(x, x2))]
    lts = {o: lt_functor(o) for o in C.objects}
    rts = {o: rt_functor(o) for o in C.objects}

    sigma = {}
    for m in sorted(C.one_src):
        if C.is_id1(m):
            continue
        a, x, s, al, ph = SX.one_data[m]
        for m2 in sorted(C.one_src):
            if C.is_id1(m2):
                continue
            a2, x2, s2, al2, ph2 = SX.one_data[m2]
            src = C.comp1[(rts[C.one_tgt[m2]].on_one[m],
                           lts[C.one_src[m]].on_one[m2])]
            tgt = C.comp1[(lts[C.one_tgt[m]].on_one[m2],
                           rts[C.one_src[m2]].on_one[m])]
            A = S.whisk_r[(P.sigma_of(al, al2),
                           P.lt(s).on_one[P.rt(a2).on_one[
                               P.beta[(s2, a)]]])]
            F = S.whisk_r[(P.sigma_of(ph, ph2),
                           P.lt(s).on_one[P.rt(x2).on_one[
                               P.beta[(s2, x)]]])]
            sigma[(m, m2)] = SX.class_of[(src, tgt, P.beta[(s, s2)], A, F)]

    beta = {}
    for o, (a, x) in SX.obj_data.items():
        for o2, (a2, x2) in SX.obj_data.items():
            beta[(o, o2)] = SX.one_name[(P.sum(a, a2), P.sum(x, x2), e,
                                         P.beta[(a, a2)], P.beta[(x, x2)])]

    return validate_pgm(PGM(C, SX.obj_name[(e, e)], sum_objects,
                            lts, rts, sigma, beta))


# ---------------------------------------------------------------------------
# the projection to the point completion
# ---------------------------------------------------------------------------

def rho_projection(SX: SInvCategory, SP: SInvCategory) -> TwoFunctor:
    """Erase the X coordinates: S^-1 X -> S^-1 *."""
    P = SX.pgm
    S = P.carrier
    T = SP.action.carrier
    pt = T.objects[0]
    on_obj = {o: SP.obj_name[(a, pt)] for o, (a, _x) in SX.obj_data.items()}
    on_one = {m: SP.one_name[(a, pt, s, al, T.id1[pt])]
              for m, (a, _x, s, al, _ph) in SX.one_data.items()}
    on_two = {}
    ii = T.id2[T.id1[pt]]
    for c, (m1, m2, (p, A, _F)) in SX.two_data.items():
        on_two[c] = SP.class_of[(on_one[m1], on_one[m2], p, A, ii)]
    return validate_two_functor(TwoFunctor(SX.cat, SP.cat, on_obj, on_one,
                                           on_two))


def check_completion_hypotheses(P: PGM, act: PGMAction):
    """The three hypotheses under which the projection is an opfibration
    and the homology comparison holds: faithful translations, S a
    2-groupoid, and invertible 2-cells in X.  True or a tagged
    Counterexample."""
    faith = has_faithful_translations(P)
    if faith is not True:
        return Counterexample("hypothesis-" + faith.clause, faith.detail)
    grpd = is_two_groupoid(P.carrier)
    if grpd is not True:
        return Counterexample("hypothesis-" + grpd.clause, grpd.detail)
    X = act.carrier
    for a in sorted(X.two_src):
        if not X.is_invertible2(a):
            return Counterexample("hypothesis-2-cell-of-X-not-invertible",
                                  (a,))
    return True


@dataclass
class ProjectionReport:
    rho: TwoFunctor
    SX: SInvCategory
    SP: SInvCategory
    certificate: object
    preferred_opcartesian: tuple


def rho_opfib_check(P: PGM, act: PGMAction):
    """Certify the projection S^-1 X -> S^-1 * as an opfibration.  The
    hypotheses are verified first; a failure is reported without
    constructing the completion."""
    hyp = check_completion_hypotheses(P, act)
    if hyp is not True:
        return hyp
    SX, SP = s_inv_x(P, act), s_inv_point(P)
    rho = rho_projection(SX, SP)
    cert = of.check_opfibration(rho)
    if isinstance(cert, Counterexample):
        return cert
    X = act.carrier
    preferred = []
    for m, (_a, x, s, _al, ph) in sorted(SX.one_data.items()):
        if ph == X.id1[act.act(s, x)]:
            res = of.is_opcartesian_1cell(rho, m)
            ensure(not isinstance(res, Counterexample),
                   "preferred cell not opcartesian", (m,))
            preferred.append(m)
    return ProjectionReport(rho, SX, SP, cert, tuple(preferred))


# ---------------------------------------------------------------------------
# the homology-level group completion check
# ---------------------------------------------------------------------------

@dataclass
class GroupCompletionReport:
    monoid: CommMonoid
    trunc: int
    degrees: dict = field(default_factory=dict)

    @property
    def all_iso(self) -> bool:
        return all(d["iso"] for d in self.degrees.values())


def group_completion_check(P: PGM, act: PGMAction | None = None,
                           max_deg: int = 0, trunc: int | None = None
                           ) -> GroupCompletionReport:
    """Verify, degree by degree, that the inclusion X -> S^-1 X localizes
    homology at the component monoid of S: H_q(X) with the pi0(S) action
    inverted is carried isomorphically onto H_q(S^-1 X).

    Raises on hypothesis failure and on requests outside the trusted
    range (degrees < trunc)."""
    act = act or self_action(P)
    hyp = check_completion_hypotheses(P, act)
    if hyp is not True:
        raise AxiomError("completion hypotheses fail: %s at %r"
                         % (hyp.clause, hyp.detail))
    trunc = trunc if trunc is not None else max_deg + 1
    if max_deg > trunc - 1:
        raise ValueError("degree %d untrusted at truncation %d"
                         % (max_deg, trunc))
    SX = s_inv_x(P, act)
    X = act.carrier
    M = pi0_monoid(P)
    comp = pi0(P.carrier)
    degrees = range(max_deg + 1)
    Hxs = homology_subquotient(nerve(X, trunc), degrees)
    Hsxs = homology_subquotient(nerve(SX.cat, trunc), degrees)
    report = GroupCompletionReport(M, trunc)
    for q, Hx, Hsx in zip(degrees, Hxs, Hsxs):
        acts = {}
        pres = presentation_of(Hx.sq)
        for s in P.carrier.objects:
            Ms = homology_induced(act.ml(s), Hx, Hx)
            r = comp[s]
            if r in acts:
                diff = [[acts[r][i][j] - Ms[i][j]
                         for j in range(len(row))]
                        for i, row in enumerate(Ms)]
                ensure(in_relations(diff, pres),
                       "component representatives induce different maps",
                       (s, r, q))
            else:
                acts[r] = Ms
        stab = localize_presentation(pres, acts, M)
        Mi = homology_induced(SX.include, Hx, Hsx)
        tgt_pres = presentation_of(Hsx.sq)
        ensure(in_relations(mmul(Mi, stab.rel_matrix()), tgt_pres),
               "inclusion does not factor through the localization", (q,))
        iso = iso_inverse(Mi, stab, tgt_pres) is not None
        report.degrees[q] = {
            "source": str(pres.canonical),
            "localized": str(stab.canonical),
            "target": str(tgt_pres.canonical),
            "iso": iso,
        }
    return report
