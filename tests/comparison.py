"""The comparison of the main theorem, built and certified.

Given a certified opfibration P: K -> L and a 2-functor F: Z -> L into the
same target, every 2-cell of L invertible, the inclusion
i: pb(P, F) -> laco(P, F) of the strict pullback into the lax comma object
(``comma_inclusion``) has a normal pseudofunctor H: laco(P, F) -> pb(P, F)
back (``comparison_H``) with H.i = id and a pseudonatural eta: 1 => i.H.
``check_comparison(P, F)`` certifies all of it:

* laco(P, F) is a strict 2-category;
* H is a normal pseudofunctor (``validate_pseudofunctor``);
* H.i is the identity on objects, 1-cells and 2-cells, and H's constraint
  on each composable pair of i's 1-cells is an identity;
* eta is pseudonatural into i.H (``validate_pseudonatural_unit``);
* every opcartesian lift H reads off the opfibration certificate is the
  one that ``opfib._opcart_lift`` finds.

No command runs any of this: the package certifies opfibrations
(``twocat.opfib``), and the comparison is the construction behind the
theorem that acceptance criterion 03 and ``test_opfib.py`` check.  It
reads the comma object's and the pullback's cells by their naming tables
(``obj_id``, ``one_id``, ``two_id``), which only ``twocat.constructs``
does in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from twocat.constructs import (CommaResult, PullbackResult, laco,
                               mediate_laco, pullback)
from twocat.core import (LAX, OPLAX, TWO_NATURAL, AxiomError, Transformation,
                         TwoCategory, TwoFunctor, compose_functors, ensure,
                         validate_two_category)
from twocat.opfib import (OpfibrationCertificate, _opcart_betas, _opcart_lift,
                          check_opfibration)


@dataclass(frozen=True)
class NormalPseudofunctor:
    """Pseudofunctor with identity unit constraints (F0 = id).

    ``constraint[(g, f)]`` is the invertible 2-cell F2(g,f): Fg.Ff => F(g.f)
    for each composable pair of 1-cells.
    """
    source: TwoCategory
    target: TwoCategory
    on_objects: dict[str, str]
    on_one: dict[str, str]
    on_two: dict[str, str]
    constraint: dict[tuple[str, str], str]


def comma_inclusion(PB: PullbackResult, L: CommaResult,
                    F: TwoFunctor, G: TwoFunctor) -> TwoFunctor:
    """The inclusion i: pb(F,G) -> laco(F,G) mediated by identity laxity."""
    Y = F.target
    lam = Transformation(
        source=compose_functors(F, PB.pr_left),
        target=compose_functors(G, PB.pr_right),
        at_object={o: Y.id1[F.on_objects[x]]
                   for (x, z), o in PB.obj_id.items()},
        at_one={m: Y.id2[F.on_one[s]] for (s, t), m in PB.one_id.items()},
        direction=LAX if L.lax else OPLAX,
        flavor=TWO_NATURAL)
    return mediate_laco(L, PB.pr_left, PB.pr_right, lam)


# ---------------------------------------------------------------------------
# the comparison pseudofunctor H and the unit eta
# ---------------------------------------------------------------------------

@dataclass
class ComparisonResult:
    H: NormalPseudofunctor
    eta_obj: dict          # laco object -> laco 1-cell component
    eta_one: dict          # laco 1-cell -> invertible laco 2-cell
    L: CommaResult
    PB: PullbackResult
    inclusion: TwoFunctor
    lifts: dict            # (f-hat, u, t, al) -> the certificate's lift


def comparison_H(P: TwoFunctor, F: TwoFunctor,
                 cert: OpfibrationCertificate) -> ComparisonResult:
    K, L = P.source, P.target
    Z = F.source
    for a in L.two_src:
        if not L.is_invertible2(a):
            raise AxiomError("target 2-cell %r is not invertible" % a)
    Lc = laco(P, F)
    PB = pullback(P, F)
    C = Lc.cat

    fhat = {}
    H_obj = {}
    for (x, f, z), o in Lc.obj_id.items():
        fh = cert.opcart_lift[(x, f)]
        fhat[o] = fh
        H_obj[o] = PB.obj_id[(K.one_tgt[fh], z)]

    one_data = {}
    lifts = {}
    H_one = {}
    for (o, o2, s, al, t), m in Lc.one_id.items():
        fh, fh2 = fhat[o], fhat[o2]
        u = K.comp1[(fh2, s)]
        tB = F.on_one[t]
        if C.is_id1(m):
            xh = K.one_tgt[fh]
            stilde = shat = K.id1[xh]
            bar = L.id2[L.id1[P.on_objects[xh]]]
            til = K.id2[fh]
            hat = K.id2[stilde]
        elif K.is_id1(fh) and K.is_id1(fh2) and L.is_id2(al):
            # 1-cells inherited from the strict pullback lift to themselves
            stilde = shat = s
            bar = L.id2[tB]
            til = K.id2[u]
            hat = K.id2[s]
        else:
            # fh is a chosen lift, certified with every (u, tB, al) whose
            # al is invertible, and all of L's 2-cells are
            lift = cert.opcart_cert[fh].lifts[(u, tB, al)]
            lifts[(fh, u, tB, al)] = lift
            stilde, bar, til = lift
            shat, hat = cert.cart_lift[(stilde, bar)]
        one_data[m] = (u, tB, al, stilde, bar, til, shat, hat)
        H_one[m] = PB.one_id[(shat, t)]

    def unique_beta(fh, datum1, datum2, beta, rho, what):
        cands = _opcart_betas(P, fh, datum1, datum2, beta, rho)
        if len(cands) != 1:
            raise AxiomError("no unique comparison 2-cell for %s" % what)
        return cands[0]

    H_two = {}
    for (m, m2, phi, ga), c in Lc.two_id.items():
        fh, fh2 = fhat[C.one_src[m]], fhat[C.one_tgt[m]]
        (u, tB, al, stilde, bar, til, shat, hat) = one_data[m]
        (u2, tB2, al2, stilde2, bar2, til2, shat2, hat2) = one_data[m2]
        beta = F.on_two[ga]
        rho = K.whisk_l[(fh2, phi)]
        phitilde = unique_beta(fh, (stilde, bar, til), (stilde2, bar2, til2),
                               beta, rho, "2-cell image")
        psi = K.vcomp[(phitilde, hat)]
        cands = [d for d in K.hom2(shat, shat2)
                 if P.on_two[d] == beta and K.vcomp[(hat2, d)] == psi]
        if len(cands) != 1:
            raise AxiomError("cartesian lift for 2-cell image not unique")
        H_two[c] = PB.two_id[(cands[0], ga)]

    constraint = {}
    for m2 in C.one_src:
        for m1 in C.one_src:
            if C.one_tgt[m1] != C.one_src[m2]:
                continue
            m21 = C.comp1[(m2, m1)]
            (u1, tB1, al1, st1, bar1, til1, sh1, hat1) = one_data[m1]
            (u2, tB2, al2, st2, bar2, til2, sh2, hat2) = one_data[m2]
            (u21, tB21, al21, st21, bar21, til21, sh21, hat21) = one_data[m21]
            (_, _, s1, _, _) = Lc.one_data[m1]
            fh = fhat[C.one_src[m1]]
            comp_tilde = K.comp1[(st2, st1)]
            comp_bar = L.hcomp(bar2, bar1)
            comp_til = K.vcomp[(K.whisk_r[(til2, s1)],
                                K.whisk_l[(st2, til1)])]
            delta = unique_beta(fh, (comp_tilde, comp_bar, comp_til),
                                (st21, bar21, til21),
                                L.id2[tB21], K.id2[u21], "constraint")
            first = K.vcomp[(K.vcomp_inverse(hat21),
                             K.vcomp[(delta, K.hcomp(hat2, hat1))])]
            t21 = Z.comp1[(Lc.one_data[m2][4], Lc.one_data[m1][4])]
            constraint[(m2, m1)] = PB.two_id[(first, Z.id2[t21])]

    H = NormalPseudofunctor(C, PB.cat, H_obj, H_one, H_two, constraint)
    incl = comma_inclusion(PB, Lc, P, F)

    eta_obj = {}
    for (x, f, z), o in Lc.obj_id.items():
        fh = fhat[o]
        xh = K.one_tgt[fh]
        target = Lc.obj_id[(xh, L.id1[P.on_objects[xh]], z)]
        eta_obj[o] = Lc.one_id[(o, target, fh, L.id2[f], Z.id1[z])]
    eta_one = {}
    for m in C.one_src:
        o, o2 = C.one_src[m], C.one_tgt[m]
        (u, tB, al, stilde, bar, til, shat, hat) = one_data[m]
        first = K.vcomp[(til, K.whisk_r[(hat, fhat[o])])]
        t = Lc.one_data[m][4]
        src1 = C.comp1[(incl.on_one[H_one[m]], eta_obj[o])]
        tgt1 = C.comp1[(eta_obj[o2], m)]
        eta_one[m] = Lc.two_id[(src1, tgt1, first, Z.id2[t])]
    return ComparisonResult(H, eta_obj, eta_one, Lc, PB, incl, lifts)


# ---------------------------------------------------------------------------
# the coherence checks
# ---------------------------------------------------------------------------

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


def check_comparison(P: TwoFunctor, F: TwoFunctor) -> ComparisonResult:
    """Certify P as an opfibration, build the comparison of P and F, and
    check every clause of the module docstring; returns the comparison,
    or raises AxiomError naming the first clause that fails."""
    cert = check_opfibration(P)
    ensure(isinstance(cert, OpfibrationCertificate),
           "not an opfibration", (cert,))
    res = comparison_H(P, F, cert)
    for (fh, u, t, al), lift in sorted(res.lifts.items()):
        ensure(lift == _opcart_lift(P, fh, u, t, al),
               "certificate lift differs from the first lift", (fh, u, t, al))
    validate_two_category(res.L.cat)
    validate_pseudofunctor(res.H)
    # H restricted along the inclusion of the strict pullback is the identity
    PBC, i, H = res.PB.cat, res.inclusion, res.H
    for o in PBC.objects:
        ensure(H.on_objects[i.on_objects[o]] == o, "H.i = id on objects", (o,))
    for m in PBC.one_src:
        ensure(H.on_one[i.on_one[m]] == m, "H.i = id on 1-cells", (m,))
    for c in PBC.two_src:
        ensure(H.on_two[i.on_two[c]] == c, "H.i = id on 2-cells", (c,))
    for m2 in PBC.one_src:
        for m1 in PBC.one_src:
            if PBC.one_src[m2] == PBC.one_tgt[m1]:
                k = (i.on_one[m2], i.on_one[m1])
                ensure(PBC.is_id2(H.constraint[k]),
                       "H's constraint on i's 1-cells is an identity", k)
    # the unit is pseudonatural into the composite endo-pseudofunctor
    validate_pseudonatural_unit(postcompose_pseudofunctor(i, H),
                                res.eta_obj, res.eta_one)
    return res
