"""Opfibration certification and the fiber-inclusion comparison.

For a 2-functor P the module decides, by exhaustive search:

* cartesian 2-cells (unique 2-dimensional lifts in each hom-category);
* opcartesian 1-cells (existence of lifts of 1-cell data up to coherent
  isomorphism, plus unique 2-cells between lifts);
* the opfibration conditions: opcartesian lifts of 1-cells out of the
  image, local fibration, and closure of cartesian 2-cells under
  horizontal composition.

Lift choices are deterministic: identity cells are preferred whenever they
satisfy the required equations, then identifier order.  Given a certified
opfibration P and any 2-functor F into the same target with all target
2-cells invertible, ``comparison_H`` builds the normal pseudofunctor
H: laco(P,F) -> pb(P,F) with H.i = id and the pseudonatural eta: 1 => i.H.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructs import (CommaResult, PullbackResult, comma_inclusion, laco,
                         pullback)
from .core import (AxiomError, Counterexample, NormalPseudofunctor,
                   TwoFunctor)


def _ordered_ones(K, cells):
    return sorted(cells, key=lambda f: (0 if K.is_id1(f) else 1, f))


def _ordered_twos(K, cells):
    return sorted(cells, key=lambda a: (0 if K.is_id2(a) else 1, a))


# ---------------------------------------------------------------------------
# cartesian 2-cells
# ---------------------------------------------------------------------------

@dataclass
class CartesianCertificate:
    lifts: dict            # (psi, phi) -> unique lift phi^c


def is_cartesian_2cell(P: TwoFunctor, ga: str):
    """Certificate with the full unique-lift table, or a counterexample
    naming the failing (k, psi, phi)."""
    K, L = P.source, P.target
    g, h = K.two_src[ga], K.two_tgt[ga]
    x, y = K.one_src[g], K.one_tgt[g]
    lifts = {}
    for k in K.hom1(x, y):
        for psi in K.hom2(k, h):
            for phi in L.hom2(P.on_one[k], P.on_one[g]):
                if P.on_two[psi] != L.vcomp[(P.on_two[ga], phi)]:
                    continue
                cands = [c for c in K.hom2(k, g)
                         if P.on_two[c] == phi and K.vcomp[(ga, c)] == psi]
                if len(cands) != 1:
                    return Counterexample(
                        "cartesian-2cell", (ga, k, psi, phi, tuple(cands)))
                lifts[(psi, phi)] = cands[0]
    return CartesianCertificate(lifts)


# ---------------------------------------------------------------------------
# opcartesian 1-cells
# ---------------------------------------------------------------------------

@dataclass
class OpcartesianCertificate:
    lifts: dict            # (u, t, al) -> (t-tilde, al1, al2)


def _opcart_lift(P: TwoFunctor, h: str, u: str, t: str, al: str):
    """First lift (t-tilde, al1, al2) of (u, t, al) in deterministic order
    (identity cells preferred), or None."""
    K, L = P.source, P.target
    d, b = K.one_tgt[h], K.one_tgt[u]
    ph = P.on_one[h]
    for tt in _ordered_ones(K, K.hom1(d, b)):
        for a1 in _ordered_twos(L, L.hom2(t, P.on_one[tt])):
            if not L.is_invertible2(a1):
                continue
            for a2 in _ordered_twos(K, K.hom2(K.comp1[(tt, h)], u)):
                if not K.is_invertible2(a2):
                    continue
                if al == L.vcomp[(P.on_two[a2], L.whisk_r[(a1, ph)])]:
                    return (tt, a1, a2)
    return None


def _opcart_betas(P: TwoFunctor, h: str, lift, lift2, beta: str, rho: str):
    """All beta-tilde satisfying the two lift-comparison equalities."""
    K, L = P.source, P.target
    (tt, a1, a2) = lift
    (tt2, b1, b2) = lift2
    out = []
    for bt in K.hom2(tt, tt2):
        if L.vcomp[(P.on_two[bt], a1)] != L.vcomp[(b1, beta)]:
            continue
        if K.vcomp[(rho, a2)] != K.vcomp[(b2, K.whisk_r[(bt, h)])]:
            continue
        out.append(bt)
    return out


def is_opcartesian_1cell(P: TwoFunctor, h: str):
    K, L = P.source, P.target
    a, d = K.one_src[h], K.one_tgt[h]
    ph = P.on_one[h]
    lifts = {}
    for b in sorted(K.objects):
        for u in K.hom1(a, b):
            for t in L.hom1(P.on_objects[d], P.on_objects[b]):
                th = L.comp1[(t, ph)]
                for al in L.hom2(th, P.on_one[u]):
                    if not L.is_invertible2(al):
                        continue
                    lift = _opcart_lift(P, h, u, t, al)
                    if lift is None:
                        return Counterexample("opcartesian-lift-existence",
                                              (h, u, t, al))
                    lifts[(u, t, al)] = lift
    # each comparison 2-cell between two lifts is unique
    for (u, t, al), lift in sorted(lifts.items()):
        for (u2, t2, al2), lift2 in sorted(lifts.items()):
            if K.one_tgt[u2] != K.one_tgt[u]:
                continue
            for beta in L.hom2(t, t2):
                for rho in K.hom2(u, u2):
                    lhs = L.vcomp[(P.on_two[rho], al)]
                    rhs = L.vcomp[(al2, L.whisk_r[(beta, ph)])]
                    if lhs != rhs:
                        continue
                    cands = _opcart_betas(P, h, lift, lift2, beta, rho)
                    if len(cands) != 1:
                        return Counterexample(
                            "opcartesian-beta-uniqueness",
                            (h, (u, t, al), (u2, t2, al2), beta, rho,
                             tuple(cands)))
    return OpcartesianCertificate(lifts)


# ---------------------------------------------------------------------------
# opfibrations
# ---------------------------------------------------------------------------

@dataclass
class OpfibrationCertificate:
    functor: TwoFunctor
    opcart_lift: dict      # (x, f) -> chosen opcartesian 1-cell f-hat
    opcart_cert: dict      # f-hat -> OpcartesianCertificate
    cart_lift: dict        # (g, al) -> (g-hat, cartesian al-hat)
    cartesian: dict        # 2-cell -> bool


def check_opfibration(P: TwoFunctor):
    """Certificate with deterministic lift choices, or a clause-tagged
    counterexample."""
    K, L = P.source, P.target
    cartesian = {a: not isinstance(is_cartesian_2cell(P, a), Counterexample)
                 for a in sorted(K.two_src)}
    # local fibration
    cart_lift = {}
    for g in sorted(K.one_src):
        x, y = K.one_src[g], K.one_tgt[g]
        pg = P.on_one[g]
        for f in L.hom1(P.on_objects[x], P.on_objects[y]):
            for al in L.hom2(f, pg):
                found = None
                for gh in _ordered_ones(K, K.hom1(x, y)):
                    if P.on_one[gh] != f:
                        continue
                    for ah in _ordered_twos(K, K.hom2(gh, g)):
                        if P.on_two[ah] == al and cartesian[ah]:
                            found = (gh, ah)
                            break
                    if found:
                        break
                if found is None:
                    return Counterexample("local-fibration", (g, f, al))
                cart_lift[(g, al)] = found
    # horizontal closure of cartesian 2-cells
    for a2 in sorted(K.two_src):
        if not cartesian[a2]:
            continue
        for a1 in sorted(K.two_src):
            if not cartesian[a1]:
                continue
            if K.one_src[K.two_src[a2]] != K.one_tgt[K.two_src[a1]]:
                continue
            if not cartesian[K.hcomp(a2, a1)]:
                return Counterexample("cartesian-hcomp", (a2, a1))
    # opcartesian lifts of 1-cells out of the image
    opcart_lift = {}
    opcart_cert = {}
    opcart_status = {}
    for x in sorted(K.objects):
        for z in sorted(L.objects):
            for f in L.hom1(P.on_objects[x], z):
                found = None
                for m in _ordered_ones(K, [m for m in K.one_src
                                           if K.one_src[m] == x
                                           and P.on_one[m] == f]):
                    if m not in opcart_status:
                        opcart_status[m] = is_opcartesian_1cell(P, m)
                    cert = opcart_status[m]
                    if not isinstance(cert, Counterexample):
                        found = m
                        opcart_cert[m] = cert
                        break
                if found is None:
                    return Counterexample("opcartesian-lift-missing", (x, f))
                opcart_lift[(x, f)] = found
    return OpfibrationCertificate(P, opcart_lift, opcart_cert,
                                  cart_lift, cartesian)


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
    H_one = {}
    for (o, o2, s, al, t), m in Lc.one_id.items():
        (x, f, z) = Lc.obj_data[o]
        (x2, f2, z2) = Lc.obj_data[o2]
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
            lift = cert.opcart_cert[fh].lifts.get((u, tB, al)) \
                if fh in cert.opcart_cert else None
            if lift is None:
                lift = _opcart_lift(P, fh, u, tB, al)
            if lift is None:
                raise AxiomError("no opcartesian lift datum for %r" % m)
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
        (o, o2) = (C.one_src[m], C.one_tgt[m])
        fh, fh2 = fhat[o], fhat[o2]
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
    iH_one = {m: incl.on_one[H_one[m]] for m in C.one_src}
    for m in C.one_src:
        o, o2 = C.one_src[m], C.one_tgt[m]
        (u, tB, al, stilde, bar, til, shat, hat) = one_data[m]
        first = K.vcomp[(til, K.whisk_r[(hat, fhat[o])])]
        t = Lc.one_data[m][4]
        src1 = C.comp1[(iH_one[m], eta_obj[o])]
        tgt1 = C.comp1[(eta_obj[o2], m)]
        eta_one[m] = Lc.two_id[(src1, tgt1, first, Z.id2[t])]
    return ComparisonResult(H, eta_obj, eta_one, Lc, PB, incl)


