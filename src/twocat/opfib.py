"""Opfibration certification.

For a 2-functor P the module decides, by exhaustive search:

* cartesian 2-cells (unique 2-dimensional lifts in each hom-category);
* opcartesian 1-cells (existence of lifts of 1-cell data up to coherent
  isomorphism, plus unique 2-cells between lifts);
* the opfibration conditions: opcartesian lifts of 1-cells out of the
  image, local fibration, and closure of cartesian 2-cells under
  horizontal composition.

Lift choices are deterministic: identity cells are preferred whenever they
satisfy the required equations, then identifier order.  A certificate
holds every choice, with the full lift table of each chosen opcartesian
1-cell; the comparison pseudofunctor they define is built and checked on
the test side (``tests/comparison.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Counterexample, TwoFunctor


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
