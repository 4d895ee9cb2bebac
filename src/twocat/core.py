"""Finite strict 2-categories as explicit composition tables.

A ``TwoCategory`` stores every cell by an opaque string identifier and every
composition as a total lookup table:

* ``comp1[(g, f)] = g . f`` for 1-cells ``f: x -> y``, ``g: y -> z``;
* ``vcomp[(b, a)] = b * a`` (b after a) for 2-cells ``a: f => g``,
  ``b: g => h`` in the same hom-category;
* ``whisk_l[(k, a)] = k * a : k.f => k.g`` for a 1-cell ``k: y -> z`` and a
  2-cell ``a: f => g`` with ``f, g: x -> y``;
* ``whisk_r[(a, h)] = a * h : f.h => g.h`` for ``f, g: y -> z`` and
  ``h: x -> y``.

Horizontal composition of 2-cells is derived from whiskering and vertical
composition; the interchange law is validated, not assumed.

Identities are designated cells (``id1`` per object, ``id2`` per 1-cell), so
all tables are total and equality of cells is identifier equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType


class AxiomError(ValueError):
    """A named axiom failed; the message carries the offending cell tuple."""


@dataclass
class Counterexample:
    """A failed check returned, not raised: the clause and the offending
    cells.  Falsy, so a check that returns True or one reads as a bool."""
    clause: str
    detail: tuple

    def __bool__(self):
        return False


@dataclass(frozen=True)
class TwoCategory:
    objects: tuple[str, ...]
    one_src: dict[str, str] = field(default_factory=dict)
    one_tgt: dict[str, str] = field(default_factory=dict)
    two_src: dict[str, str] = field(default_factory=dict)
    two_tgt: dict[str, str] = field(default_factory=dict)
    id1: dict[str, str] = field(default_factory=dict)   # object -> identity 1-cell
    id2: dict[str, str] = field(default_factory=dict)   # 1-cell -> identity 2-cell
    comp1: dict[tuple[str, str], str] = field(default_factory=dict)
    vcomp: dict[tuple[str, str], str] = field(default_factory=dict)
    whisk_l: dict[tuple[str, str], str] = field(default_factory=dict)
    whisk_r: dict[tuple[str, str], str] = field(default_factory=dict)

    def __post_init__(self):
        """Index the sorted hom-sets once, at construction (the tables are
        never mutated): 1-cells by (x, y), 2-cells by (f, g), each as a
        tuple.  Not a field: equality and hashing ignore it."""
        h1, h2 = {}, {}
        for f in sorted(self.one_src):
            h1.setdefault((self.one_src[f], self.one_tgt.get(f)), []).append(f)
        for a in sorted(self.two_src):
            h2.setdefault((self.two_src[a], self.two_tgt.get(a)), []).append(a)
        object.__setattr__(self, "_homs", tuple(
            {k: tuple(v) for k, v in h.items()} for h in (h1, h2)))

    @property
    def homs(self) -> tuple:
        """The hom-set index, read-only: (1-cells by (x, y), 2-cells by
        (f, g)), each hom-set a sorted tuple and an empty one absent.  A
        search binds it once instead of copying a hom-set per lookup."""
        return tuple(map(MappingProxyType, self._homs))

    # -- basic accessors ---------------------------------------------------

    def is_id1(self, f: str) -> bool:
        return self.id1.get(self.one_src[f]) == f and self.one_src[f] == self.one_tgt[f]

    def is_id2(self, a: str) -> bool:
        return self.id2.get(self.two_src[a]) == a and self.two_src[a] == self.two_tgt[a]

    def hom1(self, x: str, y: str) -> list[str]:
        return list(self._homs[0].get((x, y), ()))

    def hom2(self, f: str, g: str) -> list[str]:
        return list(self._homs[1].get((f, g), ()))

    # -- derived operations ------------------------------------------------

    def hcomp(self, b: str, a: str) -> str:
        """Horizontal composite b * a for a: f=>g in hom(x,y), b: f'=>g' in hom(y,z).

        Computed as (b * g) after (f' * a); interchange (validated) makes the
        other order agree.
        """
        f2 = self.two_src[b]
        g = self.two_tgt[a]
        return self.vcomp[(self.whisk_r[(b, g)], self.whisk_l[(f2, a)])]

    def vcomp_inverse(self, a: str) -> str | None:
        """The vcomp-inverse of a 2-cell, or None."""
        f, g = self.two_src[a], self.two_tgt[a]
        for b in self.hom2(g, f):
            if (self.vcomp[(b, a)] == self.id2[f]
                    and self.vcomp[(a, b)] == self.id2[g]):
                return b
        return None

    def is_invertible2(self, a: str) -> bool:
        return self.vcomp_inverse(a) is not None

    def is_equivalence1(self, f: str) -> bool:
        """Internal equivalence: a quasi-inverse up to invertible 2-cells."""
        x, y = self.one_src[f], self.one_tgt[f]
        for g in self.hom1(y, x):
            gf, fg = self.comp1[(g, f)], self.comp1[(f, g)]
            if any(self.is_invertible2(u) for u in self.hom2(gf, self.id1[x])) and \
               any(self.is_invertible2(v) for v in self.hom2(fg, self.id1[y])):
                return True
        return False


def make_two_category(objects, one_cells, two_cells, id1, id2,
                      comp1, vcomp, whisk_l, whisk_r) -> TwoCategory:
    """Assemble a TwoCategory from plain dicts.

    one_cells / two_cells: dict id -> (src, tgt).
    """
    return TwoCategory(
        objects=tuple(sorted(objects)),
        one_src={f: st[0] for f, st in one_cells.items()},
        one_tgt={f: st[1] for f, st in one_cells.items()},
        two_src={a: st[0] for a, st in two_cells.items()},
        two_tgt={a: st[1] for a, st in two_cells.items()},
        id1=dict(id1), id2=dict(id2),
        comp1=dict(comp1), vcomp=dict(vcomp),
        whisk_l=dict(whisk_l), whisk_r=dict(whisk_r),
    )


def build_two_category(objects, one_cells, two_cells, id1, id2,
                       comp1_fn, vcomp_fn, whisk_l_fn, whisk_r_fn) -> TwoCategory:
    """Build total tables by evaluating composition callbacks on every
    composable tuple, so that totality is automatic.  Every constructed
    2-category fills its tables here, from its composition rule: products,
    pullbacks, comma objects, strict fibers and S^-1 X;
    ``make_two_category`` is for literal tables."""
    one_cells = dict(one_cells)
    two_cells = dict(two_cells)
    comp1 = {}
    for g, (gs, gt) in one_cells.items():
        for f, (fs, ft) in one_cells.items():
            if ft == gs:
                comp1[(g, f)] = comp1_fn(g, f)
    vcomp = {}
    for b, (bs, bt) in two_cells.items():
        for a, (as_, at) in two_cells.items():
            if at == bs:
                vcomp[(b, a)] = vcomp_fn(b, a)
    whisk_l = {}
    whisk_r = {}
    for a, (f, g) in two_cells.items():
        x = one_cells[f][0]
        y = one_cells[f][1]
        for k, (ks, kt) in one_cells.items():
            if ks == y:
                whisk_l[(k, a)] = whisk_l_fn(k, a)
            if kt == x:
                whisk_r[(a, k)] = whisk_r_fn(a, k)
    return make_two_category(objects, one_cells, two_cells, id1, id2,
                             comp1, vcomp, whisk_l, whisk_r)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def ensure(cond: bool, axiom: str, cells: tuple) -> None:
    """Raise AxiomError naming the axiom and the cells unless cond holds."""
    if not cond:
        raise AxiomError("%s at %r" % (axiom, cells))


def validate_two_category(C: TwoCategory) -> TwoCategory:
    """Check every strict 2-category axiom exhaustively; returns C.

    Raises AxiomError naming the first violated axiom and the offending
    cell tuple (deterministic: cells are visited in sorted order).
    """
    objs = set(C.objects)
    ones = sorted(C.one_src)
    twos = sorted(C.two_src)

    # well-formedness: dangling identifiers, globular typing
    for f in ones:
        ensure(C.one_src[f] in objs and C.one_tgt[f] in objs,
               "dangling object in 1-cell", (f,))
        ensure(f in C.one_tgt, "1-cell missing tgt", (f,))
    for a in twos:
        ensure(C.two_src[a] in C.one_src and C.two_tgt[a] in C.one_src,
               "dangling 1-cell in 2-cell", (a,))
        ensure(C.one_src[C.two_src[a]] == C.one_src[C.two_tgt[a]]
               and C.one_tgt[C.two_src[a]] == C.one_tgt[C.two_tgt[a]],
               "2-cell not parallel", (a,))
    for x in sorted(objs):
        ensure(x in C.id1, "object missing identity 1-cell", (x,))
        f = C.id1[x]
        ensure(f in C.one_src and C.one_src[f] == x and C.one_tgt[f] == x,
               "identity 1-cell badly typed", (x, f))
    for f in ones:
        ensure(f in C.id2, "1-cell missing identity 2-cell", (f,))
        a = C.id2[f]
        ensure(a in C.two_src and C.two_src[a] == f and C.two_tgt[a] == f,
               "identity 2-cell badly typed", (f, a))

    # totality and typing of comp1
    for g in ones:
        for f in ones:
            if C.one_tgt[f] == C.one_src[g]:
                ensure((g, f) in C.comp1, "comp1 not total", (g, f))
                gf = C.comp1[(g, f)]
                ensure(gf in C.one_src and C.one_src[gf] == C.one_src[f]
                       and C.one_tgt[gf] == C.one_tgt[g],
                       "comp1 badly typed", (g, f, gf))
    # unit + associativity of comp1
    for f in ones:
        x, y = C.one_src[f], C.one_tgt[f]
        ensure(C.comp1[(f, C.id1[x])] == f, "comp1 right unit", (f,))
        ensure(C.comp1[(C.id1[y], f)] == f, "comp1 left unit", (f,))
    for h in ones:
        for g in ones:
            if C.one_tgt[g] != C.one_src[h]:
                continue
            hg = C.comp1[(h, g)]
            for f in ones:
                if C.one_tgt[f] != C.one_src[g]:
                    continue
                ensure(C.comp1[(hg, f)] == C.comp1[(h, C.comp1[(g, f)])],
                       "comp1 associativity", (h, g, f))

    # hom-categories: vcomp totality, typing, unit, associativity
    for b in twos:
        for a in twos:
            if C.two_tgt[a] == C.two_src[b]:
                ensure((b, a) in C.vcomp, "vcomp not total", (b, a))
                ba = C.vcomp[(b, a)]
                ensure(ba in C.two_src and C.two_src[ba] == C.two_src[a]
                       and C.two_tgt[ba] == C.two_tgt[b],
                       "vcomp badly typed", (b, a, ba))
    for a in twos:
        f, g = C.two_src[a], C.two_tgt[a]
        ensure(C.vcomp[(a, C.id2[f])] == a, "vcomp right unit", (a,))
        ensure(C.vcomp[(C.id2[g], a)] == a, "vcomp left unit", (a,))
    for c in twos:
        for b in twos:
            if C.two_tgt[b] != C.two_src[c]:
                continue
            cb = C.vcomp[(c, b)]
            for a in twos:
                if C.two_tgt[a] != C.two_src[b]:
                    continue
                ensure(C.vcomp[(cb, a)] == C.vcomp[(c, C.vcomp[(b, a)])],
                       "vcomp associativity", (c, b, a))

    # whiskering: totality, typing, functoriality, identity/comp1 laws
    for a in twos:
        f, g = C.two_src[a], C.two_tgt[a]
        x, y = C.one_src[f], C.one_tgt[f]
        for k in ones:
            if C.one_src[k] == y:
                ensure((k, a) in C.whisk_l, "whisk_l not total", (k, a))
                ka = C.whisk_l[(k, a)]
                ensure(C.two_src[ka] == C.comp1[(k, f)]
                       and C.two_tgt[ka] == C.comp1[(k, g)],
                       "whisk_l badly typed", (k, a, ka))
            if C.one_tgt[k] == x:
                ensure((a, k) in C.whisk_r, "whisk_r not total", (a, k))
                ak = C.whisk_r[(a, k)]
                ensure(C.two_src[ak] == C.comp1[(f, k)]
                       and C.two_tgt[ak] == C.comp1[(g, k)],
                       "whisk_r badly typed", (a, k, ak))
    for a in twos:
        f = C.two_src[a]
        x, y = C.one_src[f], C.one_tgt[f]
        ensure(C.whisk_l[(C.id1[y], a)] == a, "whisk_l by identity", (a,))
        ensure(C.whisk_r[(a, C.id1[x])] == a, "whisk_r by identity", (a,))
    for f in ones:
        x, y = C.one_src[f], C.one_tgt[f]
        for k in ones:
            if C.one_src[k] == y:
                ensure(C.whisk_l[(k, C.id2[f])] == C.id2[C.comp1[(k, f)]],
                       "whisk_l of identity 2-cell", (k, f))
            if C.one_tgt[k] == x:
                ensure(C.whisk_r[(C.id2[f], k)] == C.id2[C.comp1[(f, k)]],
                       "whisk_r of identity 2-cell", (f, k))
    # whiskering is functorial on hom-categories
    for b in twos:
        for a in twos:
            if C.two_tgt[a] != C.two_src[b]:
                continue
            ba = C.vcomp[(b, a)]
            f = C.two_src[a]
            x, y = C.one_src[f], C.one_tgt[f]
            for k in ones:
                if C.one_src[k] == y:
                    ensure(C.vcomp[(C.whisk_l[(k, b)], C.whisk_l[(k, a)])]
                           == C.whisk_l[(k, ba)],
                           "whisk_l functoriality", (k, b, a))
                if C.one_tgt[k] == x:
                    ensure(C.vcomp[(C.whisk_r[(b, k)], C.whisk_r[(a, k)])]
                           == C.whisk_r[(ba, k)],
                           "whisk_r functoriality", (k, b, a))
    # whiskering compatible with comp1 in the whiskering slot
    for a in twos:
        f = C.two_src[a]
        x, y = C.one_src[f], C.one_tgt[f]
        for k in ones:
            if C.one_src[k] != y:
                continue
            for k2 in ones:
                if C.one_src[k2] == C.one_tgt[k]:
                    ensure(C.whisk_l[(k2, C.whisk_l[(k, a)])]
                           == C.whisk_l[(C.comp1[(k2, k)], a)],
                           "whisk_l composition", (k2, k, a))
        for h in ones:
            if C.one_tgt[h] != x:
                continue
            for h2 in ones:
                if C.one_tgt[h2] == C.one_src[h]:
                    ensure(C.whisk_r[(C.whisk_r[(a, h)], h2)]
                           == C.whisk_r[(a, C.comp1[(h, h2)])],
                           "whisk_r composition", (h, h2, a))
        # mixed: (k * a) * h  ==  k * (a * h)
        for k in ones:
            if C.one_src[k] != y:
                continue
            for h in ones:
                if C.one_tgt[h] == x:
                    ensure(C.whisk_r[(C.whisk_l[(k, a)], h)]
                           == C.whisk_l[(k, C.whisk_r[(a, h)])],
                           "whiskering mixed associativity", (k, a, h))

    # middle-four interchange: both derived horizontal orders agree
    for b in twos:
        f2, g2 = C.two_src[b], C.two_tgt[b]
        y = C.one_src[f2]
        for a in twos:
            f, g = C.two_src[a], C.two_tgt[a]
            if C.one_tgt[f] != y:
                continue
            left = C.vcomp[(C.whisk_r[(b, g)], C.whisk_l[(f2, a)])]
            right = C.vcomp[(C.whisk_l[(g2, a)], C.whisk_r[(b, f)])]
            ensure(left == right, "interchange", (b, a))
    return C


# ---------------------------------------------------------------------------
# 2-functors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoFunctor:
    source: TwoCategory
    target: TwoCategory
    on_objects: dict[str, str]
    on_one: dict[str, str]
    on_two: dict[str, str]


def identity_functor(C: TwoCategory) -> TwoFunctor:
    return TwoFunctor(C, C, {x: x for x in C.objects},
                      {f: f for f in C.one_src},
                      {a: a for a in C.two_src})


def compose_functors(G: TwoFunctor, F: TwoFunctor) -> TwoFunctor:
    """G after F."""
    if F.target is not G.source and F.target != G.source:
        raise ValueError("cannot compose: G's source is not F's target")
    return TwoFunctor(F.source, G.target,
                      {x: G.on_objects[y] for x, y in F.on_objects.items()},
                      {f: G.on_one[g] for f, g in F.on_one.items()},
                      {a: G.on_two[b] for a, b in F.on_two.items()})


def functors_equal(F: TwoFunctor, G: TwoFunctor) -> bool:
    return (F.on_objects == G.on_objects and F.on_one == G.on_one
            and F.on_two == G.on_two)


def validate_two_functor(F: TwoFunctor) -> TwoFunctor:
    C, D = F.source, F.target
    for x in C.objects:
        ensure(x in F.on_objects and F.on_objects[x] in set(D.objects),
               "functor object map", (x,))
    for f in sorted(C.one_src):
        ensure(f in F.on_one and F.on_one[f] in D.one_src,
               "functor 1-cell map", (f,))
        ensure(D.one_src[F.on_one[f]] == F.on_objects[C.one_src[f]]
               and D.one_tgt[F.on_one[f]] == F.on_objects[C.one_tgt[f]],
               "functor preserves 1-cell typing", (f,))
    for a in sorted(C.two_src):
        ensure(a in F.on_two and F.on_two[a] in D.two_src,
               "functor 2-cell map", (a,))
        ensure(D.two_src[F.on_two[a]] == F.on_one[C.two_src[a]]
               and D.two_tgt[F.on_two[a]] == F.on_one[C.two_tgt[a]],
               "functor preserves 2-cell typing", (a,))
    for x in C.objects:
        ensure(F.on_one[C.id1[x]] == D.id1[F.on_objects[x]],
               "functor preserves identity 1-cells", (x,))
    for f in sorted(C.one_src):
        ensure(F.on_two[C.id2[f]] == D.id2[F.on_one[f]],
               "functor preserves identity 2-cells", (f,))
    for (g, f), gf in sorted(C.comp1.items()):
        ensure(D.comp1[(F.on_one[g], F.on_one[f])] == F.on_one[gf],
               "functor preserves comp1", (g, f))
    for (b, a), ba in sorted(C.vcomp.items()):
        ensure(D.vcomp[(F.on_two[b], F.on_two[a])] == F.on_two[ba],
               "functor preserves vcomp", (b, a))
    for (k, a), ka in sorted(C.whisk_l.items()):
        ensure(D.whisk_l[(F.on_one[k], F.on_two[a])] == F.on_two[ka],
               "functor preserves whisk_l", (k, a))
    for (a, h), ah in sorted(C.whisk_r.items()):
        ensure(D.whisk_r[(F.on_two[a], F.on_one[h])] == F.on_two[ah],
               "functor preserves whisk_r", (a, h))
    return F


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------

LAX = "lax"
OPLAX = "oplax"
PSEUDONATURAL = "pseudonatural"
TWO_NATURAL = "2-natural"


@dataclass(frozen=True)
class Transformation:
    """Lax or oplax transformation between parallel 2-functors.

    ``direction`` is "lax" (component at f: x->y is a_f: Gf.a_x => a_y.Ff)
    or "oplax" (a_f: a_y.Ff => Gf.a_x).  ``flavor`` refines lax/oplax to
    pseudonatural (all a_f invertible) or 2-natural (all a_f identities).
    """
    source: TwoFunctor
    target: TwoFunctor
    at_object: dict[str, str]     # object -> 1-cell Fx -> Gx
    at_one: dict[str, str]        # 1-cell -> 2-cell (orientation per direction)
    direction: str = LAX
    flavor: str = LAX


# ---------------------------------------------------------------------------
# dualities
# ---------------------------------------------------------------------------

def op_dual(C: TwoCategory) -> TwoCategory:
    """Reverse 1-cells.  Involution on the nose.

    2-cells a: f => g become 2-cells a: f^op => g^op between the reversed
    1-cells; whiskering sides swap and comp1 reverses its arguments.
    """
    return TwoCategory(
        objects=C.objects,
        one_src=dict(C.one_tgt), one_tgt=dict(C.one_src),
        two_src=dict(C.two_src), two_tgt=dict(C.two_tgt),
        id1=dict(C.id1), id2=dict(C.id2),
        comp1={(f, g): h for (g, f), h in C.comp1.items()},
        vcomp=dict(C.vcomp),
        whisk_l={(k, a): r for (a, k), r in C.whisk_r.items()},
        whisk_r={(a, k): r for (k, a), r in C.whisk_l.items()},
    )


def co_dual(C: TwoCategory) -> TwoCategory:
    """Reverse 2-cells.  Involution on the nose."""
    return TwoCategory(
        objects=C.objects,
        one_src=dict(C.one_src), one_tgt=dict(C.one_tgt),
        two_src=dict(C.two_tgt), two_tgt=dict(C.two_src),
        id1=dict(C.id1), id2=dict(C.id2),
        comp1=dict(C.comp1),
        vcomp={(a, b): r for (b, a), r in C.vcomp.items()},
        whisk_l=dict(C.whisk_l), whisk_r=dict(C.whisk_r),
    )


def coop_dual(C: TwoCategory) -> TwoCategory:
    return co_dual(op_dual(C))
