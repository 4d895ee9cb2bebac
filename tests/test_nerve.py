import ast
import gc
import hashlib
import os
import random
import string
import subprocess
import sys
from itertools import combinations, product
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

import pytest

from twocat import fixtures, pgm, sinv, specseq
from twocat import homology as hm
from twocat import io as tio
from twocat import nerve as nv
from twocat.core import (AxiomError, TwoFunctor, op_dual,
                         validate_two_category)
from twocat.fixtures import (bang_functor, fix_c2, fix_g2, fix_g2sat, fix_i,
                             fix_m2, fix_prod, fix_t)
from twocat.intlinalg import chain_homology

from diagram_comma import (degeneracy, face, find_oplax_initial,
                           increasing_paths, materialize_oriental)
from test_core import find_isomorphism
from test_homology import ORACLE_CATEGORIES, operator_dicts

SRC = Path(__file__).resolve().parent.parent / "src" / "twocat"


# --- orientals ----------------------------------------------------------------

@pytest.mark.parametrize("p", range(5))
def test_orientals_validate(p):
    validate_two_category(materialize_oriental(p))


def test_oriental_bound():
    with pytest.raises(ValueError):
        materialize_oriental(5)
    materialize_oriental(5, bound=5)  # explicit bound raise is allowed


def test_oriental_0_1():
    assert find_isomorphism(materialize_oriental(0), fix_t()) is not None
    assert find_isomorphism(materialize_oriental(1), fix_i()) is not None


def test_oriental_2_shape():
    O = materialize_oriental(2)
    assert len(O.objects) == 3
    # 1-cells: three identities, (0,1), (1,2), (0,2) and (0,1,2)
    assert len(O.one_src) == 7
    nonid = [a for a in O.two_src if not O.is_id2(a)]
    assert nonid == [repr(((0, 2), (0, 1, 2)))]


def test_increasing_paths():
    assert increasing_paths(0, 3) == [(0, 1, 2, 3), (0, 1, 3), (0, 2, 3),
                                      (0, 3)]
    assert increasing_paths(2, 2) == [(2,)]


@pytest.mark.parametrize("p", range(4))
def test_oriental_initial_terminal(p):
    O = materialize_oriental(p)
    w = find_oplax_initial(O)
    assert w is not None and w.obj == "0"
    wt = find_oplax_initial(op_dual(O))
    assert wt is not None and wt.obj == str(p)


# --- simplex enumeration --------------------------------------------------------

def enumerate_simplices(D, p):
    """All p-simplices of the nerve of D, in lexicographic order of
    (vertices, edges, triangles): level p of ``simplex_operators``."""
    return nv.simplex_operators(D, p)[0][p]


@pytest.mark.parametrize("p", range(4))
def test_terminal_has_one_simplex_per_level(p):
    assert len(enumerate_simplices(fix_t(), p)) == 1


def test_interval_simplices_are_monotone_maps():
    assert len(enumerate_simplices(fix_i(), 2)) == 4
    assert len(enumerate_simplices(fix_i(), 3)) == 5


def test_g2_simplex_counts():
    D = fix_g2()
    assert len(enumerate_simplices(D, 2)) == 2
    assert len(enumerate_simplices(D, 3)) == 8


def has_pins(x, pinned_vertices, pinned_edges, pinned_triangles):
    """Whether the simplex x holds every pinned cell, pins keyed as in the
    oracles below."""
    return (all(x.vertices[m] == v for m, v in pinned_vertices.items())
            and all(x.edge(*k) == e for k, e in pinned_edges.items())
            and all(x.triangles[nv.layout(x.dim).tri_at[k]] == t
                    for k, t in pinned_triangles.items()))


def test_pinned_enumeration():
    # the pinned oracles give the simplices of the search that hold the pin
    D = fix_g2()
    pins = ({}, {}, {(0, 1, 2): "e1"})
    xs = [x for x in enumerate_simplices(D, 2) if has_pins(x, *pins)]
    assert len(xs) == 1 and xs[0].triangles == ("e1",)
    assert xs == dict_keyed_search(D, 2, *pins) == \
        product_then_filter(D, 2, *pins)


def tetrahedron_ok(D, edges, tris, i, j, k, l):
    """The pasting equality of the tetrahedron (i, j, k, l), on cells keyed
    by their index tuples."""
    lhs = D.vcomp[(D.whisk_l[(edges[(k, l)], tris[(i, j, k)])],
                   tris[(i, k, l)])]
    rhs = D.vcomp[(D.whisk_r[(tris[(j, k, l)], edges[(i, j)])],
                   tris[(i, j, l)])]
    return lhs == rhs


def dict_keyed_search(D, p, pinned_vertices=None, pinned_edges=None,
                      pinned_triangles=None):
    """Oracle for the position-list search: the same pruned depth-first
    search, holding its cells in dicts keyed by index tuples and checking
    each tetrahedron through ``tetrahedron_ok``."""
    pinned_vertices = pinned_vertices or {}
    pinned_edges = pinned_edges or {}
    pinned_triangles = pinned_triangles or {}
    objects = sorted(D.objects)
    pairs, triples = nv.layout(p).pairs, nv.layout(p).triples
    # (j, k, l) is the last triangle placed of each tetrahedron (i, j, k, l)
    ready = [[(i,) + t for i in range(t[0])] for t in triples]
    vs, edge_choices, edges, tri_choices, tris = [], {}, {}, {}, {}
    out = []

    def edge_cands(i, j):
        if (i, j) in pinned_edges:
            e = pinned_edges[(i, j)]
            return [e] if (D.one_src[e], D.one_tgt[e]) == (vs[i], vs[j]) else []
        return D.hom1(vs[i], vs[j])

    def tri_cands(i, j, k):
        src = edges[(i, k)]
        tgt = D.comp1[(edges[(j, k)], edges[(i, j)])]
        if (i, j, k) in pinned_triangles:
            t = pinned_triangles[(i, j, k)]
            return [t] if (D.two_src[t], D.two_tgt[t]) == (src, tgt) else []
        return D.hom2(src, tgt)

    def fill_vertices(m):
        if m > p:
            return fill_edges(0)
        for v in [pinned_vertices[m]] if m in pinned_vertices else objects:
            vs.append(v)
            for l in range(m):
                edge_choices[(l, m)] = cands = edge_cands(l, m)
                if not cands:
                    break
            else:
                fill_vertices(m + 1)
            vs.pop()

    def fill_edges(n):
        if n == len(pairs):
            return fill_triangles(0)
        j, k = pairs[n]
        for e in edge_choices[(j, k)]:
            edges[(j, k)] = e
            for i in range(j):
                tri_choices[(i, j, k)] = cands = tri_cands(i, j, k)
                if not cands:
                    break
            else:
                fill_edges(n + 1)

    def fill_triangles(n):
        if n == len(triples):
            out.append(nv.OrientedSimplex(
                p, tuple(vs), tuple(map(edges.__getitem__, pairs)),
                tuple(map(tris.__getitem__, triples))))
            return
        jkl = triples[n]
        for t in tri_choices[jkl]:
            tris[jkl] = t
            if all(tetrahedron_ok(D, edges, tris, *q) for q in ready[n]):
                fill_triangles(n + 1)

    fill_vertices(0)
    return out


def product_then_filter(D, p, pinned_vertices=None, pinned_edges=None,
                        pinned_triangles=None):
    """Oracle for the pruned search: form the product of all vertex and
    edge choices, and only then filter by triangles and tetrahedra."""
    pinned_vertices = pinned_vertices or {}
    pinned_edges = pinned_edges or {}
    pinned_triangles = pinned_triangles or {}
    pairs = list(combinations(range(p + 1), 2))
    triples = list(combinations(range(p + 1), 3))
    quads = list(combinations(range(p + 1), 4))
    # tetrahedra ready for checking after each triple position
    tri_pos = {t: n for n, t in enumerate(triples)}
    ready = {n: [] for n in range(len(triples))}
    for q in quads:
        i, j, k, l = q
        faces = [(j, k, l), (i, k, l), (i, j, l), (i, j, k)]
        ready[max(tri_pos[f] for f in faces)].append(q)
    out = []

    def vertex_choices(i):
        if i in pinned_vertices:
            return [pinned_vertices[i]]
        return sorted(D.objects)

    for vs in product(*[vertex_choices(i) for i in range(p + 1)]):
        edge_choices = []
        ok = True
        for (i, j) in pairs:
            if (i, j) in pinned_edges:
                cand = [pinned_edges[(i, j)]]
                if D.one_src[cand[0]] != vs[i] or D.one_tgt[cand[0]] != vs[j]:
                    cand = []
            else:
                cand = D.hom1(vs[i], vs[j])
            if not cand:
                ok = False
                break
            edge_choices.append(cand)
        if not ok:
            continue
        for es in product(*edge_choices):
            edges = dict(zip(pairs, es))
            tri_choices = []
            ok = True
            for (i, j, k) in triples:
                tgt = D.comp1[(edges[(j, k)], edges[(i, j)])]
                if (i, j, k) in pinned_triangles:
                    cand = [pinned_triangles[(i, j, k)]]
                    if (D.two_src[cand[0]] != edges[(i, k)]
                            or D.two_tgt[cand[0]] != tgt):
                        cand = []
                else:
                    cand = D.hom2(edges[(i, k)], tgt)
                if not cand:
                    ok = False
                    break
                tri_choices.append(cand)
            if not ok:
                continue

            tris = {}

            def rec(n):
                if n == len(triples):
                    out.append(nv.OrientedSimplex(
                        p, vs, tuple(edges[k] for k in pairs),
                        tuple(tris[k] for k in triples)))
                    return
                for c in tri_choices[n]:
                    tris[triples[n]] = c
                    if all(tetrahedron_ok(D, edges, tris, *q)
                           for q in ready[n]):
                        rec(n + 1)
                del tris[triples[n]]

            if triples:
                rec(0)
            else:
                out.append(nv.OrientedSimplex(
                    p, vs, tuple(edges[k] for k in pairs), ()))
    return out


def delta_pins(F, om, si):
    """The dimension and pins of a delta of B(F) over the pair (om, si): the
    block F(om) on the first om.dim + 1 vertices and si on the last
    si.dim + 1."""
    blocks = ((0, [F.on_objects[v] for v in om.vertices],
               [F.on_one[e] for e in om.edges],
               [F.on_two[t] for t in om.triangles]),
              (om.dim + 1, si.vertices, si.edges, si.triangles))
    pv, pe, pt = {}, {}, {}
    for o, vs, es, ts in blocks:
        ks = range(o, o + len(vs))
        pv.update(zip(ks, vs))
        pe.update(zip(combinations(ks, 2), es))
        pt.update(zip(combinations(ks, 3), ts))
    return om.dim + 1 + si.dim, pv, pe, pt


FIXTURES = sorted(n for n in dir(fixtures) if n.startswith("fix_"))


@pytest.mark.parametrize("name", FIXTURES)
def test_pruned_search_matches_oracle_on_fixtures(name):
    if name == "fix_prod":
        D = fixtures.fix_prod(fix_g2(), fix_c2())[0]
    else:
        D = getattr(fixtures, name)()
    for p in range(5):
        assert enumerate_simplices(D, p) == product_then_filter(D, p)


@pytest.mark.parametrize("make", [pgm.fix_c2_pgm, pgm.fix_m2_pgm,
                                  pgm.fix_g2_pgm])
def test_pruned_search_matches_oracle_on_completions(make):
    # S^-1 X against both oracles to p = 5, and to p = 6 against the
    # dict-keyed search where the size allows (S^-1 G2 has 32,768
    # 6-simplices); the point completion, the target of rho, to p = 7
    P = make()
    D = sinv.s_inv_x(P, pgm.self_action(P)).cat
    for p in range(6 if make is pgm.fix_g2_pgm else 7):
        xs = enumerate_simplices(D, p)
        assert xs and xs == dict_keyed_search(D, p)
        if p <= 5:
            assert xs == product_then_filter(D, p)
    SP = sinv.s_inv_point(P).cat
    for p in range(8):
        xs = enumerate_simplices(SP, p)
        assert xs and xs == dict_keyed_search(SP, p)


def pins_of(x):
    """x as pins of every vertex, edge and triangle, keyed as in the
    oracles above."""
    L = nv.layout(x.dim)
    return (dict(enumerate(x.vertices)), dict(zip(L.pairs, x.edges)),
            dict(zip(L.triples, x.triangles)))


def test_pruned_search_matches_oracle_on_pinned_deltas(monkeypatch):
    # every delta of B(rho-c2) at 2 x 2 and 3 x 3, pair by pair (omega,
    # sigma), against the dict-keyed search with both blocks pinned, and at
    # 2 x 2 against the product oracle too (too slow for 7-simplices); and
    # the children of every simplex of the nerves of C and D that build_B
    # grows, by extensions up to dimension 3 and by the join above, against
    # the dict-keyed search with all of the parent pinned
    P = pgm.fix_c2_pgm()
    F = sinv.rho_projection(sinv.s_inv_x(P, pgm.self_action(P)),
                            sinv.s_inv_point(P))
    parents = []
    real = nv.extensions

    def checked_extensions(D, x):
        ys = real(D, x)
        assert ys == dict_keyed_search(D, x.dim + 1, *pins_of(x))
        parents.append(x.dim)
        return ys

    for N in (2, 3):
        with monkeypatch.context() as m:
            m.setattr(nv, "extensions", checked_extensions)
            parents.clear()
            B = specseq.build_B(F, N, N)
        oms = nv.simplex_operators(F.source, N)[0]
        sis, faces, _ = nv.simplex_operators(F.target, 2 * N + 1)
        pairs = 0
        for (p, q), cells in B.levels.items():
            seen = 0
            for om in oms[q]:
                for si in sis[p]:
                    des = [x.de for x in cells if (x.om, x.si) == (om, si)]
                    pins = delta_pins(F, om, si)
                    assert des == dict_keyed_search(F.target, *pins)
                    if N == 2:
                        assert des == product_then_filter(F.target, *pins)
                    seen += len(des)
                    pairs += bool(des)
            assert seen == len(cells)
        assert pairs > 100
        # one extensions call per parent of dimension <= 2, ROOT included,
        # in the nerves of C to dimension N and of D to dimension 2N + 1
        assert sorted(parents) == sorted(
            [-1, -1] + [x.dim for lev in oms[:N] + sis[:3] for x in lev])
        # above it the children of each parent are a join
        for n in range(4, 2 * N + 2):
            for a, x in enumerate(sis[n - 1]):
                ys = [y for y, up in zip(sis[n], faces[n][n]) if up == a]
                assert ys == dict_keyed_search(F.target, n, *pins_of(x))


@pytest.mark.parametrize("make", [fix_t, fix_c2, fix_m2, fix_i, fix_g2,
                                  fix_g2sat], ids=lambda f: f.__name__)
def test_extensions_grow_each_level_from_the_one_below(make):
    # the categories of criterion 01: every p-simplex is exactly one
    # extension of exactly one (p-1)-simplex, its last face
    D = make()
    for p in range(1, 5):
        grown = []
        for x in enumerate_simplices(D, p - 1):
            ys = nv.extensions(D, x)
            assert ys == sorted(ys)
            for y in ys:
                assert face(D, y, p) == x
                grown.append(y)
        assert len(grown) == len(set(grown))
        assert set(grown) == set(enumerate_simplices(D, p))


def test_pin_that_does_not_fit_gives_nothing():
    I = fix_i()

    def pinned(p, *pins):
        xs = [x for x in enumerate_simplices(I, p) if has_pins(x, *pins)]
        assert xs == product_then_filter(I, p, *pins) == \
            dict_keyed_search(I, p, *pins)
        return xs

    # a01: 0 -> 1 fits the vertices (0, 1); the identity of 0 does not
    assert len(pinned(1, {}, {(0, 1): "a01"}, {})) == 1
    # a01 pinned at the last edge (1, 2) of a 2-simplex fits too
    xs = pinned(2, {}, {(1, 2): "a01"}, {})
    assert [x.edge(1, 2) for x in xs] == ["a01"]
    # the last two cases pin a cell at the last position: the edge (1, 2)
    # must start where a01 ends, and the triangle (1, 2, 3) has source
    # x_(1,3), which ends at vertex 3 = "1", not id_0
    cases = [(1, {0: "0", 1: "1"}, {(0, 1): "id_0"}, {}),
             (2, {0: "0", 1: "0", 2: "1"}, {}, {(0, 1, 2): "ii_id_0"}),
             (2, {}, {(0, 1): "a01", (1, 2): "id_0"}, {}),
             (3, {3: "1"}, {}, {(1, 2, 3): "ii_id_0"})]
    for p, *pins in cases:
        assert pinned(p, *pins) == []


# --- face and degeneracy gathers against the dict-keyed maps ----------------

def to_pairs(x):
    """The pair encoding: edges and triangles as (key, cell) pairs in
    ``combinations`` order of their keys."""
    L = nv.layout(x.dim)
    return (x.dim, x.vertices, tuple(zip(L.pairs, x.edges)),
            tuple(zip(L.triples, x.triangles)))


def from_pairs(dim, vertices, edges, triangles):
    return nv.OrientedSimplex(dim, vertices, tuple(e for _, e in edges),
                              tuple(t for _, t in triangles))


def pair_face(D, x, i):
    """Oracle for face: d_i on the pair encoding, through dicts."""
    p, vertices, edges, triangles = x
    edge, tri = dict(edges), dict(triangles)
    dl = lambda m: m if m < i else m + 1
    vs = tuple(vertices[dl(m)] for m in range(p))
    edges = tuple(sorted((((a, b), edge[(dl(a), dl(b))])
                          for a, b in combinations(range(p), 2))))
    tris = tuple(sorted((((a, b, c), tri[(dl(a), dl(b), dl(c))])
                         for a, b, c in combinations(range(p), 3))))
    return (p - 1, vs, edges, tris)


def pair_degeneracy(D, x, i):
    """Oracle for degeneracy: s_i on the pair encoding, through dicts."""
    p, vertices, edges, triangles = x
    x_edge, x_tri = dict(edges), dict(triangles)
    sg = lambda m: m if m <= i else m - 1

    def edge(a, b):
        if sg(a) == sg(b):
            return D.id1[vertices[sg(a)]]
        return x_edge[(sg(a), sg(b))]

    def tri(a, b, c):
        if sg(a) == sg(b) or sg(b) == sg(c):
            return D.id2[edge(a, c)]
        return x_tri[(sg(a), sg(b), sg(c))]

    vs = tuple(vertices[sg(m)] for m in range(p + 2))
    edges = tuple(sorted((((a, b), edge(a, b))
                          for a, b in combinations(range(p + 2), 2))))
    tris = tuple(sorted((((a, b, c), tri(a, b, c))
                         for a, b, c in combinations(range(p + 2), 3))))
    return (p + 1, vs, edges, tris)


def check_gathers_against_pairs(D, pmax):
    for p in range(pmax + 1):
        for x in enumerate_simplices(D, p):
            px = to_pairs(x)
            assert from_pairs(*px) == x
            for i in range(p + 1):
                if p >= 1:
                    assert face(D, x, i) == from_pairs(*pair_face(D, px, i))
                assert degeneracy(D, x, i) == \
                    from_pairs(*pair_degeneracy(D, px, i))


@pytest.mark.parametrize("name", FIXTURES)
def test_gathers_match_pair_oracle_on_fixtures(name):
    if name == "fix_prod":
        D = fixtures.fix_prod(fix_g2(), fix_c2())[0]
    else:
        D = getattr(fixtures, name)()
    check_gathers_against_pairs(D, 4)


@pytest.mark.parametrize("make", [pgm.fix_c2_pgm, pgm.fix_m2_pgm,
                                  pgm.fix_g2_pgm])
def test_gathers_match_pair_oracle_on_completions(make):
    P = make()
    check_gathers_against_pairs(sinv.s_inv_x(P, pgm.self_action(P)).cat, 5)


def test_simplex_key_prints_the_pair_encoding():
    x, = enumerate_simplices(fix_t(), 3)
    assert tio.simplex_key(x) == (
        "(('pt', 'pt', 'pt', 'pt'), "
        "(((0, 1), 'id_pt'), ((0, 2), 'id_pt'), ((0, 3), 'id_pt'), "
        "((1, 2), 'id_pt'), ((1, 3), 'id_pt'), ((2, 3), 'id_pt')), "
        "(((0, 1, 2), 'ii_pt'), ((0, 1, 3), 'ii_pt'), ((0, 2, 3), 'ii_pt'), "
        "((1, 2, 3), 'ii_pt')))")


def test_serialized_nerve_is_unchanged():
    # digest of the G2 x C2 nerve file at N = 3 as written before the flat
    # encoding (61,563 bytes)
    D = fixtures.fix_prod(fix_g2(), fix_c2())[0]
    text = tio.dumps(tio.trunc_sset_to_dict(nv.nerve(D, 3)))
    assert len(text) == 61563
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "371e94e6200eb12536ff179e6b8f5543dca9b1ff494b30c1e4f7c2507aff7048"


# --- the per-simplex nerve and the sorting writer, as oracles ---------------

def oracle_nerve(D, N):
    """nerve() as first written: every face and degeneracy built as a
    simplex by face and degeneracy."""
    levels = tuple(map(tuple, nv.simplex_operators(D, N)[0]))
    fmap = {}
    dmap = {}
    for n in range(1, N + 1):
        for x in levels[n]:
            for i in range(n + 1):
                fmap[(i, x)] = face(D, x, i)
    for n in range(N):
        for x in levels[n]:
            for i in range(n + 1):
                dmap[(i, x)] = degeneracy(D, x, i)
    image = set(dmap.values())
    degenerate = {x: x in image for lev in levels for x in lev}
    return SimpleNamespace(N=N, levels=levels, face=fmap, degen=dmap,
                           degenerate=degenerate)


def oracle_check_simplicial_identities(X):
    """check_simplicial_identities as first written, on the dict form
    (``operator_dicts``), simplex by simplex: False at the first failing
    identity."""
    for n in range(2, X.N + 1):
        for x in X.levels[n]:
            for j in range(n + 1):
                for i in range(j):
                    # d_i d_j = d_{j-1} d_i for i < j
                    if X.face[(i, X.face[(j, x)])] != \
                            X.face[(j - 1, X.face[(i, x)])]:
                        return False
    for n in range(X.N - 1):
        for x in X.levels[n]:
            for j in range(n + 1):
                for i in range(j + 1):
                    # s_i s_j = s_{j+1} s_i for i <= j
                    if X.degen[(j + 1, X.degen[(i, x)])] != \
                            X.degen[(i, X.degen[(j, x)])]:
                        return False
    for n in range(X.N):
        for x in X.levels[n]:
            for j in range(n + 1):
                for i in range(n + 2):
                    y = X.degen[(j, x)]
                    got = X.face[(i, y)]
                    if i < j:
                        want = X.degen[(j - 1, X.face[(i, x)])] \
                            if n >= 1 else None
                        if n >= 1 and got != want:
                            return False
                    elif i in (j, j + 1):
                        if got != x:
                            return False
                    else:
                        want = X.degen[(j, X.face[(i - 1, x)])] \
                            if n >= 1 else None
                        if n >= 1 and got != want:
                            return False
    return True


def identities_hold(X):
    """nv.check_simplicial_identities(X) as a bool."""
    try:
        return nv.check_simplicial_identities(X)
    except AxiomError:
        return False


@pytest.mark.parametrize("make,N", [
    (fix_i, 3), (fix_c2, 3), (fix_g2, 3), (fix_g2, 2),
    (lambda: fix_prod(fix_i(), fix_i())[0], 2)],
    ids=["i-3", "c2-3", "g2-3", "g2-2", "IxI-2"])
def test_identity_check_matches_the_oracle_on_every_redirection(make, N):
    # every single in-range change of one face or degeneracy entry; at
    # N = 3 each one breaks some d_i s_j identity, while at N = 2 some
    # break only s s (G2) or only d d (I x I) identities
    X = nv.nerve(make(), N)
    assert identities_hold(X)
    assert oracle_check_simplicial_identities(operator_dicts(X))
    broken = 0
    for table, shift in ((X.faces, -1), (X.degens, 1)):
        for n, rows in enumerate(table):
            for row in rows:
                for k, was in enumerate(row):
                    for v in range(len(X.levels[n + shift])):
                        if v == was:
                            continue
                        row[k] = v
                        got = identities_hold(X)
                        assert got == oracle_check_simplicial_identities(
                            operator_dicts(X)), (n, k, v)
                        broken += not got
                    row[k] = was
    assert broken
    assert identities_hold(X)


def oracle_simplex_key(x):
    """simplex_key as first written: the repr of the whole pair encoding."""
    if isinstance(x, str):
        return x
    L = nv.layout(x.dim)
    return repr((x.vertices, tuple(zip(L.pairs, x.edges)),
                 tuple(zip(L.triples, x.triangles))))


def oracle_level_keys(X):
    """level_keys as it was before it read a table of cells: each key
    escaped and encoded whole."""
    return [[encode_basestring_ascii(tio.simplex_key(x)).encode()
             for x in lev] for lev in X.levels]


def oracle_trunc_sset_to_dict(X):
    """trunc_sset_to_dict as first written: every table sorted."""
    key = {x: oracle_simplex_key(x) for lev in X.levels for x in lev}
    return {
        "N": X.N,
        "levels": [[key[x] for x in lev] for lev in X.levels],
        "face": [[i, key[x], key[y]]
                 for (i, x), y in sorted(X.face.items(),
                                         key=lambda kv: (kv[0][0],
                                                         kv[0][1]))],
        "degen": [[i, key[x], key[y]]
                  for (i, x), y in sorted(X.degen.items(),
                                          key=lambda kv: (kv[0][0],
                                                          kv[0][1]))],
        "degenerate": [[key[x], bool(v)]
                       for x, v in sorted(X.degenerate.items())],
    }


def oracle_trunc_sset_bytes(d):
    """trunc_sset_bytes as first written: the whole file in one bytes
    object, joined once from the pieces of every row."""
    key = {k: encode_basestring_ascii(k).encode()
           for lev in d["levels"] for k in lev}
    head = [b"[%d," % i for i in range(d["N"] + 1)]
    arrays = (
        (b"degen", ((head[i], key[x], b",", key[y], b"]")
                    for i, x, y in d["degen"])),
        (b"degenerate", ((b"[", key[x], b",true]" if v else b",false]")
                         for x, v in d["degenerate"])),
        (b"face", ((head[i], key[x], b",", key[y], b"]")
                   for i, x, y in d["face"])),
        (b"levels", ((b"[", b",".join(map(key.__getitem__, lev)), b"]")
                     for lev in d["levels"])))
    out = [b'{"N":%d' % d["N"]]
    for name, rows in arrays:
        out.append(b',"%s":[' % name)
        for pieces in rows:
            out += pieces
            out.append(b",")
        if out[-1] == b",":         # after the last row
            out.pop()
        out.append(b"]")
    out.append(b"}\n")
    return b"".join(out)


def dict_trunc_sset_bytes(d):
    """trunc_sset_bytes as it was before it read the position tables: the
    nerve file of the dict d of trunc_sset_to_dict in chunks of about
    CHUNK bytes, each level key JSON-encoded once."""
    key = {k: encode_basestring_ascii(k).encode()
           for lev in d["levels"] for k in lev}
    head = [b"[%d," % i for i in range(d["N"] + 1)]
    arrays = (
        (b"degen", ((head[i], key[x], b",", key[y], b"]")
                    for i, x, y in d["degen"])),
        (b"degenerate", ((b"[", key[x], b",true]" if v else b",false]")
                         for x, v in d["degenerate"])),
        (b"face", ((head[i], key[x], b",", key[y], b"]")
                   for i, x, y in d["face"])),
        # a level, the one long row, as a piece per key and comma
        (b"levels", ([b"[", *[p for x in lev for p in (b",", key[x])][1:],
                      b"]"] for lev in d["levels"])))
    buf = bytearray(b'{"N":%d' % d["N"])
    for name, rows in arrays:
        buf += b',"%s":[' % name
        sep = b""
        for pieces in rows:
            buf += sep
            sep = b","
            for piece in pieces:
                buf += piece
                if len(buf) >= tio.CHUNK:
                    yield bytes(buf)
                    buf.clear()
        buf += b"]"
    buf += b"}\n"
    yield bytes(buf)


def assert_nerve_file_bytes(X):
    """The chunks of trunc_sset_bytes join to the bytes of the one-shot
    oracle, of the dict-driven one and of dumps; returns the chunks."""
    chunks = list(tio.trunc_sset_bytes(X, tio.level_keys(X)))
    data = b"".join(chunks)
    d = tio.trunc_sset_to_dict(X)
    assert data == oracle_trunc_sset_bytes(d) == tio.dumps(d).encode()
    assert [len(c) for c in chunks] == [
        len(c) for c in dict_trunc_sset_bytes(d)]
    return chunks


def self_completion(P):
    return sinv.s_inv_x(P, pgm.self_action(P)).cat


def completions():
    """name -> maker of S^-1 X and of the point completion, per monoid."""
    out = {}
    for make in (pgm.fix_c2_pgm, pgm.fix_m2_pgm, pgm.fix_g2_pgm):
        out["S^-1 " + make.__name__] = \
            lambda make=make: self_completion(make())
        out["S^-1 pt " + make.__name__] = \
            lambda make=make: sinv.s_inv_point(make()).cat
    return out


# name -> (category, N): every fixture and completion above, at N = 5, but
# at N = 4 the two whose 5-simplices write 53 and 67 MB
NERVE_CASES = {
    **{name: ((lambda: fix_prod(fix_g2(), fix_c2())[0]) if name == "fix_prod"
              else getattr(fixtures, name),
              4 if name == "fix_g2sat" else 5) for name in FIXTURES},
    **{name: (make, 4 if name == "S^-1 fix_g2_pgm" else 5)
       for name, make in completions().items()},
}


def grown_simplex_operators(D, N):
    """simplex_operators with every level grown by the extension search
    (``nv.grow``), as it was before levels above 3 became a join."""
    gs = [nv.grow(D, 0, [(0, nv.ROOT)])]
    faces = [[gs[0].parent]]
    for m in range(1, N + 1):
        g = nv.grow(D, m, enumerate(gs[-1].cells))
        faces.append([nv.operator_row(g, i, gs[-1].kids, faces[-1][i])
                      for i in range(m)] + [g.parent])
        gs.append(g)
    degens = []
    for m in range(N):
        degens.append([nv.operator_row(gs[m], i, gs[m + 1].kids,
                                       degens[-1][i] if i < m else None, True)
                       for i in range(m + 1)])
    return [g.cells for g in gs], [[]] + faces[1:], degens + [[]]


def rho_c2_target():
    P = pgm.fix_c2_pgm()
    return sinv.rho_projection(sinv.s_inv_x(P, pgm.self_action(P)),
                               sinv.s_inv_point(P)).target


# NERVE_CASES, and one level further where the join is cheap enough to
# check: G2sat, the one fixture on which some compatible-looking tuple of
# faces fails a condition of the join, to N = 5, rho-c2's target to N = 7
# (B(rho-c2) at 3 x 3) and G2 to N = 6 (32,768 6-simplices)
JOIN_CASES = {**NERVE_CASES, "fix_g2sat-5": (fix_g2sat, 5),
              "rho-c2 target-7": (rho_c2_target, 7), "fix_g2-6": (fix_g2, 6),
              "S^-1 fix_m2_pgm-6": (completions()["S^-1 fix_m2_pgm"], 6)}


@pytest.mark.parametrize("name", sorted(JOIN_CASES))
def test_join_matches_the_grown_oracle(name, monkeypatch):
    # same levels, in the same order, and the same operator tables; the
    # extension search never runs above dimension 3, and operators are
    # found by key only on the grown levels: faces of levels 1 to 3 and
    # degeneracies into them, every other one off a face-key index
    make, N = JOIN_CASES[name]
    D = make()
    dims, rows = [], []
    extensions, operator_row = nv.extensions, nv.operator_row

    def counted(D, x):
        dims.append(x.dim + 1)
        return extensions(D, x)

    def counted_row(g, i, kids, below=None, degen=False):
        rows.append((g.m, degen))
        return operator_row(g, i, kids, below, degen)

    with monkeypatch.context() as m:
        m.setattr(nv, "extensions", counted)
        m.setattr(nv, "operator_row", counted_row)
        got = nv.simplex_operators(D, N)
    assert sorted(set(dims)) == [0, 1, 2, 3]
    assert sorted(set(rows)) == [(0, True), (1, False), (1, True),
                                 (2, False), (2, True), (3, False)]
    assert got == grown_simplex_operators(D, N)


CORRUPT_JOIN = """
import sys
from twocat import nerve as nv
from twocat.core import AxiomError
from twocat.fixtures import fix_g2
join, kind, k = nv.join, sys.argv[1], int(sys.argv[2])

def corrupted(m, g, f):
    g, low = join(m, g, f)
    for row in low[:1] if kind == "missing" else low:
        row[k] = -1 if kind == "missing" else row[0]
    return g, low

nv.join = corrupted
try:
    nv.simplex_operators(fix_g2(), 4)
except AxiomError as e:
    print(e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("kind", ["duplicate", "missing"])
def test_a_corrupted_join_row_is_named(kind, flags):
    # G2 to N = 4, with level 4's face rows d_0 .. d_3 as the join gives
    # them corrupted: 4-simplex 1 given the faces of 4-simplex 0, so two
    # simplices share one face key; or d_0 of s_0 of the first 3-simplex
    # pointed nowhere, so that the first degeneracy looked up finds no
    # simplex.  Each is an AxiomError naming the level, the operator and
    # the simplex, under -O too, not a table that holds None
    levels, _, degens = nv.simplex_operators(fix_g2(), 4)
    k = 1 if kind == "duplicate" else degens[3][0][0]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", CORRUPT_JOIN, kind, str(k)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "level 4: the 4-simplices %r and %r have the same faces d_0 .. d_3"
        % (levels[4][0], levels[4][1]) if kind == "duplicate" else
        "level 4 holds no s_0 of the 3-simplex %r" % (levels[3][0],))


def assert_nerve_and_text_match_oracles(D, N):
    X, O = nv.nerve(D, N), oracle_nerve(D, N)
    got = operator_dicts(X)
    assert tuple(map(tuple, got.levels)) == O.levels
    assert got.face == O.face
    assert got.degen == O.degen
    assert got.degenerate == O.degenerate
    d = tio.trunc_sset_to_dict(X)
    text = tio.dumps(d)
    assert text == tio.dumps(oracle_trunc_sset_to_dict(O))
    assert b"".join(tio.trunc_sset_bytes(X, tio.level_keys(X))) == \
        b"".join(dict_trunc_sset_bytes(d)) == text.encode()
    return X


@pytest.mark.parametrize("name", sorted(NERVE_CASES))
def test_nerve_and_writer_match_the_oracles(name):
    make, N = NERVE_CASES[name]
    assert_nerve_and_text_match_oracles(make(), N)


@pytest.mark.parametrize("name", sorted(NERVE_CASES))
def test_nerve_file_encoder_matches_dumps_at_low_levels(name):
    # the largest N of each case is checked with the oracles above
    make, _N = NERVE_CASES[name]
    D = make()
    for N in (0, 1):
        assert_nerve_file_bytes(nv.nerve(D, N))


def test_nerve_file_encoder_matches_dumps_on_benchmark_ids():
    # G2 x C2 at N = 5 with every id a random 8-character name, as the
    # benchmark writes it: chunks of CHUNK bytes, or at most one level key
    # more, but the last
    rng = random.Random(21)
    D = fix_prod(fix_g2(), fix_c2())[0]
    ids = cell_ids(D)
    new = dict(zip(ids, ("".join(rng.choices(string.ascii_lowercase
                                             + string.digits, k=8))
                         for _ in ids)))
    assert len(set(new.values())) == len(ids)
    X = nv.nerve(renamed_copy(D, new.get), 5)
    chunks = assert_nerve_file_bytes(X)
    assert sum(map(len, chunks)) == 23316647
    longest = max(len(k) for lev in tio.level_keys(X) for k in lev)
    assert all(tio.CHUNK <= len(c) < tio.CHUNK + longest
               for c in chunks[:-1])
    assert 0 < len(chunks[-1]) < tio.CHUNK + longest


def test_nerve_file_encoder_escapes_raw_keys():
    # a loaded nerve keeps its simplex strings as read, so a key may hold
    # a raw control character, a quote, a backslash or non-ASCII text,
    # which JSON writes as escapes and \uXXXX surrogate pairs
    d = tio.trunc_sset_to_dict(nv.nerve(fix_g2(), 3))
    new = {k: "%d\x00\x1f\"\\\u00e9\U0001d400" % n
           for n, k in enumerate(k for lev in d["levels"] for k in lev)}
    d = {"N": d["N"], "levels": [[new[k] for k in lev] for lev in d["levels"]],
         "face": [[i, new[x], new[y]] for i, x, y in d["face"]],
         "degen": [[i, new[x], new[y]] for i, x, y in d["degen"]],
         "degenerate": [[new[x], v] for x, v in d["degenerate"]]}
    X = tio.trunc_sset_from_dict(d)
    assert tio.trunc_sset_to_dict(X) == d
    data = b"".join(assert_nerve_file_bytes(X))
    assert b"\\u0000\\u001f\\\"\\\\\\u00e9\\ud835\\udc00" in data


@pytest.mark.parametrize("name", sorted(NERVE_CASES))
def test_truncated_chain_complex_matches_the_full_one(name):
    # H_n reads a complex built to level n + 1: its bases and boundaries
    # are those of the full complex there, and H_n is that of the full one
    make, N = NERVE_CASES[name]
    X = nv.nerve(make(), N)
    C = hm.chain_complex(X)
    for n in range(N):
        T = hm.chain_complex(X, n + 1)
        assert (T.N, T.basis, T.boundary) == \
            (n + 1, C.basis[:n + 2], C.boundary[:n + 2])
        assert hm.homology(X, n) == chain_homology(
            C.boundary[n] if n else (), C.boundary[n + 1], C.rank(n),
            C.rank(n - 1) if n else 0).group, n


@pytest.mark.parametrize("name", sorted(NERVE_CASES))
def test_reader_gives_back_the_written_tables(name):
    make, N = NERVE_CASES[name]
    X = nv.nerve(make(), N)
    d = tio.trunc_sset_to_dict(X)
    Y = tio.trunc_sset_from_dict(d)
    assert Y.N == N and Y.levels == d["levels"]
    assert Y.faces == X.faces
    assert Y.degens == X.degens
    assert Y.degenerate == X.degenerate


# ids that repr escapes or quotes in its own way: quotes of both kinds, a
# backslash, a newline, a format sign and non-ASCII text
AWKWARD = ["it's", 'say "hi"', "both ' and \"", "back\\slash", "new\nline",
           "100%", "%s%d", "caf\u00e9", "\u2603", "\U0001d400"]


def cell_ids(D):
    """The ids of D's objects, 1-cells and 2-cells, sorted."""
    return sorted({*D.objects, *D.one_src, *D.two_src})


def renamed_copy(D, rename_id):
    """D with every object, 1-cell and 2-cell id x renamed to
    rename_id(x), validated."""
    def rename(obj):
        if isinstance(obj, str):
            return rename_id(obj)
        if isinstance(obj, dict):
            return {k: rename(v) for k, v in obj.items()}
        return [rename(v) for v in obj]

    return validate_two_category(tio.two_category_from_dict(
        rename(tio.two_category_to_dict(D))))


def awkward_copy(D):
    """D with every object, 1-cell and 2-cell id renamed to a counter
    followed by all of AWKWARD, rotated by the counter."""
    k = len(AWKWARD)
    new = {x: str(n) + "".join(AWKWARD[n % k:] + AWKWARD[:n % k])
           for n, x in enumerate(cell_ids(D))}
    return renamed_copy(D, new.get)


@pytest.mark.parametrize("make,N", [(fix_g2, 4), (fix_i, 4),
                                    (lambda: fix_prod(fix_g2(), fix_c2())[0],
                                     3)], ids=["g2", "i", "G2xC2"])
def test_writer_matches_the_oracle_on_awkward_ids(make, N):
    X = assert_nerve_and_text_match_oracles(awkward_copy(make()), N)
    keys = [tio.simplex_key(x) for lev in X.levels for x in lev]
    assert keys == [oracle_simplex_key(x) for lev in X.levels for x in lev]
    assert any("\\\\" in k for k in keys) and any("\\'" in k for k in keys)
    assert any("\u2603" in k for k in keys)


@pytest.mark.parametrize("make,N", [(fix_g2, 4), (fix_i, 4),
                                    (lambda: fix_prod(fix_g2(), fix_c2())[0],
                                     3)], ids=["g2", "i", "G2xC2"])
def test_level_keys_match_the_oracle(make, N):
    # ids that JSON and repr escape (quotes, a backslash, a newline, non-
    # ASCII and astral text) and a format sign in the cell table; then the
    # same nerve read back from its dict, whose simplices are strings
    X = nv.nerve(awkward_copy(make()), N)
    keys = tio.level_keys(X)
    assert keys == oracle_level_keys(X)
    assert any(b"%s%d" in k for lev in keys for k in lev)
    Y = tio.trunc_sset_from_dict(tio.trunc_sset_to_dict(X))
    assert tio.level_keys(Y) == oracle_level_keys(Y) == keys


def test_nerve_and_build_B_build_no_face_or_degeneracy():
    # the operators of nerve() and of build_B are read off position tables,
    # a closure failure of B(F) included: no module of the package defines
    # or imports a name face or degeneracy (those are the test-side oracles
    # of diagram_comma)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names if name in ("face", "degeneracy")]
    assert found == []
    G = fix_g2()
    swap = TwoFunctor(G, G, {"*": "*"}, {"i": "i"}, {"e0": "e1", "e1": "e0"})
    with pytest.raises(AxiomError, match="not closed"):
        specseq.build_B(swap, 0, 2)


# --- nerve assembly -------------------------------------------------------------

def test_nerve_terminal():
    X = nv.nerve(fix_t(), 3)
    assert [len(l) for l in X.levels] == [1, 1, 1, 1]
    assert [len(X.nondegenerate(n)) for n in range(4)] == [1, 0, 0, 0]
    assert nv.check_simplicial_identities(X)


def test_nerve_interval_matches_classical():
    X = nv.nerve(fix_i(), 2)
    assert [len(l) for l in X.levels] == [2, 3, 4]
    assert nv.check_simplicial_identities(X)


def test_nerve_g2_counts():
    X = nv.nerve(fix_g2(), 3)
    assert [len(l) for l in X.levels] == [1, 1, 2, 8]
    assert [len(X.nondegenerate(n)) for n in range(4)] == [1, 0, 1, 4]
    assert nv.check_simplicial_identities(X)


def test_nerve_g2sat_identities():
    X = nv.nerve(fix_g2sat(), 3)
    assert nv.check_simplicial_identities(X)


def is_degenerate(D, x):
    """Oracle: x = s_i d_(i+1) x for some i."""
    return any(x == degeneracy(D, face(D, x, i + 1), i)
               for i in range(x.dim))


@pytest.mark.parametrize("name", sorted(ORACLE_CATEGORIES))
def test_degenerate_flags_match_oracle(name):
    mk, N = ORACLE_CATEGORIES[name]
    D = mk()
    X = nv.nerve(D, N)
    assert operator_dicts(X).degenerate == {x: is_degenerate(D, x)
                                            for lev in X.levels for x in lev}


def test_enumeration_leaves_no_cyclic_garbage():
    D = fix_prod(fix_g2(), fix_c2())[0]
    gc.collect()
    gc.disable()
    try:
        enumerate_simplices(D, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_degeneracy_face_roundtrip():
    D = fix_g2()
    for x in enumerate_simplices(D, 2):
        for i in range(3):
            y = degeneracy(D, x, i)
            assert face(D, y, i) == x
            assert face(D, y, i + 1) == x
            assert is_degenerate(D, y)


def test_face_and_degeneracy_reject_bad_indices():
    D = fix_g2()
    x = enumerate_simplices(D, 2)[0]
    for i in (-1, 3):
        with pytest.raises(ValueError):
            face(D, x, i)
        with pytest.raises(ValueError):
            degeneracy(D, x, i)
    with pytest.raises(ValueError):
        face(D, enumerate_simplices(D, 0)[0], 0)


def test_induced_simplicial_map():
    D = fix_g2()
    F = bang_functor(D)
    XT = nv.nerve(fix_t(), 3)
    for lev in nv.nerve(D, 3).levels:
        for x in lev:
            y = nv.map_simplex(F, x)
            assert y in XT.levels[y.dim]
            if x.dim >= 1:
                for i in range(x.dim + 1):
                    assert face(fix_t(), y, i) == \
                        nv.map_simplex(F, face(D, x, i))
