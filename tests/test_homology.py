import os
import subprocess
import sys
import time
from itertools import cycle
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twocat import homology as hm
from twocat import intlinalg as il
from twocat import pgm, sinv
from twocat.core import AxiomError
from twocat.fixtures import (bang_functor, fix_c2, fix_g2, fix_g2sat, fix_i,
                             fix_m2, fix_prod, fix_t)
from twocat.nerve import nerve

SRC = Path(__file__).resolve().parent.parent / "src"

matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


# sparse, with units and non-units, including 0-row and 0-column shapes
# ([] has no rows; [[], ...] has rows and no columns)
sparse_matrices = st.integers(0, 12).flatmap(
    lambda r: st.integers(0, 40).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([0] * 8 + [1, -1, 2, -2, 3, -3]),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


# --- integer linear algebra ---------------------------------------------------

def determinantal_divisors(M):
    """Oracle: gcd of all k x k minors, for k = 1..min(r,c); the k-th
    invariant factor is g_k / g_{k-1}.  Exponential time."""
    from itertools import combinations
    r, c = il.mshape(M)
    out = []
    for k in range(1, min(r, c) + 1):
        g = 0
        for rows in combinations(range(r), k):
            for cols in combinations(range(c), k):
                g = gcd(g, det([[M[i][j] for j in cols] for i in rows]))
        out.append(g)
    return out


def det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            total += (-1) ** j * M[0][j] * det(minor)
    return total


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_snf_transforms_and_divisibility(M):
    snf = il.smith_normal_form(M)
    assert il.mmul(il.mmul(snf.S, M), snf.T) == snf.D
    assert il.mmul(snf.S, snf.Sinv) == il.mid(len(M))
    diag = snf.diag()
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if b != 0:
            assert a != 0 and b % a == 0
        # trailing zeros only
    # off-diagonal zero
    for i, row in enumerate(snf.D):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_snf_matches_determinantal_divisors(M):
    diag = il.smith_normal_form(M).diag()
    dd = determinantal_divisors(M)
    g = 1
    for k, d in enumerate(diag):
        if d == 0:
            assert dd[k] == 0
            break
        g *= d
        assert dd[k] == g


def test_snf_examples():
    assert il.smith_normal_form([[2, 4], [6, 8]]).diag() == [2, 4]
    assert il.smith_normal_form([[0, 0], [0, 0]]).diag() == [0, 0]
    assert il.smith_normal_form(il.mid(3)).diag() == [1, 1, 1]


def scan_all_snf(M):
    """Oracle for il.smith_normal_form: the same elimination, scanning the
    whole trailing block for each pivot and sweeping for divisibility
    after every pivot, 1 included."""
    r, c = il.mshape(M)
    A = [row[:] for row in M]
    S, Sinv, T = il.mid(r), il.mid(r), il.mid(c)

    def row_add(i, j, q):  # row_i += q * row_j ; inverse: col_j -= q * col_i
        for k in range(c):
            A[i][k] += q * A[j][k]
        for k in range(r):
            S[i][k] += q * S[j][k]
        for k in range(r):
            Sinv[k][j] -= q * Sinv[k][i]

    def col_add(j, i, q):  # col_j += q * col_i
        for k in range(r):
            A[k][j] += q * A[k][i]
        for k in range(c):
            T[k][j] += q * T[k][i]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        S[i], S[j] = S[j], S[i]
        for k in range(r):
            Sinv[k][i], Sinv[k][j] = Sinv[k][j], Sinv[k][i]

    def col_swap(i, j):
        for k in range(r):
            A[k][i], A[k][j] = A[k][j], A[k][i]
        for k in range(c):
            T[k][i], T[k][j] = T[k][j], T[k][i]

    def row_neg(i):
        for k in range(c):
            A[i][k] = -A[i][k]
        for k in range(r):
            S[i][k] = -S[i][k]
        for k in range(r):
            Sinv[k][i] = -Sinv[k][i]

    t = 0
    while t < min(r, c):
        # pivot: nonzero entry of least absolute value in the trailing block
        piv = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                a = abs(A[i][j])
                if a and (best is None or a < best):
                    best, piv = a, (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if A[t][t] < 0:
            row_neg(t)
        dirty = False
        for i in range(t + 1, r):
            if A[i][t]:
                q = A[i][t] // A[t][t]
                row_add(i, t, -q)
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, c):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                col_add(j, t, -q)
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility: A[t][t] must divide every remaining entry
        d = A[t][t]
        fixed = True
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if A[i][j] % d:
                    row_add(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    return il.SNF(S, A, T, Sinv)


@given(st.one_of(matrices, sparse_matrices))
@settings(max_examples=120, deadline=None)
def test_snf_matches_scan_all_oracle(M):
    assert il.smith_normal_form(M) == scan_all_snf(M)


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_kernel_and_span(M):
    K = il.kernel_basis(M)
    r, c = il.mshape(M)
    for col in il.columns(K):
        assert il.mvec(M, col) == [0] * r
    B = il.subquotient(r, M, []).K         # a basis of the column span
    snfB = il.smith_normal_form(B) if B and B[0] else None
    for col in il.columns(M):
        if snfB is None:
            assert col == [0] * r
        else:
            assert il.solve(snfB, col) is not None
    snfM = il.smith_normal_form(M)
    assert il.mshape(B)[1] == snfM.rank
    assert all(il.solve(snfM, col) is not None for col in il.columns(B))


def test_subquotient_torsion():
    sq = il.subquotient(2, il.mid(2), [[2, 0], [0, 1]])
    assert sq.group == il.FGAbGroup(0, (2,))
    assert sq.coords(sq.generator(0)) == [1]
    assert sq.coords([0, 1]) == [0]


def test_length_mismatch_is_an_error():
    # a 3 x 2 matrix against a length-3 vector, or a vector of the wrong
    # length for a solve, a class or a relation check, is an error, not a
    # product that stops at the shorter length
    M = [[1, 2], [3, 4], [5, 6]]
    assert il.mvec(M, [1, 1]) == [3, 7, 11]
    with pytest.raises(ValueError, match="length 2 against a vector of "
                                         "length 3"):
        il.mvec(M, [1, 1, 1])
    with pytest.raises(ValueError):
        il.mvec([[1, 2], [3]], [1, 1])
    with pytest.raises(ValueError):
        il.solve(il.smith_normal_form(il.mid(2)), [1, 0, 0])
    sq = il.subquotient(2, il.mid(2), [[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        sq.coords([1, 0, 0])
    # an entry outside Z^g or Z^f: in d_out, in d_in, in the relations
    # below, or a d_in with more columns than generators
    for cx in (((), [((1, 1),)], 1, 0), ([((3, 1),)], (), 1, 2),
               ((), (), 1, 1, (), [((5, 1),)]), ([(), ()], (), 1, 1)):
        with pytest.raises(ValueError):
            il.chain_homology(*cx)
    with pytest.raises(ValueError):
        il.chain_homology((), (), 2, 0).coords([0])
    with pytest.raises(ValueError):
        hm.in_relations([[2], [3], [0]], hm.PresentedGroup(2, [[2, 0],
                                                               [0, 3]]))


# --- the earlier homology routines, kept as oracles --------------------------
# invariant_factors, cokernel and free_homology were the sparse group-only
# route, and dense_chain_homology the dense coordinate route, before both
# became the one primitive il.chain_homology

def invariant_factors(cols) -> list:
    """The nonzero invariant factors, in divisibility order and without
    transforms, of the matrix whose sparse columns are given.  While some
    column has an entry +-1, that entry clears its row from every other
    column by column operations, and its row and column leave the matrix
    with an invariant factor 1.  Of the columns that remain, those equal to
    +-another are dropped; the dense Smith normal form of the rest gives
    the other factors."""
    cols = {j: dict(col) for j, col in enumerate(cols) if col}
    rows = {}                      # row -> the columns with an entry there
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    units = 0
    found = True
    while found:
        found = False
        for j in list(cols):
            col = cols.get(j, {})         # gone when it became zero
            pivots = [i for i, v in col.items() if v in (1, -1)]
            if not pivots:
                continue
            p = min(pivots, key=lambda i: len(rows[i]))
            del cols[j]
            for i in col:
                rows[i].discard(j)
            s = col.pop(p)
            for k in rows.pop(p):
                ck = cols[k]
                q = ck.pop(p) * s
                for i, v in col.items():
                    w = ck.get(i, 0) - q * v
                    if w:
                        ck[i] = w
                        rows[i].add(k)
                    else:
                        del ck[i]
                        rows[i].discard(k)
                if not ck:
                    del cols[k]
            units += 1
            found = True
    distinct = {}                  # column up to sign -> column
    for col in cols.values():
        entries = sorted(col.items())
        sign = 1 if entries[0][1] > 0 else -1
        distinct[tuple((i, sign * v) for i, v in entries)] = col
    live = sorted({i for col in distinct.values() for i in col})
    rest = [[col.get(i, 0) for col in distinct.values()] for i in live]
    tail = [d for d in il.smith_normal_form(rest).diag() if d] if rest else []
    return [1] * units + tail


def cokernel(cols, nrows: int) -> il.FGAbGroup:
    """Z^nrows / the span of the given sparse columns, in canonical form."""
    factors = invariant_factors(cols)
    return il.FGAbGroup(nrows - len(factors),
                        tuple(d for d in factors if d >= 2))


def free_homology(d_in, d_out, g: int) -> il.FGAbGroup:
    """The homology at Z^g of free groups ... -d_out-> Z^g -d_in-> ..., as a
    group only: Z^(g - rank d_in - rank d_out) plus the torsion of
    d_out."""
    rank_in = len(invariant_factors(d_in)) if d_in else 0
    H = cokernel(d_out, g)
    return il.FGAbGroup(H.free_rank - rank_in, H.torsion)


def dense_chain_homology(d_in, d_out, g: int, f: int, rels=(),
                         rels_below=()) -> il.Subquotient:
    """The same homology as il.chain_homology, by dense Smith normal forms
    of the whole complex: cycles from the kernel of [d_in | rels_below],
    then the dense subquotient.  A zero boundary column is added, so that
    the boundaries' Smith form is taken even when there are none."""
    cycles = il.kernel_mod_rels(dense(d_in, f), dense(rels_below, f)) \
        if g and f else il.mid(g)
    return il.subquotient(g, cycles, dense([*d_out, *rels, ()], g))


def dense_cokernel(M, nrows=None):
    return cokernel(il.sparse_columns(M), len(M) if M else nrows)


def primitive_cokernel(M, nrows=0):
    """The cokernel of M as the homology of Z^0 <- Z^r <- Z^c."""
    return il.chain_homology((), il.sparse_columns(M), len(M) if M else nrows,
                             0).group


def test_cokernel_canonical():
    for coker in (dense_cokernel, primitive_cokernel):
        assert coker([[2]], nrows=1) == il.FGAbGroup(0, (2,))
        assert coker([[6, 0], [0, 4]]) == il.FGAbGroup(0, (2, 12))
        assert coker([], nrows=3) == il.FGAbGroup(3, ())
        assert coker([[], []]) == il.FGAbGroup(2, ())
        assert coker([[0, 0], [0, 0]]) == il.FGAbGroup(2, ())


# --- invariant factors against the dense Smith normal form -------------------

def snf_factors(M):
    return [d for d in il.smith_normal_form(M).diag() if d]


def sparse_factors(M):
    return invariant_factors(il.sparse_columns(M))


def snf_cokernel(M):
    factors = snf_factors(M)
    return il.FGAbGroup(len(M) - len(factors),
                        tuple(d for d in factors if d >= 2))


@given(sparse_matrices)
@settings(max_examples=150, deadline=None)
def test_invariant_factors_match_snf(M):
    assert sparse_factors(M) == snf_factors(M)
    assert primitive_cokernel(M) == snf_cokernel(M)


def _negate_first_entry(col):
    k = next((k for k, v in enumerate(col) if v), None)
    return [-v if i == k else v for i, v in enumerate(col)]


# without entries +-1 there is no unit pivot, so every column, copies
# included, reaches the dense remainder
nonunit_matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 8).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([0, 0, 2, -2, 3, -3, 4]),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


@given(st.one_of(sparse_matrices, nonunit_matrices), st.data())
@settings(max_examples=100, deadline=None)
def test_invariant_factors_match_snf_with_repeated_columns(M, data):
    # copies of columns (sign 1), negated copies (-1) and zero columns,
    # shuffled in, leave the column lattice and so the factors unchanged;
    # copies with only their first entry negated (0) are kept as they are
    # distinct columns unless they have one entry
    cols = il.columns(M)
    r = len(M)
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(cols) - 1),
                  st.sampled_from([1, -1, 0])),
        max_size=12) if cols else st.just([]))
    extra = [[s * v for v in cols[k]] if s else _negate_first_entry(cols[k])
             for k, s in picks]
    extra += [[0] * r] * data.draw(st.integers(0, 3))
    N = il.from_columns(data.draw(st.permutations(cols + extra)), nrows=r)
    assert sparse_factors(N) == snf_factors(N)
    assert primitive_cokernel(N) == snf_cokernel(N)
    if all(s for _, s in picks):
        assert snf_factors(N) == snf_factors(M)


@given(st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-3, 3), min_size=c, max_size=c),
            min_size=r, max_size=r))))
@settings(max_examples=80, deadline=None)
def test_invariant_factors_match_determinantal_divisors(M):
    quotients, prev = [], 1
    for g in determinantal_divisors(M):
        if g == 0:
            break
        quotients.append(g // prev)
        prev = g
    assert sparse_factors(M) == quotients


def test_invariant_factors_edge_cases():
    assert sparse_factors([]) == []
    assert sparse_factors([[], [], []]) == []
    assert sparse_factors([[0, 0, 0]]) == []
    assert sparse_factors([[0], [0]]) == []
    assert sparse_factors([[2, 0], [0, 0], [0, 3]]) == [1, 6]
    # a unit pivot whose row update creates the only remaining non-unit
    assert sparse_factors([[1, 1], [1, -1]]) == [1, 2]
    assert sparse_factors([[2, 4], [6, 8]]) == [2, 4]
    # equal up to sign, so one of them is dropped before the dense SNF
    assert sparse_factors([[2, -2, 2], [4, -4, 0]]) == [2, 4]
    # equal up to the sign of one entry: both are kept
    assert sparse_factors([[2, 2], [2, -2]]) == [2, 4]


# --- the homology primitive against the dense oracle -------------------------

def _sparse(col):
    return tuple((i, v) for i, v in enumerate(col) if v)


def _combinations(draw, basis, n, length):
    """n columns of the given length, each a small combination of the
    columns of basis."""
    coef = st.sampled_from([0, 0, 0, 1, -1, 2, 3])
    out = []
    for _ in range(n):
        c = [draw(coef) for _ in basis]
        out.append([sum(a * b[i] for a, b in zip(c, basis))
                    for i in range(length)])
    return out


@st.composite
def sparse_complexes(draw, with_rels):
    """(d_in, d_out, g, f, rels, rels_below): a random sparse d_in: Z^g ->
    Z^f, relations below when with_rels, and d_out (and rels) as small
    combinations of a basis of the cycles {x : d_in x in span(rels_below)},
    so that d^2 = 0 in the free case and boundaries are cycles in all."""
    entry = st.sampled_from([0] * 6 + [1, -1, 2, -2, 3])
    g, f = draw(st.integers(0, 7)), draw(st.integers(0, 6))
    m = draw(st.integers(0, 3)) if with_rels and f else 0
    D = [[draw(entry) for _ in range(g)] for _ in range(f)]
    R = [[draw(entry) for _ in range(m)] for _ in range(f)]
    K = il.columns(il.kernel_mod_rels(D, R) if g and f else il.mid(g))
    d_out = _combinations(draw, K, draw(st.integers(0, 6)), g)
    rels = _combinations(draw, K, draw(st.integers(0, 3)), g) \
        if with_rels else []
    return ([_sparse(c) for c in il.columns(D)] if g else [],
            [_sparse(c) for c in d_out], g, f,
            [_sparse(c) for c in rels], il.sparse_columns(R))


def change_of_basis(new, old):
    """Per generator of old, the coordinates in new of its class."""
    return [new.coords(old.generator(i)) for i in range(len(old.orders))]


class Replay:
    """Stands for st.data() in an @example: draw returns the given values
    in turn, starting over after the last."""

    def __init__(self, *values):
        self.values = cycle(values)

    def draw(self, _strategy):
        return next(self.values)


# each example reaches a route on which chain_homology takes no Smith form
# of the cycles: the cycles are all of Z^live.  Free, no boundary left: the
# boundary e0 + 2 e1 is cleared at e0.  Torsion boundaries left: e0 + e1 is
# cleared at e0 and 2 e1 + 2 e2 stays, so that z = e0 is read through the
# cleared column.  Solved rows, free remainder: d_in = e0, e0 + e1, e1 is
# solved at rows 0 and 1, leaving the cycle e0 - e1 + e2, and z = e0 breaks
# the row of generator 0.
@pytest.mark.parametrize("with_rels", [False, True])
@given(st.data())
@example(Replay(((), [((0, 1), (1, 2))], 3, 0, (), ()), [0, 1, -1]))
@example(Replay(((), [((0, 1), (1, 1)), ((1, 2), (2, 2))], 3, 0, (), ()),
                [1, 0, 0]))
@example(Replay(([((0, 1),), ((0, 1), (1, 1)), ((1, 1),)], [], 3, 2, (),
                 ()), [1, 0, 0]))
@settings(max_examples=120, deadline=None)
def test_chain_homology_matches_dense_oracle(with_rels, data):
    cx = data.draw(sparse_complexes(with_rels))
    new, old = il.chain_homology(*cx), dense_chain_homology(*cx)
    assert new.group == old.group
    g, k = cx[2], len(new.orders)
    unit = [[int(i == j) for j in range(k)] for i in range(k)]
    assert [new.coords(new.generator(i)) for i in range(k)] == unit
    # the two bases are related by mutually inverse changes of basis
    P, Q = change_of_basis(new, old), change_of_basis(old, new)
    for i, col in enumerate(Q):
        back = [sum(a * b[j] for a, b in zip(col, P)) for j in range(k)]
        assert [v % t if t else v for v, t in zip(back, new.orders)] \
            == unit[i]
    # both read the same vectors as cycles, and a cycle as the same class
    z = data.draw(st.lists(st.integers(-2, 2), min_size=g, max_size=g))
    assert is_cycle(new, z) == is_cycle(old, z)
    if is_cycle(new, z):
        moved = [sum(a * col[j] for a, col in zip(old.coords(z), P))
                 for j in range(k)]
        assert [(a - b) % t if t else a - b for a, b, t in
                zip(new.coords(z), moved, new.orders)] == [0] * k


def is_cycle(sq, z):
    try:
        sq.coords(z)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("with_rels", [False, True])
@given(st.data())
@settings(max_examples=120, deadline=None)
def test_induced_matrix_matches_dense_oracle(with_rels, data):
    # the target is the source plus h generators, cycles of every kind,
    # with boundaries B + (A B + E) for the source boundaries B; the chain
    # map x -> (k x + B H x, A x) induces k on the source summand and A
    # into the other
    cx = data.draw(sparse_complexes(with_rels))
    d_in, d_out, g, f, rels, below = cx
    ints = st.integers(-2, 2)
    h = data.draw(st.integers(0, 3))
    B = [dict(col) for col in (*d_out, *rels)]
    A = [[data.draw(ints) for _ in range(g)] for _ in range(h)]
    H = [[data.draw(ints) for _ in range(g)] for _ in B]
    E = [[data.draw(ints) for _ in range(h)]
         for _ in range(data.draw(st.integers(0, 2)))]
    k = data.draw(ints)

    def into(top, bottom):      # the sparse column (top, bottom)
        return tuple(top) + tuple((g + i, v) for i, v in enumerate(bottom)
                                  if v)

    AB = [[sum(a[r] * v for r, v in b.items()) for a in A] for b in B]
    tgt = ([*d_in, *[()] * h] if f else [], [
        *(into(col, ()) for col in d_out), *(into((), e) for e in E),
        *(into((), ab) for ab in AB)], g + h, f,
        [into(col, ()) for col in rels], below)
    phi = []
    for j in range(g):
        top = [k * (i == j) + sum(H[c][j] * b.get(i, 0)
                                  for c, b in enumerate(B))
               for i in range(g)]
        phi.append(into(_sparse(top), [a[j] for a in A]))
    new_s, new_t = il.chain_homology(*cx), il.chain_homology(*tgt)
    old_s, old_t = dense_chain_homology(*cx), dense_chain_homology(*tgt)
    M_new = il.induced_matrix(new_s, new_t, phi)
    M_old = il.induced_matrix(old_s, old_t, phi)
    P_s, P_t = change_of_basis(new_s, old_s), change_of_basis(new_t, old_t)
    for i, col in enumerate(P_s):
        lhs = [sum(row[l] * c for l, c in enumerate(col)) for row in M_new]
        rhs = [sum(P_t[l][r] * row[i] for l, row in enumerate(M_old))
               for r in range(len(new_t.orders))]
        assert [(a - b) % t if t else a - b
                for a, b, t in zip(lhs, rhs, new_t.orders)] \
            == [0] * len(new_t.orders)


def test_induced_matrix_rejects_a_chain_map_of_the_wrong_width():
    # zip would stop at the shorter of the generator and the chain map
    sq = il.chain_homology((), (), 2, 0)
    for cols in ([((0, 1),)], [((0, 1),), ((1, 1),), ((0, 1),)]):
        with pytest.raises(ValueError, match="chain map with [13] columns"):
            il.induced_matrix(sq, sq, cols)
    assert il.induced_matrix(sq, sq, [((1, 1),), ((0, 1),)]) \
        == [[0, 1], [1, 0]]


SHORTCUT_ERRORS = """
from twocat import intlinalg as il
sq = il.chain_homology([((0, 1),), ((0, 1), (1, 1)), ((1, 1),)], [], 3, 2)
print(sq.K, sq.snf_K, sq.snf_Y, sq.generator(0))
for bad in (lambda: sq.coords([1, 0]), lambda: sq.coords([1, 0, 0]),
            lambda: il.induced_matrix(sq, sq, [((0, 1),), ((1, 1),)])):
    try:
        bad()
    except ValueError as e:
        print(e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_shortcut_subquotient_rejects_what_a_dense_one_does(flags):
    # solved rows and a free remainder: no Smith form is taken, and coords
    # and induced_matrix still raise, also where -O strips asserts
    proc = subprocess.run([sys.executable, *flags, "-c", SHORTCUT_ERRORS],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.stdout.splitlines() == [
        "None None None [1, -1, 1]", "a vector of length 2 in Z^3",
        "element is not a cycle", "a chain map with 2 columns from Z^3"]


def test_homology_subquotient_reduces_g2xc2_h4_to_a_small_remainder():
    X = ORACLE_NERVES["G2xC2"]()
    start = time.perf_counter()
    H, = hm.homology_subquotient(X, [4])
    sq, basis = H.sq, H.basis
    assert str(sq.group) == "Z/4 + Z/4"
    assert time.perf_counter() - start < 0.5
    assert len(sq.live) < len(basis) // 10
    for i in range(2):
        z = sq.generator(i)
        assert sq.coords(z) == [int(i == j) for j in range(2)]


# --- integral homology ---------------------------------------------------------

def test_homology_terminal():
    X = nerve(fix_t(), 3)
    assert str(hm.homology(X, 0)) == "Z"
    assert hm.homology(X, 1).is_trivial
    assert hm.homology(X, 2).is_trivial


def test_homology_interval():
    X = nerve(fix_i(), 2)
    assert str(hm.homology(X, 0)) == "Z"
    assert hm.homology(X, 1).is_trivial
    C = hm.chain_complex(X)
    assert [C.rank(n) for n in range(3)] == [2, 1, 0]
    assert sorted(v for _, v in C.boundary[1][0]) == [-1, 1]


def test_homology_g2():
    X = nerve(fix_g2(), 4)
    assert [str(hm.homology(X, n)) for n in range(4)] == \
        ["Z", "0", "Z/2", "0"]
    C = hm.chain_complex(X)
    assert [C.rank(n) for n in range(4)] == [1, 0, 1, 4]


def test_homology_degree_error():
    X = nerve(fix_g2(), 3)
    for n in (-1, 3, 4):
        with pytest.raises(ValueError):
            hm.homology(X, n)


def test_homology_discrete():
    X = nerve(fix_c2(), 2)
    assert hm.homology(X, 0) == il.FGAbGroup(2, ())
    assert hm.homology(X, 1).is_trivial


def _completion(P):
    return sinv.s_inv_x(P, pgm.self_action(P)).cat


# name -> (category, truncation level): every fixture at N = 4, G2xC2 at
# N = 5 (its d_5 is 82 x 1536 with entries 0, +-1, +-2), and two group
# completions
ORACLE_CATEGORIES = {
    **{mk.__name__: (mk, 4)
       for mk in (fix_t, fix_c2, fix_m2, fix_i, fix_g2, fix_g2sat)},
    "G2xC2": (lambda: fix_prod(fix_g2(), fix_c2())[0], 5),
    "S^-1 M2": (lambda: _completion(pgm.fix_m2_pgm()), 6),
    "S^-1 C2": (lambda: _completion(pgm.fix_c2_pgm()), 5),
}
ORACLE_NERVES = {name: (lambda mk=mk, N=N: nerve(mk(), N))
                 for name, (mk, N) in ORACLE_CATEGORIES.items()}


def dense(cols, nrows):
    """The dense matrix with nrows rows whose sparse columns are given."""
    M = il.mzeros(nrows, len(cols))
    for j, col in enumerate(cols):
        for i, v in col:
            M[i][j] = v
    return M


def dense_chain_complex(X):
    """Oracle: the chain complex with dense boundary matrices, checking
    d^2 = 0 by dense products."""
    basis = [list(X.nondegenerate(n)) for n in range(X.N + 1)]
    index = [{x: i for i, x in enumerate(b)} for b in basis]
    boundary = [None]
    for n in range(1, X.N + 1):
        M = il.mzeros(len(basis[n - 1]), len(basis[n]))
        for k, x in enumerate(X.levels[n]):
            if x not in index[n]:
                continue
            for i, row in enumerate(X.faces[n]):
                y = X.levels[n - 1][row[k]]
                if y in index[n - 1]:
                    M[index[n - 1][y]][index[n][x]] += (-1) ** i
        boundary.append(M)
    for n in range(2, X.N + 1):
        if basis[n - 2] and basis[n] and any(
                any(row) for row in il.mmul(boundary[n - 1], boundary[n])):
            raise AxiomError("boundary squared is nonzero in degree %d" % n)
    return hm.ChainComplexZ(X.N, basis, boundary,
                            [[index[n].get(x) for x in X.levels[n]]
                             for n in range(X.N + 1)])


@pytest.mark.parametrize("name", sorted(ORACLE_NERVES))
def test_sparse_boundaries_match_dense_oracle(name):
    X = ORACLE_NERVES[name]()
    C, D = hm.chain_complex(X), dense_chain_complex(X)
    assert (C.basis, C.rows) == (D.basis, D.rows)
    for n in range(1, X.N + 1):
        assert dense(C.boundary[n], C.rank(n - 1)) == D.boundary[n], n


@pytest.mark.parametrize("name", sorted(ORACLE_NERVES))
def test_group_only_homology_matches_subquotient(name):
    X = ORACLE_NERVES[name]()
    C, D = hm.chain_complex(X), dense_chain_complex(X)
    for n in range(1, X.N + 1):
        assert invariant_factors(C.boundary[n]) \
            == snf_factors(D.boundary[n]), n
    for n in range(X.N):
        assert hm.homology(X, n) == free_homology(
            C.boundary[n] if n else (), C.boundary[n + 1], C.rank(n)), n


def classical_poset_homology(objects, arrows, compose, n, N):
    """Independent oracle: homology of the classical nerve of a finite
    1-category, normalized chains = chains of composable nonidentity
    arrows."""
    ident = {f for f in arrows if arrows[f][0] == arrows[f][1]
             and all(compose.get((f, g)) == g for g in arrows
                     if arrows[g][1] == arrows[f][0])}
    nonid = [f for f in sorted(arrows) if f not in ident]
    chains = {0: [(o,) for o in sorted(objects)]}
    for p in range(1, N + 1):
        out = []
        for f in nonid:
            if p == 1:
                out.append((f,))
            else:
                for tail in chains[p - 1]:
                    if len(tail) == p and isinstance(tail[0], str) \
                            and tail[0] in arrows \
                            and arrows[f][1] == arrows[tail[0]][0]:
                        out.append((f,) + tail)
        chains[p] = sorted(out)
    # boundary
    def bnd(p, chain):
        res = {}
        if p == 1:
            f = chain[0]
            res[(arrows[f][1],)] = res.get((arrows[f][1],), 0) + 1
            res[(arrows[f][0],)] = res.get((arrows[f][0],), 0) - 1
            return res
        for i in range(p + 1):
            if i == 0:
                face = chain[1:]
            elif i == p:
                face = chain[:-1]
            else:
                g = compose[(chain[i - 1], chain[i])]
                if g in ident:
                    continue
                face = chain[:i - 1] + (g,) + chain[i:]
            res[face] = res.get(face, 0) + (-1) ** i
        return res

    idx = {p: {x: i for i, x in enumerate(chains[p])} for p in chains}
    mats = {}
    for p in range(1, N + 1):
        M = il.mzeros(len(chains[p - 1]), len(chains[p]))
        for j, ch in enumerate(chains[p]):
            for face, cf in bnd(p, ch).items():
                if cf:
                    M[idx[p - 1][face]][j] += cf
        mats[p] = M
    rn = len(chains[n])
    if rn == 0:
        return il.FGAbGroup(0, ())
    if n == 0 or len(chains[n - 1]) == 0:
        cycles = il.mid(rn)
    else:
        cycles = il.kernel_basis(mats[n])
    bndm = mats[n + 1] if len(chains[n + 1]) else il.mzeros(rn, 0)
    return il.subquotient(rn, cycles, bndm).group


def test_locally_discrete_matches_classical_oracle():
    arrows = {"id_0": ("0", "0"), "id_1": ("1", "1"), "a01": ("0", "1")}
    compose = {("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
               ("a01", "id_0"): "a01", ("id_1", "a01"): "a01"}
    X = nerve(fix_i(), 3)
    for n in range(3):
        assert hm.homology(X, n) == classical_poset_homology(
            ["0", "1"], arrows, compose, n, 3)


def test_relabeling_invariance():
    # homology only sees the face/degeneracy structure, so mapping through
    # the identity functor (same shape, relabeled simplices) is the identity
    from twocat.core import identity_functor
    X = nerve(fix_g2(), 3)
    F = identity_functor(fix_g2())
    H, = hm.homology_subquotient(X, [2])
    assert hm.homology_induced(F, H, H) == il.mid(len(H.sq.gen_idx))


def test_induced_map_rejects_an_image_outside_the_target():
    # an image simplex that the target's level lacks is an error, not a
    # zero column: only a degenerate image drops out
    from twocat.core import identity_functor
    F = identity_functor(fix_g2())
    Hs, = hm.homology_subquotient(nerve(fix_g2(), 3), [2])
    Ht, = hm.homology_subquotient(nerve(fix_i(), 3), [2])
    with pytest.raises(KeyError):
        hm.homology_induced(F, Hs, Ht)


# --- local coefficients ---------------------------------------------------------

ZCONST = hm.PresentedGroup(1, [])


def constant_system(X, pres=ZCONST):
    """The coefficient system with the group pres at every simplex and
    identity face and degeneracy maps."""
    group, face_map, degen_map, n = {}, {}, {}, pres.gens
    for lev, faces, degens in zip(X.levels, X.faces, X.degens):
        for x in lev:
            group[x] = pres
            face_map.update(((i, x), il.mid(n)) for i in range(len(faces)))
            degen_map.update(((i, x), il.mid(n))
                             for i in range(len(degens)))
    return hm.LocalCoeffSystem(group, face_map, degen_map)


def test_constant_system_matches_plain():
    for mk, N in [(fix_g2, 3), (fix_i, 2), (fix_g2sat, 3)]:
        X = nerve(mk(), N)
        L = constant_system(X)
        for n in range(N):
            assert hm.homology_local(X, L, n) == hm.homology(X, n)


def test_constant_z3_interval():
    X = nerve(fix_i(), 2)
    L = constant_system(X, hm.PresentedGroup(1, [[3]]))
    assert hm.homology_local(X, L, 0) == il.FGAbGroup(0, (3,))
    assert hm.homology_local(X, L, 1).is_trivial


def _uct(H_n, H_prev, k):
    """H_n (x) Z/k + Tor(H_{n-1}, Z/k), from the integral groups."""
    orders = ([k] * H_n.free_rank + [gcd(t, k) for t in H_n.torsion]
              + [gcd(t, k) for t in H_prev.torsion])
    m = len(orders)
    diag = [[orders[i] if i == j else 0 for j in range(m)]
            for i in range(m)]
    return dense_cokernel(diag, nrows=m)


UCT_NERVES = {
    "G2": lambda: nerve(fix_g2(), 4),
    "IxI": lambda: nerve(fix_prod(fix_i(), fix_i())[0], 3),
    "G2xC2": lambda: nerve(fix_prod(fix_g2(), fix_c2())[0], 4),
}


@pytest.mark.parametrize("name", sorted(UCT_NERVES))
def test_universal_coefficients(name):
    # constant Z/k coefficients exercise the relation columns of the
    # homology primitive; G2 and G2xC2 have torsion in H_2, so Tor shows
    # in H_3
    X = UCT_NERVES[name]()
    N = X.N
    H = [il.FGAbGroup(0, ())] + [hm.homology(X, n) for n in range(N)]
    for k in (2, 3, 4):
        L = constant_system(X, hm.PresentedGroup(1, [[k]]))
        for n in range(N):
            assert hm.homology_local(X, L, n) == _uct(H[n + 1], H[n], k), \
                (k, n)


def presented_map_is_iso(src, tgt, M):
    """The parent's iso test, kept as the oracle: equal canonical forms
    plus surjectivity (surjections between isomorphic finitely generated
    abelian groups are isomorphisms)."""
    if src.canonical != tgt.canonical:
        return False
    return cokernel(il.sparse_columns(il.hstack(M, tgt.rel_matrix())),
                    tgt.gens).is_trivial


def _times(A, B, r, m, c):
    """A B for A r x m and B m x c; shapes are given because [] hides its
    number of columns."""
    return [[sum(A[i][k] * B[k][j] for k in range(m)) for j in range(c)]
            for i in range(r)]


def _minus_identity(A, n):
    return [[A[i][j] - (i == j) for j in range(n)] for i in range(n)]


@st.composite
def presented_maps(draw):
    """(M, src, tgt): presented groups on at most 3 generators with at most
    3 relations, entries -4..4.  Half the draws are a random map; the other
    half an invertible matrix U with tgt presented by U times the relations
    of src, so that isomorphisms between different presentations are
    common."""
    ints = st.integers(-4, 4)

    def matrix(r, c):
        return [[draw(ints) for _ in range(c)] for _ in range(r)]

    def group(g):
        k = draw(st.integers(0, 3))
        return hm.PresentedGroup(g, matrix(g, k) if k else [])

    src = group(draw(st.integers(0, 3)))
    if draw(st.booleans()):
        tgt = group(draw(st.integers(0, 3)))
        return matrix(tgt.gens, src.gens), src, tgt
    g = src.gens
    U = il.mid(g)
    for _ in range(draw(st.integers(0, 6)) if g > 1 else 0):
        i, j = draw(st.permutations(range(g)))[:2]
        q = draw(ints)
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    return U, src, hm.PresentedGroup(
        g, il.mmul(U, src.rel_matrix()) if src.rels else [])


@given(presented_maps())
@settings(max_examples=300, deadline=None)
def test_iso_inverse_matches_oracle(case):
    M, src, tgt = case
    inv = hm.iso_inverse(M, src, tgt)
    assert (inv is not None) == presented_map_is_iso(src, tgt, M)
    s, t = src.gens, tgt.gens
    R = src.rel_matrix()
    k = len(R[0]) if R else 0
    # the inverse is one when M is a homomorphism, carrying relations to
    # relations
    if inv is not None and hm.in_relations(_times(M, R, t, s, k), tgt):
        assert hm.in_relations(_minus_identity(_times(M, inv, t, s, t), t),
                               tgt)
        assert hm.in_relations(_minus_identity(_times(inv, M, s, t, s), s),
                               src)


def test_in_relations_reads_every_column():
    G = hm.PresentedGroup(2, [[2, 0], [0, 3]])
    assert hm.in_relations([[2, 4, 0], [3, 0, -6]], G)
    assert not hm.in_relations([[2, 4, 1], [3, 0, -6]], G)
    assert hm.in_relations([[]], ZCONST)
    assert not hm.in_relations([[0, 1]], ZCONST)
    # a map into the zero group has no rows
    assert hm.in_relations(il.mmul([], [[2]]), hm.PresentedGroup(0, []))


def operator_dicts(X):
    """X with its operators in the dict form (i, x) -> y that the
    simplicial sets used to have, and its flags as a dict x -> bool."""
    def table(rows_of, shift):
        return {(i, x): X.levels[n + shift][k]
                for n, lev in enumerate(X.levels)
                for i, row in enumerate(rows_of[n])
                for x, k in zip(lev, row)}

    return SimpleNamespace(
        N=X.N, levels=X.levels, face=table(X.faces, -1),
        degen=table(X.degens, 1),
        degenerate={x: v for lev, flags in zip(X.levels, X.degenerate)
                    for x, v in zip(lev, flags)})


def is_morphism_inverting(L, X):
    """Whether every face and degeneracy map of L is a homomorphism,
    carrying relations to relations, and an isomorphism, X being in
    ``operator_dicts`` form; ``hm.iso_inverse`` assumes the first."""
    for maps, op in ((L.face_map, X.face), (L.degen_map, X.degen)):
        for (i, x), M in maps.items():
            src, tgt = L.group[x], L.group[op[(i, x)]]
            if not hm.in_relations(il.mmul(M, src.rel_matrix()), tgt) or \
                    hm.iso_inverse(M, src, tgt) is None:
                return False
    return True


def test_morphism_inverting_flags():
    X = nerve(fix_i(), 2)
    L = constant_system(X)
    X = operator_dicts(X)
    assert is_morphism_inverting(L, X)
    # a multiplication-by-2 face map on Z is not inverting
    bad = hm.LocalCoeffSystem(dict(L.group), dict(L.face_map), {})
    k = next(iter(bad.face_map))
    bad.face_map[k] = [[2]]
    assert not is_morphism_inverting(bad, X)


def test_a_map_that_breaks_relations_is_not_inverting():
    # e1 -> 0, e2 -> e1, e3 -> e2 from Z^3/<e3> to Z^2 is surjective
    # between isomorphic groups, but sends the relation e3 to e2 != 0
    src, tgt = hm.PresentedGroup(3, [[0], [0], [1]]), hm.PresentedGroup(2, [])
    M = [[0, 1, 0], [0, 0, 1]]
    assert hm.iso_inverse(M, src, tgt) is not None
    L = hm.LocalCoeffSystem({"x": src, "y": tgt}, {(0, "x"): M}, {})
    X = SimpleNamespace(face={(0, "x"): "y"}, degen={})
    assert not is_morphism_inverting(L, X)


def test_local_system_functoriality_enforced():
    X = nerve(fix_g2(), 3)
    L = constant_system(X)
    bad = hm.LocalCoeffSystem(dict(L.group), dict(L.face_map), {})
    x = X.levels[2][0]
    bad.face_map[(0, x)] = [[5]]
    with pytest.raises(AxiomError, match="face functoriality"):
        hm.homology_local(X, bad, 1)


def test_local_system_shapes_enforced():
    X = nerve(fix_i(), 2)
    L = constant_system(X, hm.PresentedGroup(2, [[2], [0]]))
    hm.check_local_system(L, X)
    x = X.levels[1][0]
    cases = [
        ("no coefficient group", lambda g, f: g.pop(x)),
        ("relations of the group", lambda g, f: g.__setitem__(
            x, hm.PresentedGroup(2, [[2]]))),
        ("relations of the group", lambda g, f: g.__setitem__(
            x, hm.PresentedGroup(2, [[2], [0, 1]]))),
        ("is not a 2 x 2 matrix", lambda g, f: f.pop((1, x))),
        ("is not a 2 x 2 matrix", lambda g, f: f.__setitem__(
            (0, x), [[1, 0], [0]])),
    ]
    for match, spoil in cases:
        bad = hm.LocalCoeffSystem(dict(L.group), dict(L.face_map), {})
        spoil(bad.group, bad.face_map)
        with pytest.raises(AxiomError, match=match):
            hm.check_local_system(bad, X)


def test_matrix_shape_mismatch_is_an_error():
    with pytest.raises(ValueError):
        il.mmul([[1, 2]], [[1, 2]])
    with pytest.raises(ValueError):
        il.hstack([[1]], [[1], [2]])
