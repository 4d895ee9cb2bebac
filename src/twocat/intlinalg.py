"""Exact integer matrix algebra: Smith normal form with unimodular
transforms, integer kernels, subquotient presentations, and the one
homology primitive.

Chain complexes and chain maps are sparse columns (``sparse_columns``): per
column a tuple of (row, value) pairs, nonzero entries only, in increasing
row order.  ``chain_homology`` is the homology of a complex of presented
groups with coordinates: it reduces the sparse complex by unit pivots on
both sides (``unit_pivots``) and runs the dense ``subquotient`` on what is
left, and ``induced_matrix`` reads chain maps through it.  Dense matrices,
lists of lists of Python ints (r rows, c columns: Z^c -> Z^r), are also the
maps between presented groups.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import compress
from operator import mul


def mzeros(r: int, c: int):
    return [[0] * c for _ in range(r)]


def mid(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mshape(M):
    return len(M), len(M[0]) if M else 0


def mmul(A, B):
    """A B; a matrix with no rows, [], has as many columns as B has rows."""
    rb, cb = len(B), len(B[0]) if B else 0
    ra, ca = len(A), len(A[0]) if A else rb
    if ca != rb:
        raise ValueError("cannot multiply: %d columns against %d rows"
                         % (ca, rb))
    out = mzeros(ra, cb)
    for i in range(ra):
        Ai = A[i]
        for k in range(ca):
            a = Ai[k]
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(cb):
                    row[j] += a * Bk[j]
    return out


def mvec(A, v):
    """A v, reading only the entries of A's rows where v is nonzero;
    ValueError unless every row of A is as long as v."""
    lengths = set(map(len, A)) - {len(v)}
    if lengths:
        raise ValueError("cannot multiply: a row of length %d against a "
                         "vector of length %d" % (min(lengths), len(v)))
    nz = [x for x in v if x]
    return [sum(map(mul, compress(row, v), nz)) for row in A]


def hstack(A, B):
    if not A:
        return [row[:] for row in B]
    if not B:
        return [row[:] for row in A]
    if len(A) != len(B):
        raise ValueError("cannot stack: %d rows against %d rows"
                         % (len(A), len(B)))
    return [ra + rb for ra, rb in zip(A, B)]


def columns(M):
    r, c = mshape(M)
    return [[M[i][j] for i in range(r)] for j in range(c)]


def from_columns(cols, nrows=None):
    if not cols:
        return [[] for _ in range(nrows or 0)]
    r = len(cols[0])
    return [[col[i] for col in cols] for i in range(r)]


@dataclass
class SNF:
    S: list          # r x r unimodular
    D: list          # r x c diagonal, divisibility chain, nonnegative
    T: list          # c x c unimodular
    Sinv: list       # r x r, S . Sinv = I

    @property
    def rank(self):
        r, c = mshape(self.D)
        return sum(1 for i in range(min(r, c)) if self.D[i][i] != 0)

    def diag(self):
        r, c = mshape(self.D)
        return [self.D[i][i] for i in range(min(r, c))]


def smith_normal_form(M) -> SNF:
    """S . M . T = D with S, T unimodular and D = diag(d_1 | d_2 | ...),
    entries nonnegative.  Sinv is maintained alongside S."""
    r, c = mshape(M)
    A = [row[:] for row in M]
    S, Sinv, T = mid(r), mid(r), mid(c)

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
        # pivot: first nonzero entry of least |value| in the trailing block
        piv = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                a = abs(A[i][j])
                if a and (best is None or a < best):
                    best, piv = a, (i, j)
                    if a == 1:
                        break
            if best == 1:
                break
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
        # divisibility: A[t][t] must divide every remaining entry (1 does)
        d = A[t][t]
        fixed = True
        for i in range(t + 1, r) if d != 1 else ():
            for j in range(t + 1, c):
                if A[i][j] % d:
                    row_add(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    return SNF(S, A, T, Sinv)


def kernel_basis(M):
    """Columns forming a basis of the integer kernel of M (a primitive
    sublattice basis)."""
    c = mshape(M)[1]
    snf = smith_normal_form(M)
    rk = snf.rank
    cols = columns(snf.T)[rk:]
    return from_columns(cols, nrows=c)


def solve(snf: SNF, b):
    """One solution x of M x = b given the SNF of M, or None."""
    r, c = mshape(snf.D)
    sb = mvec(snf.S, b)
    y = [0] * c
    for i in range(min(r, c)):
        d = snf.D[i][i]
        if d:
            if sb[i] % d:
                return None
            y[i] = sb[i] // d
        elif sb[i]:
            return None
    for i in range(min(r, c), r):
        if sb[i]:
            return None
    return mvec(snf.T, y)


@dataclass(frozen=True)
class FGAbGroup:
    """Canonical form of a finitely generated abelian group."""
    free_rank: int
    torsion: tuple   # (t_1, ..., t_k) with 2 <= t_1 | t_2 | ... | t_k

    def __str__(self):
        parts = ["Z"] * self.free_rank + ["Z/%d" % t for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion


def sparse_columns(M):
    """The columns of the dense matrix M in sparse form: per column a tuple
    of (row, value) pairs, nonzero entries only, in increasing row order."""
    return [tuple((i, v) for i, v in enumerate(col) if v) for col in zip(*M)]


@dataclass
class Subquotient:
    """L_cycles / L_boundaries for lattices L_boundaries <= L_cycles <= Z^r,
    with generators and canonical coordinates of elements of L_cycles,
    presented on the coordinates ``live``; each other coordinate r was
    removed by ``chain_homology`` through a row, zero on cycles, or a
    boundary column, with entry +-1 at r."""
    ambient: int
    K: list                # len(live) x k basis of L_cycles
    snf_K: SNF
    snf_Y: SNF             # SNF of boundaries in K-coordinates (k x b)
    orders: list           # per retained generator: 0 for Z, t >= 2 for Z/t
    gen_idx: list          # retained K-coordinate indices (SNF order)
    group: FGAbGroup
    live: list
    solved: list = field(default_factory=list)     # (r, {k: row entry})
    cleared: list = field(default_factory=list)    # (r, {k: column entry})

    def coords(self, z):
        """Canonical coordinates of the class of z (z must lie in the cycle
        lattice); length = number of retained generators."""
        if len(z) != self.ambient:
            raise ValueError("a vector of length %d in Z^%d"
                             % (len(z), self.ambient))
        z = list(z)
        for _, row in self.solved:
            if sum(v * z[k] for k, v in row.items()):
                raise ValueError("element is not a cycle")
        for r, col in self.cleared:           # z -= z_r col_r col
            q = z[r] * col[r]
            if q:
                for k, v in col.items():
                    z[k] -= q * v
        c = solve(self.snf_K, [z[k] for k in self.live])
        if c is None:
            raise ValueError("element is not a cycle")
        u = mvec(self.snf_Y.S, c)
        out = []
        for pos, i in enumerate(self.gen_idx):
            t = self.orders[pos]
            out.append(u[i] % t if t else u[i])
        return out

    def generator(self, pos):
        """An ambient representative of the retained generator pos: zero at
        the cleared coordinates, and at each solved one the value its row
        forces."""
        i = self.gen_idx[pos]
        z = [0] * self.ambient
        for k, v in zip(self.live, mvec(self.K, [row[i] for row in
                                                 self.snf_Y.Sinv])):
            z[k] = v
        for r, row in reversed(self.solved):  # z_r is 0 until set here
            z[r] = -row[r] * sum(v * z[k] for k, v in row.items())
        return z


def subquotient(ambient: int, cycle_gens, boundary_gens) -> Subquotient:
    """cycle_gens, boundary_gens: matrices of columns spanning the two
    lattices (boundaries must lie inside the cycle lattice)."""
    # for S C T = D, K = S^-1 D (the first k columns of S^-1 times the
    # invariant factors) is a basis of the span of C, and S K I = D
    snf = smith_normal_form(cycle_gens if cycle_gens and cycle_gens[0]
                            else mzeros(ambient, 0))
    k = snf.rank
    K = [[row[i] * snf.D[i][i] for i in range(k)] for row in snf.Sinv]
    snf_K = SNF(snf.S, [row[:k] for row in snf.D], mid(k), snf.Sinv)
    bcols = columns(boundary_gens) if boundary_gens and boundary_gens[0] else []
    ycols = []
    for b in bcols:
        y = solve(snf_K, b)
        if y is None:
            raise ValueError("boundary outside the cycle lattice")
        ycols.append(y)
    Y = from_columns(ycols, nrows=k)
    snf_Y = smith_normal_form(Y)
    diag = snf_Y.diag()
    orders, gen_idx = [], []
    for i in range(k):
        d = diag[i] if i < len(diag) else 0
        if d == 1:
            continue
        orders.append(d)
        gen_idx.append(i)
    torsion = tuple(d for d in orders if d >= 2)
    free = sum(1 for d in orders if d == 0)
    return Subquotient(ambient, K, snf_K, snf_Y, orders, gen_idx,
                       FGAbGroup(free, torsion), list(range(ambient)))


def unit_pivots(cols: dict, nrows: int, fixed=frozenset()) -> list:
    """Unit-pivot elimination, in place, on the columns cols (label ->
    {row: value}) of a matrix with nrows rows (ValueError for an entry or a
    fixed row outside them): while some column j has an entry +-1 at a row
    p outside fixed (the one with fewest entries), it clears row p from the
    other columns, and row p, column j and zero columns leave.  Returns the
    pivots in order as (p, j, column j, row p before the step as {label:
    value})."""
    rows = {}                      # row -> the columns with an entry there
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    if any(not 0 <= i < nrows for i in (*rows, *fixed)):
        raise ValueError("an entry outside the %d rows of a matrix" % nrows)
    pivots = []
    found = True
    while found:
        found = False
        for j in list(cols):
            col = cols.get(j, {})         # gone when it became zero
            units = [i for i, v in col.items()
                     if v in (1, -1) and i not in fixed]
            if not units:
                continue
            p = min(units, key=lambda i: len(rows[i]))
            del cols[j]
            for i in col:
                rows[i].discard(j)
            s = col.pop(p)
            line = {j: s}
            for k in rows.pop(p):
                ck = cols[k]
                line[k] = a = ck.pop(p)
                q = a * s
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
            col[p] = s
            pivots.append((p, j, col, line))
            found = True
    return pivots


def chain_homology(d_in, d_out, g: int, f: int, rels=(),
                   rels_below=()) -> Subquotient:
    """Homology at Z^g / rels in a complex of presented groups

        ... --d_out--> Z^g / rels --d_in--> Z^f / rels_below

    given on generators as sparse columns: d_out and rels have g rows; d_in
    (g columns, or none at the bottom) and rels_below have f rows.  Cycles
    are {x : d_in x in span(rels_below)}, boundaries span(d_out) +
    span(rels).

    The complex is first reduced by ``unit_pivots``.  An entry +-1 of d_in
    at (s, r), s a row where rels_below has no entry, removes generator r:
    every cycle vanishes on row s, which fixes its coordinate r.  Then an
    entry +-1 at r of a column of d_out or rels removes generator r, a
    boundary plus the others.  Boundary columns equal to +-another are
    dropped, and the dense ``subquotient`` of the rest, with the steps
    recorded, gives the group and its coordinates."""
    if len(d_in) > g:
        raise ValueError("%d columns of d_in on Z^%d" % (len(d_in), g))
    below = [dict(col) for col in rels_below if col]
    cols = {r: dict(col) for r, col in enumerate(d_in) if col}
    solved = [(r, row) for _, r, _, row in unit_pivots(
        cols, f, {s for col in below for s in col})]
    gone = {r for r, _ in solved}
    bnd = {j: col for j, col in enumerate({r: v for r, v in col if r not in
                                           gone} for col in (*d_out, *rels))
           if col}
    cleared = [(r, col) for r, _, col, _ in unit_pivots(bnd, g)]
    gone.update(r for r, _ in cleared)
    live = [r for r in range(g) if r not in gone]
    distinct = {}                  # column up to sign -> column
    for col in bnd.values():
        sign = 1 if col[min(col)] > 0 else -1
        distinct[frozenset((r, sign * v) for r, v in col.items())] = col
    # the rows of Z^f that a live generator or a relation below still reads
    left = [cols.get(r, {}) for r in live]
    lines = {s: i for i, s in enumerate(sorted({s for col in left + below
                                                for s in col}))}
    cycles = kernel_mod_rels(_dense(left, lines), _dense(below, lines)) \
        if lines and live else mid(len(live))
    B = _dense(list(distinct.values()), {r: k for k, r in enumerate(live)})
    return replace(subquotient(len(live), cycles, B), ambient=g, live=live,
                   solved=solved, cleared=cleared)


def _dense(cols, at: dict):
    """The matrix of the columns cols ({row: value}), row r at at[r]."""
    M = mzeros(len(at), len(cols))
    for j, col in enumerate(cols):
        for r, v in col.items():
            M[at[r]][j] = v
    return M


def kernel_mod_rels(M, R):
    """Columns spanning {x : M x lies in the column lattice of R}."""
    K = kernel_basis(hstack(M, R))
    return K[:mshape(M)[1]]


def order_relations(orders):
    """Relation columns of Z^g / (t_i e_i): one column t * e_i per nonzero
    order t (0 marks a free generator)."""
    g = len(orders)
    return from_columns([[t if k == i else 0 for k in range(g)]
                         for i, t in enumerate(orders) if t], nrows=g)


def induced_matrix(src: Subquotient, tgt: Subquotient, chain_map):
    """Matrix (in canonical coordinates) of the map induced on subquotients
    by an ambient chain map, given as sparse columns (one per generator of
    src), that carries cycles to cycles and boundaries to boundaries."""
    if len(chain_map) != src.ambient:
        raise ValueError("a chain map with %d columns from Z^%d"
                         % (len(chain_map), src.ambient))
    cols = []
    for pos in range(len(src.gen_idx)):
        image = [0] * tgt.ambient
        for z, col in zip(src.generator(pos), chain_map):
            if z:
                for i, v in col:
                    image[i] += v * z
        cols.append(tgt.coords(image))
    return from_columns(cols, nrows=len(tgt.gen_idx))
