"""The oriental 2-categories O(p) in their concrete finite model.

Objects are 0..p; the 1-cells i -> j are the strictly increasing vertex
paths from i to j (composition is concatenation, the identity is the
one-vertex path); hom(i, j) is a poset under refinement: there is a unique
2-cell P => Q exactly when the vertex set of P is contained in that of Q.
The generating triangle (i, j, k) is the 2-cell (i,k) => (i,j,k), read with
the short spine as the source.  The tables are filled by
``core.build_two_category`` from the rule: compose by concatenating paths.
"""

from __future__ import annotations

from itertools import combinations

from .core import TwoCategory, build_two_category

ORIENTAL_BOUND = 4


def increasing_paths(i: int, j: int):
    """All strictly increasing vertex paths from i to j, as tuples."""
    if i > j:
        return []
    if i == j:
        return [(i,)]
    out = []
    interior = range(i + 1, j)
    for r in range(0, j - i):
        for mid in combinations(interior, r):
            out.append((i,) + mid + (j,))
    return sorted(out)


def path_id(P: tuple) -> str:
    return repr(P)


def cell_id(P: tuple, Q: tuple) -> str:
    return repr((P, Q))


def materialize_oriental(p: int, bound: int = ORIENTAL_BOUND) -> TwoCategory:
    if p < 0:
        raise ValueError("dimension must be nonnegative")
    if p > bound:
        raise ValueError("oriental dimension %d exceeds bound %d" % (p, bound))
    objects = [str(i) for i in range(p + 1)]
    paths = []
    for i in range(p + 1):
        for j in range(i, p + 1):
            paths.extend(increasing_paths(i, j))
    path = {path_id(P): P for P in paths}
    one = {pid: (str(P[0]), str(P[-1])) for pid, P in path.items()}
    two = {cell_id(P, Q): (path_id(P), path_id(Q))
           for P in paths for Q in paths
           if (P[0], P[-1]) == (Q[0], Q[-1]) and set(P) <= set(Q)}
    id1 = {str(i): path_id((i,)) for i in range(p + 1)}
    id2 = {path_id(P): cell_id(P, P) for P in paths}
    # composition concatenates paths; a refinement P => Q composed or
    # whiskered is the refinement of the composite paths
    return build_two_category(
        objects, one, two, id1, id2,
        lambda Q, P: path_id(path[P] + path[Q][1:]),
        lambda b, a: cell_id(path[two[a][0]], path[two[b][1]]),
        lambda K, a: cell_id(*(path[P] + path[K][1:] for P in two[a])),
        lambda a, K: cell_id(*(path[K] + path[P][1:] for P in two[a])))
