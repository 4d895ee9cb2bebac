"""JSON interchange for the workbench's data: 2-categories, 2-functors,
permutative Gray monoids and their actions, truncated simplicial sets, and
local coefficient systems.

Schema (bit-exact, keys sorted on output):

* 2-category: {"objects": [...], "one_cells": [{"id","src","tgt",
  "identity_of"?}], "two_cells": [same], "comp1": [{"after","before",
  "result"}], "vcomp": [same], "whisk_l"/"whisk_r": [{"cell","by","result"}]}
* 2-functor: {"source", "target", "on_objects", "on_one_cells",
  "on_two_cells"} with finite maps as arrays of [key, value] pairs.
* monoid (PGM): {"carrier": 2-category, "unit", "sum": [[a,b,v]],
  "left_translations"/"right_translations": [[a, maps]], "sigma":
  [[f,g,cell]], "beta": [[a,b,cell]]} where maps carries the three
  on_* arrays of an endofunctor of the carrier.
* action: {"pgm": monoid, "carrier": 2-category, "act": [[s,x,v]],
  "mu_left": [[s, maps]], "mu_right": [[x, maps]], "sigma": [[f,g,cell]]}.
* truncated simplicial set: {"N", "levels": [[simplex,...],...], "face"/
  "degen": [[i, simplex, value]], "degenerate": [[simplex, bool]]} with
  simplices rendered as canonical strings; the rows are written in level
  order (by i, then level, then position), which for a nerve's sorted
  levels is sorted order (``trunc_sset_to_dict`` fixes them, and
  ``trunc_sset_bytes`` writes the same rows straight off the position
  tables, as the nerve file, in chunks of about ``CHUNK`` bytes: 64 KiB,
  under glibc's default 128 KiB mmap threshold, so each chunk's buffer is
  served from the heap and reused), and read back into position tables
  only when total and in range, with flags true exactly on the values of
  ``degen`` and every simplicial identity holding.
* position record: two lines.  Line 1 is {"N", "sizes", "faces"/"degens",
  "digest", "tool_version"}: the number of simplices per level and the
  operators as the position tables of ``TruncSimplicialSet``; line 2 the
  levels, [[simplex,...],...].  A reader that names no simplex reads line
  1 alone, and its simplices are their positions; each line read is
  checked as a nerve file is.
* coefficient system: {"group": [[simplex, {"gens","rels"}]], "face_map"/
  "degen_map": [[i, simplex, matrix]]} over the same simplex strings,
  each gens an integer >= 0 and each matrix a list of rows of integers.

whisk_l rows: "cell" is the 2-cell, "by" the post-composed 1-cell.
whisk_r rows: "cell" is the 2-cell, "by" the pre-composed 1-cell.
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .core import AxiomError, TwoCategory, TwoFunctor, make_two_category
from .homology import LocalCoeffSystem, PresentedGroup
from .nerve import TruncSimplicialSet, check_simplicial_identities, layout

if TYPE_CHECKING:       # the PGM readers import pgm when they are called
    from .pgm import PGM, PGMAction

CHUNK = 1 << 16         # bytes of a nerve file moved at a time


def two_category_to_dict(C: TwoCategory) -> dict:
    id1_of = {f: x for x, f in C.id1.items()}
    id2_of = {a: f for f, a in C.id2.items()}

    def one_row(f):
        row = {"id": f, "src": C.one_src[f], "tgt": C.one_tgt[f]}
        if f in id1_of:
            row["identity_of"] = id1_of[f]
        return row

    def two_row(a):
        row = {"id": a, "src": C.two_src[a], "tgt": C.two_tgt[a]}
        if a in id2_of:
            row["identity_of"] = id2_of[a]
        return row

    return {
        "objects": sorted(C.objects),
        "one_cells": [one_row(f) for f in sorted(C.one_src)],
        "two_cells": [two_row(a) for a in sorted(C.two_src)],
        "comp1": [{"after": g, "before": f, "result": r}
                  for (g, f), r in sorted(C.comp1.items())],
        "vcomp": [{"after": b, "before": a, "result": r}
                  for (b, a), r in sorted(C.vcomp.items())],
        "whisk_l": [{"cell": a, "by": k, "result": r}
                    for (k, a), r in sorted(C.whisk_l.items())],
        "whisk_r": [{"cell": a, "by": k, "result": r}
                    for (a, k), r in sorted(C.whisk_r.items())],
    }


def two_category_from_dict(d: dict) -> TwoCategory:
    one_cells = {row["id"]: (row["src"], row["tgt"]) for row in d["one_cells"]}
    two_cells = {row["id"]: (row["src"], row["tgt"]) for row in d["two_cells"]}
    id1 = {row["identity_of"]: row["id"]
           for row in d["one_cells"] if "identity_of" in row}
    id2 = {row["identity_of"]: row["id"]
           for row in d["two_cells"] if "identity_of" in row}
    comp1 = {(row["after"], row["before"]): row["result"] for row in d["comp1"]}
    vcomp = {(row["after"], row["before"]): row["result"] for row in d["vcomp"]}
    whisk_l = {(row["by"], row["cell"]): row["result"] for row in d["whisk_l"]}
    whisk_r = {(row["cell"], row["by"]): row["result"] for row in d["whisk_r"]}
    return make_two_category(d["objects"], one_cells, two_cells, id1, id2,
                             comp1, vcomp, whisk_l, whisk_r)


def _maps_of(F: TwoFunctor) -> dict:
    return {
        "on_objects": [[k, v] for k, v in sorted(F.on_objects.items())],
        "on_one_cells": [[k, v] for k, v in sorted(F.on_one.items())],
        "on_two_cells": [[k, v] for k, v in sorted(F.on_two.items())],
    }


def _functor_from_maps(src: TwoCategory, tgt: TwoCategory,
                       maps: dict) -> TwoFunctor:
    return TwoFunctor(src, tgt,
                      dict(map(tuple, maps["on_objects"])),
                      dict(map(tuple, maps["on_one_cells"])),
                      dict(map(tuple, maps["on_two_cells"])))


def two_functor_to_dict(F: TwoFunctor) -> dict:
    return {"source": two_category_to_dict(F.source),
            "target": two_category_to_dict(F.target), **_maps_of(F)}


def two_functor_from_dict(d: dict) -> TwoFunctor:
    return _functor_from_maps(two_category_from_dict(d["source"]),
                              two_category_from_dict(d["target"]), d)


def pgm_to_dict(P: PGM) -> dict:
    return {
        "carrier": two_category_to_dict(P.carrier),
        "unit": P.unit,
        "sum": [[a, b, v] for (a, b), v in sorted(P.sum_objects.items())],
        "left_translations": [[a, _maps_of(F)]
                              for a, F in sorted(P.left_translations.items())],
        "right_translations": [[a, _maps_of(F)] for a, F
                               in sorted(P.right_translations.items())],
        "sigma": [[f, g, v] for (f, g), v in sorted(P.sigma.items())],
        "beta": [[a, b, v] for (a, b), v in sorted(P.beta.items())],
    }


def pgm_from_dict(d: dict) -> PGM:
    from .pgm import PGM
    S = two_category_from_dict(d["carrier"])
    return PGM(
        carrier=S,
        unit=d["unit"],
        sum_objects={(a, b): v for a, b, v in d["sum"]},
        left_translations={a: _functor_from_maps(S, S, m)
                           for a, m in d["left_translations"]},
        right_translations={a: _functor_from_maps(S, S, m)
                            for a, m in d["right_translations"]},
        sigma={(f, g): v for f, g, v in d["sigma"]},
        beta={(a, b): v for a, b, v in d["beta"]},
    )


def action_to_dict(A: PGMAction) -> dict:
    return {
        "pgm": pgm_to_dict(A.pgm),
        "carrier": two_category_to_dict(A.carrier),
        "act": [[s, x, v] for (s, x), v in sorted(A.act_objects.items())],
        "mu_left": [[s, _maps_of(F)] for s, F in sorted(A.mu_left.items())],
        "mu_right": [[x, _maps_of(F)] for x, F in sorted(A.mu_right.items())],
        "sigma": [[f, g, v] for (f, g), v in sorted(A.sigma.items())],
    }


def action_from_dict(d: dict, P: PGM | None = None) -> PGMAction:
    from .pgm import PGMAction
    P = P if P is not None else pgm_from_dict(d["pgm"])
    S = P.carrier
    X = two_category_from_dict(d["carrier"])
    return PGMAction(
        pgm=P,
        carrier=X,
        act_objects={(s, x): v for s, x, v in d["act"]},
        mu_left={s: _functor_from_maps(X, X, m) for s, m in d["mu_left"]},
        mu_right={x: _functor_from_maps(S, X, m) for x, m in d["mu_right"]},
        sigma={(f, g): v for f, g, v in d["sigma"]},
    )


@lru_cache(maxsize=None)
def _key_template(p: int) -> str:
    """``simplex_key`` of a p-simplex with %s in place of the repr of each
    of its vertices, edges and triangles, in that order."""
    L, slot = layout(p), "\0"
    return repr(((slot,) * (p + 1), tuple((k, slot) for k in L.pairs),
                 tuple((k, slot) for k in L.triples))).replace(repr(slot),
                                                               "%s")


def simplex_key(x) -> str:
    """Canonical string for a simplex, stable across processes: the repr
    of its vertices, then of its edges and triangles paired with their
    keys."""
    if isinstance(x, str):
        return x
    return _key_template(x.dim) % tuple(
        map(repr, x.vertices + x.edges + x.triangles))


def trunc_sset_to_dict(X: TruncSimplicialSet) -> dict:
    """The interchange dict of X.  The face and degen rows run over i, then
    over the levels in order, and the degenerate rows over the levels in
    order: for levels sorted as a nerve's are, that is sorted order."""
    keys = [[simplex_key(x) for x in lev] for lev in X.levels]
    N = X.N
    return {
        "N": N,
        "levels": keys,
        "face": [[i, k, keys[n - 1][r]] for i in range(N + 1)
                 for n in range(max(i, 1), N + 1)
                 for k, r in zip(keys[n], X.faces[n][i])],
        "degen": [[i, k, keys[n + 1][r]] for i in range(N)
                  for n in range(i, N)
                  for k, r in zip(keys[n], X.degens[n][i])],
        "degenerate": [[k, v] for ks, flags in zip(keys, X.degenerate)
                       for k, v in zip(ks, flags)],
    }


def level_keys(X: TruncSimplicialSet) -> list:
    """Per level of X, the JSON encoding of each simplex's key, as bytes:
    what the nerve file and the position record write for it.  A table
    made once maps each cell id of X to its JSON-escaped repr, and a
    p-simplex's key is that table poured into ``_key_template(p)``,
    JSON-escaped with %b slots: JSON escapes character by character, so
    these are the bytes of the escaped ``simplex_key``.  Every cell of a
    nerve is a vertex, edge or triangle of a simplex of level 0, 1 or 2
    (its faces), where the table is read.  A string simplex, read from a
    nerve file, is its own key."""
    levels = X.levels
    if all(isinstance(x, str) for lev in levels for x in lev):
        return [[encode_basestring_ascii(x).encode() for x in lev]
                for lev in levels]
    cell = {c: encode_basestring_ascii(repr(c))[1:-1].encode()
            for lev in levels[:3] for x in lev
            for c in x.vertices + x.edges + x.triangles}.__getitem__
    out = []
    for p, lev in enumerate(levels):
        key = encode_basestring_ascii(_key_template(p)).replace(
            "%s", "%b").encode()
        out.append([key % tuple(map(cell, x.vertices + x.edges
                                     + x.triangles)) for x in lev])
    return out


def _level_rows(keys: list):
    # each level, the one long row, as a piece per key and comma
    return ([b"[", *[p for x in lev for p in (b",", x)][1:], b"]"]
            for lev in keys)


def trunc_sset_bytes(X: TruncSimplicialSet, keys: list):
    """The nerve file of X in chunks of about CHUNK bytes, whose join is
    ``dumps(trunc_sset_to_dict(X)).encode()``: the rows are read off the
    position tables X.faces, X.degens and X.degenerate in that dict's
    order, each simplex written as its key in keys (``level_keys(X)``).
    A chunk's bytes pieces are collected in a list, and the chunk ends at
    the first row piece that brings it to CHUNK bytes, as one join."""
    N = X.N
    head = [b"[%d," % i for i in range(N + 1)]
    arrays = (
        (b"degen", ((head[i], x, b",", keys[n + 1][r], b"]")
                    for i in range(N) for n in range(i, N)
                    for x, r in zip(keys[n], X.degens[n][i]))),
        (b"degenerate", ((b"[", x, b",true]" if v else b",false]")
                         for lev, flags in zip(keys, X.degenerate)
                         for x, v in zip(lev, flags))),
        (b"face", ((head[i], x, b",", keys[n - 1][r], b"]")
                   for i in range(N + 1) for n in range(max(i, 1), N + 1)
                   for x, r in zip(keys[n], X.faces[n][i]))),
        (b"levels", _level_rows(keys)))
    parts = [b'{"N":%d' % N]
    size = len(parts[0])
    for name, rows in arrays:
        parts.append(b',"%s":[' % name)
        size += len(parts[-1])
        sep = b""
        for pieces in rows:
            parts.append(sep)
            size += len(sep)
            sep = b","
            for piece in pieces:
                parts.append(piece)
                size += len(piece)
                if size >= CHUNK:
                    yield b"".join(parts)
                    parts, size = [], 0
        parts.append(b"]")
        size += 1
    parts.append(b"}\n")
    yield b"".join(parts)


def _operator_rows(d: dict, name: str, at: dict, shift: int) -> list:
    """The position table of the rows [i, x, y] of d[name], the face
    (shift -1) or degeneracy (shift 1) field of a loaded nerve: per level
    n, per i, the position of each value in level n + shift, for every
    level n whose level n + shift exists and is empty otherwise.  The
    table must be total and in range: one row for each n-simplex x and
    each i in 0..n, its value an (n + shift)-simplex.  AxiomError naming
    the first row that breaks this, else the first repeated one, else the
    first missing one."""
    op = "d" if shift < 0 else "s"
    levels, rows, get, twice = d["levels"], d[name], at.get, None
    ns = range(max(0, -shift), len(levels) - max(0, shift))
    table = [[[None] * len(lev) for _ in range(n + 1)] if n in ns else []
             for n, lev in enumerate(levels)]
    for i, x, y in rows:
        n, k = get(x, (None, 0))
        m, r = (None, 0) if n is None else get(y, (None, 0))
        if m is None or m != n + shift or type(i) is not int \
                or not 0 <= i <= n:
            raise AxiomError("%s entry %s_%s of %s = %s is out of range"
                             % (name, op, i, x, y))
        row = table[n][i]
        if row[k] is not None and twice is None:
            twice = (i, x)
        row[k] = r
    if twice is not None:
        raise AxiomError("%s entry %s_%s of %s is given twice"
                         % ((name, op) + twice))
    if len(rows) != sum(len(levels[n]) * (n + 1) for n in ns):
        # the rows are distinct and in range, so a slot is left empty
        i, x = next((i, x) for n in ns for k, x in enumerate(levels[n])
                    for i, row in enumerate(table[n]) if row[k] is None)
        raise AxiomError("%s entry %s_%d of %s is missing" % (name, op, i, x))
    return table


def _level_index(levels, N) -> dict:
    """The position (n, k) of each simplex of levels; ValueError, naming
    the field, unless they are lists of distinct strings, N the last."""
    if type(levels) is not list or not all(
            type(lev) is list and all(type(x) is str for x in lev)
            for lev in levels):
        raise ValueError("levels must be a list of lists of strings")
    at = {x: (n, k) for n, lev in enumerate(levels) for k, x in enumerate(lev)}
    if len(at) != sum(map(len, levels)):
        raise ValueError("levels must not repeat a simplex")
    if type(N) is not int or N != len(levels) - 1:
        raise ValueError("N must be %d, one less than the number of levels, "
                         "not %r" % (len(levels) - 1, N))
    return at


def trunc_sset_from_dict(d: dict) -> TruncSimplicialSet:
    """Rebuild with plain string simplices; chain-level consumers treat
    simplices as opaque keys, so the result computes the same homology.
    ValueError, naming the field, unless levels is a list of lists of
    distinct strings and N is its last index.  The face and degeneracy
    tables must be total and in range, every simplex must carry a
    degenerate flag, true exactly when it is a value of the degeneracy
    table, and the simplicial identities must hold
    (``nerve.check_simplicial_identities``); AxiomError otherwise."""
    levels, N = d["levels"], d["N"]
    at = _level_index(levels, N)
    X = TruncSimplicialSet(N, levels, _operator_rows(d, "face", at, -1),
                           _operator_rows(d, "degen", at, 1))
    flags = {x: v for x, v in d["degenerate"]}
    for lev, image in zip(levels, X.degenerate):
        for x, v in zip(lev, image):
            if x not in flags:
                raise AxiomError("simplex %s has no degenerate flag" % x)
            if bool(flags[x]) != v:
                raise AxiomError("degenerate flag of %s disagrees with the "
                                 "degeneracy table" % x)
    check_simplicial_identities(X)
    return X


def _array(rows):
    """The pieces of a JSON array of rows, each given as its pieces."""
    yield b"["
    for k, pieces in enumerate(rows):
        if k:
            yield b","
        yield from pieces
    yield b"]"


def trunc_sset_record(X: TruncSimplicialSet, keys: list, **fields):
    """The position record of X in pieces, two lines: ``dumps`` of N, the
    level sizes, the faces and degens tables and the fields, a piece per
    level of each table; then the levels, their keys as keys gives them
    (``level_keys(X)``), a piece per key."""
    line = dict(fields, N=X.N, sizes=[len(lev) for lev in keys],
                faces=X.faces, degens=X.degens)
    sep = b"{"
    for name in sorted(line):
        yield sep + _compact(name) + b":"
        sep = b","
        if name in ("faces", "degens"):
            yield from _array([_compact(rows)] for rows in line[name])
        else:
            yield _compact(line[name])
    yield b"}\n"
    yield from _array(_level_rows(keys))
    yield b"\n"


def trunc_sset_from_record(d: dict, line2: bytes | None = None
                           ) -> TruncSimplicialSet:
    """X from line 1 of its position record, parsed as d, and from line 2,
    the levels, if given; each is checked as a nerve file is: ValueError
    unless the sizes are N + 1 integers >= 0, line 2 (if given) passes
    ``_level_index`` and has those sizes, and the tables are total and in
    range, AxiomError unless the simplicial identities hold.  Without line
    2, the simplices of X are their positions."""
    N, sizes = d.get("N"), d.get("sizes")
    if line2 is not None:
        levels = json.loads(line2)
        _level_index(levels, N)
    if type(N) is not int or type(sizes) is not list \
            or len(sizes) != N + 1 \
            or not all(type(s) is int and s >= 0 for s in sizes):
        raise ValueError("sizes must be N + 1 integers >= 0")
    if line2 is None:
        levels = [range(s) for s in sizes]
    elif [len(lev) for lev in levels] != sizes:
        raise ValueError("levels must have the sizes of the record")
    for tables, shift in ((d.get("faces"), -1), (d.get("degens"), 1)):
        # per level n, n + 1 rows giving each n-simplex a position in level
        # n + shift, or none where that level is missing
        if not (type(tables) is list and len(tables) == len(sizes) and all(
                type(rows) is list
                and len(rows) == (n + 1 if 0 <= n + shift < len(sizes) else 0)
                and all(type(row) is list and len(row) == sizes[n]
                        and {*map(type, row)} <= {int}
                        and min(row, default=0) >= 0
                        and max(row, default=-1) < sizes[n + shift]
                        for row in rows)
                for n, rows in enumerate(tables))):
            raise ValueError("faces and degens must be total position "
                             "tables, in range")
    X = TruncSimplicialSet(N, levels, d["faces"], d["degens"])
    check_simplicial_identities(X)
    return X


def coeff_system_to_dict(L: LocalCoeffSystem) -> dict:
    return {
        "group": [[simplex_key(x), {"gens": g.gens, "rels": g.rels}]
                  for x, g in sorted(L.group.items(),
                                     key=lambda kv: simplex_key(kv[0]))],
        "face_map": [[i, simplex_key(x), M]
                     for (i, x), M in sorted(
                         L.face_map.items(),
                         key=lambda kv: (kv[0][0], simplex_key(kv[0][1])))],
        "degen_map": [[i, simplex_key(x), M]
                      for (i, x), M in sorted(
                          L.degen_map.items(),
                          key=lambda kv: (kv[0][0], simplex_key(kv[0][1])))],
    }


def _int_matrix(M, field: str, x) -> list:
    """M; ValueError, naming the field, unless it is a list of lists of
    integers (a bool is none: JSON's true is no integer)."""
    if type(M) is not list or not all(
            type(row) is list and all(type(v) is int for v in row)
            for row in M):
        raise ValueError("%s of %s must be a list of lists of integers"
                         % (field, x))
    return M


def _group(g: dict, x) -> PresentedGroup:
    gens = g["gens"]
    if type(gens) is not int or gens < 0:
        raise ValueError("gens of %s must be an integer >= 0, not %r"
                         % (x, gens))
    return PresentedGroup(gens, _int_matrix(g["rels"], "rels", x))


def coeff_system_from_dict(d: dict) -> LocalCoeffSystem:
    """ValueError, naming the field, unless every gens is an integer >= 0
    and every relation and map matrix a list of lists of integers; shapes
    are checked against a nerve by ``homology.check_local_system``."""
    return LocalCoeffSystem(
        group={x: _group(g, x) for x, g in d["group"]},
        face_map={(i, x): _int_matrix(M, "face_map", x)
                  for i, x, M in d["face_map"]},
        degen_map={(i, x): _int_matrix(M, "degen_map", x)
                   for i, x, M in d.get("degen_map", [])},
    )


def _compact(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


def dumps(obj: dict, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
