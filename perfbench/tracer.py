"""A span tracer that lives outside the library.

``Tracer.install()`` rebinds each function of ``TRACED`` in every
``twocat.*`` module namespace that holds it (modules import each other by
name, e.g. ``cli`` does ``from .nerve import nerve``), so each call
records a span: layer (= defining module), name, start, end, parent span
and job id.  ``uninstall()`` restores the originals.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer self times and the
counts below, taken from arguments and return values.  A listed function
the library no longer has is skipped, and a count that can no longer be
read from a call's arguments or result reads 0, so the tracer keeps
working while the library is refactored.

The hot inner functions (``face``, ``degeneracy``, ``OrientedSimplex.edge``,
``TwoCategory.hom2``, the SNF row/column operations) are deliberately not
wrapped: they run millions of times per workload.
"""

from __future__ import annotations

import functools
import os
import sys
import time

TRACED = {
    "cli": ("main", "_load_json"),
    "io": ("trunc_sset_to_dict", "trunc_sset_from_dict", "dumps",
           "load_two_category", "load_two_functor", "load_pgm",
           "load_action"),
    "nerve": ("nerve", "enumerate_simplices", "induced_map",
              "check_simplicial_identities"),
    "homology": ("chain_complex", "homology", "homology_subquotient",
                 "homology_induced", "homology_local"),
    "intlinalg": ("smith_normal_form", "kernel_basis", "subquotient",
                  "cokernel", "induced_matrix", "mmul"),
    "specseq": ("build_B", "check_bisimplicial", "pages", "e2_vs_local",
                "fiber_coeff_system"),
    "core": ("validate_two_category", "validate_two_functor"),
    "constructs": ("laco", "laco_diagram", "strict_fiber"),
    "orientals": ("materialize_oriental",),
    "opfib": ("check_opfibration",),
    "pgm": ("validate_pgm", "validate_action", "localize_presentation"),
    "sinv": ("s_inv_x", "s_inv_point", "group_completion_check"),
}

# layers whose only counter is the number of calls
CALL_COUNTED = ("cli", "core", "constructs", "orientals", "opfib", "pgm",
                "sinv")

# span record fields
LAYER, NAME, START, END, PARENT, JOB, COUNT = range(7)


def _nnz(M) -> int:
    return sum(1 for row in M for v in row if v)


def _file_size(args, _result):
    return os.path.getsize(args[0])


def _snf_count(args, _result):
    M = args[0]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    return (rows * cols, _nnz(M), cols)


# (layer, name) -> f(args, result), evaluated outside the timed interval
COUNTERS = {
    ("cli", "main"): lambda args, _r: args[0][0],
    ("cli", "_load_json"): _file_size,
    ("io", "load_two_category"): _file_size,
    ("io", "load_two_functor"): _file_size,
    ("io", "load_pgm"): _file_size,
    ("io", "load_action"): _file_size,
    ("io", "dumps"): lambda _a, r: len(r),     # ASCII: json.dumps escapes
    ("nerve", "enumerate_simplices"): lambda _a, r: len(r),
    ("homology", "chain_complex"):
        lambda _a, r: sum(_nnz(M) for M in r.boundary[1:]),
    ("intlinalg", "smith_normal_form"): _snf_count,
    ("specseq", "build_B"):
        lambda _a, r: sum(len(v) for v in r.levels.values()),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = -1
        self._saved = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get((layer, name))
        clock = time.perf_counter
        root = (layer, name) == ("cli", "main")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if root:
                self._job += 1
            rec = [layer, name, 0.0, 0.0, stack[-1] if stack else -1,
                   self._job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                try:
                    rec[COUNT] = counter(args, result)
                except (AttributeError, IndexError, KeyError, OSError,
                        TypeError):
                    pass
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "twocat"
                                         or n.startswith("twocat."))]
        for layer, names in TRACED.items():
            home = sys.modules.get("twocat." + layer)
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    continue
                wrapped = self._wrap(layer, name, original)
                for mod in modules:
                    if mod.__dict__.get(name) is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()


def self_times(spans) -> list:
    """Per span: duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans) -> dict:
    """Per-layer self times and counts, as {metric: value}."""
    own = self_times(spans)
    out = {"%s.self_s" % layer: 0.0 for layer in TRACED}
    for s, t in zip(spans, own):
        out["%s.self_s" % s[LAYER]] += t
    calls = {layer: 0 for layer in TRACED}
    for s in spans:
        calls[s[LAYER]] += 1
    for layer in CALL_COUNTED:
        out["%s.calls" % layer] = calls[layer]

    def of(layer, name):
        return [s for s in spans if s[LAYER] == layer and s[NAME] == name]

    def total(group):
        return sum(s[COUNT] or 0 for s in group)

    snf_spans = of("intlinalg", "smith_normal_form")
    snf = [s[COUNT] for s in snf_spans if s[COUNT]]
    out["intlinalg.snf_calls"] = len(snf_spans)
    out["intlinalg.snf_entries"] = sum(c[0] for c in snf)
    out["intlinalg.snf_nnz"] = sum(c[1] for c in snf)
    out["intlinalg.snf_max_cols"] = max((c[2] for c in snf), default=0)

    cc = of("homology", "chain_complex")
    out["homology.chain_complex_calls"] = len(cc)
    out["homology.boundary_nnz"] = total(cc)

    enum = of("nerve", "enumerate_simplices")
    simplices = total(enum)
    enum_s = sum(s[END] - s[START] for s in enum)
    out["nerve.enumerate_calls"] = len(enum)
    out["nerve.simplices"] = simplices
    out["nerve.simplices_per_s"] = simplices / enum_s if enum_s else 0.0

    bb = of("specseq", "build_B")
    out["specseq.build_B_calls"] = len(bb)
    out["specseq.bisimplices"] = total(bb)

    out["io.bytes_written"] = total(of("io", "dumps"))
    out["io.bytes_read"] = total(
        s for s in spans
        if s[NAME] == "_load_json" or s[NAME].startswith("load_"))

    # a nerve job misses the cache when it enumerates: its root span
    # then has a direct nerve.nerve child
    nerve_jobs = {n for n, s in enumerate(spans)
                  if s[NAME] == "main" and s[COUNT] == "nerve"}
    misses = sum(1 for s in of("nerve", "nerve") if s[PARENT] in nerve_jobs)
    out["cli.cache_misses"] = misses
    out["cli.cache_hits"] = len(nerve_jobs) - misses
    return out
