"""Command-line front end.

JSON in, JSON out: every subcommand reads the interchange formats of
``twocat.io`` and prints a single JSON report on standard output.  Exit
codes: 0 on success, 2 on an axiom or hypothesis failure (the report then
carries a structured counterexample), 1 on malformed input.

Every report embeds a run manifest (subcommand, SHA-256 of each input
file, truncation bounds, determinism statement, tool version); each input
file is opened once, and its digest is of the bytes the run parses.
Identical inputs and bounds produce byte-identical reports.  Set the
environment variable ``TWOCAT_CACHE_DIR`` to a writable directory to cache
nerve enumerations keyed by input hash and truncation level, each next to
the position record of its bytes, from which ``homology`` reads a nerve
file.  Nerve files, cache entries and ``--out`` files move in chunks of
``io.CHUNK`` bytes, each hashed as it passes, and are written through a
temporary file renamed into place, as ``opfib --emit-cert`` writes its
certificate: a cached run that finds the position record of a nerve
file's digest never holds the file whole, and a warm ``nerve`` gives
``--out`` only bytes whose record was found.  Line 1 of a record holds
the position tables and line 2 the simplex keys, which only the runs
that name simplices read: ``nerve`` without ``--out`` (the inline
report) and ``homology --coeffs``.

A subcommand loads only the modules it runs: this module imports ``io``
and ``core.AxiomError`` alone, and each ``cmd_*`` function imports what it
calls when it runs, so ``nerve`` and ``homology`` load no construction,
monoid or spectral-sequence module.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import cache, partial

from . import io as tio
from .core import AxiomError

CACHE_ENV = "TWOCAT_CACHE_DIR"
RECORD = "sset-%s.json"        # a nerve file's position record, by digest

# truncation bounds and degrees: a negative one leaves nothing to compute,
# and a report on it would certify an empty range; None is an unset option
BOUNDS = ("max_dim", "pmax", "qmax", "max_deg", "fiber_coeffs", "deg",
          "trunc")

VERSION = "0.1.0"       # pyproject's [project].version, twocat.__version__


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _manifest(subcommand: str, inputs: dict, bounds: dict,
              known: dict | None = None) -> dict:
    """The run manifest of the inputs read, {path: bytes}, and of those
    whose digests known ({path: digest}) gives: each digest is of the bytes
    that the run parses."""
    return {
        "subcommand": subcommand,
        "inputs": {**(known or {}),
                   **{p: _sha256(b) for p, b in inputs.items()}},
        "bounds": bounds,
        "determinism": "seed-free: the report depends only on the listed "
                       "inputs and bounds",
        "tool_version": VERSION,
    }


def _print(obj: dict, ctx: dict) -> None:
    sys.stdout.write(tio.dumps(obj, ctx["pretty"]))


def _ok(ctx: dict, report: dict) -> int:
    _print({"manifest": ctx["manifest"], "report": report}, ctx)
    return 0


def _plain(v):
    return v if isinstance(v, (str, int, bool)) else repr(v)


def _fail(ctx: dict, clause: str, detail) -> int:
    _print({"manifest": ctx["manifest"],
            "counterexample": {"clause": clause,
                               "detail": [_plain(v) for v in detail]}}, ctx)
    return 2


def _counts(C) -> dict:
    return {"objects": len(C.objects), "one_cells": len(C.one_src),
            "two_cells": len(C.two_src)}


def _inputs(ctx: dict, subcommand: str, paths: list, bounds: dict,
            known: dict | None = None) -> list:
    """The bytes of each input path, None for an absent optional one and
    for one whose digest known ({path: digest}) gives, which the run has
    read already: each other file is read once, and ctx gets the manifest
    of the bytes that the run parses."""
    known = known or {}
    data = {p: _read(p) for p in dict.fromkeys(paths)
            if p is not None and p not in known}
    ctx["manifest"] = _manifest(subcommand, data, bounds, known)
    return [data.get(p) for p in paths]


def _functor(d: dict):
    """The 2-functor of a parsed functor file, with its source, its target
    and itself validated."""
    from .core import validate_two_category, validate_two_functor
    F = tio.two_functor_from_dict(d)
    validate_two_category(F.source)
    validate_two_category(F.target)
    return validate_two_functor(F)


def _stream(chunks, paths: list, sha=None, check=None):
    """Write the chunks to each of paths through a temporary file beside
    it, feeding each to sha too if given, and rename the files into place
    once all are written, unless check (if given) returns None on sha's
    digest: no path ever holds a torn file or bytes that check refused,
    and one whose rename fails keeps what it held.  Returns what check
    returned, or True."""
    tmps = {"%s.%d.tmp" % (p, os.getpid()): p for p in paths}
    files = []
    try:
        for tmp in tmps:
            files.append(open(tmp, "wb"))
        for chunk in chunks:
            for fh in files:
                fh.write(chunk)
            if sha is not None:
                sha.update(chunk)
        for fh in files:
            fh.close()
        got = check(sha.hexdigest()) if check else True
        if got is not None:
            for tmp, path in tmps.items():
                os.replace(tmp, path)
        return got
    except OSError as e:        # name the file asked for, not its aside
        if e.filename in tmps or e.filename2:
            raise OSError(e.errno, e.strerror,
                          tmps.get(e.filename, e.filename)) from None
        raise
    finally:
        for fh in files:
            fh.close()
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)


def _cached_sset(cache_dir: str, keyed: bool, digest: str):
    """X of the nerve file with this digest off its position record, which
    is trusted as far as a nerve entry is: off line 1 alone, its simplices
    their positions, unless keyed, when line 2 gives their keys; None for
    a missing record, one of another tool version or digest, or one
    failing the checks of the lines read."""
    try:
        with open(os.path.join(cache_dir, RECORD % digest), "rb") as fh:
            rec = json.loads(fh.readline())
            if type(rec) is dict and rec.get("tool_version") == VERSION \
                    and rec.get("digest") == digest:
                return tio.trunc_sset_from_record(
                    rec, fh.readline() if keyed else None)
    except (OSError, RecursionError, ValueError):  # AxiomError is one
        pass
    return None


def _recorded(cache_dir: str, fh, outs=(), keyed=False) -> tuple:
    """(digest, X) of the open nerve file fh, X off the position record
    that the digest names (``_cached_sset``), None if there is none: fh is
    read in chunks, each hashed and written aside for each of outs, which
    receive them only once the record is accepted."""
    sha = hashlib.sha256()
    X = _stream(iter(partial(fh.read, tio.CHUNK), b""), outs, sha,
                partial(_cached_sset, cache_dir, keyed))
    return sha.hexdigest(), X


def _store_sset(cache_dir: str, digest: str, X, keys: list) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    _stream(tio.trunc_sset_record(X, keys, digest=digest,
                                  tool_version=VERSION),
            [os.path.join(cache_dir, RECORD % digest)])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args, ctx) -> int:
    from .core import validate_two_category
    data, = _inputs(ctx, "validate", [args.input], {})
    d = json.loads(data)
    if "pgm" in d:
        from .pgm import validate_action
        A = validate_action(tio.action_from_dict(d))
        kind, C = "action", A.carrier
    elif "carrier" in d and "unit" in d:
        from .pgm import validate_pgm
        P = validate_pgm(tio.pgm_from_dict(d))
        kind, C = "pgm", P.carrier
    elif "on_objects" in d:
        kind, C = "two-functor", _functor(d).source
    else:
        C = validate_two_category(tio.two_category_from_dict(d))
        kind = "two-category"
    return _ok(ctx, {"kind": kind, "valid": True, **_counts(C)})


def _cmd_cospan(args, ctx, name, construct) -> int:
    # each file is read once, for its digest and its parse
    data = {args.cospan: _read(args.cospan)}
    d = json.loads(data[args.cospan])
    base = os.path.dirname(os.path.abspath(args.cospan))
    left, right = (p if os.path.isabs(p) else os.path.join(base, p)
                   for p in (d["left"], d["right"]))
    data.update((p, _read(p)) for p in {left, right} - data.keys())
    ctx["manifest"] = _manifest(name, data, {})
    digests = ctx["manifest"]["inputs"]
    F, G = (_functor(json.loads(data[p])) for p in (left, right))
    res = construct(F, G)
    report = {"construction": name,
              "inputs": {"left": digests[left], "right": digests[right]},
              "category": tio.two_category_to_dict(res.cat),
              **_counts(res.cat)}
    return _ok(ctx, report)


def cmd_laco(args, ctx) -> int:
    from .constructs import laco
    return _cmd_cospan(args, ctx, "laco", laco)


def cmd_oplaco(args, ctx) -> int:
    from .constructs import oplaco
    return _cmd_cospan(args, ctx, "oplaco", oplaco)


def cmd_pullback(args, ctx) -> int:
    from .constructs import pullback
    return _cmd_cospan(args, ctx, "pullback", pullback)


def cmd_fiber(args, ctx) -> int:
    from .constructs import strict_fiber
    from .core import validate_two_category
    data, = _inputs(ctx, "fiber", [args.functor], {})
    P = _functor(json.loads(data))
    if args.object not in P.target.objects:
        raise UsageError("object %r not in the target" % args.object)
    fib, _incl = strict_fiber(P, args.object)
    validate_two_category(fib)
    return _ok(ctx, {"construction": "fiber", "object": args.object,
                     "category": tio.two_category_to_dict(fib),
                     **_counts(fib)})


def cmd_nerve(args, ctx) -> int:
    from .core import validate_two_category
    from .nerve import nerve
    source, = _inputs(ctx, "nerve", [args.input], {"max_dim": args.max_dim})
    cache_dir = os.environ.get(CACHE_ENV)
    outs = [args.out] if args.out else []
    entry = X = None
    if cache_dir:
        entry = os.path.join(cache_dir, "nerve-%s-%d.json" % (
            ctx["manifest"]["inputs"][args.input], args.max_dim))
        try:
            fh = open(entry, "rb")
        except OSError:
            pass
        else:
            # the entry's digest is its content check: it names the record,
            # and --out gets the entry's bytes on a hit; only the inline
            # report names the simplices
            with fh:
                X = _recorded(cache_dir, fh, outs, keyed=not outs)[1]
    if X is None:
        C = validate_two_category(
            tio.two_category_from_dict(json.loads(source)))
        X = nerve(C, args.max_dim)
        if entry:
            # one pass writes --out and the entry, in that order, and hashes
            # the bytes for the name of the entry's record
            keys = tio.level_keys(X)
            os.makedirs(cache_dir, exist_ok=True)
            sha = hashlib.sha256()
            _stream(tio.trunc_sset_bytes(X, keys),
                    list(dict.fromkeys([*outs, entry])), sha)
            _store_sset(cache_dir, sha.hexdigest(), X, keys)
        elif outs:
            _stream(tio.trunc_sset_bytes(X, tio.level_keys(X)), outs)
    report = {
        "max_dim": args.max_dim,
        "levels": [len(lev) for lev in X.levels],
        "nondegenerate": [flags.count(False) for flags in X.degenerate],
    }
    if args.out:
        report["out"] = args.out
    else:
        report["nerve"] = tio.trunc_sset_to_dict(X)
    return _ok(ctx, report)


def cmd_homology(args, ctx) -> int:
    from .homology import homology, homology_local
    cache_dir, X, known = os.environ.get(CACHE_ENV), None, {}
    # with a cache, the nerve file is hashed in chunks to look up its
    # record; a coefficients file that names it takes the one whole read
    if cache_dir and args.coeffs != args.nerve:
        with open(args.nerve, "rb") as fh:
            digest, X = _recorded(cache_dir, fh, keyed=bool(args.coeffs))
            if X is None:       # parse the file, named by the bytes parsed
                fh.seek(0)
                data = fh.read()
                digest = _sha256(data)
        known[args.nerve] = digest
    read, coeff_data = _inputs(ctx, "homology", [args.nerve, args.coeffs],
                               {"deg": args.deg}, known)
    if X is None:
        X = tio.trunc_sset_from_dict(json.loads(data if known else read))
        if cache_dir:
            _store_sset(cache_dir, ctx["manifest"]["inputs"][args.nerve], X,
                        tio.level_keys(X))
    if args.coeffs:
        L = tio.coeff_system_from_dict(json.loads(coeff_data))
        group = homology_local(X, L, args.deg)
        coeffs = "local"
    else:
        group = homology(X, args.deg)
        coeffs = "integral"
    return _ok(ctx, {"degree": args.deg, "coefficients": coeffs,
                     "group": str(group)})


def cmd_opfib(args, ctx) -> int:
    from .core import Counterexample
    from .opfib import check_opfibration
    data, = _inputs(ctx, "opfib", [args.functor], {})
    P = _functor(json.loads(data))
    res = check_opfibration(P)
    if isinstance(res, Counterexample):
        return _fail(ctx, res.clause, res.detail)
    cert = {
        "opcartesian_lifts": [[x, f, v] for (x, f), v
                              in sorted(res.opcart_lift.items())],
        "cartesian_lifts": [[g, al, v[0], v[1]] for (g, al), v
                            in sorted(res.cart_lift.items())],
        "cartesian": [[a, bool(v)] for a, v in sorted(res.cartesian.items())],
    }
    if args.emit_cert:
        _stream([tio.dumps(cert).encode()], [args.emit_cert])
    return _ok(ctx, {"certified": True, "certificate": cert})


def cmd_ss(args, ctx) -> int:
    from .specseq import build_B, check_bisimplicial, e2_vs_local, pages
    bounds = {"pmax": args.pmax, "qmax": args.qmax}
    if args.fiber_coeffs is not None:
        bounds["fiber_coeffs"] = args.fiber_coeffs
    data, = _inputs(ctx, "ss", [args.functor], bounds)
    F = _functor(json.loads(data))
    if args.fiber_coeffs is not None and args.fiber_coeffs >= args.qmax:
        # the pages trust the rows q <= qmax - 1
        raise UsageError("--fiber-coeffs %d exceeds the trusted row %d"
                         % (args.fiber_coeffs, args.qmax - 1))
    B = build_B(F, args.pmax, args.qmax)
    if not check_bisimplicial(B):
        raise AxiomError("bisimplicial identities fail within the bounds")
    pg = pages(B)
    trusted_p, trusted_q = pg.trusted
    report = {
        "trusted": {"pmax": trusted_p, "qmax": trusted_q},
        "E1": [[p, q, str(pg.E1[(p, q)])]
               for p in range(trusted_p + 1) for q in range(trusted_q + 1)],
        "E2": [[p, q, str(pg.E2[(p, q)])]
               for p in range(trusted_p + 1) for q in range(trusted_q + 1)],
    }
    if args.fiber_coeffs is not None:
        from .core import Counterexample
        from .opfib import check_opfibration
        q = args.fiber_coeffs
        cert = check_opfibration(F)
        if isinstance(cert, Counterexample):
            return _fail(ctx, cert.clause, cert.detail)
        report["e2_vs_local"] = [[p, q, bool(flag)] for p, flag
                                 in enumerate(e2_vs_local(pg, cert, q))]
    return _ok(ctx, report)


def cmd_sinv(args, ctx) -> int:
    from .pgm import self_action
    from .sinv import s_inv_point, s_inv_x
    pgm, action = _inputs(ctx, "sinv", [args.pgm, args.action], {})
    P = tio.pgm_from_dict(json.loads(pgm))
    if args.point:
        if args.action:
            raise UsageError("--point and --action are mutually exclusive")
        S = s_inv_point(P)
        name = "sinv-point"
    else:
        act = (tio.action_from_dict(json.loads(action), P) if args.action
               else self_action(P))
        S = s_inv_x(P, act)
        name = "sinv"
    return _ok(ctx, {"construction": name,
                     "category": tio.two_category_to_dict(S.cat),
                     **_counts(S.cat)})


def cmd_gc_check(args, ctx) -> int:
    from .sinv import group_completion_check
    pgm, action = _inputs(ctx, "gc-check", [args.pgm, args.action],
                          {"max_deg": args.max_deg, "trunc": args.trunc})
    P = tio.pgm_from_dict(json.loads(pgm))
    act = (tio.action_from_dict(json.loads(action), P) if args.action
           else None)
    rep = group_completion_check(P, act, max_deg=args.max_deg,
                                 trunc=args.trunc)
    return _ok(ctx, {
        "monoid": {"elements": list(rep.monoid.elements),
                   "unit": rep.monoid.unit},
        "trunc": rep.trunc,
        "degrees": {str(q): d for q, d in sorted(rep.degrees.items())},
        "all_iso": rep.all_iso,
    })


def cmd_dualize(args, ctx) -> int:
    from .core import co_dual, coop_dual, op_dual, validate_two_category
    data, = _inputs(ctx, "dualize", [args.input], {"which": args.which})
    C = validate_two_category(tio.two_category_from_dict(json.loads(data)))
    dual = {"op": op_dual, "co": co_dual, "coop": coop_dual}[args.which](C)
    validate_two_category(dual)
    return _ok(ctx, {"which": args.which,
                     "category": tio.two_category_to_dict(dual),
                     **_counts(dual)})


# ---------------------------------------------------------------------------
# parser and entry points
# ---------------------------------------------------------------------------

@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="twocat", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="indent the JSON report")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="validate a 2-category, 2-functor, monoid, "
                            "or action file")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    for name, func in (("laco", cmd_laco), ("oplaco", cmd_oplaco),
                       ("pullback", cmd_pullback)):
        p = sub.add_parser(name, parents=[common],
                           help="build the %s of a cospan file "
                                '{"left": F.json, "right": G.json}' % name)
        p.add_argument("cospan")
        p.set_defaults(func=func)

    p = sub.add_parser("fiber", parents=[common],
                       help="strict fiber of a 2-functor over an object")
    p.add_argument("--functor", required=True)
    p.add_argument("--object", required=True)
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("nerve", parents=[common],
                       help="truncated nerve of a 2-category")
    p.add_argument("--input", required=True)
    p.add_argument("--max-dim", type=int, default=4)
    p.add_argument("--out", help="write the full nerve JSON here")
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("homology", parents=[common],
                       help="homology of a nerve file in one degree")
    p.add_argument("--nerve", required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--coeffs", help="local coefficient system file")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("opfib", parents=[common],
                       help="certify a 2-functor as an opfibration")
    p.add_argument("--functor", required=True)
    p.add_argument("--emit-cert", help="write the certificate JSON here")
    p.set_defaults(func=cmd_opfib)

    p = sub.add_parser("ss", parents=[common],
                       help="spectral sequence pages of an opfibration")
    p.add_argument("--functor", required=True)
    p.add_argument("--pmax", type=int, default=3)
    p.add_argument("--qmax", type=int, default=3)
    p.add_argument("--fiber-coeffs", type=int,
                   help="also compare E2 against local coefficients in "
                        "this fiber degree")
    p.set_defaults(func=cmd_ss)

    p = sub.add_parser("sinv", parents=[common],
                       help="group-completion construction on an action")
    p.add_argument("--pgm", required=True)
    p.add_argument("--action", help="acted-on 2-category (default: the "
                                    "monoid acting on itself)")
    p.add_argument("--point", action="store_true",
                   help="complete the terminal action instead")
    p.set_defaults(func=cmd_sinv)

    p = sub.add_parser("gc-check", parents=[common],
                       help="verify the homology group-completion "
                            "isomorphism per degree")
    p.add_argument("--pgm", required=True)
    p.add_argument("--action")
    p.add_argument("--max-deg", type=int, default=0)
    p.add_argument("--trunc", type=int, default=None)
    p.set_defaults(func=cmd_gc_check)

    p = sub.add_parser("dualize", parents=[common],
                       help="op/co/coop dual of a 2-category")
    p.add_argument("input")
    p.add_argument("--which", choices=("op", "co", "coop"), default="op")
    p.set_defaults(func=cmd_dualize)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ctx = {"manifest": None, "pretty": False}
    try:
        args = parser.parse_args(argv)
        ctx["pretty"] = args.pretty
        for name in BOUNDS:
            value = getattr(args, name, None)
            if value is not None and value < 0:
                raise UsageError("--%s must be >= 0, got %d" % (
                    name.replace("_", "-"), value))
        return args.func(args, ctx)
    except UsageError as e:
        _print({"error": "usage: %s" % e}, ctx)
        return 1
    except AxiomError as e:
        return _fail(ctx, "axiom-failure", (str(e),))
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as e:
        _print({"error": "%s: %s" % (type(e).__name__, e)}, ctx)
        return 1


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
