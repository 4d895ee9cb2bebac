"""One workload in a fresh process; started by ``run.py``.

Sets up (imports ``twocat`` and writes the seeded input) several times
and keeps the median, then runs the workload's job list through
``twocat.cli.main`` in-process with stdout captured, checks every job's
output, and prints one JSON result line.

Untraced (``--trace 0``): passes repeat until ``--seconds`` have elapsed,
at least two, so every job is rerun at least once; ``wall_s`` is the
median pass.  Traced (``--trace 1``): one untraced pass, then one traced
pass that gives the per-layer breakdown; ``trace.overhead_ratio`` is the
ratio of their walls.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

SETUP_REPS = 15


def _purge_twocat() -> None:
    for name in [n for n in sys.modules
                 if n == "twocat" or n.startswith("twocat.")]:
        del sys.modules[name]


def setup(wl, seed: int, src: str):
    """Import twocat and write the seeded input, SETUP_REPS times from a
    clean module table; returns (median seconds, input path, renaming)."""
    times = []
    for _ in range(SETUP_REPS):
        _purge_twocat()
        t0 = time.perf_counter()
        importlib.import_module("twocat.cli")
        path, text, ren = wl.make_input(random.Random("%s:%d"
                                                      % (wl.name, seed)))
        with open(path, "w") as fh:
            fh.write(text)
        times.append(time.perf_counter() - t0)
    loaded = sys.modules["twocat"].__file__
    if os.path.dirname(os.path.dirname(os.path.abspath(loaded))) != src:
        raise SystemExit("twocat was imported from %s, not %s"
                         % (loaded, src))
    return statistics.median(times), path, ren


def run_pass(wl, jobs, n: int):
    """Run the job list once; returns (wall seconds, [(rc, stdout)])."""
    cli = sys.modules["twocat.cli"]
    cache = "cache-%d" % n
    if wl.cache:
        os.environ["TWOCAT_CACHE_DIR"] = cache
    outs = []
    t0 = time.perf_counter()
    for argv in jobs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(list(argv))
            except Exception as e:      # a crash is a failed job
                rc = "%s: %s" % (type(e).__name__, e)
        outs.append((rc, buf.getvalue()))
    wall = time.perf_counter() - t0
    shutil.rmtree(cache, ignore_errors=True)
    return wall, outs


def check_pass(wl, ren, outs, first, input_path) -> list:
    """One entry per job: the failure reason, or None if it passed."""
    result = []
    for i, (rc, out) in enumerate(outs):
        if rc != 0:
            why = "exit %r: %s" % (rc, out.strip()[:200])
        elif first is not None and out != first[i][1]:
            why = "stdout differs from the first pass"
        elif i == 0 and os.path.getsize(input_path) != wl.INPUT_BYTES:
            why = "input file has %d bytes, want %d" % (
                os.path.getsize(input_path), wl.INPUT_BYTES)
        else:
            try:
                why = wl.check(i, [o for _rc, o in outs], ren)
            except (ValueError, KeyError, TypeError) as e:
                why = "unreadable report: %s: %s" % (type(e).__name__, e)
        result.append(why)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    sys.path.insert(0, args.src)
    from tracer import Tracer, layer_metrics, self_times, PARENT, START, END
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    setup_s, path, ren = setup(wl, args.seed, args.src)
    jobs = wl.jobs(path)

    walls, failures, first = [], [], None
    metrics = {}
    t_start = time.perf_counter()
    while True:
        tracer = None
        if args.trace and len(walls) == 1:
            tracer = Tracer()
            tracer.install()
        try:
            wall, outs = run_pass(wl, jobs, len(walls))
        finally:
            if tracer is not None:
                tracer.uninstall()
        failures += check_pass(wl, ren, outs, first, path)
        first = first or outs
        walls.append(wall)
        if tracer is not None:
            spans = tracer.spans
            metrics = layer_metrics(spans)
            metrics["trace.overhead_ratio"] = wall / walls[0]
            roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
            if abs(sum(self_times(spans)) - roots) > 1e-6 * max(roots, 1):
                raise SystemExit("self times do not sum to the job walls")
            with open("spans.json", "w") as fh:
                json.dump(spans, fh)
            break
        if (not args.trace and len(walls) >= 2
                and time.perf_counter() - t_start >= args.seconds):
            break

    if not args.trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    failed = [f for f in failures if f is not None]
    print(json.dumps({"attempted": len(failures), "failed": len(failed),
                      "reasons": failed[:5],
                      "walls": walls, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
