"""The twocat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the root of a source checkout.  NAME is one of the workloads in
``perfbench/workloads.py`` or ``all``.  Each workload runs in a fresh
single-threaded Python process (``child.py``) whose ``PYTHONHASHSEED`` and
inputs come from the seed, in a scratch directory under ``.perfbench/``
that is removed afterwards.  The traced run's spans are kept in
``.perfbench/spans/``.

Prints one line per metric (name, value, unit), then, as the last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``), with ``--trace 1`` the per-layer ones.  Exits non-zero
without a result if the checkout has no ``src/twocat`` or a workload
process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("nerve-homology", "spectral-sequence", "group-completion")
CHILD_TIMEOUT_S = 170


def units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    work = os.path.join(ROOT, ".perfbench", "%s-%d-%d"
                        % (name, seed, os.getpid()))
    os.makedirs(work)
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32))
    env.pop("TWOCAT_CACHE_DIR", None)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--src", SRC],
            cwd=work, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("%s: workload process exited %d"
                             % (name, proc.returncode))
        if trace:
            spans = os.path.join(ROOT, ".perfbench", "spans")
            os.makedirs(spans, exist_ok=True)
            shutil.copy(os.path.join(work, "spans.json"),
                        os.path.join(spans, "%s-seed%d.json" % (name, seed)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the workload
    # process, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "twocat", "cli.py")):
        raise SystemExit("no twocat sources at %s" % SRC)
    unit_of = units()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += res["attempted"]
        failed += res["failed"]
        for reason in res["reasons"]:
            print("%s: FAILED %s" % (name, reason))
        print("%s: %d/%d jobs failed (failed_ratio %.4g); pass walls %s s"
              % (name, res["failed"], res["attempted"],
                 res["failed"] / res["attempted"],
                 " ".join("%.3f" % w for w in res["walls"])))
        prefix = name + "/" if len(names) > 1 else ""
        for key, value in res["metrics"].items():
            shown = value if isinstance(value, int) else "%.6g" % value
            print("%s: %-30s %14s %s" % (name, key, shown, unit_of[key]))
            metrics[prefix + key] = {"value": value, "unit": unit_of[key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
