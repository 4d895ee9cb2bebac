"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 [--trace 0|1]
                                [--seconds S] [--out FILE]

For every metric: the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (Q3 - Q1) / median, next to the metric's bound from
``BENCHMARK.json``.  ``--out`` appends the summary, with every run's raw
result, as one JSON line to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **res})
        print("seed %d: correct=%s %s" % (
            seed, res["correct"], " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in res["metrics"].items() if k in bounds)),
            flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _q2, q3 = (statistics.quantiles(values, n=4)
                       if len(values) > 1 else (med, med, med))
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        mark = ""
        if name in bounds:
            mark = "bound %.2f%s" % (bounds[name], "" if spread < bounds[name]
                                     / 3 else "  (spread >= bound/3)")
        print("%-30s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f %s"
              % (name, med, q1, q3, spread, mark))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload,
                                 "trace": args.trace,
                                 "seconds": args.seconds,
                                 "summary": summary, "runs": runs},
                                sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
