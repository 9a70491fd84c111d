"""Run the benchmark on several workloads and seeds and summarise it.

    python3 bench/summary.py                         # every workload, seed 1
    python3 bench/summary.py --workload nobody --seeds 1-10

Each run is its own process (bench/run.py), one after another.  For every
metric the summary prints the median over the seeds, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median, next to the bound from BENCHMARK.json.  fail_frac is
failed / attempted.  Runs last run_seconds from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                         cwd=ROOT)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit("run failed: %s" % " ".join(cmd))
    return json.loads(res.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seeds", type=seed_list, default=[1])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workload or names:
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in args.seeds]
        print("== %s: %d runs, correct=%s, fail_frac=%s"
              % (workload, len(results), all(r["correct"] for r in results),
                 "/".join("%g" % (r["failed"] / r["attempted"])
                          for r in results)))
        for metric, first in results[0]["metrics"].items():
            vals = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(vals)
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            print("  %-44s %14.6f %-6s q1 %.6g q3 %.6g spread %.4f%s"
                  % (metric, med, first["unit"], q1, q3, spread,
                     "  bound %g" % bound if bound is not None else ""))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
