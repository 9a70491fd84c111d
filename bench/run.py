"""ctrop benchmark runner.

    python3 bench/run.py --workload theta --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: a single client issues one
exact computation at a time, times it, and checks it against its oracle.
The loop runs whole decks of ops (see workloads.py) until the ops have
taken --seconds in all.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same op
sequence twice, untraced and then under the outside-in tracer on a fresh
set-up, and reports the per-layer metrics; the spans are written to
bench/out/.  The last line of standard output is the result as JSON.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 5          # set-ups timed per run, each in a fresh process

END_TO_END = (("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("setup_s", "s"), ("fail_frac", "ratio"),
              ("peak_rss_mb", "MiB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


class Loop:
    """Outcome of one pass over the op stream."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.decks = 0
        # the ops, their input preparation and the collection before each
        self.loop_s = 0.0
        self.oracle_s = 0.0     # the ops' checks, kept out of loop_s


def run_loop(workload, stream, seconds=None, n_decks=None, tracer=None):
    """Run whole decks until the ops have taken `seconds`, or exactly
    `n_decks`."""
    out = Loop()
    for deck in stream:
        for op in deck:
            if tracer is not None:
                tracer.op = out.attempted
            out.attempted += 1
            t0 = perf_counter()
            # A full collection before each op, counted in loop time.
            # lattice_points' recursive closure is a reference cycle, so
            # it keeps its whole bounding box alive until a full
            # collection runs (a defect of the program, see README.md).
            # Where the interpreter's own collections fall depends on op
            # order, and nobody's peak RSS then reads 49 or 61 MiB by
            # seed: a spread wider than any bound the benchmark may set.
            gc.collect()
            try:
                dt, check = getattr(workload, op.kind)(*op.args)
            except Exception:
                # a DomainError (or a bug) fails this op; the loop goes on
                if out.failed == 0:
                    traceback.print_exc()
                check = None
            t1 = perf_counter()
            out.loop_s += t1 - t0
            ok = False
            if check is not None:
                if tracer is not None:
                    tracer.op = tracer.ORACLE
                try:
                    ok = check()
                except Exception:
                    traceback.print_exc()
                out.oracle_s += perf_counter() - t1
            if ok:
                out.latencies.append(dt)
            else:
                out.failed += 1
                print("FAILED op %d: %s%r" % (out.attempted - 1, op.kind,
                                              op.args), file=sys.stderr)
        out.decks += 1
        if n_decks is not None:
            if out.decks >= n_decks:
                break
        elif out.loop_s >= seconds:
            break
    if tracer is not None:
        tracer.op = tracer.SETUP
    return out


def probe_setup(name):
    """Set-up time of `name` in a fresh process."""
    res = subprocess.run([sys.executable, os.path.abspath(__file__),
                          "--workload", name, "--probe-setup"],
                         capture_output=True, text=True, timeout=170,
                         check=True)
    return float(res.stdout.split()[-1])


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(name, args, setup_s, loop):
    verified = loop.attempted - loop.failed
    if verified < 2:
        raise SystemExit("%d of %d ops verified: no latency to report"
                         % (verified, loop.attempted))
    setups = [setup_s] + [probe_setup(name) for _ in range(SETUP_RUNS - 1)]
    values = {
        "ops_per_s": verified / loop.loop_s,
        "op_p50_ms": statistics.median(loop.latencies) * 1e3,
        "op_p90_ms": p90(loop.latencies) * 1e3,
        "setup_s": statistics.median(setups),
        "fail_frac": loop.failed / loop.attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(loop.latencies)
    beyond = sum(1 for x in loop.latencies if x * 1e3 > values["op_p90_ms"])
    notes = {"op_p50_ms": "n=%d" % n,
             "op_p90_ms": "n=%d, %d beyond" % (n, beyond),
             "setup_s": "median of %d fresh processes" % len(setups),
             "fail_frac": "%d of %d" % (loop.failed, loop.attempted)}
    print("workload %s  seed %d  %d decks, %d ops in %.2f s, checked in "
          "%.2f s more" % (name, args.seed, loop.decks, loop.attempted,
                           loop.loop_s, loop.oracle_s))
    for metric, unit in END_TO_END:
        print("  %-12s %14.6f %-6s %s" % (metric, values[metric], unit,
                                          notes.get(metric, "")))
    metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END
               if m != "fail_frac"}
    return loop.failed == 0, loop.attempted, loop.failed, metrics


def per_layer(name, args, loop):
    from tracer import EXERCISED, TARGETS, Tracer, metric_names

    tracer = Tracer()
    with tracer:
        traced = run_loop(workloads.WORKLOADS[name](),
                          workloads.decks(name, args.seed),
                          n_decks=loop.decks, tracer=tracer)
    values = tracer.metrics(traced.attempted, loop.loop_s, traced.loop_s)
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    spans = os.path.join(BENCH, "out",
                         "spans-%s-%d.jsonl.gz" % (name, args.seed))
    tracer.write(spans)

    print("workload %s  seed %d  traced %d decks, %d ops: %.2f s untraced, "
          "%.2f s traced; %d spans in %s"
          % (name, args.seed, traced.decks, traced.attempted, loop.loop_s,
             traced.loop_s, len(tracer.fid), os.path.relpath(spans, ROOT)))
    for layer in TARGETS:
        print("  %-14s %9d calls %10.4f s self"
              % (layer, values[layer + ".calls"], values[layer + ".self_s"]))
    bases = {
        "scattering.enum_per_theta": "scattering.theta_function.calls",
        "scattering.enum_per_alpha": "scattering.structure_constant.calls",
        "scattering.theta_cache_hit_ratio":
            "scattering.LazyThetaTable.get.calls",
    }
    print("  %-14s %9d calls %10.4f s self  (kept out of the layers)"
          % ("oracle", values["oracle.calls"], values["oracle.self_s"]))
    for ratio, base in bases.items():
        print("  %-34s %9.4f  base %s = %d"
              % (ratio, values[ratio], base, values[base]))
    print("  %-34s %9.4f  base %d ops" % ("linalg.rref_per_op",
                                         values["linalg.rref_per_op"],
                                         traced.attempted))
    print("  %-34s %9.4f  base %.3f s untraced loop"
          % ("trace_overhead_frac", values["trace_overhead_frac"],
             loop.loop_s))
    missing = [f for f in EXERCISED[name] if values[f + ".calls"] == 0]
    for f in missing:
        print("MISSING: %s recorded no call on %s" % (f, name),
              file=sys.stderr)

    ok = loop.failed == 0 and traced.failed == 0 and not missing
    metrics = {m: {"value": values[m], "unit": u} for m, u in metric_names()}
    return (ok, loop.attempted + traced.attempted,
            loop.failed + traced.failed, metrics)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ctrop", "__init__.py")):
        print("ctrop sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]()
    setup_s = perf_counter() - T_START
    if args.probe_setup:
        print(repr(setup_s))
        return 0
    loop = run_loop(workload, workloads.decks(args.workload, args.seed),
                    seconds=args.seconds)
    if args.trace:
        ok, attempted, failed, metrics = per_layer(args.workload, args, loop)
    else:
        ok, attempted, failed, metrics = end_to_end(args.workload, args,
                                                    setup_s, loop)
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
