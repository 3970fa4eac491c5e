"""Benchmark of zonosharp: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`
directory.  The run makes its corpus from the seed, then repeats whole
passes over it until S seconds have gone by, checks every answer against a
computation made apart from the package, and prints one JSON object as its
last line of output.  With --trace 0 it holds the end-to-end metrics, the
times taken from each operation's fastest repeat; with --trace 1 it holds
the per-layer metrics, taken over set-up and one traced pass after the
untraced ones, and the tracing overhead.  The workloads and metrics are described in
perfbench/README.md.  Exit status: 0 when every answer checked out, 1 when
one did not, 2 when the run could not start.
"""

import argparse
import importlib.util
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

# one process, one BLAS thread: the machine's other core stays free for
# the rest of the system, which keeps run-to-run noise down
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 5
MODULES = ("algebra", "core", "errors", "oracle", "relugraph", "rlt")
OUT_DIR = os.path.join(HERE, "out")


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 2


def measure(workload, corpus, ops, seconds):
    """Whole passes until `seconds` have gone by; (answers, per-pass
    latencies).  Every pass runs the same operations in the same order, so
    entry k of each pass's list is the same operation.  Work the benchmark
    does between operations is not counted.
    """
    answers, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        first = len(ops.latencies)
        answers.append(workload.run_pass(corpus, ops))
        passes.append(ops.latencies[first:])
    if len({len(p) for p in passes}) != 1:
        raise RuntimeError("passes ran different numbers of operations")
    return answers, passes


def best_of(passes):
    """(pass time, fastest time of each operation) over the passes, where
    the pass time is the sum of the operations' fastest times.

    The machine's speed changes by up to 1.7x for spells of a second to a
    minute or more (README, Steadiness).  An operation repeated in several
    passes is likely to meet a fast moment at least once, so the fastest of
    its repeats reads the program's cost and leaves out much of that.
    """
    per_op = [min(times) for times in zip(*passes)]
    return math.fsum(per_op), per_op


def import_seconds():
    """Median over fresh interpreters of the time to import the package."""
    code = ("import time; t0 = time.perf_counter(); "
            + "; ".join(f"import zonosharp.{m}" for m in MODULES)
            + "; print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=HERE,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(workload, seed, seconds):
    from workloads import Ops

    import_s = import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        corpus = workload.setup(seed)
        setups.append(time.perf_counter() - t0)
    ops = Ops(time.perf_counter)
    answers, passes = measure(workload, corpus, ops, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s, per_op = best_of(passes)
    p50, p90 = statistics.quantiles(per_op, n=10)[4::4] \
        if len(per_op) > 1 else 2 * per_op
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "pass_s": (pass_s, "s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_p90_ms": (1e3 * p90, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"{len(passes)} passes of {len(per_op)} operations", file=sys.stderr)
    return ops, workload.check(corpus, answers), metrics


def traced(workload, name, seed, seconds):
    import checks
    from tracing import Tracer
    from workloads import Ops

    # set-up traced, then the untimed passes warm, then one traced pass, so
    # the overhead is not mixed with first-pass costs such as page faults
    tracer = Tracer(reference=checks.highs_rerun)
    tracer.install()
    try:
        corpus = workload.setup(seed)
    finally:
        tracer.uninstall()
    ops = Ops(time.perf_counter)
    answers, passes = measure(workload, corpus, ops, seconds)
    ops.clock = tracer.clock
    first = len(ops.latencies)
    tracer.install()
    try:
        answers.append(workload.run_pass(corpus, ops))
    finally:
        tracer.uninstall()
    traced_pass = math.fsum(ops.latencies[first:])
    metrics = tracer.metrics(traced_pass, traced_pass - best_of(passes)[0])
    os.makedirs(OUT_DIR, exist_ok=True)
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    spans = [[s.layer, s.name, s.start, s.end, index.get(id(s.parent))]
             for s in tracer.spans]
    with open(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "fields":
                   ["layer", "function", "start", "end", "parent"], "spans": spans}, fh)
    return ops, workload.check(corpus, answers), metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if args.trace and importlib.util.find_spec("scipy") is None:
        return _fail("scipy is needed for --trace 1: every kernel LP is solved "
                     "again with HiGHS (scipy.optimize.linprog) as the yardstick")
    if not os.path.isdir(os.path.join(SRC, "zonosharp")):
        return _fail(f"no zonosharp package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import zonosharp
    if os.path.dirname(os.path.dirname(os.path.abspath(zonosharp.__file__))) != SRC:
        return _fail(f"zonosharp was imported from {zonosharp.__file__}, not {SRC}")
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.trace:
        ops, bad, metrics = traced(workload, args.workload, args.seed, args.seconds)
    else:
        ops, bad, metrics = end_to_end(workload, args.seed, args.seconds)
    for msg in bad[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not bad,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
