"""Alternating before/after runs of the benchmark, written as a BENCH file.

    python3 tools/bench_pairs.py --parent REV [--change REV] \\
        --workload NAME [--workload NAME ...] --seeds 11001-11010 \\
        --seconds 50 --out BENCH_<n>.json [--what TEXT] [--claim TEXT]

Run from the root of a checkout.  Each side is a fresh copy of the `src/`
and `perfbench/` of its git revision (`git archive`); `--change .`, the
default, copies them from the working tree instead.  For each workload and
each seed, the two sides run `perfbench/run.py --trace 0` one after the
other, and the side that runs first alternates from pair to pair.  Every
run's JSON line is kept under "runs", and "summary" gives, per metric, the
median and quartiles (numpy.percentile 25/75) of each side, the number of
pairs in which each side is lower, and the change's median relative to the
parent's in percent.  Its "checks" entry counts, per side, the runs whose
answers failed the benchmark's checks ("incorrect_runs") and the failed and
attempted operations summed over the runs.  A run with incorrect answers is
kept, so the evidence stays in the file, but the script then exits 1 once
the file is written.

An existing --out file is updated: the workloads run now replace theirs,
the others stay, and --what and --claim replace their fields when given.
With no --workload, only those fields are rewritten.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds <seconds> --trace 0"
COPIED = ("src", "perfbench")


def seed_list(text):
    """'11001-11010' or '11001,11005' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def checkout(rev, dest):
    """The src/ and perfbench/ of rev ('.' for the working tree) in dest."""
    os.makedirs(dest)
    if rev == ".":
        for name in COPIED:
            shutil.copytree(name, os.path.join(dest, name),
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        return
    data = subprocess.run(["git", "archive", "--format=tar", rev, *COPIED],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_once(side_dir, workload, seed, seconds):
    """The last JSON line of one benchmark run, its metrics as plain values."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=side_dir, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    # exit 1 is a run whose answers failed their checks: kept, and counted
    if out.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {side_dir} exited "
                           f"{out.returncode}: {out.stderr[-2000:]}")
    res = json.loads(lines[-1])
    res["metrics"] = {k: v["value"] for k, v in res["metrics"].items()}
    return res


def summarize(runs):
    """Per metric, the quartiles of each side and the pairs each side wins;
    under "checks", each side's incorrect runs and failed/attempted
    operations."""
    summary = {}
    for metric in runs[0]["parent"]["metrics"]:
        vals = {side: [r[side]["metrics"][metric] for r in runs]
                for side in ("parent", "change")}
        entry = {side: {"median": statistics.median(v),
                        "q1": float(np.percentile(v, 25)),
                        "q3": float(np.percentile(v, 75))}
                 for side, v in vals.items()}
        pairs = list(zip(vals["parent"], vals["change"]))
        entry["change_better_pairs"] = sum(c < p for p, c in pairs)
        entry["parent_better_pairs"] = sum(p < c for p, c in pairs)
        entry["median_change_pct"] = 100.0 * (
            entry["change"]["median"] / entry["parent"]["median"] - 1.0)
        summary[metric] = entry
    summary["checks"] = {
        side: {"incorrect_runs": sum(not r[side]["correct"] for r in runs),
               "failed_ops": sum(r[side]["failed"] for r in runs),
               "attempted_ops": sum(r[side]["attempted"] for r in runs)}
        for side in ("parent", "change")}
    return summary


def machine():
    return (f"{platform.system()} {platform.machine()}, {os.cpu_count()} cores, "
            f"Python {platform.python_version()}, numpy {np.__version__}; "
            "perfbench sets OMP/OPENBLAS/MKL threads to 1")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="git revision of the parent side")
    p.add_argument("--change", default=".",
                   help="git revision of the change side, '.' for the working tree")
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--seeds", type=seed_list, default=[])
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--out", required=True)
    p.add_argument("--what")
    p.add_argument("--claim")
    args = p.parse_args(argv)
    if args.workload and (args.parent is None or not args.seeds):
        p.error("--workload needs --parent and --seeds")

    bench = {"what": "", "command": COMMAND, "procedure": "", "machine": "",
             "claim": "", "workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench.update(json.load(fh))
    for key in ("what", "claim"):
        if getattr(args, key) is not None:
            bench[key] = getattr(args, key)

    incorrect = 0
    if args.workload:
        work = tempfile.mkdtemp(prefix="bench_pairs_")
        try:
            sides = {"parent": os.path.join(work, "parent"),
                     "change": os.path.join(work, "change")}
            checkout(args.parent, sides["parent"])
            checkout(args.change, sides["change"])
            for workload in args.workload:
                runs = []
                for k, seed in enumerate(args.seeds):
                    order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                    run = {"seed": seed, "first": order[0]}
                    for side in order:
                        run[side] = run_once(sides[side], workload, seed, args.seconds)
                        print(f"{workload} seed {seed} {side}: "
                              f"{json.dumps(run[side]['metrics'])}", file=sys.stderr)
                    runs.append(run)
                summary = summarize(runs)
                incorrect += sum(c["incorrect_runs"]
                                 for c in summary["checks"].values())
                bench["workloads"][workload] = {
                    "pairs": len(runs), "seeds": list(args.seeds),
                    "summary": summary, "runs": runs}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        change = "the working tree" if args.change == "." else args.change
        bench["procedure"] = (
            f"tools/bench_pairs.py: each side is a fresh copy of its src/ and "
            f"perfbench/ (parent {args.parent}, change {change}), run "
            f"{args.seconds:g} s per run, one run at a time, alternating which "
            f"side runs first in each pair (the 'first' field). Quartiles are "
            f"numpy.percentile 25/75 over the runs of one side. "
            f"'change_better_pairs' counts the pairs where the change's value "
            f"is lower.")
        bench["machine"] = machine()
        bench["command"] = COMMAND
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    if incorrect:
        print(f"{incorrect} run(s) gave answers that failed their checks; "
              f"see 'checks' in {args.out}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
