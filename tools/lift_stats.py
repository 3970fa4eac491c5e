"""Exact LP-kernel counts on `test_highs`'s seeded lift batches.

    PYTHONPATH=src python3 tools/lift_stats.py 4,2 5,1 5,3 e,4 [--seed 0]

Run from the root of a checkout; the kernel is the `zonosharp` on
PYTHONPATH, so pointing it at another checkout's `src/` counts that
revision on the same lifts.  Each `nb,d` argument names the lift that
`tests/test_highs.py` builds for it: the relaxation of `rlt_sharpen(H, d)`
for a random hybrid zonotope H with n_b = nb, drawn by
`test_acceptance._random_hz` from `numpy.random.default_rng([seed, nb, d])`.
An `e,d` argument names the level-d lift of the 0 level set of the seeded
2-4-1 ReLU network (`test_acceptance._seeded_network([4], seed)`), which
is empty at seed 0; its record has "nb": "e".
Its support LPs in the 8 directions of `direction_set(2, 8, seed=seed)` are
solved as one `solve_bounded_many` batch inside `lp_stats()`, and one JSON
line is printed per lift: the shape of the region, rows x cols, and
"lift", the size and build cost of the lift: the wall time of
`rlt_sharpen` ("seconds"), the nonzeros of its [Ac Ab], counted from the
entries of the sparse Ac ("entries"), and the MiB that [Ac Ab] would take
dense, 8 rows cols / 2^20 ("dense_mib"); then the batch's wall time,
the counters of `LpStats.to_obj()` (statuses, steps per phase with the
dual steps and the degenerate ones among them, dual starts, cold
retries, refactors) and the 8 objectives as `repr`
strings, so that two revisions can be compared bit for bit.  Its
"sharpness" entry is `check_sharpness` on the lifted hybrid zonotope in
the same 8 directions, run on the lift alone: its wall time, verdict,
`max_gap` as a `repr` string, the directions closed by the relaxation,
the leaf LPs of the open directions answered as children of the
relaxation's LP, the steps of the dual passes, the dual steps per phase
("by_dual"), the dual starts and the cold retries, which count a child's
retry too; a check that raises NumericalFailure has its message as the
verdict and null for the gap and the closed directions, and a check on
an empty lift has "empty".  The batch and the check each also give
"us_per_step", their wall time over the steps of all their runs of the
simplex loop (phase 1, phase 2 and dual passes) in microseconds, or null
with no step: the cost of a step on that lift.  Everything but the three
"seconds" and the two "us_per_step" repeats exactly.

The BLAS runs one thread, as in `perfbench/run.py`: the kernel's pivots
follow the rounding of its matrix products, which depends on the thread
count, so the counts are comparable only at one thread count.
"""

import argparse
import json
import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))

from test_acceptance import _random_hz, _seeded_network  # noqa: E402

from zonosharp import (EmptySet, NumericalFailure, _simplex,  # noqa: E402
                       check_sharpness, convex_relaxation, direction_set,
                       level_set_above, rlt_sharpen)


def lift_pair(text):
    """'5,3' as (5, 3), and 'e,4' as ('e', 4)."""
    nb, d = text.split(",")
    return (nb if nb == "e" else int(nb)), int(d)


def us_per_step(seconds, stats):
    """seconds over the loop steps counted in stats, in microseconds to
    0.1, or None when there were none."""
    steps = sum(stats.pivots.values())
    return round(1e6 * seconds / steps, 1) if steps else None


def lift_stats(nb, d, seed=0):
    """The JSON-ready record of one lift's 8-direction batch; nb "e"
    names the seeded 2-4-1 network's level set."""
    if nb == "e":
        H = level_set_above(_seeded_network([4], seed), 0.0)
    else:
        H = _random_hz(np.random.default_rng([seed, nb, d]), 2, 2, nb, 1)
    t0 = time.perf_counter()
    lift = rlt_sharpen(H, d)
    lift_seconds = time.perf_counter() - t0
    R = convex_relaxation(lift)
    lo, up = R.factor_bounds()
    C = np.array([-(R.G.T @ u) for u in direction_set(2, 8, seed=seed)])
    t0 = time.perf_counter()
    with _simplex.lp_stats() as stats:
        batch = _simplex.solve_bounded_many(C, R.A, R.b, lo, up)
    seconds = time.perf_counter() - t0
    rows, cols = R.A.shape
    return {"nb": nb, "d": d, "seed": seed, "shape": [rows, cols],
            "lift": {"seconds": round(lift_seconds, 4),
                     "entries": lift.Ac.nnz + int(np.count_nonzero(lift.Ab)),
                     "dense_mib": round(8 * rows * cols / 2 ** 20, 4)},
            "seconds": round(seconds, 3),
            "us_per_step": us_per_step(seconds, stats),
            "lp_stats": stats.to_obj(),
            "objectives": [repr(obj) for _, obj, _ in batch],
            "sharpness": sharpness_stats(lift, seed)}


def sharpness_stats(lift, seed):
    """The JSON-ready record of `check_sharpness` on a lift, 8 directions;
    the batch above solves on a ladder of its own, so this check makes its
    relaxation's start afresh."""
    t0 = time.perf_counter()
    with _simplex.lp_stats() as stats:
        try:
            rep = check_sharpness(lift, n_dirs=8, seed=seed)
            verdict = rep.verdict.value
            max_gap, closed = repr(rep.max_gap), int(rep.closed.sum())
        except NumericalFailure as exc:
            verdict, max_gap, closed = f"NumericalFailure: {exc}", None, None
        except EmptySet:
            verdict, max_gap, closed = "empty", None, None
    seconds = time.perf_counter() - t0
    return {"seconds": round(seconds, 3),
            "us_per_step": us_per_step(seconds, stats), "verdict": verdict,
            "max_gap": max_gap, "closed": closed,
            "children": stats.children,
            "dual_steps": stats.pivots["dual"],
            "by_dual": {str(p): stats.by_dual[p] for p in (1, 2, "dual")},
            "phase1_runs": stats.phase1_runs,
            "cold_retries": stats.cold_retries}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("lifts", nargs="+", type=lift_pair, metavar="nb,d")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    for nb, d in args.lifts:
        print(json.dumps(lift_stats(nb, d, args.seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
