"""Exact LP-kernel counts on `test_highs`'s seeded lift batches.

    PYTHONPATH=src python3 tools/lift_stats.py 4,2 5,1 5,3 [--seed 0]

Run from the root of a checkout; the kernel is the `zonosharp` on
PYTHONPATH, so pointing it at another checkout's `src/` counts that
revision on the same lifts.  Each `nb,d` argument names the lift that
`tests/test_highs.py` builds for it: the relaxation of `rlt_sharpen(H, d)`
for a random hybrid zonotope H with n_b = nb, drawn by
`test_acceptance._random_hz` from `numpy.random.default_rng([seed, nb, d])`.
Its support LPs in the 8 directions of `direction_set(2, 8, seed=seed)` are
solved as one `solve_bounded_many` batch inside `lp_stats()`, and one JSON
line is printed per lift: the shape of the region, the batch's wall time,
the counters of `LpStats.to_obj()` (statuses, rungs, steps per phase with
the degenerate ones and those under Bland's rule, phase-1 runs, refactors)
and the 8 objectives as `repr` strings, so that two revisions can be
compared bit for bit.  Everything but "seconds" repeats exactly.

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

from test_acceptance import _random_hz  # noqa: E402

from zonosharp import (_simplex, convex_relaxation, direction_set,  # noqa: E402
                       rlt_sharpen)


def lift_pair(text):
    """'5,3' as (5, 3)."""
    nb, d = (int(v) for v in text.split(","))
    return nb, d


def lift_stats(nb, d, seed=0):
    """The JSON-ready record of one lift's 8-direction batch."""
    H = _random_hz(np.random.default_rng([seed, nb, d]), 2, 2, nb, 1)
    R = convex_relaxation(rlt_sharpen(H, d))
    lo, up = R.factor_bounds()
    C = np.array([-(R.G.T @ u) for u in direction_set(2, 8, seed=seed)])
    t0 = time.perf_counter()
    with _simplex.lp_stats() as stats:
        batch = _simplex.solve_bounded_many(C, R.A, R.b, lo, up)
    seconds = time.perf_counter() - t0
    return {"nb": nb, "d": d, "seed": seed, "shape": list(R.A.shape),
            "seconds": round(seconds, 3), "lp_stats": stats.to_obj(),
            "objectives": [repr(obj) for _, obj, _ in batch]}


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
