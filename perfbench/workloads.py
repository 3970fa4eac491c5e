"""The two workloads: seeded corpus, one pass over it, and its checks.

A workload has `setup(seed)`, which makes the corpus (everything before
the first query), `run_pass(corpus, ops)`, which runs every operation of
the corpus once through `ops.call` and returns the answers, and
`check(corpus, answers)`, which returns a list of problems found in the
answers of every pass.  Package functions are looked up on their module at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import numpy as np

from zonosharp import algebra, core, oracle, relugraph, rlt
from zonosharp.core import FactorForm, HybridZonotope
from zonosharp.errors import NumericalFailure

import checks


class Ops:
    """Counts and times operations; a failed one returns None.  A failed
    operation is timed too, so that every pass has one latency per
    operation."""

    def __init__(self, clock):
        self.clock = clock
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        t0 = self.clock()
        try:
            out = fn(*args, **kwargs)
        except NumericalFailure:
            self.failed += 1
            out = None
        self.latencies.append(self.clock() - t0)
        return out


def random_hz(rng, nb, n=2, ng=2, nc=1, x0=None):
    """01-form hybrid zonotope with normal data and a feasible factor point
    (x0, y0), x0 random binary unless given; returns (H, x0, y0)."""
    Gc = rng.normal(size=(n, ng))
    Gb = rng.normal(size=(n, nb))
    c = rng.normal(size=n)
    Ac = rng.normal(size=(nc, ng))
    Ab = rng.normal(size=(nc, nb))
    y0 = rng.uniform(0.0, 1.0, size=ng)
    if x0 is None:
        x0 = rng.integers(0, 2, size=nb).astype(float)
    H = HybridZonotope(Gc, Gb, c, Ac, Ab, Ac @ y0 + Ab @ x0, FactorForm.ZO)
    return H, x0, y0


# --- levelset_hull ---------------------------------------------------------

class LevelsetHull:
    """`zonosharp demo-levelset --angles 16 --dirs 4 --seed <seed>`, call by
    call."""

    threshold = 0.5
    angles = 16
    dirs = 4

    def setup(self, seed):
        return {"net": relugraph.demo_network(), "seed": seed,
                "angles": self.angles, "dirs": self.dirs}

    @staticmethod
    def _relaxed_boundary(S, n_angles):
        return oracle.boundary_2d(algebra.convex_relaxation(S), n_angles=n_angles)

    @staticmethod
    def _hull_polygon(pts):
        """The demo's inscribed hull polygon: sort by angle, drop repeats."""
        pts = np.asarray(pts)
        centroid = pts.mean(axis=0)
        order = np.argsort(np.arctan2(pts[:, 1] - centroid[1],
                                      pts[:, 0] - centroid[0]), kind="stable")
        pts = pts[order]
        keep = [pts[0]]
        scale = 1.0 + np.max(np.abs(pts))
        for p in pts[1:]:
            if np.linalg.norm(p - keep[-1]) > 1e-9 * scale:
                keep.append(p)
        return np.asarray(keep)

    def run_pass(self, corpus, ops):
        angles, seed = corpus["angles"], corpus["seed"]
        sharp = dict(n_dirs=corpus["dirs"], tol=oracle.SHARP_TOL,
                     cap=core.DEFAULT_LEAF_CAP, seed=seed)
        X = ops.call(relugraph.level_set_above, corpus["net"], self.threshold)
        if X is None:
            return None
        pre = ops.call(oracle.check_sharpness, X, **sharp)
        pts = []
        for k in range(angles):
            th = 2.0 * np.pi * k / angles
            out = ops.call(oracle.support_point, X, np.array([np.cos(th), np.sin(th)]),
                           cap=core.DEFAULT_LEAF_CAP)
            if out is None:
                return None
            pts.append(out[1])
        relax_poly = ops.call(self._relaxed_boundary, X, angles)
        if pre is None or relax_poly is None:
            return None
        report = {"pre_verdict": pre.verdict.value, "pre_gap": pre.max_gap,
                  "hull_area": oracle.polygon_area(self._hull_polygon(pts)),
                  "relax_area": oracle.polygon_area(relax_poly), "levels": []}
        for d in range(1, X.n_b + 1):
            lifted = ops.call(rlt.rlt_report, X, d)
            if lifted is None:
                return None
            Xd = lifted[0]
            rep = ops.call(oracle.check_sharpness, Xd, **sharp)
            poly = ops.call(self._relaxed_boundary, Xd, angles)
            if rep is None or poly is None:
                return None
            report["levels"].append({"level": d, "verdict": rep.verdict.value,
                                     "max_gap": rep.max_gap,
                                     "area": oracle.polygon_area(poly)})
        return report

    def check(self, corpus, answers):
        reference = checks.grid_hull_area(corpus["net"], self.threshold)
        bad = []
        for k, report in enumerate(answers):
            if report is not None:
                bad += [f"pass {k}: {msg}" for msg in checks.check_levelset(report, reference)]
        return bad


# --- rlt_build -------------------------------------------------------------

def feasible_points(rng, H, x0, y0, count, tries=200):
    """(x, y) factor points of H: (x0, y0) and points of other leaves.

    Needs n_g = 2 and n_c = 1: a leaf's feasible y is where the line
    a'y = b - Ab x crosses the unit square, and y1 is drawn inside it.
    """
    a = H.Ac[0]
    pts = [(x0, y0)]
    for _ in range(tries):
        if len(pts) == count:
            break
        x = rng.integers(0, 2, size=H.n_b).astype(float)
        r = H.b[0] - H.Ab[0] @ x
        ends = sorted([r / a[0], (r - a[1]) / a[0]])  # y1 where y2 = 0 or 1
        lo, hi = max(0.0, ends[0]), min(1.0, ends[1])
        if hi - lo > 1e-6:
            y1 = lo + (hi - lo) * rng.uniform(0.1, 0.9)
            pts.append((x, np.array([y1, (r - a[0] * y1) / a[1]])))
    return pts


class RltBuild:
    """rlt_sharpen of random sets at n_b = 6..8 and d up to ceil(n_b/2)."""

    shapes = [(nb, d) for nb in (6, 7, 8) for d in range(1, (nb + 1) // 2 + 1)]
    n_points = 3

    def setup(self, seed):
        rng = np.random.default_rng([seed, 4])
        items = []
        for nb, d in self.shapes:
            # the all-ones leaf is feasible, so its lifted point has every
            # product equal to 1 and touches every column of the lift
            H, x0, y0 = random_hz(rng, nb, x0=np.ones(nb))
            items.append({"H": H, "d": d,
                          "points": feasible_points(rng, H, x0, y0, self.n_points)})
        return {"items": items}

    def run_pass(self, corpus, ops):
        """Each lift is checked as soon as it is built, outside its timing,
        and dropped, so that no two large lifts are alive at once."""
        bad = []
        for item in corpus["items"]:
            X = ops.call(rlt.rlt_sharpen, item["H"], item["d"])
            if X is not None:
                bad += checks.check_lift(item["H"], item["d"], X, item["points"])
            del X
        return bad

    def check(self, corpus, answers):
        return [f"pass {k}: {msg}" for k, bad in enumerate(answers) for msg in bad]


WORKLOADS = {
    "levelset_hull": LevelsetHull(),
    "rlt_build": RltBuild(),
}
