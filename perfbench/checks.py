"""Reference computations made apart from the package.

Every check here recomputes an answer with other means (plain numpy on the
network weights, or products of factor values written out by hand) or tests
a property the method must have.  Nothing is compared with a stored copy of
an earlier run.  Each check returns a list of problems; an empty list means
the answers passed.  `highs_rerun` solves a kernel LP again with HiGHS
through scipy, the traced run's yardstick.
"""

from __future__ import annotations

import time
from itertools import combinations, product
from math import comb

import numpy as np


def _linprog():
    from scipy.optimize import linprog
    return linprog


def highs(c, A, b, lo, up):
    """(status, objective) of min c'x, Ax = b, lo <= x <= up with HiGHS."""
    res = _linprog()(c, A_eq=A if A.shape[0] else None,
                     b_eq=b if A.shape[0] else None,
                     bounds=np.column_stack([lo, up]), method="highs")
    return res.status, (res.fun if res.status == 0 else None)


def highs_rerun(kind, args, kwargs):
    """Solve a kernel call's LP again with HiGHS; return HiGHS seconds.

    `solve_bounded(c, A, b, lo, up)` is solved as is.  `min_infeasibility(A,
    b, lo, up)` is solved as the LP it stands for: the least 1-norm
    violation of Ax = b over the box, with one slack pair per row.
    """
    if kind == "solve_bounded":
        c, A, b, lo, up = (np.asarray(a, dtype=np.float64) for a in args[:5])
    else:
        A, b, lo, up = (np.asarray(a, dtype=np.float64) for a in args[:4])
        m, n = A.shape
        A = np.hstack([A, np.eye(m), -np.eye(m)])
        c = np.concatenate([np.zeros(n), np.ones(2 * m)])
        lo = np.concatenate([lo, np.zeros(2 * m)])
        up = np.concatenate([up, np.full(2 * m, np.inf)])
    t0 = time.perf_counter()
    highs(c, A, b, lo, up)
    return time.perf_counter() - t0


# --- levelset_hull ---------------------------------------------------------

def _hull(points):
    """Convex hull (counterclockwise) of 2-D points, by monotone chain."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) < 3:
        return np.asarray(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(reversed(pts))
    return np.asarray(lower[:-1] + upper[:-1])


def _area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def grid_hull_area(net, threshold, n=2001):
    """(area, tolerance) of the hull of {N(x) >= threshold} from a grid.

    The network is evaluated in plain numpy on an n x n grid of its input
    box.  Only the leftmost and rightmost grid point of each row can be a
    hull vertex.  The hull of the grid points lies inside the true hull, and
    every point of the level set is within one grid diagonal of a grid point
    of it, so the true area exceeds the grid area by at most perimeter *
    diagonal + pi * diagonal^2.
    """
    (x_lo, x_hi), (y_lo, y_hi) = net.input_box
    xs = np.linspace(x_lo, x_hi, n)
    ys = np.linspace(y_lo, y_hi, n)
    X, Y = np.meshgrid(xs, ys)
    h = np.stack([X.ravel(), Y.ravel()])
    for i, (W, bias) in enumerate(net.layers):
        h = W @ h + bias[:, None]
        if i + 1 < len(net.layers):
            h = np.maximum(h, 0.0)
    inside = (h[0] >= threshold).reshape(n, n)
    rows = np.nonzero(inside.any(axis=1))[0]
    first = inside[rows].argmax(axis=1)
    last = n - 1 - inside[rows, ::-1].argmax(axis=1)
    pts = np.concatenate([np.column_stack([xs[first], ys[rows]]),
                          np.column_stack([xs[last], ys[rows]])])
    poly = _hull(pts)
    perimeter = np.sum(np.linalg.norm(poly - np.roll(poly, -1, axis=0), axis=1))
    diag = np.hypot(xs[1] - xs[0], ys[1] - ys[0])
    return _area(poly), perimeter * diag + np.pi * diag ** 2


def check_levelset(report, reference):
    """`reference` is `grid_hull_area(...)` for the same network."""
    bad = []
    if report["pre_verdict"] != "not_sharp":
        bad.append(f"raw level set verdict {report['pre_verdict']}, expected not_sharp")
    top = report["levels"][-1]
    if top["verdict"] != "sharp" or not top["max_gap"] <= 1e-6:
        bad.append(f"top RLT level {top['level']}: {top['verdict']} gap {top['max_gap']}")
    ratios = [report["relax_area"] / report["hull_area"]]
    ratios += [lev["area"] / report["hull_area"] for lev in report["levels"]]
    if any(b > a * (1 + 1e-9) for a, b in zip(ratios, ratios[1:])):
        bad.append(f"area ratios increase: {ratios}")
    if abs(ratios[-1] - 1.0) > 1e-3:
        bad.append(f"last area ratio {ratios[-1]} is not within 1e-3 of 1")
    area, tol = reference
    if abs(report["hull_area"] - area) > tol:
        bad.append(f"hull area {report['hull_area']} vs grid {area} +- {tol}")
    return bad


# --- rlt_build -------------------------------------------------------------

def expected_size(nb, ng, nc, d):
    """(n_g, n_b, n_c) of the level-d lift: the paper's closed form plus the
    C(nb, D) 2^D slacks of the order-D bound-factor rows, D = min(d+1, nb)."""
    D = min(d + 1, nb)
    extra = comb(nb, D) * 2 ** D
    n_g = 2 ** nb * (ng + 1) + 2 ** (d + 1) * comb(nb, d) * ng - nb - 1 + extra
    n_c = nc * sum(comb(nb, i) for i in range(d + 1)) \
        + 2 ** (d + 1) * comb(nb, d) * ng + extra
    return n_g, nb, n_c


def _bound_factor_products(x, y, nb, d):
    """Values of every order-D bound-factor product and of both order-d
    products per continuous factor, as one sorted array."""
    out = []
    for order, with_y in ((min(d + 1, nb), False), (d, True)):
        members = np.array(list(combinations(range(nb), order)))  # (k, order)
        ones = np.array(list(product((True, False), repeat=order)))  # (2^o, order)
        xm = x[members][:, None, :]
        f = np.where(ones[None], xm, 1.0 - xm).prod(axis=2).ravel()
        out.append(np.concatenate([np.outer(f, y).ravel(), np.outer(f, 1.0 - y).ravel()])
                   if with_y else f)
    return np.sort(np.concatenate(out))


def lifted_point(x, y, nb):
    """(y, w_J for |J| >= 2, v_Jk for |J| >= 1) in the column order that
    `rlt.RltVariableTable` documents: masks ascending, k inside J."""
    mono = np.array([np.prod(x[[j for j in range(nb) if m >> j & 1]])
                     for m in range(1 << nb)])
    w = [mono[m] for m in range(1 << nb) if m.bit_count() >= 2]
    v = [mono[m] * yk for m in range(1, 1 << nb) for yk in y]
    return np.concatenate([y, w, v])


def check_lift(H, d, X, points, tol=1e-9):
    """Size and lifted factor points of X = rlt_sharpen(H, d).

    H is a 01-form hybrid zonotope and `points` are feasible factor points
    (x binary, y in [0,1]) of it.  Each point is lifted by its products; the
    slack of each bound-factor row is read from its row, and the slacks
    together must equal the bound-factor products of the point.
    """
    bad = []
    nb, ng, nc = H.n_b, H.n_g, H.n_c
    want = expected_size(nb, ng, nc, d)
    got = (X.n_g, X.n_b, X.n_c)
    if got != want:
        return [f"n_b={nb} d={d}: size {got}, expected {want}"]
    n_fixed = ng + (2 ** nb - nb - 1) + (2 ** nb - 1) * ng
    n_slack = X.n_g - n_fixed
    # Two probe columns find each row's slack in the same product as the
    # points: a row whose only slack entry is a at column j gives
    # e1 = a (j+1) and e2 = a (j+1)^2, so j+1 = e2/e1 and a = e1^2/e2 = -1.
    idx = np.arange(1.0, n_slack + 1.0)
    Z = np.zeros((X.n_g, len(points) + 2))
    for j, (x, y) in enumerate(points):
        Z[:n_fixed, j] = lifted_point(x, y, nb)
    Z[n_fixed:, -2] = idx
    Z[n_fixed:, -1] = idx ** 2
    AZ = X.Ac @ Z
    e1, e2 = AZ[:, -2], AZ[:, -1]
    has = e1 != 0.0
    pos = e2[has] / e1[has]
    col = np.rint(pos).astype(int) - 1
    rows = np.full(n_slack, -1)
    if (np.count_nonzero(has) != n_slack or np.any(np.abs(pos - col - 1) > 1e-9)
            or np.any(np.abs(e1[has] ** 2 / e2[has] + 1.0) > 1e-9)
            or np.any(col < 0) or np.any(col >= n_slack)):
        return [f"n_b={nb} d={d}: slack columns do not match their rows"]
    rows[col] = np.flatnonzero(has)
    if np.any(rows < 0):
        return [f"n_b={nb} d={d}: slack columns do not match their rows"]
    plain = ~has
    xs = np.column_stack([x for x, _ in points])
    lhs = AZ[:, :len(points)] + X.Ab @ xs - X.b[:, None]
    for j, (x, y) in enumerate(points):
        slacks = lhs[rows, j]
        miss = np.max(np.abs(lhs[plain, j]), initial=0.0)
        if miss > tol:
            bad.append(f"n_b={nb} d={d}: lifted point misses an equality by {miss}")
        if np.any(slacks < -tol) or np.any(slacks > 1 + tol):
            bad.append(f"n_b={nb} d={d}: a slack leaves [0, 1]")
        expect = _bound_factor_products(x, y, nb, d)
        if expect.shape != slacks.shape or np.max(np.abs(np.sort(slacks) - expect)) > tol:
            bad.append(f"n_b={nb} d={d}: slacks differ from the bound-factor products")
        Z[n_fixed:, j] = slacks
        ambient = X.Gc @ Z[:, j] + X.Gb @ x + X.c
        orig = H.Gc @ y + H.Gb @ x + H.c
        if np.max(np.abs(ambient - orig)) > tol:
            bad.append(f"n_b={nb} d={d}: lifted point projects to {ambient}, not {orig}")
    return bad
