"""LP-backed geometric oracles.

Support functions, membership, emptiness, empirical sharpness certification,
and 2D boundary/area extraction.  Hybrid zonotope queries decompose into
per-leaf LPs over the continuous factor box; convex queries are single LPs.
`check_sharpness` solves the relaxation first and runs leaf LPs only in the
directions where the relaxation's optimum is not already a point of a leaf
(binaries integral, the leaf's equalities met): on a sharp set that is
often none, and then no leaf LP runs.  In the other, open, directions each
leaf LP is a child of the relaxation's LP, its binary columns pinned, and
the kernel answers it by a dual pass from the relaxation's optimal basis,
the final state of that direction's row of the relaxation's batch
(`_simplex.Ladder.children`), with no start of its own on the leaf unless
no pass certifies it, when it gets the cold retry that any LP gets.

A set keeps the work that does not depend on the query: its leaves
(`core.leaves`), its relaxation (`algebra.convex_relaxation`) and, for each
constrained zonotope, the LP ladder of its factor box
(`ConstrainedZonotope.lp_ladder`), which holds the kernel's dual start for
the cost 0.  `support`, `support_point`, `boundary_2d`, `check_sharpness`
and `is_empty` all read that one start, so they make one start per region
per set object, and repeated queries on a set run phase 2 alone.
`contains` poses a new region per point, solves its elastic LP
(`_simplex.min_infeasibility`) and keeps nothing.  `support_point`,
`boundary_2d`, `contains` and `is_empty` still solve every leaf on its own
ladder.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from . import _simplex
from .core import (
    AnySet,
    ConstrainedZonotope,
    DEFAULT_LEAF_CAP,
    FactorForm,
    leaves,
)
from .errors import (DimensionMismatch, EmptySet, EnumerationCapExceeded,
                     NumericalFailure)

FEAS_TOL = _simplex.FEAS_TOL
SHARP_TOL = 1e-6
DEDUP_TOL = 1e-9  # boundary_2d: relative distance below which points merge


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LinearProgram:
    """min objective'x  s.t.  A_eq x = b_eq, lower <= x <= upper."""

    objective: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=np.float64).reshape(-1)
        lo = np.asarray(self.lower, dtype=np.float64).reshape(-1)
        up = np.asarray(self.upper, dtype=np.float64).reshape(-1)
        b = np.asarray(self.b_eq, dtype=np.float64).reshape(-1)
        A = np.asarray(self.A_eq, dtype=np.float64)
        if A.size == 0:
            A = A.reshape((b.shape[0], obj.shape[0]))
        if A.shape != (b.shape[0], obj.shape[0]):
            raise ValueError("A_eq must be (len(b_eq), len(objective))")
        if lo.shape != obj.shape or up.shape != obj.shape:
            raise ValueError("bounds must match objective length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(up))):
            raise ValueError("all bounds must be finite")
        if np.any(lo > up):
            raise ValueError("lower bounds must not exceed upper bounds")
        for name, arr in (("objective", obj), ("A_eq", A), ("b_eq", b),
                          ("lower", lo), ("upper", up)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class LpResult:
    status: LpStatus
    value: float | None = None
    point: np.ndarray | None = None


def solve_lp(p: LinearProgram) -> LpResult:
    st, obj, x = _simplex.solve_bounded(p.objective, p.A_eq, p.b_eq,
                                        p.lower, p.upper)
    if st == 0:
        return LpResult(LpStatus.OPTIMAL, obj, x)
    if st == 1:
        return LpResult(LpStatus.INFEASIBLE)
    raise NumericalFailure(f"simplex failed with status {st}")


# --- feasibility -----------------------------------------------------------

def _leaf_sets(S: AnySet, cap: int) -> list[ConstrainedZonotope]:
    if isinstance(S, ConstrainedZonotope):
        return [S]
    return [L for _, L in leaves(S, cap=cap)]


def is_feasible_cz(L: ConstrainedZonotope) -> bool:
    """Whether L's kept start, the one that `support` reads, is feasible:
    False when a Farkas ray proves that every point of the factor box
    misses L's equalities by more than FEAS_TOL*(1 + max|b|) in the
    1-norm, the certificate by which `support` raises EmptySet.  Raises
    NumericalFailure when no verdict is certified."""
    st = L.lp_ladder().solve_many(np.zeros((1, L.n_g)))[0][0]
    if st == 2:
        raise NumericalFailure("emptiness LP failed with status 2")
    return st == 0


def is_empty(S: AnySet, cap: int = DEFAULT_LEAF_CAP) -> bool:
    """Whether every leaf of S is certified empty (`is_feasible_cz`), by
    the kept start that `support` reads, so the two agree."""
    return all(not is_feasible_cz(L) for L in _leaf_sets(S, cap))


# --- support ---------------------------------------------------------------

def _factor_optima(L: ConstrainedZonotope, U: np.ndarray,
                   keep=None) -> list:
    """(value, factor point xi, parent) of L in each direction (row) of U,
    or None where the kernel certifies L empty; one batch of LPs over L's
    factor box (`Ladder.solve_iter`).  parent is None unless `keep(xi)`
    holds, decided as the row is answered; then it is the row's (verdict,
    final state), the state copied before the next row changes it, which
    `Ladder.children` takes as the parent of that direction's children.
    A certified infeasible last row makes every row None, as
    `Ladder.solve_many` answers such a batch; else a row of status 2
    raises NumericalFailure."""
    C = np.array([-(L.G.T @ u) for u in U])
    rows = []
    for verdict, state in L.lp_ladder().solve_iter(C):
        parent = None
        if verdict[0] == 0 and keep is not None and keep(verdict[2]):
            parent = verdict, tuple(a.copy() for a in state)
        rows.append((verdict, parent))
    if rows and rows[-1][0][0] == 1:
        return [None] * len(rows)
    out = []
    for u, ((st, obj, xi), parent) in zip(U, rows):
        if st != 0:
            raise NumericalFailure(f"support LP failed with status {st}")
        out.append((float(u @ L.c) - obj, xi, parent))
    return out


def _support_cz_many(L: ConstrainedZonotope, U: np.ndarray) -> list:
    """(value, point) of L in each direction (row) of U, or None where the
    kernel certifies L empty."""
    return [None if out is None else (out[0], L.G @ out[1] + L.c)
            for out in _factor_optima(L, U)]


def _support_points(leaf_list: list[ConstrainedZonotope], U: np.ndarray) -> list:
    """(value, point) of the union of leaf_list in each direction (row) of U,
    or None where every leaf is empty: leaf by leaf, the first leaf to reach
    the maximum wins."""
    best = [None] * len(U)
    for L in leaf_list:
        for i, out in enumerate(_support_cz_many(L, U)):
            if out is not None and (best[i] is None or out[0] > best[i][0]):
                best[i] = out
    return best


def _vector(v, S: AnySet, what: str) -> np.ndarray:
    """v as a float vector of length S.dim; DimensionMismatch for another
    length, ValueError for a NaN or infinite entry."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape[0] != S.dim:
        raise DimensionMismatch(f"{what} of length {v.shape[0]} for a set "
                                f"of dimension {S.dim}")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must have finite entries, got {v.tolist()}")
    return v


def support_point(S: AnySet, u, cap: int = DEFAULT_LEAF_CAP):
    """Support value and a maximizing point of S in direction u."""
    u = _vector(u, S, "direction").reshape(1, -1)
    out = _support_points(_leaf_sets(S, cap), u)[0]
    if out is None:
        raise EmptySet("support of an empty set")
    return out


def support(S: AnySet, u, cap: int = DEFAULT_LEAF_CAP) -> float:
    return support_point(S, u, cap=cap)[0]


# --- membership ------------------------------------------------------------

def _leaf_interval_hull(L: ConstrainedZonotope) -> tuple[np.ndarray, np.ndarray]:
    lo, up = L.factor_bounds()
    Gpos = np.maximum(L.G, 0.0)
    Gneg = np.minimum(L.G, 0.0)
    return (L.c + Gpos @ lo + Gneg @ up, L.c + Gpos @ up + Gneg @ lo)


def _cz_contains(L: ConstrainedZonotope, p: np.ndarray, tol: float) -> bool:
    A = np.vstack([L.G, L.A]) if L.n_c else L.G
    b = np.concatenate([p - L.c, L.b])
    threshold = tol * (1.0 + np.max(np.abs(b), initial=0.0))
    # p's distance from the interval hull, summed over the coordinates, is a
    # lower bound on the 1-norm miss of the G rows, so this rejects only
    # what the LP would
    hull_lo, hull_up = _leaf_interval_hull(L)
    if np.maximum(np.maximum(hull_lo - p, p - hull_up), 0.0).sum() > threshold:
        return False
    lo, up = L.factor_bounds()
    resid, _ = _simplex.min_infeasibility(A, b, lo, up, tol=tol)
    return resid <= threshold


def _check_tol(tol) -> None:
    """ValueError unless tol is a finite number >= 0."""
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def contains(S: AnySet, p, tol: float = 1e-6, cap: int = DEFAULT_LEAF_CAP) -> bool:
    """Whether p lies in S, up to a 1-norm miss of tol*(1 + max|b|) on a
    leaf's equalities.  Raises ValueError unless tol is a finite number
    >= 0."""
    _check_tol(tol)
    p = _vector(p, S, "point")
    return any(_cz_contains(L, p, tol) for L in _leaf_sets(S, cap))


# --- sharpness -------------------------------------------------------------

def _finite_or_none(v):
    v = float(v)
    return v if np.isfinite(v) else None


class SharpnessVerdict(enum.Enum):
    SHARP = "sharp"
    NOT_SHARP = "not_sharp"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SharpnessReport:
    directions: np.ndarray  # (n_dirs, n)
    relax_support: np.ndarray
    hull_support: np.ndarray
    closed: np.ndarray  # (n_dirs,) bool: answered by the relaxation alone
    max_gap: float
    verdict: SharpnessVerdict
    tol: float

    def to_obj(self) -> dict:
        """The report as a JSON-ready dict; a NaN or infinite number (an
        inconclusive check, a direction in which every leaf is empty)
        becomes None."""
        return {
            "verdict": self.verdict.value,
            "max_gap": _finite_or_none(self.max_gap),
            "tol": self.tol,
            "directions": self.directions.tolist(),
            "relax_support": [_finite_or_none(v) for v in self.relax_support],
            "hull_support": [_finite_or_none(v) for v in self.hull_support],
            "closed_by_relaxation": self.closed.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj())


def direction_set(n: int, n_dirs: int, seed: int = 0) -> np.ndarray:
    """Deterministic direction sample: all +-axes, then low-discrepancy fill."""
    if n_dirs < 2 * n:
        n_dirs = 2 * n
    dirs = [np.eye(n)[i] for i in range(n)] + [-np.eye(n)[i] for i in range(n)]
    extra = n_dirs - 2 * n
    if n == 2:
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        for k in range(extra):
            th = 2.0 * np.pi * (((k + 1) * golden + seed * golden ** 2) % 1.0)
            dirs.append(np.array([np.cos(th), np.sin(th)]))
    else:
        rng = np.random.default_rng(seed)
        while extra > 0:
            v = rng.normal(size=n)
            nv = np.linalg.norm(v)
            if nv > 1e-9:
                dirs.append(v / nv)
                extra -= 1
    return np.asarray(dirs)


def _in_a_leaf(H: AnySet, R: ConstrainedZonotope, XI: np.ndarray) -> np.ndarray:
    """Whether each row of XI, a certified optimum of H's relaxation R over
    its factors (continuous, then binary), lies in a leaf of H.

    Its binaries, snapped to the nearer end of the binary domain, must each
    be within FEAS_TOL of that end, and the snapped point must satisfy the
    leaf's equality system Ac y + Ab x = b within the kernel's residual
    threshold (`_simplex.residual_tol`).  With no binaries the relaxation
    is H's one leaf, so every row lies in it.
    """
    n_b = 0 if isinstance(H, ConstrainedZonotope) else H.n_b
    if n_b == 0:
        return np.ones(len(XI), dtype=bool)
    lo, hi = H.binary_domain()
    x = XI[:, -n_b:]
    snapped = np.where(x - lo <= hi - x, lo, hi)
    integral = np.all(np.abs(x - snapped) <= FEAS_TOL, axis=1)
    resid = np.abs(np.hstack([XI[:, :-n_b], snapped]) @ R.A.T - R.b)
    return integral & np.all(resid <= _simplex.residual_tol(R.b), axis=1)


def _leaf_maxima(pairs: list, R: ConstrainedZonotope, U: np.ndarray,
                 parents: list) -> np.ndarray:
    """The support of the union of a hybrid zonotope's leaves, `pairs` from
    `leaves(H)`, in each direction (row) of U, -inf where every leaf is
    empty; R is H's relaxation, and parents[i] the (verdict, state) of R's
    LP in direction U[i] from `_factor_optima`.

    A leaf's LP is the LP of R with its binary factors, R's last n_b
    columns, pinned to the leaf's assignment.  So in each direction the
    leaves, in the order of `pairs`, are the children of R's LP, answered
    by the kernel's dual pass from that parent's optimal basis, or by a
    child's cold retry (`Ladder.children`).  A child that neither answers
    raises NumericalFailure.
    """
    V = np.array([a.as_array() for a, _ in pairs])
    cols = np.arange(R.n_g - V.shape[1], R.n_g)
    ladder = R.lp_ladder()
    values = np.full((len(U), len(pairs)), -np.inf)
    for i, (u, parent) in enumerate(zip(U, parents, strict=True)):
        offset = float(u @ R.c)
        for j, (st, obj, _) in enumerate(
                ladder.children(-(R.G.T @ u), cols, V, parent)):
            if st == 0:
                values[i, j] = offset - obj
            elif st != 1:
                raise NumericalFailure(f"leaf LP failed with status {st}")
    return np.max(values, axis=1)


def check_sharpness(H: AnySet, n_dirs: int = 64, tol: float = SHARP_TOL,
                    cap: int = DEFAULT_LEAF_CAP, seed: int = 0) -> SharpnessReport:
    """Compare support of the relaxation against the leafwise convex hull.

    The relaxation is solved first, in every direction.  A direction whose
    optimum lies in a leaf (`_in_a_leaf`: its binaries integral, the leaf's
    equalities met) is closed by the relaxation: that optimum is a point of
    H, so the hull's support is the relaxation's, and the gap is exactly 0.
    In each other, open, direction the hull's support is the maximum over
    the leaves, whose LPs are answered as children of the relaxation's LP
    by a dual pass from its optimal basis (`_leaf_maxima`).  That LP is
    solved once, in the batch: an open direction's row keeps a copy of its
    final state as the children's parent.  A check touches no leaf's LP
    ladder.  A set past the leaf cap is INCONCLUSIVE before any LP runs.

    Raises ValueError unless tol is a finite number >= 0.
    """
    from .algebra import convex_relaxation

    _check_tol(tol)
    dirs = direction_set(H.dim, n_dirs, seed)
    try:
        pairs = [] if isinstance(H, ConstrainedZonotope) else leaves(H, cap=cap)
    except EnumerationCapExceeded:
        nan = np.full(len(dirs), np.nan)
        return SharpnessReport(dirs, nan, nan, np.zeros(len(dirs), dtype=bool),
                               np.nan, SharpnessVerdict.INCONCLUSIVE, tol)
    R = convex_relaxation(H)
    # a direction is open, and keeps its row's state, exactly when its
    # optimum lies in no leaf
    relaxed = _factor_optima(R, dirs,
                             lambda xi: not _in_a_leaf(H, R, xi[None])[0])
    if any(out is None for out in relaxed):
        raise EmptySet("sharpness check on an empty set")
    rs = np.array([v for v, _, _ in relaxed])
    parents = [parent for _, _, parent in relaxed]
    closed = np.array([parent is None for parent in parents])
    hs = rs.copy()
    if not np.all(closed):
        hs[~closed] = _leaf_maxima(pairs, R, dirs[~closed],
                                   [p for p in parents if p is not None])
    max_gap = float(np.max(rs - hs))
    verdict = SharpnessVerdict.SHARP if max_gap <= tol else SharpnessVerdict.NOT_SHARP
    return SharpnessReport(dirs, rs, hs, closed, max_gap, verdict, tol)


# --- 2D boundary and area --------------------------------------------------

def boundary_2d(S: AnySet, n_angles: int = 64,
                cap: int = DEFAULT_LEAF_CAP) -> np.ndarray:
    """Counterclockwise polygon of support-touching points of a 2D set.

    The polygon is inscribed in the convex hull of S (S itself when S is
    convex); its accuracy improves with n_angles.  A point within
    DEDUP_TOL * (1 + max|point|) of the one before it is dropped.  Raises
    ValueError, before any LP runs, unless n_angles is a positive integer.
    """
    if S.dim != 2:
        raise ValueError("boundary_2d requires a 2D set")
    if not (isinstance(n_angles, (int, np.integer))
            and not isinstance(n_angles, bool) and n_angles >= 1):
        raise ValueError(f"n_angles must be a positive integer, got "
                         f"{n_angles!r}")
    U = np.array([[np.cos(th), np.sin(th)]
                  for th in (2.0 * np.pi * k / n_angles for k in range(n_angles))])
    best = _support_points(_leaf_sets(S, cap), U)
    if any(out is None for out in best):
        raise EmptySet("support of an empty set")
    # support points in the order of their directions run counterclockwise
    pts = np.array([p for _, p in best])
    scale = 1.0 + np.max(np.abs(pts))
    keep = [pts[0]]
    for p in pts[1:]:
        if np.linalg.norm(p - keep[-1]) > DEDUP_TOL * scale:
            keep.append(p)
    if len(keep) > 1 and np.linalg.norm(keep[0] - keep[-1]) <= DEDUP_TOL * scale:
        keep.pop()
    return np.asarray(keep)


def polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return float(0.5 * np.abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def area_2d(S: AnySet, n_angles: int = 256) -> float:
    """Shoelace area of the inscribed support polygon."""
    return polygon_area(boundary_2d(S, n_angles))


def polygon_to_csv(poly: np.ndarray) -> str:
    return "\n".join(f"{p[0]:.17g},{p[1]:.17g}" for p in poly) + ("\n" if len(poly) else "")
