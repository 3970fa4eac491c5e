"""Bounded-variable primal simplex kernel.

This is the hot loop of the package: every support evaluation, membership
test, and emptiness check bottoms out here.  It is plain vectorised numpy.

Pricing is Dantzig (most violated reduced cost) with an automatic switch to
Bland's rule after a run of degenerate steps, which guarantees termination.
Phase 1 uses one artificial variable per equality row.

A pass of the simplex only proposes a verdict.  The entry points
(`solve_bounded_many`, `solve_bounded`, `min_infeasibility`) return it only
after checking it against the caller's original, unperturbed data, with
duals recovered from the pass's final basis:

- status 0, optimal: x is within the bounds and satisfies Ax = b to
  100*feas_tol (scaled by the data), and the dual bound from y proves that
  c'x is within 100*feas_tol*(1 + |c'x|) of the true optimum;
- status 1, infeasible: a Farkas ray y from the final phase-1 basis proves
  that every point of the box misses Ax = b by more than
  feas_tol*(1 + max|b|) in the 1-norm;
- status 2, numerical failure: no rung of the retry ladder (the original
  problem, then tinily perturbed copies) produced a verdict that passed its
  certificate.

`min_infeasibility` certifies its residual in the same way: a small one by
the point it returns, a large one by a Farkas ray.

Every entry point climbs one retry ladder over one region (A, b, lo, up).
Phase 1 does not depend on the cost, so each rung runs it once, when a pass
first climbs there, and every pass on that rung starts from a copy of its
end: phase 2 for a cost, nothing more for `min_infeasibility`.
`solve_bounded_many` answers many costs over one region, as the oracles'
support LPs over many directions ask; a cost whose pass fails or whose
verdict fails its certificate moves up to the next rung, and a certified
infeasible phase 1 answers every cost still open.  `solve_bounded` is its
one-cost case.
"""

import numpy as np

from .errors import NumericalFailure

OPT_TOL = 1e-9
PIV_TOL = 1e-9
DEGEN_SWITCH = 60  # consecutive degenerate pivots before switching to Bland
DEGEN_BAIL = 10000  # consecutive degenerate pivots before giving up


def _simplex_loop(T, A_all, b, x, L, U, basis, in_basis, at_upper, cost, max_iter):
    m, N = T.shape
    degen = 0
    bland = False
    it = 0
    pivots_since_refactor = 0
    while it < max_iter:
        it += 1
        if pivots_since_refactor >= 100:
            # refactor from scratch to shed accumulated pivot error; a
            # singular basis cannot be repaired, so bail out and let the
            # driver retry on a perturbed problem
            xn = x.copy()
            xn[basis] = 0.0
            sol = _lu_solve(A_all[:, basis],
                            np.column_stack([A_all, b - A_all @ xn]))
            if sol is None:
                return 2
            T[:, :] = sol[:, :N]
            x[basis] = sol[:, N]
            pivots_since_refactor = 0
        cb = cost[basis]
        y = cb @ T
        rc = cost - y
        free = ~in_basis
        mask_low = free & (~at_upper) & (rc < -OPT_TOL)
        mask_up = free & at_upper & (rc > OPT_TOL)
        viol = np.where(mask_low, -rc, np.where(mask_up, rc, -1.0))
        if bland:
            cand = np.nonzero(viol > 0.0)[0]
            if cand.shape[0] == 0:
                return 0
            enter = cand[0]
        else:
            enter = int(np.argmax(viol))
            if viol[enter] <= 0.0:
                return 0
        sgn = -1.0 if at_upper[enter] else 1.0
        d = sgn * T[:, enter]

        xB = x[basis]
        lB = L[basis]
        uB = U[basis]
        pos = d > PIV_TOL
        neg = d < -PIV_TOL
        safe_pos = np.where(pos, d, 1.0)
        safe_neg = np.where(neg, -d, 1.0)
        t_arr = np.where(pos, (xB - lB) / safe_pos,
                         np.where(neg, (uB - xB) / safe_neg, np.inf))
        t_arr = np.maximum(t_arr, 0.0)
        t_basic = np.min(t_arr) if m > 0 else np.inf
        t_flip = U[enter] - L[enter]
        if t_basic == np.inf and t_flip == np.inf:
            return 3
        if t_flip < t_basic - 1e-12:
            # entering variable runs to its other bound; basis unchanged
            t = t_flip
            x[basis] = xB - t * d
            if at_upper[enter]:
                x[enter] = L[enter]
                at_upper[enter] = False
            else:
                x[enter] = U[enter]
                at_upper[enter] = True
            if t <= 1e-12:
                degen += 1
                if degen > DEGEN_SWITCH:
                    bland = True
                if degen > DEGEN_BAIL:
                    return 2
            else:
                degen = 0
                bland = False
            continue
        t = t_basic
        cand = np.nonzero(t_arr <= t + 1e-9)[0]
        if bland:
            # anti-cycling: leave the smallest variable index
            leave = cand[int(np.argmin(basis[cand]))]
        else:
            # stability: pivot on the largest eligible element
            leave = cand[int(np.argmax(np.abs(d[cand])))]
        lv = basis[leave]
        enter_val = x[enter] + sgn * t
        newxB = xB - t * d
        x[basis] = newxB
        if d[leave] > 0.0:
            x[lv] = L[lv]
            at_upper[lv] = False
        else:
            x[lv] = U[lv]
            at_upper[lv] = True
        basis[leave] = enter
        in_basis[enter] = True
        in_basis[lv] = False
        at_upper[enter] = False
        x[enter] = enter_val
        if np.max(np.abs(newxB)) > 1e9 * (1.0 + np.max(np.abs(U))):
            if pivots_since_refactor == 0:
                return 2  # blew up right after a clean refactor: give up
            pivots_since_refactor = 100  # force a refactor next iteration
        piv = T[leave, enter]
        prow = T[leave, :] / piv
        colv = T[:, enter].copy()
        T -= colv.reshape(-1, 1) * prow
        T[leave, :] = prow
        pivots_since_refactor += 1
        if t <= 1e-12:
            degen += 1
            if degen > DEGEN_SWITCH:
                bland = True
            if degen > DEGEN_BAIL:
                return 2
        else:
            degen = 0
            bland = False
    return 2


def _lu_solve(B, rhs):
    """Solve B X = rhs by LU; None when B is singular or X is not finite."""
    try:
        sol = np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError:
        return None
    return sol if np.all(np.isfinite(sol)) else None


def _refresh_basic_values(A_all, b, x, basis):
    """Re-solve the basic system to shed accumulated pivot drift; False when
    the basis is singular."""
    m = A_all.shape[0]
    if m == 0:
        return True
    xn = x.copy()
    xn[basis] = 0.0
    x_B = _lu_solve(A_all[:, basis], b - A_all @ xn)
    if x_B is None:
        return False
    x[basis] = x_B
    return True


def _phase1(A, b, lo, up, max_iter):
    """Phase 1 of a region, from the all-artificial basis.

    Returns the end (status, A_all, state): status 0 when the artificials'
    total reached its minimum on a nonsingular basis, else 2.  A_all is
    [A, diag(art_sign)]; state = (T, x, L, U, basis, in_basis, at_upper) are
    the arrays that a pass goes on to change.
    """
    m, n = A.shape
    N = n + m
    r = b - A @ lo
    # loose artificial bound: a tight bound would start every artificial at
    # its upper bound and block all progress with degenerate ratios
    art_cap = np.sum(np.abs(r)) + 1.0
    L = np.concatenate([lo, np.zeros(m)])
    U = np.concatenate([up, np.full(m, art_cap)])
    x = np.concatenate([lo, np.abs(r)])
    at_upper = np.zeros(N, dtype=np.bool_)
    art_sign = np.where(r >= 0.0, 1.0, -1.0)
    arts = np.arange(m)
    A_all = np.zeros((m, N))
    A_all[:, :n] = A
    A_all[arts, n + arts] = art_sign
    # T = B^{-1} A_all with B = diag(art_sign): scale row i by art_sign[i]
    T = art_sign[:, None] * A_all
    T[arts, n + arts] = 1.0
    basis = n + arts
    in_basis = np.zeros(N, dtype=np.bool_)
    in_basis[n:] = True

    cost1 = np.zeros(N)
    cost1[n:] = 1.0
    st = _simplex_loop(T, A_all, b, x, L, U, basis, in_basis, at_upper, cost1,
                       max_iter)
    ok = st == 0 and _refresh_basic_values(A_all, b, x, basis)
    return (0 if ok else 2), A_all, (T, x, L, U, basis, in_basis, at_upper)


def _noise(n, seed):
    """Deterministic pseudo-noise in [-0.5, 0.5) (linear congruential)."""
    out = np.empty(n)
    s = seed
    for i in range(n):
        s = (1103515245 * s + 12345) % 2147483648
        out[i] = s / 2147483648.0 - 0.5
    return out


# --- retry ladder and certificates, on the original data ------------------

def _solve(M, rhs):
    # LU is an order of magnitude cheaper than the SVD behind lstsq; what it
    # returns is checked by a certificate, never trusted
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, rhs, rcond=None)[0]


def _onto_original(A, b, lo, up, x, basis, A_all):
    """Carry the final basis of a perturbed pass over to the original data.

    Nonbasic variables sit on a perturbed bound and move to the original
    one; the basic values are solved for again.
    """
    n = A.shape[1]
    x = np.clip(x, lo, up)
    struct = basis[basis < n]
    x[struct] = 0.0
    x_B = _solve(A_all[:, basis], b - A @ x)
    x[struct] = x_B[basis < n]
    return x


def _rungs(A, b, lo, up, max_iter):
    """The retry ladder over one region: the problem as given, then perturbed.

    A pass can fail (a degenerate crawl ending in a drifted basis) or propose
    a verdict its certificate rejects (a phase 1 that stalls just above the
    feasibility threshold).  Shifting the objective and widening the bounds
    by O(1e-9) breaks the ties that cause the stall.  Yields each rung as
    (phase-1 end, iteration budget, cost shift); its phase 1 runs when the
    caller climbs to it.
    """
    yield _phase1(A, b, lo, up, max_iter), max_iter, None
    n = A.shape[1]
    for k in range(5):
        eps = 1e-9 * 10.0 ** (k // 2)
        lop = lo - eps * np.abs(_noise(n, 211 + 37 * k))
        upp = up + eps * np.abs(_noise(n, 307 + 37 * k))
        yield (_phase1(A, b, lop, upp, 2 * max_iter), 2 * max_iter,
               (eps, _noise(n, 101 + 37 * k)))


def _pass(rung, c, A, b, lo, up, feas_tol):
    """One pass on a rung, from a copy of the end of its phase 1: phase 2
    for the cost c, or nothing more when c is None.

    Returns (status, x, basis, A_all): the structural part of the final
    point, the final basis (indices >= n are artificial columns) and the
    columns [A, diag(art_sign)] it indexes, from which the caller recovers
    duals.  The status is a proposal that the caller still has to certify.
    The perturbed problem is not the caller's problem: the point of a
    perturbed rung is carried back onto the original bounds, and the caller
    certifies it on the original data.
    """
    (st, A_all, state), max_iter, shift = rung
    m, n = A.shape
    x, basis = state[1], state[4]
    if st == 0 and c is not None:
        # a sequential total: np.sum adds pairwise and rounds differently
        p1 = np.cumsum(np.abs(x[n:]))[-1] if m > 0 else 0.0
        scale = 1.0 + np.max(np.abs(b)) if m > 0 else 1.0
        if p1 > feas_tol * scale:
            st = 1
        else:
            if shift is not None:
                eps, noise = shift
                c = c + eps * (1.0 + np.max(np.abs(c), initial=0.0)) * noise
            # pin artificials at zero and optimize the true objective
            T, x, L, U, basis, in_basis, at_upper = (a.copy() for a in state)
            L[n:] = 0.0
            U[n:] = 0.0
            x[n:] = np.where(in_basis[n:], x[n:], 0.0)
            at_upper[n:] &= in_basis[n:]
            cost2 = np.zeros(n + m)
            cost2[:n] = c
            st = _simplex_loop(T, A_all, b, x, L, U, basis, in_basis, at_upper,
                               cost2, max_iter)
            if st == 0 and not _refresh_basic_values(A_all, b, x, basis):
                st = 2
    x = x[:n].copy()
    if shift is not None and st == 0:
        x = _onto_original(A, b, lo, up, x, basis, A_all)
    return st, x, basis, A_all


def _farkas_bound(A, b, lo, up, y):
    """Lower bound on min ||Ax - b||_1 over the box, proven by the ray y.

    For every x in the box, y'Ax lies in [lo_y, hi_y], so |y'(Ax - b)| is at
    least the distance of y'b from that interval, and ||Ax - b||_1 is at
    least that distance over ||y||_inf.  Returns -inf when y proves nothing.
    """
    ny = np.max(np.abs(y), initial=0.0)
    if not ny > 0.0:
        return -np.inf
    a = A.T @ y
    lo_y = np.sum(np.minimum(a * lo, a * up))
    hi_y = np.sum(np.maximum(a * lo, a * up))
    yb = float(y @ b)
    return max(yb - hi_y, lo_y - yb) / ny


def _proves_infeasible(A, b, lo, up, basis, A_all, tol):
    """Whether the duals of a final phase-1 basis are a Farkas ray showing
    that every point of the box misses Ax = b by more than tol in the 1-norm.
    """
    y = _solve(A_all[:, basis].T, (basis >= A.shape[1]).astype(np.float64))
    return _farkas_bound(A, b, lo, up, y) > tol


def _within_bounds(lo, up, x, feas_tol):
    bscale = 1.0 + max(np.max(np.abs(lo), initial=0.0),
                       np.max(np.abs(up), initial=0.0))
    bviol = np.max(np.maximum(lo - x, x - up), initial=0.0)
    return bviol <= 100.0 * feas_tol * bscale


def _certified_optimal(c, A, b, lo, up, x, y, feas_tol):
    """Primal residual, bounds and duality gap of (x, y) on the original data."""
    scale = 1.0 + np.max(np.abs(b), initial=0.0)
    if np.max(np.abs(A @ x - b), initial=0.0) > 100.0 * feas_tol * scale:
        return False
    if not _within_bounds(lo, up, x, feas_tol):
        return False
    obj = float(c @ x)
    r = c - A.T @ y
    dual = float(b @ y) + np.sum(np.minimum(r * lo, r * up))
    return obj - dual <= 100.0 * feas_tol * (1.0 + abs(obj))


def _verdict(c, A, b, lo, up, feas_tol, proposal):
    """(status, objective, x) of a pass's proposal once certified on the
    original data, or None when its certificate fails."""
    st, x, basis, A_all = proposal
    if st == 0:
        cost_B = np.append(c, np.zeros(A.shape[0]))[basis]
        y = _solve(A_all[:, basis].T, cost_B)
        if _certified_optimal(c, A, b, lo, up, x, y, feas_tol):
            return 0, float(c @ x), x
    elif st == 1:
        infeas_tol = feas_tol * (1.0 + np.max(np.abs(b), initial=0.0))
        if _proves_infeasible(A, b, lo, up, basis, A_all, infeas_tol):
            return 1, 0.0, x
    return None


def _as_arrays(*arrays):
    return [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]


def _default_max_iter(A, max_iter):
    return max_iter if max_iter > 0 else 200 * sum(A.shape) + 2000


def solve_bounded(c, A, b, lo, up, feas_tol=1e-8, max_iter=0):
    """Solve min c'x s.t. Ax=b, lo<=x<=up (all bounds finite).

    Returns (status, objective, x) with status 0 optimal, 1 infeasible or
    2 numerical failure; what 0 and 1 certify is in the module docstring.
    It is the one-cost case of `solve_bounded_many`.
    """
    c = np.asarray(c, dtype=np.float64)
    return solve_bounded_many(c[None], A, b, lo, up, feas_tol, max_iter)[0]


def solve_bounded_many(C, A, b, lo, up, feas_tol=1e-8, max_iter=0):
    """`solve_bounded` for each cost row of C over one feasible region.

    Returns one (status, objective, x) per row of C.  The rows climb the
    retry ladder together: each row still open gets a pass on a rung, and a
    row whose pass fails or whose verdict fails its certificate stays open
    for the next rung.  An infeasible verdict comes from phase 1 alone, so
    once certified it answers every row still open.  Status 2 means that
    the whole ladder failed for that row.
    """
    C, A, b, lo, up = _as_arrays(C, A, b, lo, up)
    max_iter = _default_max_iter(A, max_iter)
    if A.shape == (0, 0):
        return [(0, 0.0, np.zeros(0)) for _ in C]
    out = [None] * len(C)
    todo = list(range(len(C)))
    for rung in _rungs(A, b, lo, up, max_iter):
        failed = []
        for i in todo:
            proposal = _pass(rung, C[i], A, b, lo, up, feas_tol)
            verdict = _verdict(C[i], A, b, lo, up, feas_tol, proposal)
            if verdict is None:
                failed.append(i)
                verdict = 2, 0.0, proposal[1]  # unless a later rung certifies
            elif verdict[0] == 1:
                for j in todo:
                    out[j] = 1, 0.0, verdict[2].copy()
                return out
            out[i] = verdict
        todo = failed
        if not todo:
            break
    return out


def min_infeasibility(A, b, lo, up, tol=1e-8, max_iter=0):
    """Phase-1 optimum: small total equality violation over the box.

    Returns (residual, x): x is in the box up to the bound tolerance of an
    optimal point, and residual = ||Ax - b||_1 on the original data.  The
    residual is certified against the threshold t = tol*(1 + max|b|) that
    callers compare it with: a residual <= t is witnessed by x, and a
    residual > t comes with a Farkas ray proving that every point of the box
    misses by more than t.  It bounds the minimal violation from above and
    can exceed it, since phase 1 fixes the sign of each row's violation.
    Raises NumericalFailure when no rung of the retry ladder yields such a
    certificate.
    """
    A, b, lo, up = _as_arrays(A, b, lo, up)
    m, n = A.shape
    max_iter = _default_max_iter(A, max_iter)
    if m == 0:
        return 0.0, lo.copy()
    if n == 0:
        return float(np.sum(np.abs(b))), np.zeros(0)
    feas_tol = 1e-8
    t = tol * (1.0 + np.max(np.abs(b)))
    for rung in _rungs(A, b, lo, up, max_iter):
        st, x, basis, A_all = _pass(rung, None, A, b, lo, up, feas_tol)
        if st != 0 or not _within_bounds(lo, up, x, feas_tol):
            continue
        resid = float(np.sum(np.abs(A @ x - b)))
        if resid <= t or _proves_infeasible(A, b, lo, up, basis, A_all, t):
            return resid, x
    raise NumericalFailure("phase 1 found neither a feasible point nor a "
                           "Farkas ray")
