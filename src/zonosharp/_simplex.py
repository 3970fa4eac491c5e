"""Bounded-variable primal simplex kernel.

This is the hot loop of the package: every support evaluation, membership
test, and emptiness check bottoms out here.  It is plain vectorised numpy.

Pricing is Dantzig (most violated reduced cost) with an automatic switch to
Bland's rule after a run of degenerate steps, which guarantees termination;
the dual pass below picks its leaving row and entering column the same way.
A fixed variable (equal bounds) is never priced, since its step can only be
0: neither the artificials that phase 2 pins to zero nor a structural
column with lo == up ever enters.
A pass keeps the explicit inverse of its basis, m x m, updated by one rank-1
product per pivot and rebuilt by LU every REFACTOR_EVERY pivots; reduced
costs and the entering column are priced from it.  That rebuild is the
kernel's only LU: a pass also reads its final values and its duals from
the inverse it carries (`_settle`, `_duals`), each with one step of
refinement, so a pass that needs no rebuild solves no linear system: one
`levelset_hull` pass of the benchmark solves none, where it solved 272
when each optimal row factorised its final basis twice.
A step of either loop keeps what a pivot barely changes instead of
rebuilding it: the mask of priced columns (nonbasic and movable) and the
sign of each column's bound, two entries per pivot, and the bounds and
costs of the basic variables, one entry (`_swap`); the rank-1 term of the
update goes into one buffer per loop.  No value changes: the pivots, x and
the inverse are those of loops that rebuild this state at every step, bit
for bit (`tests/test_simplex.py::TestLoopParity`).

Phase 1 minimises the total of one artificial variable per equality row.
It starts from a crash basis (Bixby 1992): a row that a singleton column
can satisfy within that column's bounds, with every other variable at its
lower bound, starts with that column basic and its artificial at zero, and
only the other rows start with their artificial basic.  Each bound-factor
row of an RLT lift has a singleton slack column.

A pass of the simplex only proposes a verdict, with the duals y of its
final basis read from the inverse it carries.  The entry points
(`solve_bounded_many`, `solve_bounded`, `min_infeasibility`) return it only
after checking it against the caller's original, unperturbed data.  Each
check is a proof for any y, so an inaccurate y, or a drifted inverse, can
only fail its certificate, never pass a wrong verdict:

- status 0, optimal: x is within the bounds and satisfies Ax = b to
  100*FEAS_TOL (scaled by the data), and the dual bound from y proves that
  c'x is within 100*FEAS_TOL*(1 + |c'x|) of the true optimum;
- status 1, infeasible: a Farkas ray y from the final phase-1 basis proves
  that every point of the box misses Ax = b by more than
  FEAS_TOL*(1 + max|b|) in the 1-norm;
- status 2, numerical failure: no rung of the retry ladder (the original
  problem, then tinily perturbed copies) produced a verdict that passed its
  certificate.

`min_infeasibility` certifies its residual in the same way: a small one by
the point it returns, a large one by a Farkas ray.

Every entry point climbs one retry ladder over one region (A, b, lo, up),
a `Ladder`.  Phase 1 does not depend on the cost, so each rung runs it
once per ladder, when a pass first climbs there, and the ladder keeps its
end.  The entry points on raw arrays climb a new ladder per call; a
constrained zonotope keeps the ladder of its factor box
(`ConstrainedZonotope.lp_ladder`), so phase 1 runs once per region per set
object, however many queries follow.  `solve_bounded_many` answers many
costs over one region, as the oracles' support LPs over many directions
ask.  On each rung, a cost starts phase 2 warm, from the final state of
the cost before it in the same call when that one was certified optimal:
only the cost differs, so that basis is still primal feasible.  The first
cost still open, and a cost after one that failed, start from a copy of
the phase-1 end; no phase-2 state carries over between calls.  A warm
answer may be another optimal vertex than a cold start finds, and is
certified the same way.  A warm pass that fails, or whose verdict fails its
certificate, is run once more from the phase-1 end on the same rung: the
basis it started from may be degenerate enough to stall it.  A cost whose
cold pass fails or whose verdict fails its certificate moves up to the
next rung, and a certified infeasible phase 1 answers every cost still
open.  `solve_bounded` is its one-cost case.  `min_infeasibility` reads
the phase-1 end of each rung and runs no phase 2.

`Ladder.children` answers the children of one LP: the same region with
chosen columns pinned to given values, as a leaf of a hybrid zonotope is
its relaxation with the binary factors pinned.  The parent, the LP without
pins, is solved on rung 0 from the kept phase-1 end; pinning changes no
cost and frees no column, so its optimal basis stays dual feasible for
every child, and a dual simplex pass (`_dual_pass`, `_dual_loop`) restores
primal feasibility from a copy of it, with no phase 1.  The pass ends
optimal, or with the row of a basic variable that no column can move back
into its bounds, whose row of the inverse is a candidate Farkas ray.  Its
proposal is certified by `_verdict` on the original A and b with the
pinned bounds, which is the child's LP exactly, so a child's verdict
certifies what the module's other verdicts do.  A child that is not
certified, and every child of a parent not certified on rung 0, is
returned as None, for the caller to answer on a ladder of its own.
"""

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure

FEAS_TOL = 1e-8  # the certificates' feasibility tolerance
OPT_TOL = 1e-9
PIV_TOL = 1e-9
DEGEN_SWITCH = 60  # consecutive degenerate pivots before switching to Bland
DEGEN_BAIL = 10000  # consecutive degenerate pivots before giving up
REFACTOR_EVERY = 100  # pivots between rebuilds of the basis inverse


@dataclass
class LpStats:
    """Counts of the kernel's work while an `lp_stats()` block is open.

    `pivots`, `degenerate` and `bland` are keyed by phase (1 or 2, or
    "dual" for the dual passes of `Ladder.children`) and count the steps of
    the simplex loops (a basis change or a bound flip): all of them, those
    whose step (primal, or dual in a dual pass) was no more than 1e-12, and
    those taken under Bland's rule.  `phase1_runs` counts the phase 1s run,
    and `phase1_reused` the rung starts read from a `Ladder` that had run that
    rung's phase 1 in an earlier call.  `artificials` lists, per phase-1
    start, the number of rows that start with an artificial basic variable.
    `rows` counts the LPs answered: each cost row of a `solve_bounded_many`
    batch and each `min_infeasibility` call that returns.  `rungs` counts
    the certified answers by the rung of the retry ladder that gave them,
    and `status` the answers of `solve_bounded_many` rows by status.
    `children` counts the children of `Ladder.children` that a dual pass
    answered with a certified verdict, and `child_fallbacks` those it left
    uncertified, which its caller answers on the child's own ladder.
    `max_residual` and `max_gap` are the largest primal residual and duality
    gap of an optimal verdict that its certificate accepted, each as a
    fraction of its threshold (so at most 1; 0 while none was accepted).
    """

    rows: int = 0
    phase1_runs: int = 0
    phase1_reused: int = 0
    artificials: list = field(default_factory=list)
    pivots: Counter = field(default_factory=Counter)
    degenerate: Counter = field(default_factory=Counter)
    bland: Counter = field(default_factory=Counter)
    refactors: int = 0
    children: int = 0
    child_fallbacks: int = 0
    rungs: Counter = field(default_factory=Counter)
    status: Counter = field(default_factory=Counter)
    max_residual: float = 0.0
    max_gap: float = 0.0

    def to_obj(self):
        """The counters as a JSON-ready dict; per-phase and per-rung keys
        become strings."""
        return {
            "rows": self.rows,
            "phase1_runs": self.phase1_runs,
            "phase1_reused": self.phase1_reused,
            "steps": {str(p): {"all": self.pivots[p],
                               "degenerate": self.degenerate[p],
                               "bland": self.bland[p]}
                      for p in (1, 2, "dual")},
            "refactors": self.refactors,
            "children": self.children,
            "child_fallbacks": self.child_fallbacks,
            "rungs": {str(k): v for k, v in sorted(self.rungs.items())},
            "status": {str(k): v for k, v in sorted(self.status.items())},
            "max_residual": self.max_residual,
            "max_gap": self.max_gap,
        }


_OPEN_STATS = []  # the LpStats of every open lp_stats() block


@contextmanager
def lp_stats():
    """Count the kernel's work inside the block: `with lp_stats() as s:`.

    Blocks may nest; each counts everything run inside it.  The counters
    are plain module state, so one thread at a time may use the kernel
    while a block is open.
    """
    stats = LpStats()
    _OPEN_STATS.append(stats)
    try:
        yield stats
    finally:
        _OPEN_STATS.remove(stats)


def _simplex_loop(Binv, A_all, b, x, L, U, basis, in_basis, at_upper, cost,
                  max_iter, phase):
    """Bounded-variable primal simplex from the basis `basis` with inverse
    Binv; every state array is changed in place.  Returns 0 optimal,
    2 failure or 3 unbounded."""
    m = Binv.shape[0]
    movable = U > L  # a fixed variable's step is always 0: never price it
    blowup = 1e9 * (1.0 + np.abs(U).max(initial=0.0))
    # kept up to date step by step (`_swap`): the columns priced, the sign
    # of each column's bound (+1 upper, -1 lower), and the basic variables'
    # bounds and costs
    priced, sign = movable & ~in_basis, np.where(at_upper, 1.0, -1.0)
    lB, uB, cB = L[basis], U[basis], cost[basis]
    t_arr, outer = np.empty(m), np.empty_like(Binv)
    degen = it = pivots_since_refactor = 0
    bland = False
    steps = degenerate = under_bland = refactors = 0
    status = 2
    while it < max_iter:
        it += 1
        if pivots_since_refactor >= REFACTOR_EVERY:
            # a singular basis cannot be repaired, so bail out and let the
            # driver retry on a perturbed problem
            if not _rebuild(Binv, A_all, b, x, basis):
                break
            pivots_since_refactor = 0
            refactors += 1
        # sign * rc is the rate at which a nonbasic column's move off its
        # bound lowers the cost: a violation where it exceeds OPT_TOL
        src = sign * (cost - (cB @ Binv) @ A_all)
        viol = np.where(priced & (src > OPT_TOL), src, -1.0)
        enter = int((viol > 0.0 if bland else viol).argmax())
        if viol[enter] <= 0.0:
            status = 0
            break
        sgn = -sign[enter]
        alpha = Binv @ A_all[:, enter]
        d = sgn * alpha
        xB = x[basis]
        ad = np.abs(d)
        t_arr.fill(np.inf)
        np.divide(np.where(d > 0.0, xB - lB, uB - xB), ad, out=t_arr,
                  where=ad > PIV_TOL)
        np.maximum(t_arr, 0.0, out=t_arr)
        t_basic = t_arr.min() if m > 0 else np.inf
        t_flip = U[enter] - L[enter]
        if t_basic == np.inf and t_flip == np.inf:
            status = 3
            break
        if t_flip < t_basic - 1e-12:
            # entering variable runs to its other bound; basis unchanged
            t = t_flip
            x[basis] = xB - t * d
            at_upper[enter] = up = not at_upper[enter]
            x[enter] = U[enter] if up else L[enter]
            sign[enter] = -sign[enter]
        else:
            t = t_basic
            cand = (t_arr <= t + 1e-9).nonzero()[0]
            if bland:
                # anti-cycling: leave the smallest variable index
                leave = cand[basis[cand].argmin()]
            else:
                # stability: pivot on the largest eligible element
                leave = cand[ad[cand].argmax()]
            lv = basis[leave]
            enter_val = x[enter] + sgn * t
            newxB = xB - t * d
            x[basis] = newxB
            up = not d[leave] > 0.0
            x[lv] = uB[leave] if up else lB[leave]
            _swap(leave, enter, lv, up, L, U, cost, movable, basis, in_basis,
                  at_upper, priced, sign, lB, uB, cB)
            x[enter] = enter_val
            if np.abs(newxB).max() > blowup:
                if pivots_since_refactor == 0:
                    break  # blew up right after a clean refactor: give up
                pivots_since_refactor = REFACTOR_EVERY  # refactor next
            _update_inverse(Binv, alpha, leave, outer)
            pivots_since_refactor += 1
        steps += 1
        under_bland += bland
        # a run of degenerate steps switches to Bland's rule until it ends
        degen = degen + 1 if t <= 1e-12 else 0
        degenerate += degen > 0
        bland = degen > DEGEN_SWITCH
        if degen > DEGEN_BAIL:
            break
    _count_steps(phase, steps, degenerate, under_bland, refactors)
    return status


def _dual_loop(Binv, A_all, b, x, L, U, basis, in_basis, at_upper, cost,
               max_iter):
    """Bounded-variable dual simplex from the basis `basis` with inverse
    Binv, dual feasible for `cost`; every state array is changed in place.

    Each step takes the basic variable furthest outside its bounds (by more
    than FEAS_TOL) out of the basis, onto the bound it violates.  Its row
    of B^-1 A_all is the pivot row, and the dual ratio test over the
    movable nonbasic columns picks the entering one, the largest pivot
    element among the ties, so that every reduced cost keeps its sign.
    Degenerate steps, the switch to Bland's rule (lowest index, for the
    leaving row and among the tied entering columns), the rebuild every
    REFACTOR_EVERY pivots and the blow-up guard are those of
    `_simplex_loop`.  Returns (status, row): 0 when every basic value is
    within its bounds, so the basis is optimal; 1 when no column can enter
    for the basic variable of `row`, whose row of Binv is then a candidate
    Farkas ray; 2 on failure.
    """
    movable = U > L
    blowup = 1e9 * (1.0 + np.abs(U).max(initial=0.0))
    priced, sign = movable & ~in_basis, np.where(at_upper, 1.0, -1.0)
    lB, uB, cB = L[basis], U[basis], cost[basis]
    ratio, outer = np.empty(U.shape[0]), np.empty_like(Binv)
    degen = it = pivots_since_refactor = 0
    bland = False
    steps = degenerate = under_bland = refactors = 0
    status, row = 2, -1
    while it < max_iter:
        it += 1
        if pivots_since_refactor >= REFACTOR_EVERY:
            if not _rebuild(Binv, A_all, b, x, basis):
                break
            pivots_since_refactor = 0
            refactors += 1
        xB = x[basis]
        below = lB - xB
        viol = np.maximum(below, xB - uB)
        cand = (viol > FEAS_TOL).nonzero()[0]
        if cand.shape[0] == 0:
            status = 0
            break
        if bland:
            leave = cand[basis[cand].argmin()]
        else:
            leave = cand[viol[cand].argmax()]
        # s = +1 when the leaving variable rises to its lower bound, -1 when
        # it falls to its upper one
        s = 1.0 if below[leave] > 0.0 else -1.0
        alpha_r = Binv[leave] @ A_all
        # a column at its lower bound can enter when it would rise, one at
        # its upper bound when it would fall: then its rate is positive, and
        # its ratio is the dual step at which its reduced cost reaches 0
        rate = sign * (s * alpha_r)
        room = np.maximum(-(sign * (cost - (cB @ Binv) @ A_all)), 0.0)
        eligible = priced & (rate > PIV_TOL)
        ratio.fill(np.inf)
        np.divide(room, rate, out=ratio, where=eligible)
        t = ratio.min()
        if t == np.inf:
            status, row = 1, leave
            break
        tie = ratio <= t + 1e-9
        enter = int((tie if bland
                     else np.where(tie, np.abs(alpha_r), -1.0)).argmax())
        alpha = Binv @ A_all[:, enter]
        lv = basis[leave]
        bound = lB[leave] if s > 0.0 else uB[leave]
        theta = (xB[leave] - bound) / alpha[leave]
        newxB = xB - theta * alpha
        x[basis] = newxB
        x[enter] += theta
        x[lv] = bound
        _swap(leave, enter, lv, s < 0.0, L, U, cost, movable, basis, in_basis,
              at_upper, priced, sign, lB, uB, cB)
        if np.abs(newxB).max() > blowup:
            if pivots_since_refactor == 0:
                break  # blew up right after a clean refactor: give up
            pivots_since_refactor = REFACTOR_EVERY  # refactor next
        _update_inverse(Binv, alpha, leave, outer)
        pivots_since_refactor += 1
        steps += 1
        under_bland += bland
        # a run of degenerate steps switches to Bland's rule until it ends
        degen = degen + 1 if t <= 1e-12 else 0
        degenerate += degen > 0
        bland = degen > DEGEN_SWITCH
        if degen > DEGEN_BAIL:
            break
    _count_steps("dual", steps, degenerate, under_bland, refactors)
    return status, row


def _swap(leave, enter, lv, up, L, U, cost, movable, basis, in_basis,
          at_upper, priced, sign, lB, uB, cB):
    """Column `enter` takes row `leave` of the basis from `lv`, which
    leaves onto its upper bound if `up`, else onto its lower one: the
    bookkeeping of a pivot, the values of x aside."""
    basis[leave] = enter
    in_basis[enter] = True
    in_basis[lv] = priced[enter] = at_upper[enter] = False
    priced[lv] = movable[lv]
    at_upper[lv] = up
    sign[lv] = 1.0 if up else -1.0
    lB[leave], uB[leave], cB[leave] = L[enter], U[enter], cost[enter]


def _count_steps(phase, steps, degenerate, under_bland, refactors):
    for stats in _OPEN_STATS:
        stats.pivots[phase] += steps
        stats.degenerate[phase] += degenerate
        stats.bland[phase] += under_bland
        stats.refactors += refactors


def _rebuild(Binv, A_all, b, x, basis):
    """Refactor the basis from scratch by LU, in place, to shed the error
    that the rank-1 updates accumulate: Binv and the basic values of x are
    solved again from the nonbasic ones.  False, with both unchanged, when
    the basis is singular."""
    m = Binv.shape[0]
    xn = x.copy()
    xn[basis] = 0.0
    sol = _lu_solve(A_all[:, basis],
                    np.column_stack([np.eye(m), b - A_all @ xn]))
    if sol is None:
        return False
    Binv[:, :] = sol[:, :m]
    x[basis] = sol[:, m]
    return True


def _update_inverse(Binv, alpha, leave, outer):
    """Rank-1 update of the inverse, in place, after the column with
    alpha = Binv a replaces the basic variable of row `leave`:
    B_new^{-1} = E B^{-1}.  `outer`, an array of Binv's shape, takes the
    rank-1 term, so that no step allocates one."""
    prow = Binv[leave] / alpha[leave]
    Binv -= np.multiply(alpha[:, None], prow, out=outer)
    Binv[leave] = prow


def _lu_solve(B, rhs):
    """Solve B X = rhs by LU; None when B is singular or X is not finite."""
    try:
        sol = np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError:
        return None
    return sol if np.all(np.isfinite(sol)) else None


def _settle(Binv, A_all, b, x, basis):
    """Put the basic values of x onto A_all x = b by one step from the
    carried inverse, x[basis] += Binv (b - A_all x), in place; False, with x
    unchanged, when the step is not finite.

    It sheds the drift of the pivots' updates of x.  With the exact inverse
    the step solves the basic system outright; with an inverse that is off
    by E = I - B Binv it leaves E times the residual it started from.
    """
    step = Binv @ (b - A_all @ x)
    if not np.isfinite(step).all():
        return False
    x[basis] += step
    return True


def _duals(Binv, A_all, basis, cost_B):
    """The duals y with y B = cost_B, B = A_all[:, basis], from the carried
    inverse and one step of refinement; None when they are not finite."""
    y = cost_B @ Binv
    y += (cost_B - y @ A_all[:, basis]) @ Binv
    return y if np.isfinite(y).all() else None


def _crash(A, r, lo, up):
    """The rows that a singleton column can start basic in, after Bixby.

    A column whose only nonzero a_ij is in row i, solved from row i with
    every other variable at lo, takes the value lo_j + r_i / a_ij (r = b -
    A lo).  Where that is within its bounds, the column covers row i.  Each
    covered row takes the covering column with the largest |a_ij|, then the
    lowest j.  A singleton column touches no other row, so the rows are
    covered independently.  Returns (rows, cols, values).
    """
    nz = A != 0.0
    single = np.flatnonzero(np.count_nonzero(nz, axis=0) == 1)
    rows = np.nonzero(nz[:, single].T)[1]  # the one nonzero of each column
    a = A[rows, single]
    v = lo[single] + r[rows] / a
    ok = (v >= lo[single]) & (v <= up[single])
    rows, cols, a, v = rows[ok], single[ok], a[ok], v[ok]
    order = np.lexsort((cols, -np.abs(a), rows))
    rows, first = np.unique(rows[order], return_index=True)
    pick = order[first]
    return rows, cols[pick], v[pick]


def _with_artificials(A, art_sign):
    """[A, diag(art_sign)]: the columns of A, then one artificial per row."""
    m, n = A.shape
    A_all = np.zeros((m, n + m))
    A_all[:, :n] = A
    A_all[np.arange(m), n + np.arange(m)] = art_sign
    return A_all


def _phase1(A, b, lo, up, max_iter):
    """Phase 1 of a region, from a crash basis.

    Every row has an artificial column, signed so that it starts at |r_i|
    (r = b - A lo), and phase 1 minimises their total.  A row covered by an
    in-bounds singleton column (`_crash`) starts with that column basic and
    its artificial nonbasic at zero; the other rows start with their
    artificial basic.  The start basis is diagonal, so its inverse is too.

    Returns the end (status, art_sign, state): status 0 when the
    artificials' total reached its minimum on a nonsingular basis, else 2.
    The columns of the region are A_all = [A, diag(art_sign)]
    (`_with_artificials`); state = (Binv, x, L, U, basis, in_basis,
    at_upper) are the arrays that a pass goes on to change, Binv the
    inverse of the basis columns A_all[:, basis].
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
    A_all = _with_artificials(A, art_sign)
    basis = n + np.arange(m)
    pivot = art_sign.copy()
    rows, cols, vals = _crash(A, r, lo, up)
    basis[rows] = cols
    pivot[rows] = A[rows, cols]
    x[cols] = vals
    x[n + rows] = 0.0
    Binv = np.diag(1.0 / pivot)
    in_basis = np.zeros(N, dtype=np.bool_)
    in_basis[basis] = True
    for stats in _OPEN_STATS:
        stats.phase1_runs += 1
        stats.artificials.append(m - len(rows))

    cost1 = np.zeros(N)
    cost1[n:] = 1.0
    st = _simplex_loop(Binv, A_all, b, x, L, U, basis, in_basis, at_upper,
                       cost1, max_iter, 1)
    ok = st == 0 and _settle(Binv, A_all, b, x, basis)
    return (0 if ok else 2), art_sign, (Binv, x, L, U, basis, in_basis,
                                        at_upper)


def _noise(n, seed):
    """Deterministic pseudo-noise in [-0.5, 0.5) (linear congruential)."""
    out = np.empty(n)
    s = seed
    for i in range(n):
        s = (1103515245 * s + 12345) % 2147483648
        out[i] = s / 2147483648.0 - 0.5
    return out


# --- retry ladder and certificates, on the original data ------------------

def _onto_original(A_all, b, lo, up, x, basis, Binv):
    """Carry the final point x of a perturbed pass over to the original data.

    Nonbasic variables sit on a perturbed bound and move to the original
    one, nonbasic artificials to 0; the basic values then take one step from
    the pass's inverse (`_settle`).  Returns the structural part, or None
    when the step is not finite.
    """
    n = lo.shape[0]
    onto = np.zeros_like(x)
    onto[:n] = np.clip(x[:n], lo, up)
    onto[basis] = x[basis]
    return onto[:n] if _settle(Binv, A_all, b, onto, basis) else None


def _rung_region(k, lo, up, max_iter):
    """Bounds, iteration budget and cost shift of rung k of the retry ladder.

    Rung 0 is the problem as given; rungs 1 to 5 are perturbed copies.  A
    pass can fail (a degenerate crawl ending in a drifted basis) or propose
    a verdict its certificate rejects (a phase 1 that stalls just above the
    feasibility threshold).  Shifting the objective and widening the bounds
    by O(1e-9) breaks the ties that cause the stall.
    """
    if k == 0:
        return lo, up, max_iter, None
    n = lo.shape[0]
    j = k - 1
    eps = 1e-9 * 10.0 ** (j // 2)
    lop = lo - eps * np.abs(_noise(n, 211 + 37 * j))
    upp = up + eps * np.abs(_noise(n, 307 + 37 * j))
    return lop, upp, 2 * max_iter, (eps, _noise(n, 101 + 37 * j))


def _pass(rung, c, A, b, lo, up, start=None):
    """One pass on a rung: phase 2 for the cost c, or nothing more when c
    is None.

    Phase 2 runs in place on `start`, the final state of an earlier pass on
    this rung, or on a copy of the end of its phase 1 when start is None.
    Only the cost differs between passes on a rung, so every such state is
    primal feasible.  Whether the region is infeasible is read from the
    phase-1 end in either case.

    Returns (proposal, state).  The proposal (status, x, y) holds the
    structural part of the final point and the duals of the final basis,
    both read from the basis inverse that the pass carries: after phase 2,
    the duals of the caller's cost c (status 0), and otherwise those of the
    phase-1 cost, a candidate Farkas ray (status 1, or c None).  y is None
    for status 2, which is also the status of a pass whose final values or
    duals are not finite.  Its status is a proposal that the caller still
    has to certify, with y as the certificate's duals.  The perturbed
    problem is not the caller's problem: the point of a perturbed rung is
    carried back onto the original bounds (`_onto_original`), and the
    caller certifies it on the original data.  state is the final state of
    phase 2 when it ended optimal, else None.
    """
    (st, A_all, phase1_end), max_iter, shift = rung
    m, n = A.shape
    Binv, x, basis = phase1_end[0], phase1_end[1], phase1_end[4]
    cost_B = (basis >= n).astype(np.float64)  # the phase-1 cost of the basis
    state = None
    if st == 0 and c is not None:
        # a sequential total: np.sum adds pairwise and rounds differently
        p1 = np.cumsum(np.abs(x[n:]))[-1] if m > 0 else 0.0
        scale = 1.0 + np.max(np.abs(b)) if m > 0 else 1.0
        if p1 > FEAS_TOL * scale:
            st = 1
        else:
            if start is None:
                start = tuple(a.copy() for a in phase1_end)
            Binv, x, L, U, basis, in_basis, at_upper = state = start
            # pin artificials at zero and optimize the true objective
            L[n:] = 0.0
            U[n:] = 0.0
            x[n:] = np.where(in_basis[n:], x[n:], 0.0)
            at_upper[n:] &= in_basis[n:]
            cost2 = np.zeros(n + m)
            cost2[:n] = c
            if shift is not None:
                eps, noise = shift
                cost2[:n] += eps * (1.0 + np.max(np.abs(c), initial=0.0)) * noise
            st = _simplex_loop(Binv, A_all, b, x, L, U, basis, in_basis,
                               at_upper, cost2, max_iter, 2)
            if st == 0 and not _settle(Binv, A_all, b, x, basis):
                st = 2
            # the duals of the caller's cost: the certificate's objective
            cost_B = np.append(c, np.zeros(m))[basis]
    point = x[:n].copy()
    if shift is not None and st == 0:
        point = _onto_original(A_all, b, lo, up, x, basis, Binv)
    y = _duals(Binv, A_all, basis, cost_B) if st in (0, 1) else None
    if point is None or y is None:
        st, point = 2, x[:n].copy()
    return (st, point, y), (state if st == 0 else None)


def _dual_pass(parent, A_all, b, c, cols, v, max_iter):
    """One dual pass: the LP of a parent's final phase-2 state, with the
    columns `cols` pinned to the values v.

    It runs on a copy of `parent`, an optimal state of phase 2 for the
    cost c on rung 0 (see `_pass`): the pinned columns get L = U = v, the
    nonbasic ones move to v, and the basic values are settled onto
    A_all x = b from the carried inverse (`_settle`).  Pinning changes no
    cost and frees no column, so the parent's basis stays dual feasible,
    and `_dual_loop` restores primal feasibility from it.

    Returns a proposal (status, x, y) as `_pass` does: for status 0 the
    duals of c, read from the final inverse; for status 1 the row of the
    final inverse at the basic variable that no column could move, a
    candidate Farkas ray; y is None for status 2.
    """
    m = A_all.shape[0]
    n = A_all.shape[1] - m
    Binv, x, L, U, basis, in_basis, at_upper = (a.copy() for a in parent)
    L[cols] = v
    U[cols] = v
    x[cols] = np.where(in_basis[cols], x[cols], v)
    cost = np.zeros(n + m)
    cost[:n] = c
    st, row = 2, -1
    if _settle(Binv, A_all, b, x, basis):
        st, row = _dual_loop(Binv, A_all, b, x, L, U, basis, in_basis,
                             at_upper, cost, max_iter)
    y = None
    if st == 0 and _settle(Binv, A_all, b, x, basis):
        y = _duals(Binv, A_all, basis, cost[basis])
    elif st == 1 and np.all(np.isfinite(Binv[row])):
        y = Binv[row].copy()
    return (2 if y is None else st), x[:n].copy(), y


def _farkas_bound(A, b, lo, up, y):
    """Lower bound on min ||Ax - b||_1 over the box, proven by the ray y.

    For every x in the box, y'Ax lies in [lo_y, hi_y], so |y'(Ax - b)| is at
    least the distance of y'b from that interval, and ||Ax - b||_1 is at
    least that distance over ||y||_inf.  Returns -inf when y proves nothing.
    """
    ny = np.abs(y).max(initial=0.0)
    if not ny > 0.0:
        return -np.inf
    a = A.T @ y
    lo_y = np.minimum(a * lo, a * up).sum()
    hi_y = np.maximum(a * lo, a * up).sum()
    yb = float(y @ b)
    return max(yb - hi_y, lo_y - yb) / ny


def _within_bounds(lo, up, x):
    bscale = 1.0 + max(np.abs(lo).max(initial=0.0),
                       np.abs(up).max(initial=0.0))
    bviol = np.maximum(lo - x, x - up).max(initial=0.0)
    return bviol <= 100.0 * FEAS_TOL * bscale


def _certified_optimal(c, A, b, lo, up, x, y):
    """Primal residual, bounds and duality gap of (x, y) on the original data.

    Returns (residual, gap), each as a fraction of its threshold, when all
    three checks pass, else None.  A NaN residual or gap fails its check.
    """
    resid = np.abs(A @ x - b).max(initial=0.0)
    resid_tol = 100.0 * FEAS_TOL * (1.0 + np.abs(b).max(initial=0.0))
    if not resid <= resid_tol or not _within_bounds(lo, up, x):
        return None
    obj = float(c @ x)
    r = c - A.T @ y
    gap = obj - (float(b @ y) + np.minimum(r * lo, r * up).sum())
    gap_tol = 100.0 * FEAS_TOL * (1.0 + abs(obj))
    if not gap <= gap_tol:
        return None
    return float(resid / resid_tol), float(gap / gap_tol)


def _verdict(c, A, b, lo, up, proposal):
    """(status, objective, x) of a pass's proposal once certified on the
    original data, or None when its certificate fails.

    The proposal's duals y enter only as a proof: weak duality bounds the
    optimum, and `_farkas_bound` the 1-norm miss, for every y.  So duals
    from a drifted inverse can fail a certificate but not pass a wrong
    verdict.
    """
    st, x, y = proposal
    if st == 0:
        margins = _certified_optimal(c, A, b, lo, up, x, y)
        if margins is not None:
            for stats in _OPEN_STATS:
                stats.max_residual = max(stats.max_residual, margins[0])
                stats.max_gap = max(stats.max_gap, margins[1])
            return 0, float(c @ x), x
    elif st == 1:
        infeas_tol = FEAS_TOL * (1.0 + np.max(np.abs(b), initial=0.0))
        if _farkas_bound(A, b, lo, up, y) > infeas_tol:
            return 1, 0.0, x
    return None


def _as_arrays(*arrays):
    return [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]


def _check_cost(C):
    """ValueError unless every entry of the costs C is finite."""
    if not np.isfinite(C).all():
        raise ValueError("a cost must have finite entries")


class Ladder:
    """The retry ladder of one region {x : Ax = b, lo <= x <= up}.

    It has six rungs, the problem as given and then five perturbed copies
    (`_rung_region`).  Rung k's phase 1 runs the first time a call climbs to
    it, and its end is kept for every later call on this object, since
    phase 1 does not depend on the cost.  A later call reads it from here
    (`LpStats.phase1_reused`) and runs its passes on copies of it.  Only
    phase-1 ends are kept, read-only: no state of a phase 2 outlives its
    call, so an answer does not depend on the calls made before it.  A rung
    keeps its phase-1 status, its artificial signs and its end, the basis
    inverse included, and every read returns that same end; the columns
    A_all = [A, diag(art_sign)], the largest array of a rung, are not kept
    but rebuilt from A and the signs on each read.  A pass may take
    200 (m + n) + 2000 steps on rung 0, and twice as many on a perturbed
    rung.  A ladder holds arrays and numbers only, so it pickles and
    deep-copies.
    """

    def __init__(self, A, b, lo, up):
        self.A, self.b, self.lo, self.up = _as_arrays(A, b, lo, up)
        self.max_iter = 200 * sum(self.A.shape) + 2000
        self._ends = [None] * 6  # per rung, once climbed to

    def __len__(self):
        return len(self._ends)

    def rung(self, k):
        """Rung k as ((phase-1 status, A_all, phase-1 end), iteration
        budget, cost shift); see `_phase1` and `_pass`.  Every read returns
        the same read-only end and a new A_all."""
        if self._ends[k] is None:
            lo, up, budget, shift = _rung_region(k, self.lo, self.up,
                                                 self.max_iter)
            st, art_sign, end = _phase1(self.A, self.b, lo, up, budget)
            for a in (art_sign, *end):
                a.setflags(write=False)
            self._ends[k] = st, art_sign, end, budget, shift
        else:
            for stats in _OPEN_STATS:
                stats.phase1_reused += 1
        st, art_sign, end, budget, shift = self._ends[k]
        return (st, _with_artificials(self.A, art_sign), end), budget, shift

    def solve_many(self, C):
        """`solve_bounded_many` over this region."""
        (C,) = _as_arrays(C)
        _check_cost(C)
        A, b, lo, up = self.A, self.b, self.lo, self.up
        if A.shape == (0, 0):
            return [(0, 0.0, np.zeros(0)) for _ in C]
        out = [None] * len(C)
        rung_of = [None] * len(C)  # the rung that certified each row
        todo = list(range(len(C)))
        for k in range(len(self)):
            rung = self.rung(k)
            failed = []
            warm = None  # the final state of the row before, if certified
            for i in todo:
                proposal, state = _pass(rung, C[i], A, b, lo, up, warm)
                verdict = _verdict(C[i], A, b, lo, up, proposal)
                if verdict is None and warm is not None:
                    # a warm start may crawl from a degenerate basis until
                    # its pass fails: retry from the phase-1 end first
                    proposal, state = _pass(rung, C[i], A, b, lo, up)
                    verdict = _verdict(C[i], A, b, lo, up, proposal)
                if verdict is None:
                    warm = None  # the failed pass changed it in place
                    failed.append(i)
                    out[i] = 2, 0.0, proposal[1]  # unless a later rung certifies
                elif verdict[0] == 1:
                    for j in todo:
                        out[j] = 1, 0.0, verdict[2].copy()
                        rung_of[j] = k
                    failed = []
                    break
                else:
                    out[i] = verdict
                    rung_of[i] = k
                    warm = state
            todo = failed
            if not todo:
                break
        for stats in _OPEN_STATS:
            stats.rows += len(C)
            stats.rungs.update(k for k in rung_of if k is not None)
            stats.status.update(st for st, _, _ in out)
        return out

    def children(self, c, cols, V):
        """min c'x over this region with the columns `cols` pinned to each
        row of V: one (status, objective, x) per row, or None where it is
        not certified.

        The parent is the LP without pins, solved on rung 0 from the kept
        phase-1 end.  Each child starts from a copy of the parent's certified
        optimal state and runs one dual pass (`_dual_pass`) on rung 0 alone,
        with no phase 1 and no ladder of its own.  Its proposal is
        certified by `_verdict` on the original A and b with lo and up
        pinned, which is the child's LP exactly, so a child that is not None
        is as certain as any answer of `solve_many`.  When the parent is
        not certified optimal on rung 0, every child is None.  No state
        outlives the call.  Raises ValueError, as `solve_many` does, for a
        cost with a NaN or infinite entry.
        """
        c, V = _as_arrays(c, V)
        _check_cost(c)
        cols = np.asarray(cols, dtype=np.intp)
        A, b, lo, up = self.A, self.b, self.lo, self.up
        out = [None] * len(V)
        rung = self.rung(0)
        proposal, parent = _pass(rung, c, A, b, lo, up)
        verdict = _verdict(c, A, b, lo, up, proposal)
        if verdict is not None and verdict[0] == 0:
            (_, A_all, _), budget, _ = rung
            for i, v in enumerate(V):
                lo_v, up_v = lo.copy(), up.copy()
                lo_v[cols] = v
                up_v[cols] = v
                proposal = _dual_pass(parent, A_all, b, c, cols, v, budget)
                out[i] = _verdict(c, A, b, lo_v, up_v, proposal)
        answered = sum(o is not None for o in out)
        for stats in _OPEN_STATS:
            stats.children += answered
            stats.child_fallbacks += len(out) - answered
        return out

    def min_infeasibility(self, tol=FEAS_TOL):
        """`min_infeasibility` over this region."""
        A, b, lo, up = self.A, self.b, self.lo, self.up
        m, n = A.shape
        if m == 0:
            return 0.0, lo.copy()
        if n == 0:
            return float(np.sum(np.abs(b))), np.zeros(0)
        t = tol * (1.0 + np.max(np.abs(b)))
        for k in range(len(self)):
            (st, x, y), _ = _pass(self.rung(k), None, A, b, lo, up)
            if st != 0 or not _within_bounds(lo, up, x):
                continue
            resid = float(np.sum(np.abs(A @ x - b)))
            if resid <= t or _farkas_bound(A, b, lo, up, y) > t:
                for stats in _OPEN_STATS:
                    stats.rows += 1
                    stats.rungs[k] += 1
                return resid, x
        raise NumericalFailure("phase 1 found neither a feasible point nor a "
                               "Farkas ray")


def solve_bounded(c, A, b, lo, up):
    """Solve min c'x s.t. Ax=b, lo<=x<=up (all bounds finite).

    Returns (status, objective, x) with status 0 optimal, 1 infeasible or
    2 numerical failure; what 0 and 1 certify is in the module docstring.
    Raises ValueError for a cost with a NaN or infinite entry.  It is the
    one-cost case of `solve_bounded_many`.
    """
    c = np.asarray(c, dtype=np.float64)
    return solve_bounded_many(c[None], A, b, lo, up)[0]


def solve_bounded_many(C, A, b, lo, up):
    """`solve_bounded` for each cost row of C over one feasible region.

    Returns one (status, objective, x) per row of C.  The rows climb the
    retry ladder together: each row still open gets a pass on a rung, and a
    row whose pass fails or whose verdict fails its certificate stays open
    for the next rung.  A row on a rung starts from the final state of the
    row before it when that row was certified optimal, else from the end of
    the rung's phase 1; a warm row that is not certified gets one more pass
    on the same rung, from the phase-1 end, before it climbs.  An
    infeasible verdict comes from phase 1 alone, so once certified it
    answers every row still open.  Status 2 means that the whole ladder
    failed for that row.  A cost row with a NaN or infinite entry raises
    ValueError before any pass runs.  Each call climbs a new `Ladder`;
    `Ladder.solve_many` answers on a kept one.
    """
    return Ladder(A, b, lo, up).solve_many(C)


def min_infeasibility(A, b, lo, up, tol=FEAS_TOL):
    """Phase-1 optimum: small total equality violation over the box.

    Returns (residual, x): x is in the box up to the bound tolerance of an
    optimal point, and residual = ||Ax - b||_1 on the original data.  The
    residual is certified against the threshold t = tol*(1 + max|b|) that
    callers compare it with: a residual <= t is witnessed by x, and a
    residual > t comes with a Farkas ray proving that every point of the box
    misses by more than t.  It bounds the minimal violation from above and
    can exceed it, since phase 1 fixes the sign of each row's violation to
    the sign of b - A lo, also on the rows whose crash column starts basic.
    Raises NumericalFailure when no rung of the retry ladder yields such a
    certificate.  Each call climbs a new `Ladder`;
    `Ladder.min_infeasibility` answers on a kept one.
    """
    return Ladder(A, b, lo, up).min_infeasibility(tol)
