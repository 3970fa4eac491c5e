"""Bounded-variable simplex kernel.

This is the hot loop of the package: every support evaluation, membership
test, and emptiness check bottoms out here.  It is plain vectorised numpy.

Every pass runs one loop (`_loop`), and its state picks each step.
While some basic value lies outside its bounds by more than FEAS_TOL the
loop takes a dual step: that basic variable leaves onto its bound, and
the dual ratio test over its row of B^-1 A_all picks the entering column.
Otherwise it takes a primal step: the most violated reduced cost enters
(Dantzig), and the ratio test picks the leaving row or a bound flip.  When
neither step is possible, the basis is optimal.  Both follow the bounded
dual simplex of Koberstein 2005 and its primal counterpart, and share one
rank-1 update and one tie rule: each ratio test takes the largest pivot
element among its ties.  No pivot rule excludes a cycle; the loop ends
anyway: a run of more than DEGEN_BAIL degenerate steps, or the step
budget (`_max_iter`), ends the pass with status 2, uncertified, and the
LP then gets its cold retry, so a cycle can cost time, or end in status
2 when the cold retry fails too, but never in a wrong answer.  A fixed
variable (equal bounds) is never priced, since its step can only be 0:
neither an artificial, which is fixed at zero, nor a structural column
with lo == up ever enters.
The loop keeps the explicit inverse of its basis, m x m, updated by one
rank-1 product per pivot and rebuilt by LU every REFACTOR_EVERY pivots;
reduced costs, the entering column and the pivot row are read from it.
That rebuild is the kernel's only LU: a pass also reads its final values
and its duals from the inverse it carries (`_settle`, `_duals`), each with
one step of refinement, so a pass that needs no rebuild solves no linear
system.  A step keeps what a pivot barely changes instead of rebuilding
it: the mask of priced columns (nonbasic and movable) and the sign of
each column's bound, two entries per pivot, and the bounds and costs of
the basic variables, one entry (`_swap`); the rank-1 term of the update
goes into one buffer per run.  No value changes: the pivots, x and the
inverse are those of a loop that rebuilds this state at every step, bit
for bit (`tests/test_simplex.py::TestLoopParity`).

An LP starts cold by the dual simplex (`_start`; Koberstein 2005, Huangfu
& Hall 2018).  Its columns are A_all = [A, I], one artificial per row,
each fixed at zero.  The start basis is diagonal: a row that a singleton
column covers within that column's bounds (`_crash`, after Bixby 1992)
starts with that column basic, every other row with its artificial.  Each
nonbasic column sits at the bound its reduced cost favours, so the basis
is dual feasible, and each nonbasic cost is moved by a tiny amount away
from zero reduced cost, which keeps the dual steps off the degenerate
ties that the many zero costs of a support LP would make.  The loop then
drives every basic value into its bounds, an artificial to zero, by dual
steps, and ends optimal for the moved costs, or at a row that no column
can enter, whose row of the inverse is a candidate Farkas ray.  From an
optimal end the loop runs again on the true costs.  No phase 1 runs: the
end of the dual steps is primal feasible by construction.

A pass of the simplex only proposes a verdict, with the duals y of its
final basis read from the inverse it carries.  The entry points
(`solve_bounded_many`, `solve_bounded`, `min_infeasibility`) return it only
after checking it against the caller's original, unperturbed data.  Each
check is a proof for any y, so an inaccurate y, or a drifted inverse, can
only fail its certificate, never pass a wrong verdict:

- status 0, optimal: x is within the bounds and satisfies Ax = b to
  `residual_tol(b)` = 100*FEAS_TOL*(1 + max|b|), and the dual bound from
  y proves that c'x is within 100*FEAS_TOL*(1 + |c'x|) of the optimum;
- status 1, infeasible: a Farkas ray y proves that every point of the box
  misses Ax = b by more than FEAS_TOL*(1 + max|b|) in the 1-norm;
- status 2, numerical failure: neither the LP's one pass nor its cold
  retry produced a verdict that passed its certificate.

`min_infeasibility` solves the elastic LP, min sum(s+ + s-) subject to
Ax + s+ - s- = b over the box, by the same dual start, on no ladder, and
certifies its answer in the same way: a small miss by the point it
returns, a large one by a Farkas ray.

Every other entry point works on one region (A, b, lo, up), a `Ladder`.
A ladder keeps one start that does not depend on any cost: the dual start
for the cost 0, made the first time a call needs it.  The entry points on
raw arrays make a new ladder per call; a constrained zonotope keeps the
ladder of its factor box (`ConstrainedZonotope.lp_ladder`), so the start
is made once per region per set object, however many queries follow.

Every LP of a ladder is answered by one rule: one pass of the loop from
the nearest certified state, certified by `_verdict`, else its cold retry,
the dual start for its own cost and bounds, which is also what an LP with
no such state gets.  A certified infeasible start answers every LP.
`solve_bounded_many` answers many costs over one region, as the oracles'
support LPs over many directions ask.  A cost starts warm from the final
state of the cost before it in the same call when that one was certified
optimal: only the cost differs, so that basis is still primal feasible.
The first cost, and a cost after one that failed, start from a copy of
the kept start; no state carries over between calls.  A warm answer may
be another optimal vertex than a cold start finds, and is certified the
same way.  `solve_bounded` is the one-cost case.

`Ladder.children` answers the children of one LP: the same region with
chosen columns pinned to given values, as a leaf of a hybrid zonotope is
its relaxation with the binary factors pinned.  The parent, the LP without
pins, is solved as a first cost of `solve_bounded_many` is.  A child
starts from a copy of the parent's optimal state with its columns pinned
and its basic values settled (`_pinned`): pinning changes no cost and
frees no column, so the basis stays dual feasible, and the loop restores
primal feasibility by dual steps.  It ends optimal, or at the row of a
basic variable that no column can move back into its bounds, whose row of
the inverse is a candidate Farkas ray.  `_verdict` checks it on the
original A and b with the pinned bounds, which is the child's LP exactly.
A certified infeasible parent answers every child, whose box lies inside
its own.
"""

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure

FEAS_TOL = 1e-8  # the certificates' feasibility tolerance
OPT_TOL = 1e-9
PIV_TOL = 1e-9
DEGEN_BAIL = 10000  # consecutive degenerate pivots before giving up
REFACTOR_EVERY = 100  # pivots between rebuilds of the basis inverse
PERTURB = 1e-7  # the dual start's cost move, relative to 1 + max|c|
_GOLDEN = 0.6180339887498949  # frac(j * _GOLDEN) spreads the moves apart


@dataclass
class LpStats:
    """Counts of the kernel's work while an `lp_stats()` block is open.

    `pivots`, `by_dual` and `degenerate` are keyed by phase and count the
    steps of the simplex loop (a basis change or a bound flip): all of
    them, those that were dual steps, taken while a basic value was out of
    its bounds, and those whose step (primal or dual) was no more than
    1e-12.  Phase 1 is the dual starts, both their runs of the loop;
    phase 2 the passes from a start or from the row before; "dual" the
    passes of the children of `Ladder.children`.
    `phase1_runs` counts the dual starts made, and `phase1_reused` the
    reads of a start that a `Ladder` kept from an earlier call.
    `artificials` lists, per start, the number of rows that start with an
    artificial basic variable.  `rows` counts the LPs answered: each cost
    row of a `solve_bounded_many` batch and each `min_infeasibility` call
    that returns.  `children` counts the children that `Ladder.children`
    answers, one per row of pinned values.  `cold_retries` counts the LPs
    (batch rows, and the parents and children of `Ladder.children`)
    answered by their own cold start, since their one pass was not
    certified or had no start, and `status` the answers of
    `solve_bounded_many` rows by status.
    `max_residual` and `max_gap` are the largest primal residual and duality
    gap of an optimal verdict that its certificate accepted, each as a
    fraction of its threshold (so at most 1; 0 while none was accepted).
    """

    rows: int = 0
    phase1_runs: int = 0
    phase1_reused: int = 0
    artificials: list = field(default_factory=list)
    pivots: Counter = field(default_factory=Counter)
    by_dual: Counter = field(default_factory=Counter)
    degenerate: Counter = field(default_factory=Counter)
    refactors: int = 0
    children: int = 0
    cold_retries: int = 0
    status: Counter = field(default_factory=Counter)
    max_residual: float = 0.0
    max_gap: float = 0.0

    def to_obj(self):
        """The counters as a JSON-ready dict; per-phase and per-status keys
        become strings."""
        return {
            "rows": self.rows,
            "phase1_runs": self.phase1_runs,
            "phase1_reused": self.phase1_reused,
            "steps": {str(p): {"all": self.pivots[p],
                               "by_dual": self.by_dual[p],
                               "degenerate": self.degenerate[p]}
                      for p in (1, 2, "dual")},
            "refactors": self.refactors,
            "children": self.children,
            "cold_retries": self.cold_retries,
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


def _loop(Binv, A_all, b, x, L, U, basis, in_basis, at_upper, cost,
          max_iter, phase):
    """The bounded-variable simplex for `cost` from the basis `basis` with
    inverse Binv; every state array is changed in place.

    The state picks each step.  While some basic value lies outside its
    bounds by more than FEAS_TOL, a dual step: the basic variable furthest
    out leaves onto the bound it violates, its row of B^-1 A_all is the
    pivot row, and the dual ratio test over the movable nonbasic columns
    picks the entering one, the largest pivot element among the ties, so
    that no reduced cost changes sign.  Otherwise a primal step: the column
    with the most violated reduced cost enters, and the ratio test picks
    the leaving row, the largest pivot element among the ties, unless the
    entering column reaches its other bound first (a bound flip).  Returns
    (status, row): 0 when neither step is possible, so the basis is
    optimal; 1 when no column can enter for the basic variable of `row`,
    whose row of Binv is then a candidate Farkas ray; 2 on failure, which
    includes a run of more than DEGEN_BAIL degenerate steps of either kind
    and the end of the `max_iter` steps.  Its steps count under `phase`.
    """
    m = Binv.shape[0]
    movable = U > L  # a fixed variable's step is always 0: never price it
    blowup = 1e9 * (1.0 + np.abs(U).max(initial=0.0))
    # kept up to date step by step (`_swap`): the columns priced, the sign
    # of each column's bound (+1 upper, -1 lower), and the basic variables'
    # bounds and costs
    priced, sign = movable & ~in_basis, np.where(at_upper, 1.0, -1.0)
    lB, uB, cB = L[basis], U[basis], cost[basis]
    t_arr, ratio = np.empty(m), np.empty(U.shape[0])
    outer = np.empty_like(Binv)
    degen = it = pivots_since_refactor = 0
    steps = dual_steps = degenerate = refactors = 0
    status, row = 2, -1
    while it < max_iter:
        it += 1
        if pivots_since_refactor >= REFACTOR_EVERY:
            # a singular basis cannot be repaired, so bail out and let the
            # caller retry from a cold start
            if not _rebuild(Binv, A_all, b, x, basis):
                break
            pivots_since_refactor = 0
            refactors += 1
        xB = x[basis]
        # each basic value's room above its lower bound and below its upper
        room_lo, room_up = xB - lB, uB - xB
        short = np.minimum(room_lo, room_up)
        # sign * rc is the rate at which a nonbasic column's move off its
        # bound lowers the cost: a violation where it exceeds OPT_TOL
        src = sign * (cost - (cB @ Binv) @ A_all)
        flip = False
        if short.min(initial=0.0) < -FEAS_TOL:
            cand = (short < -FEAS_TOL).nonzero()[0]
            leave = cand[short[cand].argmin()]
            # the leaving variable rises to its lower bound, or falls to its
            # upper one when `up`
            up = not room_lo[leave] < 0.0
            s = -1.0 if up else 1.0
            alpha_r = Binv[leave] @ A_all
            # a column at its lower bound can enter when it would rise, one
            # at its upper bound when it would fall: then its rate is
            # positive, and its ratio is the dual step at which its reduced
            # cost reaches 0
            rate = sign * (s * alpha_r)
            eligible = priced & (rate > PIV_TOL)
            ratio.fill(np.inf)
            np.divide(np.maximum(-src, 0.0), rate, out=ratio, where=eligible)
            t = ratio.min()
            if t == np.inf:
                status, row = 1, leave
                break
            tie = ratio <= t + 1e-9
            enter = int(np.where(tie, np.abs(alpha_r), -1.0).argmax())
            alpha = Binv @ A_all[:, enter]
            bound = uB[leave] if up else lB[leave]
            theta = (xB[leave] - bound) / alpha[leave]
            dual_steps += 1
        else:
            viol = np.where(priced & (src > OPT_TOL), src, -1.0)
            enter = int(viol.argmax())
            if viol[enter] <= 0.0:
                status = 0
                break
            sgn = -sign[enter]
            alpha = Binv @ A_all[:, enter]
            d = sgn * alpha
            ad = np.abs(d)
            t_arr.fill(np.inf)
            np.divide(np.where(d > 0.0, room_lo, room_up), ad, out=t_arr,
                      where=ad > PIV_TOL)
            np.maximum(t_arr, 0.0, out=t_arr)
            t = t_arr.min(initial=np.inf)
            t_flip = U[enter] - L[enter]  # finite: every bound is
            flip = t_flip < t - 1e-12
            if flip:
                # entering variable runs to its other bound; basis unchanged
                t = t_flip
                x[basis] = xB - t * d
                at_upper[enter] = up = not at_upper[enter]
                x[enter] = U[enter] if up else L[enter]
                sign[enter] = -sign[enter]
            else:
                cand = (t_arr <= t + 1e-9).nonzero()[0]
                # for stability, the largest eligible pivot element
                leave = cand[ad[cand].argmax()]
                up = not d[leave] > 0.0
                theta = sgn * t
        if not flip:
            lv = basis[leave]
            newxB = xB - theta * alpha
            x[basis] = newxB
            x[enter] += theta
            x[lv] = uB[leave] if up else lB[leave]
            _swap(leave, enter, lv, up, L, U, cost, movable, basis, in_basis,
                  at_upper, priced, sign, lB, uB, cB)
            if np.abs(newxB).max() > blowup:
                if pivots_since_refactor == 0:
                    break  # blew up right after a clean refactor: give up
                pivots_since_refactor = REFACTOR_EVERY  # refactor next
            _update_inverse(Binv, alpha, leave, outer)
            pivots_since_refactor += 1
        steps += 1
        # a long enough run of degenerate steps may be a cycle: give up
        degen = degen + 1 if t <= 1e-12 else 0
        degenerate += degen > 0
        if degen > DEGEN_BAIL:
            break
    _count_steps(phase, steps, dual_steps, degenerate, refactors)
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


def _count_steps(phase, steps, dual_steps, degenerate, refactors):
    for stats in _OPEN_STATS:
        stats.pivots[phase] += steps
        stats.by_dual[phase] += dual_steps
        stats.degenerate[phase] += degenerate
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
    covered independently.  Returns (rows, cols).
    """
    nz = A != 0.0
    single = np.flatnonzero(np.count_nonzero(nz, axis=0) == 1)
    rows = np.nonzero(nz[:, single].T)[1]  # the one nonzero of each column
    a = A[rows, single]
    v = lo[single] + r[rows] / a
    ok = (v >= lo[single]) & (v <= up[single])
    rows, cols, a = rows[ok], single[ok], a[ok]
    order = np.lexsort((cols, -np.abs(a), rows))
    rows, first = np.unique(rows[order], return_index=True)
    return rows, cols[order[first]]


def _with_artificials(A):
    """[A, I]: the columns of A, then one artificial per row."""
    return np.hstack([A, np.eye(A.shape[0])])


def _proposal(st, row, Binv, A_all, b, x, basis, cost):
    """The proposal (status, x, y) of a loop that ended with status st.

    For status 0 the basic values are settled onto A_all x = b (`_settle`)
    and y are the duals of `cost`, the caller's true cost; for status 1 y
    is the row of the inverse at the basic variable of `row`, a candidate
    Farkas ray.  x is the structural part of the final point.  Any other
    status, or values or duals that are not finite, propose status 2 with
    y None.
    """
    y = None
    if st == 0 and _settle(Binv, A_all, b, x, basis):
        y = _duals(Binv, A_all, basis, cost[basis])
    elif st == 1 and np.isfinite(Binv[row]).all():
        y = Binv[row].copy()
    return (2 if y is None else st), x[:A_all.shape[1] - b.shape[0]].copy(), y


def _start(c, A, b, lo, up, max_iter):
    """The dual start: min c'x over {Ax = b, lo <= x <= up}, cold.

    The columns are A_all = [A, I] (`_with_artificials`), each artificial
    fixed at [0, 0].  The start basis is diagonal: the crash columns
    (`_crash`) in the rows they cover, the artificials in the others.  The
    cost of each nonbasic column is moved by delta_j = PERTURB * (1 +
    max|c|) * (1 + frac(j * _GOLDEN)) away from zero reduced cost, on the
    side of its reduced cost, and the column sits at the bound that side
    favours: lo for a reduced cost >= 0, up otherwise.  So the start is
    dual feasible for the moved costs, with no reduced cost at 0.  Its
    basic values are solved from the nonbasic ones, and `_loop` runs on
    the moved costs, by dual steps while a basic value is out of its
    bounds.  When it ends optimal, `_loop` runs again on the true costs
    from that basis.  Both runs count as phase 1.

    Returns (proposal, state): the proposal (status, x, y) of `_proposal`,
    and, when it is optimal, the final state (Binv, x, L, U, basis,
    in_basis, at_upper) over A_all, from which `_pass` runs another
    cost; else None.
    """
    m, n = A.shape
    N = n + m
    A_all = _with_artificials(A)
    L = np.concatenate([lo, np.zeros(m)])
    U = np.concatenate([up, np.zeros(m)])
    basis = n + np.arange(m)
    pivot = np.ones(m)
    rows, cols = _crash(A, b - A @ lo, lo, up)
    basis[rows] = cols
    pivot[rows] = A[rows, cols]
    Binv = np.diag(1.0 / pivot)
    in_basis = np.zeros(N, dtype=np.bool_)
    in_basis[basis] = True
    cost = np.zeros(N)
    cost[:n] = c
    d = cost - (cost[basis] @ Binv) @ A_all
    at_upper = ~in_basis & (d < 0.0)
    delta = PERTURB * (1.0 + np.abs(c).max(initial=0.0)) \
        * (1.0 + np.arange(N) * _GOLDEN % 1.0)
    moved = cost + np.where(in_basis, 0.0, np.where(at_upper, -delta, delta))
    x = np.where(at_upper, U, L)
    x[basis] = 0.0
    for stats in _OPEN_STATS:
        stats.phase1_runs += 1
        stats.artificials.append(m - len(rows))
    st, row = 2, -1
    if _settle(Binv, A_all, b, x, basis):
        st, row = _loop(Binv, A_all, b, x, L, U, basis, in_basis, at_upper,
                        moved, max_iter, 1)
    if st == 0:
        st, row = _loop(Binv, A_all, b, x, L, U, basis, in_basis, at_upper,
                        cost, max_iter, 1)
    proposal = _proposal(st, row, Binv, A_all, b, x, basis, cost)
    state = Binv, x, L, U, basis, in_basis, at_upper
    return proposal, (state if proposal[0] == 0 else None)


def _pass(start, c, A_all, b, max_iter, phase):
    """The loop for the cost c, in place on `start`, a state over A_all =
    [A, I] that `_start`, an earlier pass or `_pinned` left; its steps
    count under `phase`.  Returns (proposal, state) as `_start` does; state
    is `start` itself, changed, when the proposal is optimal, else None.
    """
    Binv, x, L, U, basis, in_basis, at_upper = start
    cost = np.zeros(A_all.shape[1])
    cost[:c.shape[0]] = c
    st, row = _loop(Binv, A_all, b, x, L, U, basis, in_basis, at_upper, cost,
                    max_iter, phase)
    proposal = _proposal(st, row, Binv, A_all, b, x, basis, cost)
    return proposal, (start if proposal[0] == 0 else None)


def _pinned(parent, A_all, b, cols, v):
    """A child's start: a copy of `parent`, a final optimal state, with the
    columns `cols` pinned to the values v: L = U = v, the nonbasic ones
    moved to v, and the basic values settled onto A_all x = b (`_settle`).
    Pinning changes no cost and frees no column, so the basis stays dual
    feasible.  None when the settle step is not finite."""
    state = tuple(a.copy() for a in parent)
    Binv, x, L, U, basis, in_basis, _ = state
    L[cols] = v
    U[cols] = v
    x[cols] = np.where(in_basis[cols], x[cols], v)
    return state if _settle(Binv, A_all, b, x, basis) else None


# --- certificates, on the original data ----------------------------------

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


def residual_tol(b):
    """The largest primal residual |Ax - b| that an optimal verdict may
    have: 100*FEAS_TOL*(1 + max|b|)."""
    return 100.0 * FEAS_TOL * (1.0 + np.abs(b).max(initial=0.0))


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
    resid_tol = residual_tol(b)
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


def _check_region(A, b, lo, up):
    """ValueError unless every entry of A, b, lo and up is finite and
    lo <= up."""
    if not all(np.isfinite(a).all() for a in (A, b, lo, up)):
        raise ValueError("a region must have finite entries")
    if (lo > up).any():
        raise ValueError("a region must have lo <= up")


def _max_iter(A):
    """The step budget of each loop run over the region of A, m x n:
    200 (m + n) + 2000."""
    return 200 * sum(A.shape) + 2000


def _cold(c, A, b, lo, up, max_iter):
    """(verdict, state) of the LP's own cold start, the dual start for c:
    state is the final state of a certified optimal verdict, else None, and
    a start that no certificate passes is (2, 0.0, x) for its x.  A
    certified verdict counts as a cold retry."""
    proposal, state = _start(c, A, b, lo, up, max_iter)
    verdict = _verdict(c, A, b, lo, up, proposal)
    if verdict is None:
        return (2, 0.0, proposal[1]), None
    for stats in _OPEN_STATS:
        stats.cold_retries += 1
    return verdict, (state if verdict[0] == 0 else None)


class Ladder:
    """The LP work of one region {x : Ax = b, lo <= x <= up}, kept between
    calls.

    A ladder keeps one start: the dual start (`_start`) for the cost 0,
    made the first time a call needs it, and kept with its certified
    verdict and, when optimal, its final state, read-only.  It does not
    depend on any cost, so every later call reads the same start
    (`LpStats.phase1_reused`) and runs its passes on copies of it.  Every
    LP is answered by `_answer`: one pass from the nearest certified
    state, else its cold retry, the dual start for its own cost and bounds
    (`_cold`), kept by no one.  No state of a pass outlives its call, so
    an answer does not depend on the calls made before it.
    The columns A_all = [A, I] are not kept but rebuilt from A on each
    call.  Every loop run may take `_max_iter(A)` steps.  A ladder holds
    arrays and numbers only, so it pickles and deep-copies.  Raises
    ValueError for a region with a NaN or infinite entry, or lo > up.
    """

    def __init__(self, A, b, lo, up):
        self.A, self.b, self.lo, self.up = _as_arrays(A, b, lo, up)
        _check_region(self.A, self.b, self.lo, self.up)
        self.max_iter = _max_iter(self.A)
        self._kept = None  # (verdict, state) of the kept start, once made

    def kept_start(self):
        """(verdict, state) of the kept start: the certified verdict of the
        dual start for the cost 0, or None, and its read-only final state
        when that verdict is optimal, else None.  Every read returns the
        same pair."""
        if self._kept is None:
            A, b, lo, up = self.A, self.b, self.lo, self.up
            zero = np.zeros(A.shape[1])
            proposal, state = _start(zero, A, b, lo, up, self.max_iter)
            verdict = _verdict(zero, A, b, lo, up, proposal)
            if verdict is None or verdict[0] != 0:
                state = None
            else:
                for a in state:
                    a.setflags(write=False)
            self._kept = verdict, state
        else:
            for stats in _OPEN_STATS:
                stats.phase1_reused += 1
        return self._kept

    def _answer(self, c, A_all, lo, up, start, phase):
        """(verdict, state) of min c'x over this region with the bounds lo
        and up: one `_pass` from `start`, its steps counted under `phase`,
        if `_verdict` certifies it, else the LP's cold retry (`_cold`), as
        when there is no start.  state is the final state of a certified
        optimal answer, else None."""
        A, b = self.A, self.b
        if start is not None:
            proposal, state = _pass(start, c, A_all, b, self.max_iter, phase)
            verdict = _verdict(c, A, b, lo, up, proposal)
            if verdict is not None:
                return verdict, state
        return _cold(c, A, b, lo, up, self.max_iter)

    def _row(self, c, A_all, kept, warm):
        """`_answer` for the cost c from `warm`, the state of the row
        before, else from a copy of the kept start; a certified infeasible
        kept start answers at once."""
        verdict, state = kept
        if verdict is not None and verdict[0] == 1:
            return verdict, None
        if warm is None and state is not None:
            warm = tuple(a.copy() for a in state)  # kept read-only
        return self._answer(c, A_all, self.lo, self.up, warm, 2)

    def solve_many(self, C):
        """`solve_bounded_many` over this region."""
        (C,) = _as_arrays(C)
        _check_cost(C)
        A = self.A
        if A.shape == (0, 0):
            return [(0, 0.0, np.zeros(0)) for _ in C]
        kept = self.kept_start()
        A_all = _with_artificials(A)
        out = []
        warm = None  # the final state of the row before, if certified
        for c in C:
            verdict, warm = self._row(c, A_all, kept, warm)
            if verdict[0] == 1:
                # infeasibility does not depend on the cost
                out = [(1, 0.0, verdict[2].copy()) for _ in C]
                break
            out.append(verdict)
        for stats in _OPEN_STATS:
            stats.rows += len(C)
            stats.status.update(st for st, _, _ in out)
        return out

    def children(self, c, cols, V):
        """min c'x over this region with the columns `cols` pinned to each
        row of V: one (status, objective, x) per row, with the statuses of
        `solve_many`.

        The parent is the LP without pins, answered as the first row of
        `solve_many` is.  A certified infeasible parent answers every
        child, since a child's box lies inside the parent's, so the
        parent's ray proves at least the same miss.  Each other child is
        answered by `_answer` from `_pinned(parent, ...)`, a copy of a
        certified optimal parent's final state with the child's pins, and
        certified on the original A and b with lo and up pinned, which is
        the child's LP exactly; status 2 means that its cold retry failed
        too.  No state outlives the call.
        Raises ValueError, as `solve_many` does, for a cost with a NaN or
        infinite entry, and for a NaN or infinite pinned value, before any
        pass runs.
        """
        c, V = _as_arrays(c, V)
        _check_cost(c)
        if not np.isfinite(V).all():
            raise ValueError("a pinned value must have finite entries")
        cols = np.asarray(cols, dtype=np.intp)
        A, b, lo, up = self.A, self.b, self.lo, self.up
        A_all = _with_artificials(A)
        verdict, parent = self._row(c, A_all, self.kept_start(), None)
        out = []
        for v in V:
            if verdict[0] == 1:
                out.append((1, 0.0, verdict[2].copy()))
                continue
            lo_v, up_v = lo.copy(), up.copy()
            lo_v[cols] = up_v[cols] = v
            start = None if parent is None else _pinned(parent, A_all, b,
                                                        cols, v)
            out.append(self._answer(c, A_all, lo_v, up_v, start, "dual")[0])
        for stats in _OPEN_STATS:
            stats.children += len(out)
        return out


def solve_bounded(c, A, b, lo, up):
    """Solve min c'x s.t. Ax=b, lo<=x<=up (all bounds finite).

    Returns (status, objective, x) with status 0 optimal, 1 infeasible or
    2 numerical failure; what 0 and 1 certify is in the module docstring.
    Raises ValueError for a NaN or infinite entry of c, A, b, lo or up, or
    lo > up.  It is the one-cost case of `solve_bounded_many`.
    """
    c = np.asarray(c, dtype=np.float64)
    return solve_bounded_many(c[None], A, b, lo, up)[0]


def solve_bounded_many(C, A, b, lo, up):
    """`solve_bounded` for each cost row of C over one feasible region.

    Returns one (status, objective, x) per row of C.  A row runs one pass
    from the final state of the row before it when that row was certified
    optimal, else from the region's kept start, the dual start for the
    cost 0.  A row whose pass is not certified, or that has no start, gets
    one cold retry, the dual start for its own cost.  An infeasible
    verdict does not depend on the cost, so once certified it answers
    every row.  Status 2 means that the cold retry failed too.  A NaN or
    infinite entry of C, A, b, lo or up, or lo > up, raises ValueError
    before any pass runs.  Each call makes a new `Ladder`;
    `Ladder.solve_many` answers on a kept one.
    """
    return Ladder(A, b, lo, up).solve_many(C)


def min_infeasibility(A, b, lo, up, tol=FEAS_TOL):
    """The least 1-norm miss of Ax = b over the box.

    Returns (residual, x): x is in the box up to the bound tolerance of an
    optimal point, and residual = ||Ax - b||_1 on the original data, the
    optimum of the elastic LP min sum(s+ + s-) subject to Ax + s+ - s- = b,
    solved over the columns [A, I, -I], each slack in [0, sum|b - A lo| +
    1], by one dual start.  The residual is certified against the
    threshold t = tol*(1 + max|b|) that callers compare it with: a residual
    <= t is witnessed by x, and a residual > t comes with a Farkas ray, the
    elastic LP's duals, proving that every point of the box misses by more
    than t.  Raises NumericalFailure when the elastic LP yields neither,
    and ValueError, before any pass, for a NaN or infinite entry of A, b,
    lo or up, or lo > up.  It keeps nothing between calls.
    """
    A, b, lo, up = _as_arrays(A, b, lo, up)
    _check_region(A, b, lo, up)
    m, n = A.shape
    if m == 0:
        return 0.0, lo.copy()
    if n == 0:
        return float(np.sum(np.abs(b))), np.zeros(0)
    eye = np.eye(m)
    cap = np.sum(np.abs(b - A @ lo)) + 1.0
    (st, x, y), _ = _start(
        np.concatenate([np.zeros(n), np.ones(2 * m)]),
        np.hstack([A, eye, -eye]), b,
        np.concatenate([lo, np.zeros(2 * m)]),
        np.concatenate([up, np.full(2 * m, cap)]), _max_iter(A))
    x = x[:n]
    resid = float(np.sum(np.abs(A @ x - b)))
    t = tol * (1.0 + np.max(np.abs(b)))
    witnessed = st == 0 and resid <= t and _within_bounds(lo, up, x)
    if witnessed or (st == 0 and _farkas_bound(A, b, lo, up, y) > t):
        for stats in _OPEN_STATS:
            stats.rows += 1
        return resid, x
    raise NumericalFailure("the elastic LP found neither a feasible point "
                           "nor a Farkas ray")
