"""Kernel-level LP tests.

Expected optima come from two independent oracles: exhaustive enumeration of
basic solutions (every choice of basic columns with every nonbasic variable
pinned to one of its bounds) for small problems, and hand-computable
geometry for the structured cases.
"""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from zonosharp import NumericalFailure, _simplex
from zonosharp._simplex import (DEGEN_BAIL, FEAS_TOL, OPT_TOL, PIV_TOL,
                               REFACTOR_EVERY)


def brute_force_lp(c, A, b, lo, up, tol=1e-9):
    """Enumerate all candidate vertices of {Ax=b, lo<=x<=up}.

    Returns (feasible, optimum).  Vertices of the bounded polytope have n-m
    variables at a bound and the rest solving the equality system.
    """
    m, n = A.shape
    best = None
    feasible = False
    if m == 0:
        x = np.where(c > 0, lo, up)
        return True, float(c @ x)
    for basic in itertools.combinations(range(n), m):
        B = A[:, list(basic)]
        if np.linalg.matrix_rank(B, tol=1e-10) < m:
            continue
        nonbasic = [j for j in range(n) if j not in basic]
        for bounds in itertools.product(*[(lo[j], up[j]) for j in nonbasic]):
            x = np.zeros(n)
            for j, v in zip(nonbasic, bounds):
                x[j] = v
            rhs = b - A[:, nonbasic] @ np.asarray(bounds)
            try:
                xb = np.linalg.solve(B, rhs)
            except np.linalg.LinAlgError:
                continue
            x[list(basic)] = xb
            if np.all(x >= lo - tol) and np.all(x <= up + tol):
                feasible = True
                val = float(c @ x)
                if best is None or val < best:
                    best = val
    return feasible, best


def small_random_lp(seed):
    """(c, A, b, lo, up): up to 3 rows and 5 columns, feasible by
    construction with probability 0.7 when there are rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(0, min(n, 3) + 1))
    A = rng.normal(size=(m, n))
    lo = rng.uniform(-2.0, 0.0, size=n)
    up = lo + rng.uniform(0.5, 2.0, size=n)
    if m and rng.random() < 0.7:
        x0 = rng.uniform(lo, up)
        b = A @ x0  # feasible by construction
    else:
        b = rng.normal(size=m)
    c = rng.normal(size=n)
    return c, A, b, lo, up


class TestKnownOptima:
    def test_box_only(self):
        c = np.array([1.0, -2.0, 0.5])
        st, obj, x = _simplex.solve_bounded(c, np.zeros((0, 3)), np.zeros(0),
                                            -np.ones(3), np.ones(3))
        assert st == 0
        assert obj == pytest.approx(-3.5)
        np.testing.assert_allclose(x, [-1.0, 1.0, -1.0])

    def test_single_equality(self):
        # min x1 + x2 s.t. x1 + x2 = 1 on [0,1]^2
        st, obj, x = _simplex.solve_bounded(
            np.ones(2), np.ones((1, 2)), np.ones(1), np.zeros(2), np.ones(2))
        assert st == 0 and obj == pytest.approx(1.0)

    def test_infeasible(self):
        # x1 + x2 = 3 impossible on [0,1]^2
        st, _, _ = _simplex.solve_bounded(
            np.ones(2), np.ones((1, 2)), np.array([3.0]),
            np.zeros(2), np.ones(2))
        assert st == 1

    def test_degenerate_rhs(self):
        # many variables forced to a single vertex
        n = 6
        A = np.ones((1, n))
        st, obj, x = _simplex.solve_bounded(
            np.arange(1.0, n + 1), A, np.zeros(1), np.zeros(n), np.ones(n))
        assert st == 0 and obj == pytest.approx(0.0)

    def test_redundant_rows(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        st, obj, _ = _simplex.solve_bounded(
            np.array([1.0, 2.0]), A, b, np.zeros(2), np.ones(2))
        assert st == 0 and obj == pytest.approx(1.0)


class TestRandomAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(30))
    def test_small_random(self, seed):
        c, A, b, lo, up = small_random_lp(seed)
        m = A.shape[0]
        feas, ref = brute_force_lp(c, A, b, lo, up)
        st, obj, x = _simplex.solve_bounded(c, A, b, lo, up)
        if feas:
            assert st == 0
            assert obj == pytest.approx(ref, abs=1e-6)
            assert np.all(x >= lo - 1e-6) and np.all(x <= up + 1e-6)
            if m:
                assert np.max(np.abs(A @ x - b)) < 1e-6
        else:
            assert st == 1


def ladder_children(ladder, c, cols, V):
    """`ladder.children(c, cols, V, parent)` with the parent answered as a
    one-row batch of `ladder.solve_iter`, as `check_sharpness` hands over
    an open direction's row."""
    parent = next(ladder.solve_iter(np.asarray(c, dtype=np.float64)[None]))
    return ladder.children(c, cols, V, parent)


def fake_near_miss(monkeypatch):
    """Route `_start` to proposals for {x in [lo, up] : x = 1 + 1e-7} with
    up = 1, whose point x = 1 misses by 1e-7: within `residual_tol(b)`,
    and above FEAS_TOL*(1 + max|b|).  A cost below 0 gets x = 1 with the
    dual -1, which the optimal certificate passes, a cost above 0 the ray
    1, which the infeasible certificate passes, and the cost 0 nothing
    certified."""
    def start(c, A, b, lo, up, max_iter):
        if c[0] < 0.0:
            return (0, np.ones(1), -np.ones(1)), None
        if c[0] > 0.0:
            return (1, lo.copy(), np.ones(1)), None
        return (2, lo.copy(), None), None
    monkeypatch.setattr(_simplex, "_start", start)


def _pinned(lo, up, cols, v):
    lo_v, up_v = lo.copy(), up.copy()
    lo_v[cols] = v
    up_v[cols] = v
    return lo_v, up_v


class TestDualPass:
    """`Ladder.children`: the LP of a region with some columns pinned,
    answered by a dual pass from the optimal basis of the LP without pins."""

    @pytest.mark.parametrize("seed", range(40))
    def test_small_random(self, seed):
        c, A, b, lo, up = small_random_lp(seed)
        cols = [0, 1]
        # every corner of the pinned columns, and their midpoint
        V = np.array(list(itertools.product(*[(lo[j], up[j]) for j in cols])))
        V = np.vstack([V, 0.5 * (lo[cols] + up[cols])])
        parent, _, _ = _simplex.solve_bounded(c, A, b, lo, up)
        out = ladder_children(_simplex.Ladder(A, b, lo, up), c, cols, V)
        for v, child in zip(V, out):
            lo_v, up_v = _pinned(lo, up, cols, v)
            feas, ref = brute_force_lp(c, A, b, lo_v, up_v)
            # a child's box lies in its parent's: an infeasible parent's
            # ray answers every child
            assert child[0] == (0 if feas else 1)
            assert parent == 0 or child[0] == 1
            if feas:
                st, obj, x = child
                assert obj == pytest.approx(ref, abs=1e-6)
                np.testing.assert_allclose(x[cols], v, rtol=0.0, atol=1e-6)
                assert np.all(x >= lo_v - 1e-6) and np.all(x <= up_v + 1e-6)
                if A.shape[0]:
                    assert np.max(np.abs(A @ x - b)) < 1e-6

    def test_binary_children_of_a_dense_region(self):
        # the shape of a leaf LP: a box region with binary-like columns,
        # feasible at one 0/1 assignment by construction
        rng = np.random.default_rng(0)
        m, n, nb = 20, 30, 4
        A = rng.normal(size=(m, n))
        lo, up = np.zeros(n), np.ones(n)
        x0 = rng.uniform(0.2, 0.8, size=n)
        x0[n - nb:] = rng.integers(0, 2, size=nb)
        b = A @ x0
        c = rng.normal(size=n)
        cols = np.arange(n - nb, n)
        V = np.array(list(itertools.product((0.0, 1.0), repeat=nb)))
        with _simplex.lp_stats() as stats:
            out = ladder_children(_simplex.Ladder(A, b, lo, up), c, cols, V)
        assert stats.phase1_runs == 1 and stats.cold_retries == 0
        assert stats.pivots["dual"] > 0
        statuses = set()
        for v, child in zip(V, out):
            ref = _simplex.solve_bounded(c, A, b, *_pinned(lo, up, cols, v))
            assert child[0] == ref[0]
            statuses.add(ref[0])
            if ref[0] == 0:
                assert abs(child[1] - ref[1]) <= 1e-9 * (1.0 + abs(ref[1]))
        assert statuses == {0, 1}

    def test_handed_parent_is_not_changed(self):
        # a batch row's state, handed over as the parent, is copied by each
        # child's start, so the children leave it as it was
        rng = np.random.default_rng(0)
        m, n, nb = 20, 30, 4
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0.2, 0.8, size=n)
        x0[n - nb:] = rng.integers(0, 2, size=nb)
        lo, up, c = np.zeros(n), np.ones(n), rng.normal(size=n)
        cols = np.arange(n - nb, n)
        V = np.array(list(itertools.product((0.0, 1.0), repeat=nb)))
        ladder = _simplex.Ladder(A, A @ x0, lo, up)
        parent = next(ladder.solve_iter(c[None]))
        before = [a.copy() for a in parent[1]]
        with _simplex.lp_stats() as stats:
            ladder.children(c, cols, V, parent)
        assert stats.pivots[2] == 0 and stats.pivots["dual"] > 0
        for a, b in zip(parent[1], before, strict=True):
            assert a.tobytes() == b.tobytes()


class TestMinInfeasibility:
    def test_feasible_system(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 8))
        x0 = rng.uniform(0, 1, size=8)
        resid, x = _simplex.min_infeasibility(A, A @ x0, np.zeros(8), np.ones(8))
        assert resid < 1e-8

    def test_infeasible_system(self):
        A = np.ones((1, 2))
        resid, _ = _simplex.min_infeasibility(A, np.array([5.0]),
                                              np.zeros(2), np.ones(2))
        assert resid == pytest.approx(3.0, abs=1e-7)

    def test_miss_is_the_least_1norm_miss(self):
        # |x - 1| + |x - 1| + |x - 0.2| over [0, 1] is least, 0.8, at x = 1;
        # a phase 1 that signs each row by b - A lo reported 1.6
        resid, x = _simplex.min_infeasibility(np.ones((3, 1)),
                                              np.array([1.0, 1.0, 0.2]),
                                              np.zeros(1), np.ones(1))
        assert resid == pytest.approx(0.8, abs=1e-12)
        np.testing.assert_allclose(x, [1.0], atol=1e-12)


class TestScale:
    def test_medium_dense(self):
        rng = np.random.default_rng(99)
        m, n = 60, 120
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0, 1, size=n)
        b = A @ x0
        c = rng.normal(size=n)
        st, obj, x = _simplex.solve_bounded(c, A, b, np.zeros(n), np.ones(n))
        assert st == 0
        assert obj <= c @ x0 + 1e-8
        assert np.max(np.abs(A @ x - b)) < 1e-6


class TestCertificates:
    """Verdicts of a simplex pass count only once certified on the original data."""

    # x1 + x2 = 1 on [0,1]^2 is feasible; min x1 + 2 x2 is 1 at (1, 0)
    LP = (np.array([1.0, 2.0]), np.ones((1, 2)), np.ones(1), np.zeros(2),
          np.ones(2))

    def test_uncertified_infeasible_is_retried(self, fake_pass):
        # the kept start proposes an infeasible region with no ray, so the
        # row gets its cold retry
        calls = fake_pass(1, first_only=True)
        with _simplex.lp_stats() as stats:
            st, obj, x = _simplex.solve_bounded(*self.LP)
        assert st == 0 and obj == pytest.approx(1.0)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-6)
        assert [name for name, _ in calls] == ["_start", "_start"]
        assert stats.cold_retries == 1

    def test_uncertifiable_infeasible_is_a_failure(self, fake_pass):
        fake_pass(1)
        st, _, _ = _simplex.solve_bounded(*self.LP)
        assert st == 2

    def test_residual_outside_the_box_raises(self, monkeypatch):
        # (2, -1) meets x1 + x2 = 1 exactly but is no point of the box, so
        # it witnesses nothing, and zero duals prove no miss either
        _, A, b, lo, up = self.LP

        def start(c, A_el, *rest):
            x = np.zeros(A_el.shape[1])
            x[:2] = [2.0, -1.0]
            return (0, x, np.zeros(1)), None
        monkeypatch.setattr(_simplex, "_start", start)
        with pytest.raises(NumericalFailure):
            _simplex.min_infeasibility(A, b, lo, up)

    def test_uncertifiable_residual_raises(self, fake_pass):
        # the elastic LP's point misses by 1 and its duals prove nothing
        _, A, b, lo, up = self.LP
        calls = fake_pass(0)
        with pytest.raises(NumericalFailure):
            _simplex.min_infeasibility(A, b, lo, up)
        assert len(calls) == 1

    def test_infeasible_row_answers_the_rows_before_it(self, monkeypatch):
        # both certificates pass on this region, so one batch can certify a
        # row optimal and a later row infeasible; infeasibility does not
        # depend on the cost, so it answers both rows
        region = (np.ones((1, 1)), np.array([1.0 + 1e-7]), np.zeros(1),
                  np.ones(1))
        fake_near_miss(monkeypatch)
        C = [[-1.0], [1.0]]
        rows = [v for v, _ in _simplex.Ladder(*region).solve_iter(C)]
        assert [st for st, _, _ in rows] == [0, 1]
        with _simplex.lp_stats() as stats:
            out = _simplex.solve_bounded_many(C, *region)
        assert [st for st, _, _ in out] == [1, 1]
        assert stats.rows == 2 and stats.status == Counter({1: 2})

    NONFINITE = [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]]

    @pytest.mark.parametrize("c", NONFINITE)
    def test_nonfinite_cost_raises_before_any_pass(self, c):
        # such a cost was once answered (0, nan, x) or (0, -inf, x)
        _, A, b, lo, up = self.LP
        with _simplex.lp_stats() as stats:
            with pytest.raises(ValueError, match="finite entries"):
                _simplex.solve_bounded(c, A, b, lo, up)
            with pytest.raises(ValueError, match="finite entries"):
                _simplex.solve_bounded_many([[1.0, 2.0], c], A, b, lo, up)
        assert stats.phase1_runs == 0 and stats.rows == 0
        ladder = _simplex.Ladder(A, b, lo, up)
        parent = next(ladder.solve_iter([self.LP[0]]))
        with _simplex.lp_stats() as stats:
            with pytest.raises(ValueError, match="finite entries"):
                ladder.children(c, [0], [[0.0]], parent)
        assert stats.phase1_runs == 0 and sum(stats.pivots.values()) == 0

    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
    def test_nonfinite_pin_raises_before_any_pass(self, v):
        # a NaN pin was once answered (2, 0.0, [nan, 0.0])
        c, A, b, lo, up = self.LP
        ladder = _simplex.Ladder(A, b, lo, up)
        parent = next(ladder.solve_iter([c]))
        with _simplex.lp_stats() as stats:
            with pytest.raises(ValueError, match="finite entries"):
                ladder.children(c, [0], [[0.0], [v]], parent)
        assert stats.phase1_runs == 0 and sum(stats.pivots.values()) == 0

    # the region (A, b, lo, up) of LP with one entry spoilt; lo > up has the
    # box [1, 0] in its second column
    BAD_REGIONS = {
        "nan-A": (np.array([[1.0, np.nan]]), np.ones(1), np.zeros(2),
                  np.ones(2)),
        "inf-b": (np.ones((1, 2)), np.array([np.inf]), np.zeros(2),
                  np.ones(2)),
        "nan-lo": (np.ones((1, 2)), np.ones(1), np.array([0.0, np.nan]),
                   np.ones(2)),
        "inf-up": (np.ones((1, 2)), np.ones(1), np.zeros(2),
                   np.array([1.0, np.inf])),
        "lo>up": (np.ones((1, 2)), np.ones(1), np.array([0.0, 1.0]),
                  np.array([1.0, 0.0])),
    }

    @pytest.mark.parametrize("name", list(BAD_REGIONS))
    def test_bad_region_raises_before_any_pass(self, name):
        # such a region was once answered (2, 0.0, x), with no error
        region = self.BAD_REGIONS[name]
        match = "lo <= up" if name == "lo>up" else "finite entries"
        with _simplex.lp_stats() as stats:
            with pytest.raises(ValueError, match=match):
                _simplex.solve_bounded(self.LP[0], *region)
            with pytest.raises(ValueError, match=match):
                _simplex.Ladder(*region)
            with pytest.raises(ValueError, match=match):
                _simplex.min_infeasibility(*region)
        assert stats.phase1_runs == 0 and stats.rows == 0

    def test_unbounded_box_raises(self):
        # min -x1 subject to x1 = x2 over [0, inf)^2 was answered
        # (2, 0.0, [0, inf])
        with pytest.raises(ValueError, match="finite entries"):
            _simplex.solve_bounded([-1.0, 0.0], [[1.0, -1.0]], [0.0],
                                   [0.0, 0.0], [np.inf, np.inf])

    @pytest.mark.parametrize("c", NONFINITE)
    def test_nan_gap_fails_the_certificate(self, c):
        # x = (0, 1) and y = 1 prove the optimum of the cost (2, 1); a
        # non-finite cost entry makes the gap NaN
        _, A, b, lo, up = self.LP
        x, y = np.array([0.0, 1.0]), np.array([1.0])
        assert _simplex._certified_optimal(np.array([2.0, 1.0]), A, b, lo, up,
                                           x, y) == (0.0, 0.0)
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN
            assert _simplex._certified_optimal(np.array(c), A, b, lo, up,
                                               x, y) is None

    def test_nan_residual_fails_the_certificate(self):
        _, A, b, lo, up = self.LP
        A = np.array([[np.nan, 1.0]])
        assert _simplex._certified_optimal(np.array([2.0, 1.0]), A, b, lo, up,
                                           np.array([0.0, 1.0]),
                                           np.array([1.0])) is None

    def test_farkas_bound_is_the_1norm_miss(self):
        # x1 + x2 = 3 on [0,1]^2 misses by 1 in the 1-norm
        A, b, lo, up = np.ones((1, 2)), np.array([3.0]), np.zeros(2), np.ones(2)
        assert _simplex._farkas_bound(A, b, lo, up, np.array([1.0])) == 1.0
        assert _simplex._farkas_bound(A, np.ones(1), lo, up, np.array([1.0])) < 0


def assert_same_batch(batch, lone, C, A, b, lo, up, duals):
    """A `solve_bounded_many` batch against one lone `solve_bounded` answer
    per cost row of C.

    The first row starts from the kept start, as a lone solve does, and
    equals its lone answer bit for bit.  A later row starts warm and may
    stop at another optimal vertex, so it must have the lone status and,
    when optimal, an objective within 1e-6 (1 + |obj|) of the lone one,
    attained by its x, and an x that passes the kernel's certificate on the
    original data with the optimal duals that `duals` gives for its cost.
    """
    assert len(batch) == len(lone) == len(C)
    assert batch[0][:2] == lone[0][:2]
    np.testing.assert_array_equal(batch[0][2], lone[0][2])
    for c, (st, obj, x), (st1, obj1, _), y in zip(C, batch, lone, duals):
        assert st == st1
        if st == 0:
            assert abs(obj - obj1) <= 1e-6 * (1.0 + abs(obj))
            assert float(c @ x) == obj
            assert _simplex._certified_optimal(c, A, b, lo, up, x, y)


class TestBatch:
    """`solve_bounded_many` makes one start, answers its first row exactly
    as `solve_bounded` does and every later row to the same optimum."""

    # the segment x1 + x2 = 1 on [0,1]^2, minimised in three directions;
    # the dual of min c'x on it is min(c1, c2)
    C = np.array([[1.0, 2.0], [2.0, 1.0], [-1.0, -1.0]])
    REGION = TestCertificates.LP[1:]

    def _lone(self, region):
        return [_simplex.solve_bounded(c, *region) for c in self.C]

    def assert_same(self, batch, lone, region):
        duals = [np.array([np.min(c)]) for c in self.C]
        assert_same_batch(batch, lone, self.C, *region, duals)

    def test_rows_match_lone_solves(self, phase1_runs):
        batch = _simplex.solve_bounded_many(self.C, *self.REGION)
        assert len(phase1_runs) == 1
        assert [r[1] for r in batch] == pytest.approx([1.0, 1.0, -1.0])
        self.assert_same(batch, self._lone(self.REGION), self.REGION)

    def test_failed_first_pass_falls_back_alone(self, fake_pass, phase1_runs):
        lone = self._lone(self.REGION)
        phase1_runs.clear()
        calls = fake_pass(2, passes={2})
        with _simplex.lp_stats() as stats:
            batch = _simplex.solve_bounded_many(self.C, *self.REGION)
        # run 2 is row 0's pass from the kept start; row 0 alone is then
        # answered by its cold retry, and rows 1 and 2 start warm from it
        assert [name for name, _ in calls] == \
            ["_start", "_pass", "_start", "_pass", "_pass"]
        assert len(phase1_runs) == 2 and stats.cold_retries == 1
        self.assert_same(batch, lone, self.REGION)

    def test_row_is_answered_by_its_cold_retry(self, fake_pass):
        # run 3 is row 1's warm pass; it fails, and row 1's answer is its
        # cold retry's, bit for bit; row 2 starts warm from that start's end
        fake_pass(2, passes={3})
        with _simplex.lp_stats() as stats:
            batch = _simplex.solve_bounded_many(self.C, *self.REGION)
        cold, _ = _simplex._cold(self.C[1], *self.REGION,
                                 _simplex._max_iter(self.REGION[0]))
        assert batch[1][:2] == cold[:2]
        np.testing.assert_array_equal(batch[1][2], cold[2])
        assert stats.cold_retries == 1 and stats.status == {0: 3}
        self.assert_same(batch, self._lone(self.REGION), self.REGION)

    def test_infeasible_region_answers_every_row(self, phase1_runs):
        # x1 + x2 = 3 is impossible on [0,1]^2
        region = (np.ones((1, 2)), np.array([3.0]), np.zeros(2), np.ones(2))
        batch = _simplex.solve_bounded_many(self.C, *region)
        assert [r[0] for r in batch] == [1, 1, 1]
        assert len(phase1_runs) == 1
        self.assert_same(batch, self._lone(region), region)

    def test_warm_failure_is_retried_cold_before_it_climbs(self, fake_pass,
                                                            phase1_runs):
        # run 3 is row 1's warm pass; the next run is row 1's own dual
        # start, with no pass from the kept start in between
        calls = fake_pass(2, passes={3})
        with _simplex.lp_stats() as stats:
            batch = _simplex.solve_bounded_many(self.C, *self.REGION)
        assert [name for name, _ in calls] == \
            ["_start", "_pass", "_pass", "_start", "_pass"]
        np.testing.assert_array_equal(calls[3][1][0], self.C[1])
        assert len(phase1_runs) == 2 and stats.cold_retries == 1
        self.assert_same(batch, self._lone(self.REGION), self.REGION)

    def test_row_after_a_failed_pass_starts_cold(self, monkeypatch,
                                                 fake_pass):
        # the second pass, row 1's warm one, wrecks the state it ran in
        # place on and reports a failure, and row 1's cold retry (run 4)
        # fails too: row 2 then starts from a new copy of the kept start,
        # as a lone solve does
        real = _simplex._pass
        starts = []

        def one_pass(start, *rest):
            starts.append(start)
            proposal, state = real(start, *rest)
            if len(starts) == 2:
                state[0][:] = np.nan  # the basis inverse
                return (2,) + proposal[1:], None
            return proposal, state
        monkeypatch.setattr(_simplex, "_pass", one_pass)
        calls = fake_pass(2, passes={4})
        with _simplex.lp_stats() as stats:
            batch = _simplex.solve_bounded_many(self.C, *self.REGION)
        assert [name for name, _ in calls] == \
            ["_start", "_pass", "_pass", "_start", "_pass"]
        assert len(starts) == 3 and starts[1] is starts[0]
        assert starts[2] is not starts[1]
        assert np.isfinite(starts[2][0]).all()
        assert [st for st, _, _ in batch] == [0, 2, 0]
        assert stats.cold_retries == 0
        lone = self._lone(self.REGION)
        for i in (0, 2):
            assert batch[i][:2] == lone[i][:2]
            np.testing.assert_array_equal(batch[i][2], lone[i][2])

    def test_kernel_failure_on_every_row(self, fake_pass):
        fake_pass(2)
        batch = _simplex.solve_bounded_many(self.C, *self.REGION)
        assert [r[0] for r in batch] == [2, 2, 2]


class TestLadder:
    """A `Ladder` makes its start once and hands every later call the same
    start, bit for bit."""

    def test_kept_end_is_the_phase1_end(self):
        # the kept start is the dual start for the cost 0, made once
        rng = np.random.default_rng(99)
        m, n = 60, 120
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0, 1, size=n)
        lo, up = np.zeros(n), np.ones(n)
        ladder = _simplex.Ladder(A, b, lo, up)
        with _simplex.lp_stats() as stats:
            verdict, end = ladder.kept_start()
            first = [a.copy() for a in end]
            verdict2, end2 = ladder.kept_start()
        assert verdict[0] == verdict2[0] == 0
        assert stats.phase1_runs == 1 and stats.phase1_reused == 1
        _, state = _simplex._start(np.zeros(n), A, b, lo, up, ladder.max_iter)
        for a, b, c in zip(first, end2, state, strict=True):
            assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_every_read_returns_the_same_read_only_end(self):
        ladder = _simplex.Ladder(*TestBatch.REGION)
        _, end = ladder.kept_start()
        _, end2 = ladder.kept_start()
        for a, b in zip(end, end2, strict=True):
            assert a is b and not a.flags.writeable

    def test_solves_match_fresh_ladders(self):
        # a kept ladder answers as one made for the call
        C = TestBatch.C
        ladder = _simplex.Ladder(*TestBatch.REGION)
        for _ in range(2):
            kept = ladder.solve_many(C)
            fresh = _simplex.solve_bounded_many(C, *TestBatch.REGION)
            for (st, obj, x), (st2, obj2, x2) in zip(kept, fresh, strict=True):
                assert (st, obj) == (st2, obj2) and x.tobytes() == x2.tobytes()


def _highs_optimum(c, A, b, lo, up):
    linprog = pytest.importorskip("scipy.optimize").linprog
    ref = linprog(c, A_eq=A, b_eq=b, bounds=np.column_stack([lo, up]),
                  method="highs")
    assert ref.status == 0, ref.message
    return ref.fun


class TestCrashBasis:
    """The dual start begins each row covered by an in-bounds singleton
    column with that column basic, and keeps B^-1 of the basis through its
    pivots."""

    def test_fully_covered_region_needs_no_phase1_pivot(self):
        # [M, I] with slack bounds wide enough that every slack, solved from
        # its row with the rest at lo, is within them
        rng = np.random.default_rng(5)
        m, k = 4, 6
        A = np.hstack([rng.normal(size=(m, k)), np.eye(m)])
        lo = np.concatenate([np.zeros(k), np.full(m, -50.0)])
        up = np.concatenate([np.ones(k), np.full(m, 50.0)])
        b = A @ rng.uniform(lo, up)
        c = rng.normal(size=k + m)
        with _simplex.lp_stats() as stats:
            st, obj, x = _simplex.solve_bounded(c, A, b, lo, up)
        assert stats.phase1_runs == 1 and stats.artificials == [0]
        assert stats.pivots[1] == 0
        assert st == 0 and stats.cold_retries == 0
        assert abs(obj - _highs_optimum(c, A, b, lo, up)) <= 1e-6 * (1 + abs(obj))

    def test_out_of_bounds_singleton_leaves_an_artificial(self):
        # x0 + x1 = 1.5 and x1 + x2 = 1 on [0,1]^3: the singleton x0 would
        # take 1.5 and cannot cover row 0; x2 takes 1 and covers row 1
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b, lo, up = np.array([1.5, 1.0]), np.zeros(3), np.ones(3)
        rows, cols = _simplex._crash(A, b - A @ lo, lo, up)
        assert rows.tolist() == [1] and cols.tolist() == [2]
        c = np.array([1.0, -1.0, 2.0])
        feas, ref = brute_force_lp(c, A, b, lo, up)
        with _simplex.lp_stats() as stats:
            st, obj, _ = _simplex.solve_bounded(c, A, b, lo, up)
        assert stats.artificials == [1]
        assert feas and st == 0 and obj == pytest.approx(ref, abs=1e-9)

    def test_covering_column_is_largest_then_lowest(self):
        # row 0 has the singletons x0..x3; row 1 has none
        A = np.array([[1.0, 2.0, 2.0, -4.0, 1.0], [0.0, 0.0, 0.0, 0.0, 1.0]])
        lo, up = np.zeros(5), np.full(5, 10.0)
        # x3 = -0.5 is out of bounds; of x1 = x2 = 1 the lower index wins
        rows, cols = _simplex._crash(A, np.array([2.0, 1.0]), lo, up)
        assert rows.tolist() == [0] and cols.tolist() == [1]
        # now only x3 = 0.5 is within its bounds
        rows, cols = _simplex._crash(A, np.array([-2.0, 1.0]), lo, up)
        assert rows.tolist() == [0] and cols.tolist() == [3]

    def test_infeasible_region_with_covered_rows_has_a_farkas_ray(self):
        # x0 + x1 = 0.5 is covered by x0 = 0.5; x1 + x2 = 2.5 is impossible
        # on [0,1]^3 and keeps its artificial
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b, lo, up = np.array([0.5, 2.5]), np.zeros(3), np.ones(3)
        with _simplex.lp_stats() as stats:
            st, _, _ = _simplex.solve_bounded(np.ones(3), A, b, lo, up)
        assert stats.artificials == [1] and stats.cold_retries == 0
        assert st == 1  # status 1 is returned only with a verified ray
        # the row of the inverse where the dual loop stopped is the ray
        (p1, _, y), state = _simplex._start(np.zeros(3), A, b, lo, up, 1000)
        assert p1 == 1 and state is None
        assert _simplex._farkas_bound(A, b, lo, up, y) > 0.49
        # the least 1-norm miss is 1, at x = (0, 1, 1) or (0, 0.5, 1): the
        # second row misses by at least 2.5 - 1 - x1, the first by x1 - 0.5
        resid, _ = _simplex.min_infeasibility(A, b, lo, up)
        assert resid == pytest.approx(1.0, abs=1e-12)

    def test_inverse_stays_the_basis_inverse(self):
        # a dense region has no singleton column: the dual start pivots
        # every artificial out, and its loops pass the refactor at
        # REFACTOR_EVERY pivots
        rng = np.random.default_rng(99)
        m, n = 60, 120
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0, 1, size=n)
        with _simplex.lp_stats() as stats:
            (st, _, _), state = _simplex._start(rng.normal(size=n), A, b,
                                                np.zeros(n), np.ones(n), 10000)
        assert st == 0 and stats.artificials == [m]
        assert stats.pivots[1] > _simplex.REFACTOR_EVERY
        assert stats.refactors >= 1
        # the state runs over the columns of A, then the artificials
        Binv, basis = state[0], state[4]
        A_all = np.hstack([A, np.eye(m)])
        np.testing.assert_allclose(Binv @ A_all[:, basis], np.eye(m),
                                   rtol=0, atol=1e-9)

    def test_demo_lift_is_mostly_covered(self):
        from zonosharp import (convex_relaxation, relugraph, rlt_sharpen)
        X = relugraph.level_set_above(relugraph.demo_network(), 0.5)
        R = convex_relaxation(rlt_sharpen(X, 1))
        lo, up = R.factor_bounds()
        assert R.A.shape == (113, 139)
        with _simplex.lp_stats() as stats:
            st, _, _ = _simplex.solve_bounded(-R.G[0], R.A, R.b, lo, up)
        assert st == 0
        assert stats.artificials[0] <= 21


class TestPricing:
    def test_fixed_column_never_enters(self):
        # x0 + x1 + x2 = 0 with x0 basic at 0 and x1 fixed at lo = up = 0:
        # x1's reduced cost -1 is violated, but its step can only be 0, so
        # the basis is already optimal; the state's last entry is the
        # row's artificial, fixed at zero and nonbasic
        A, b = np.ones((1, 3)), np.zeros(1)
        x, L, U = np.zeros(4), np.zeros(4), np.array([1.0, 0.0, 1.0, 0.0])
        basis = np.array([0])
        in_basis = np.array([True, False, False, False])
        at_upper = np.zeros(4, dtype=np.bool_)
        with _simplex.lp_stats() as stats:
            out = _simplex._loop(np.eye(1), A, b, x, L, U, basis, in_basis,
                                 at_upper, np.array([0.0, -1.0, 1.0, 0.0]),
                                 100, 2)
        assert out == (0, -1) and stats.pivots[2] == 0
        assert basis.tolist() == [0] and not at_upper.any()


class TestImplicitArtificials:
    """The kernel works on the region's own A: the artificial block of [A,
    I] is never built, so no call copies A."""

    def test_kernel_never_copies_a(self):
        # an 8 MB region: a dense block and one slack per row, in [-1e3,
        # 1e3] but for the first five, in [0, 1e3], zero at the point x0
        # that makes the region feasible; the rows whose slack would start
        # below 0 start with their artificial and take dual steps.  A copy
        # of A, or an [A, I], would take at least A.nbytes at once
        rng = np.random.default_rng(3)
        m, n = 50, 20000
        A = np.hstack([rng.normal(size=(m, n - m)), np.eye(m)])
        lo, up = np.zeros(n), np.ones(n)
        lo[n - m:], up[n - m:] = -1e3, 1e3
        lo[n - m:n - m + 5] = 0.0
        x0 = rng.uniform(0, 1, size=n)
        x0[n - m:n - m + 5] = 0.0
        ladder = _simplex.Ladder(A, A @ x0, lo, up)
        C = np.zeros((3, n))
        C[1, :5], C[2, 5:10] = rng.normal(size=5), rng.normal(size=5)
        tracemalloc.start()
        try:
            with _simplex.lp_stats() as stats:
                out = ladder.solve_many(C)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [st for st, _, _ in out] == [0, 0, 0]
        assert stats.artificials[0] > 0 and stats.by_dual[1] > 0
        assert peak < A.nbytes

    @pytest.mark.parametrize("b, st", [(0.0, 0), (1.0, 1)])
    def test_region_without_columns(self, b, st):
        # a leaf with no continuous factor: A is 1 x 0, so only the row's
        # artificial is left, and no column can be priced or enter
        out = _simplex.solve_bounded_many(np.zeros((2, 0)), np.ones((1, 0)),
                                          np.array([b]), np.zeros(0),
                                          np.zeros(0))
        assert [r[0] for r in out] == [st, st]


def _demo_lift():
    """The demo level set's d = 1 lift; its relaxation is 113 x 139."""
    from zonosharp import relugraph, rlt_sharpen
    X = relugraph.level_set_above(relugraph.demo_network(), 0.5)
    return rlt_sharpen(X, 1)


@pytest.fixture
def lu_solves(monkeypatch):
    """The number of `numpy.linalg.solve` calls made so far, as a list of
    one int."""
    count = [0]
    real = np.linalg.solve

    def solve(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "solve", solve)
    return count


def _scale_inverse(Binv):
    Binv *= 1.01


def _randomise_inverse(Binv):
    Binv[:] = np.random.default_rng(7).normal(size=Binv.shape)


SPOILS = [_scale_inverse, _randomise_inverse]


@pytest.fixture(scope="module")
def demo_batch():
    """(region, costs, certified answers) of 8 support LPs on the
    relaxation of the demo lift."""
    from zonosharp import convex_relaxation, direction_set
    R = convex_relaxation(_demo_lift())
    region = (R.A, R.b, *R.factor_bounds())
    C = np.array([-(R.G.T @ u) for u in direction_set(2, 8)])
    true = _simplex.solve_bounded_many(C, *region)
    assert [st for st, _, _ in true] == [0] * len(C)
    return region, C, true


class TestCarriedInverse:
    """A pass reads its final values and its duals from the basis inverse it
    carries: the only LU is the rebuild every REFACTOR_EVERY pivots, and an
    inverse gone wrong can fail a certificate but never pass a wrong
    verdict."""

    def test_no_lu_on_the_demo_lift(self, lu_solves):
        from zonosharp import boundary_2d, check_sharpness, convex_relaxation
        Xd = _demo_lift()
        with _simplex.lp_stats() as stats:
            check_sharpness(Xd, n_dirs=4, seed=0)
            boundary_2d(convex_relaxation(Xd), n_angles=16)
        assert stats.rows > 0 and stats.refactors == 0
        assert lu_solves[0] == stats.refactors

    def test_lu_only_in_the_rebuild(self, lu_solves):
        # a dense region pivots past REFACTOR_EVERY in phase 1
        rng = np.random.default_rng(99)
        m, n = 60, 120
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0, 1, size=n)
        with _simplex.lp_stats() as stats:
            st, _, _ = _simplex.solve_bounded(rng.normal(size=n), A, b,
                                              np.zeros(n), np.ones(n))
        assert st == 0 and stats.refactors >= 1
        assert lu_solves[0] == stats.refactors

    @staticmethod
    def _spoil_after(monkeypatch, spoil, phases):
        """Spoil the carried inverse at the end of every run of the loop in
        the given phases, before the pass reads its values and duals."""
        real = _simplex._loop

        def loop(Binv, *args):
            out = real(Binv, *args)
            if args[-1] in phases:
                spoil(Binv)
            return out
        monkeypatch.setattr(_simplex, "_loop", loop)

    @pytest.mark.parametrize("spoil", SPOILS)
    def test_wrong_inverse_is_rejected_or_right(self, monkeypatch, demo_batch,
                                                spoil):
        region, C, true = demo_batch
        self._spoil_after(monkeypatch, spoil, {2})
        ladder = _simplex.Ladder(*region)
        _, kept = ladder.kept_start()
        verdicts = [_simplex._verdict(c, *region, _simplex._pass(
            tuple(a.copy() for a in kept), c, ladder.A, ladder.b,
            ladder.max_iter, 2)[0]) for c in C]
        # a verdict passes only if its duals still prove its optimum
        assert any(v is None for v in verdicts)
        for v, (_, obj, _) in zip(verdicts, true):
            assert v is None or abs(v[1] - obj) <= 1e-6 * (1.0 + abs(obj))

    @pytest.mark.parametrize("spoil", SPOILS)
    def test_wrong_inverse_after_a_dual_pass_is_rejected_or_right(
            self, monkeypatch, spoil):
        from zonosharp import convex_relaxation, direction_set, leaves
        X = _demo_lift()
        R = convex_relaxation(X)
        lo, up = R.factor_bounds()
        cols = np.arange(X.n_g, X.n_g + X.n_b)
        V = np.array([a.as_array() for a, _ in leaves(X)])
        C = np.array([-(R.G.T @ u) for u in direction_set(2, 8)])
        true = [[_simplex.solve_bounded(c, R.A, R.b, *_pinned(lo, up, cols, v))
                 for v in V] for c in C]
        real = _simplex._loop

        def loop(Binv, *args):
            out = real(Binv, *args)
            if args[-1] == "dual":  # a dual pass, not a start or phase 2
                spoil(Binv)
            return out
        monkeypatch.setattr(_simplex, "_loop", loop)
        ladder = _simplex.Ladder(R.A, R.b, lo, up)
        with _simplex.lp_stats() as stats:
            verdicts = [v for c in C
                        for v in ladder_children(ladder, c, cols, V)]
        # a pass's verdict passes only if its duals or its ray still prove
        # it; a child whose verdict is rejected is answered by its cold
        # retry, whose runs of the loop are phase 1, unspoiled
        assert stats.cold_retries > 0
        for v, (st, obj, _) in zip(verdicts, [r for row in true for r in row]):
            assert st in (0, 1) and v[0] == st
            if st == 0:
                assert abs(v[1] - obj) <= 1e-6 * (1.0 + abs(obj))

    @pytest.mark.parametrize("spoil", SPOILS)
    def test_wrong_inverse_in_every_pass_is_never_a_wrong_answer(
            self, monkeypatch, demo_batch, spoil):
        region, C, true = demo_batch
        self._spoil_after(monkeypatch, spoil, {1, 2})
        batch = _simplex.solve_bounded_many(C, *region)
        assert any(st == 2 for st, _, _ in batch)
        for (st, obj, _), (_, ref, _) in zip(batch, true):
            assert st in (0, 2)
            assert st == 2 or abs(obj - ref) <= 1e-6 * (1.0 + abs(ref))


class TestCycleGuard:
    """No pivot rule excludes a cycle: a run of more than DEGEN_BAIL
    degenerate steps ends a pass with status 2, uncertified, and its LP is
    answered by its cold retry, never wrongly."""

    def test_bailed_passes_are_answered_by_their_cold_retries(
            self, monkeypatch, demo_batch):
        region, C, true = demo_batch
        # every pass from a start or from the row before bails at its first
        # degenerate step
        monkeypatch.setattr(_simplex, "DEGEN_BAIL", 0)
        with _simplex.lp_stats() as stats:
            batch = _simplex.solve_bounded_many(C, *region)
        assert stats.cold_retries == len(C)
        for (st, obj, _), (_, ref, _) in zip(batch, true):
            assert st in (0, 2)
            assert st == 2 or abs(obj - ref) <= 1e-9 * (1.0 + abs(ref))


# --- the loop against a reference ----------------------------------------
#
# The simplex loop as it stood before it kept its per-step state (priced
# columns, bound signs, basic bounds and costs) up to date between steps:
# every step rebuilds that state, and a dual or a primal step is picked by
# the kernel's rule, the primal step and the dual step being those of the
# two loops that the kernel had before they were merged.  As the kernel
# does, it prices, ratio-tests and forms pivot rows over the n columns of
# A alone, the artificials, fixed at zero, being the state's last m
# entries.  Only the names of the functions it calls, and the wording of
# some comments, differ.  The kernel's loop must take the same pivots to
# the same bits.

_REFERENCE_COUNTS = []  # (phase, steps, dual steps, degenerate,
#                          refactors) per run


def _reference_count_steps(*counts):
    _REFERENCE_COUNTS.append(counts)


def _reference_update_inverse(Binv, alpha, leave):
    """Rank-1 update of the inverse, in place, after the column with
    alpha = Binv a replaces the basic variable of row `leave`:
    B_new^{-1} = E B^{-1}."""
    prow = Binv[leave, :] / alpha[leave]
    # each entry of the rank-1 term is a sum of one product, 0 + a_i p_j,
    # as np.einsum forms it: a product of -0 enters as +0
    Binv -= 0.0 + alpha.reshape(-1, 1) * prow
    Binv[leave, :] = prow


def _reference_loop(Binv, A, b, x, L, U, basis, in_basis, at_upper,
                    cost, max_iter, phase):
    """Bounded-variable simplex from the basis `basis` with inverse Binv;
    every state array is changed in place.  A dual step while a basic value
    is outside its bounds by more than FEAS_TOL, else a primal step.
    Returns (status, row): 0 optimal, 1 when no column can enter for the
    basic variable of `row`, 2 failure."""
    m, n = A.shape
    movable = U > L  # a fixed variable's step is always 0: never price it
    blowup = 1e9 * (1.0 + np.max(np.abs(U), initial=0.0))
    degen = 0
    it = 0
    pivots_since_refactor = 0
    steps = dual_steps = degenerate = refactors = 0
    status, row = 2, -1
    while it < max_iter:
        it += 1
        if pivots_since_refactor >= REFACTOR_EVERY:
            # a singular basis cannot be repaired, so bail out and let the
            # caller retry from a cold start
            if not _simplex._rebuild(Binv, A, b, x, basis):
                break
            pivots_since_refactor = 0
            refactors += 1
        xB = x[basis]
        below = L[basis] - xB
        viol = np.maximum(below, xB - U[basis])
        y = cost[basis] @ Binv
        rc = cost[:n] - y @ A  # the structural columns' reduced costs
        upper, free = at_upper[:n], movable[:n] & ~in_basis[:n]
        if np.any(viol > FEAS_TOL):
            # the dual step
            cand = np.nonzero(viol > FEAS_TOL)[0]
            leave = cand[int(np.argmax(viol[cand]))]
            # +1 when the leaving variable rises to its lower bound, -1
            # when it falls to its upper one
            s = 1.0 if below[leave] > 0.0 else -1.0
            alpha_r = Binv[leave] @ A
            # a column at its lower bound can enter when it would rise
            # (g < 0), one at its upper bound when it would fall (g > 0);
            # its ratio is the dual step at which its reduced cost reaches 0
            g = s * alpha_r
            rate = np.where(upper, g, -g)
            room = np.maximum(np.where(upper, -rc, rc), 0.0)
            eligible = free & (rate > PIV_TOL)
            ratio = np.where(eligible, room / np.where(eligible, rate, 1.0),
                             np.inf)
            t = np.min(ratio)
            if t == np.inf:
                status, row = 1, leave
                break
            ties = np.nonzero(ratio <= t + 1e-9)[0]
            enter = ties[int(np.argmax(np.abs(alpha_r[ties])))]
            alpha = Binv @ A[:, enter]
            lv = basis[leave]
            bound = L[lv] if s > 0.0 else U[lv]
            theta = (x[lv] - bound) / alpha[leave]
            newxB = xB - theta * alpha
            x[basis] = newxB
            x[enter] += theta
            x[lv] = bound
            at_upper[lv] = s < 0.0
            basis[leave] = enter
            in_basis[enter] = True
            in_basis[lv] = False
            at_upper[enter] = False
            if np.max(np.abs(newxB)) > blowup:
                if pivots_since_refactor == 0:
                    break  # blew up right after a clean refactor: give up
                pivots_since_refactor = REFACTOR_EVERY  # refactor next
            _reference_update_inverse(Binv, alpha, leave)
            pivots_since_refactor += 1
            dual_steps += 1
        else:
            # the primal step
            mask_low = free & (~upper) & (rc < -OPT_TOL)
            mask_up = free & upper & (rc > OPT_TOL)
            viol = np.where(mask_low, -rc, np.where(mask_up, rc, -1.0))
            enter = int(np.argmax(viol))
            if viol[enter] <= 0.0:
                status = 0
                break
            sgn = -1.0 if at_upper[enter] else 1.0
            alpha = Binv @ A[:, enter]
            d = sgn * alpha
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
            else:
                t = t_basic
                cand = np.nonzero(t_arr <= t + 1e-9)[0]
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
                if np.max(np.abs(newxB)) > blowup:
                    if pivots_since_refactor == 0:
                        break  # blew up right after a clean refactor
                    pivots_since_refactor = REFACTOR_EVERY  # refactor next
                _reference_update_inverse(Binv, alpha, leave)
                pivots_since_refactor += 1
        steps += 1
        if t <= 1e-12:
            degenerate += 1
            degen += 1
            if degen > DEGEN_BAIL:
                break
        else:
            degen = 0
    _reference_count_steps(phase, steps, dual_steps, degenerate, refactors)
    return status, row


def _assert_state_invariants(x, L, U, basis, in_basis, at_upper):
    """in_basis is the membership of basis, no basic column is at its upper
    bound, and each nonbasic x sits on the bound at_upper names."""
    member = np.zeros_like(in_basis)
    member[basis] = True
    assert len(set(basis.tolist())) == len(basis)
    assert np.array_equal(in_basis, member)
    assert not at_upper[basis].any()
    nonbasic = ~in_basis
    assert np.array_equal(x[nonbasic], np.where(at_upper, U, L)[nonbasic])


class TestLoopParity:
    """Every run of the simplex loop that a test makes is run twice from the
    same start state, by the reference loop on a copy and by the kernel,
    and the status, every state array and the step counts must match bit
    for bit."""

    @pytest.fixture
    def loops(self, monkeypatch):
        """Counter of the runs compared, by phase, and of their steps and
        dual steps, keyed (phase, "steps") and (phase, "by_dual")."""
        seen = Counter()
        kernel_counts = []
        real_count = _simplex._count_steps

        def count(*counts):
            kernel_counts.append(counts)
            real_count(*counts)

        def compared(Binv, A, b, x, L, U, basis, in_basis, at_upper, *rest):
            state = (Binv, x, L, U, basis, in_basis, at_upper)
            copies = [a.copy() for a in state]
            del _REFERENCE_COUNTS[:]
            ref_out = _reference_loop(copies[0], A, b, *copies[1:], *rest)
            out = kernel(*state[:1], A, b, *state[1:], *rest)
            assert out == ref_out
            for a, r in zip(state, copies, strict=True):
                assert a.dtype == r.dtype and a.tobytes() == r.tobytes()
            assert [kernel_counts[-1]] == _REFERENCE_COUNTS
            _assert_state_invariants(*state[1:])
            phase, steps, dual_steps = kernel_counts[-1][:3]
            seen[phase] += 1
            seen[phase, "steps"] += steps
            seen[phase, "by_dual"] += dual_steps
            return out
        kernel = _simplex._loop
        monkeypatch.setattr(_simplex, "_count_steps", count)
        monkeypatch.setattr(_simplex, "_loop", compared)
        return seen

    @pytest.mark.parametrize("seed", range(30))
    def test_random_lps(self, loops, seed):
        # the start's run on the moved costs, then, on a feasible LP, its
        # run on the true costs and phase 2's
        c, A, b, lo, up = small_random_lp(seed)
        st, _, _ = _simplex.solve_bounded(c, A, b, lo, up)
        assert loops[1] == (2 if st == 0 else 1)
        assert loops[2] == (1 if st == 0 else 0)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_dual_passes(self, loops, seed):
        c, A, b, lo, up = small_random_lp(seed)
        V = np.array(list(itertools.product(*[(lo[j], up[j])
                                              for j in (0, 1)])))
        ladder_children(_simplex.Ladder(A, b, lo, up), c, [0, 1], V)
        assert loops[1] >= 1

    def test_dense_region_with_binary_children(self, loops):
        rng = np.random.default_rng(0)
        m, n, nb = 20, 30, 4
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0.2, 0.8, size=n)
        x0[n - nb:] = rng.integers(0, 2, size=nb)
        V = np.array(list(itertools.product((0.0, 1.0), repeat=nb)))
        ladder_children(_simplex.Ladder(A, A @ x0, np.zeros(n), np.ones(n)),
                        rng.normal(size=n), np.arange(n - nb, n), V)
        # the start's two runs, the parent's phase 2 and one run per child,
        # which takes dual steps
        assert (loops[1], loops[2], loops["dual"]) == (2, 1, len(V))
        assert loops[1, "by_dual"] > 0 and loops["dual", "by_dual"] > 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_demo_lift_relaxations(self, loops, d):
        # the start and a 16-direction batch, then the sharpness check,
        # whose open directions run dual passes on the d = 1 lift
        from zonosharp import (check_sharpness, convex_relaxation,
                               direction_set, relugraph, rlt_sharpen)
        X = relugraph.level_set_above(relugraph.demo_network(), 0.5)
        Xd = rlt_sharpen(X, d)
        R = convex_relaxation(Xd)
        C = np.array([-(R.G.T @ u) for u in direction_set(2, 16)])
        _simplex.solve_bounded_many(C, R.A, R.b, *R.factor_bounds())
        assert loops[1] >= 2 and loops[1, "by_dual"] > 0
        assert loops[2] >= len(C) and loops[2, "steps"] > 0
        check_sharpness(Xd, n_dirs=4, seed=0)
        if d == 1:
            assert loops["dual", "by_dual"] > 0
