"""Kernel-level LP tests.

Expected optima come from two independent oracles: exhaustive enumeration of
basic solutions (every choice of basic columns with every nonbasic variable
pinned to one of its bounds) for small problems, and hand-computable
geometry for the structured cases.
"""

import itertools

import numpy as np
import pytest

from zonosharp import NumericalFailure, _simplex


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
        calls = fake_pass(1, first_only=True)
        st, obj, x = _simplex.solve_bounded(*self.LP)
        assert st == 0 and obj == pytest.approx(1.0)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-6)
        assert len(calls) == 2

    def test_uncertifiable_infeasible_is_a_failure(self, fake_pass):
        fake_pass(1)
        st, _, _ = _simplex.solve_bounded(*self.LP)
        assert st == 2

    def test_uncertified_residual_is_retried(self, fake_pass):
        _, A, b, lo, up = self.LP
        calls = fake_pass(0, first_only=True)
        resid, x = _simplex.min_infeasibility(A, b, lo, up)
        assert resid < 1e-8 and len(calls) == 2

    def test_uncertifiable_residual_raises(self, fake_pass):
        _, A, b, lo, up = self.LP
        fake_pass(0)
        with pytest.raises(NumericalFailure):
            _simplex.min_infeasibility(A, b, lo, up)

    def test_farkas_bound_is_the_1norm_miss(self):
        # x1 + x2 = 3 on [0,1]^2 misses by 1 in the 1-norm
        A, b, lo, up = np.ones((1, 2)), np.array([3.0]), np.zeros(2), np.ones(2)
        assert _simplex._farkas_bound(A, b, lo, up, np.array([1.0])) == 1.0
        assert _simplex._farkas_bound(A, np.ones(1), lo, up, np.array([1.0])) < 0


def assert_same_batch(batch, lone, C, A, b, lo, up, duals, feas_tol=1e-8):
    """A `solve_bounded_many` batch against one lone `solve_bounded` answer
    per cost row of C.

    The first row starts from the phase-1 end, as a lone solve does, and
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
            assert _simplex._certified_optimal(c, A, b, lo, up, x, y,
                                               feas_tol)


class TestBatch:
    """`solve_bounded_many` runs phase 1 once, answers its first row exactly
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
        calls = fake_pass(2, first_only=True)
        batch = _simplex.solve_bounded_many(self.C, *self.REGION)
        # rows 0, 1 and 2 share the phase 1 of rung 0, where the faked pass
        # fails row 0 alone; row 0 is then answered on rung 1
        assert len(calls) == 4
        assert len(phase1_runs) == 2
        self.assert_same(batch, lone, self.REGION)

    def test_infeasible_region_answers_every_row(self, phase1_runs):
        # x1 + x2 = 3 is impossible on [0,1]^2
        region = (np.ones((1, 2)), np.array([3.0]), np.zeros(2), np.ones(2))
        batch = _simplex.solve_bounded_many(self.C, *region)
        assert [r[0] for r in batch] == [1, 1, 1]
        assert len(phase1_runs) == 1
        self.assert_same(batch, self._lone(region), region)

    def test_warm_failure_is_retried_cold_before_it_climbs(self, fake_pass,
                                                            phase1_runs):
        # pass 2 is row 1's warm pass; its failure sends row 1 back to the
        # phase-1 end of rung 0, where the real pass answers it
        calls = fake_pass(2, passes={2})
        with _simplex.lp_stats() as stats:
            batch = _simplex.solve_bounded_many(self.C, *self.REGION)
        starts = [args[7] if len(args) > 7 else None for args in calls]
        assert [s is None for s in starts] == [True, False, True, False]
        assert len(phase1_runs) == 1
        assert stats.rungs == {0: 3}
        self.assert_same(batch, self._lone(self.REGION), self.REGION)

    def test_row_after_a_failed_pass_starts_cold(self, monkeypatch):
        # the second pass, row 1's warm one, wrecks the state it ran in
        # place on and reports a failure: row 1 runs again from the phase-1
        # end on the same rung, and row 2 starts warm from that pass's end
        real = _simplex._pass
        starts = []

        def one_pass(rung, c, A, b, lo, up, feas_tol, start=None):
            starts.append(start)
            proposal, state = real(rung, c, A, b, lo, up, feas_tol, start)
            if len(starts) == 2:
                state[0][:] = np.nan  # the basis inverse
                return (2,) + proposal[1:], None
            return proposal, state
        monkeypatch.setattr(_simplex, "_pass", one_pass)
        with _simplex.lp_stats() as stats:
            batch = _simplex.solve_bounded_many(self.C, *self.REGION)
        assert [s is None for s in starts] == [True, False, True, False]
        assert stats.rungs == {0: 3}
        self.assert_same(batch, self._lone(self.REGION), self.REGION)

    def test_kernel_failure_on_every_row(self, fake_pass):
        fake_pass(2)
        batch = _simplex.solve_bounded_many(self.C, *self.REGION)
        assert [r[0] for r in batch] == [2, 2, 2]


class TestLadder:
    """A `Ladder` runs each rung's phase 1 once and hands every later call
    the same phase-1 end, bit for bit."""

    def test_kept_end_is_the_phase1_end(self):
        rng = np.random.default_rng(99)
        m, n = 60, 120
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0, 1, size=n)
        ladder = _simplex.Ladder(A, b, np.zeros(n), np.ones(n))
        with _simplex.lp_stats() as stats:
            (st, A_all, end), _, _ = ladder.rung(0)
            first = [a.copy() for a in (A_all, *end)]
            (st2, A_all2, end2), _, _ = ladder.rung(0)
        assert st == st2 == 0
        assert stats.phase1_runs == 1 and stats.phase1_reused == 1
        for a, b in zip(first, (A_all2, *end2), strict=True):
            assert a.tobytes() == b.tobytes()

    def test_pack_keeps_signed_zeros(self):
        M = np.array([[1.0, -0.0, 0.0], [0.0, 2.5, -0.0], [0.0, 0.0, -3.0]])
        idx, values = _simplex._pack(M)
        assert len(idx) == 5
        assert _simplex._unpack(3, idx, values).tobytes() == M.tobytes()

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
    """Phase 1 starts each row covered by an in-bounds singleton column with
    that column basic, and keeps B^-1 of the basis through its pivots."""

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
        assert st == 0 and stats.rungs == {0: 1}
        assert abs(obj - _highs_optimum(c, A, b, lo, up)) <= 1e-6 * (1 + abs(obj))

    def test_out_of_bounds_singleton_leaves_an_artificial(self):
        # x0 + x1 = 1.5 and x1 + x2 = 1 on [0,1]^3: the singleton x0 would
        # take 1.5 and cannot cover row 0; x2 takes 1 and covers row 1
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b, lo, up = np.array([1.5, 1.0]), np.zeros(3), np.ones(3)
        rows, cols, vals = _simplex._crash(A, b - A @ lo, lo, up)
        assert rows.tolist() == [1] and cols.tolist() == [2]
        assert vals.tolist() == [1.0]
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
        rows, cols, vals = _simplex._crash(A, np.array([2.0, 1.0]), lo, up)
        assert rows.tolist() == [0] and cols.tolist() == [1]
        assert vals.tolist() == [1.0]
        # now only x3 = 0.5 is within its bounds
        rows, cols, _ = _simplex._crash(A, np.array([-2.0, 1.0]), lo, up)
        assert rows.tolist() == [0] and cols.tolist() == [3]

    def test_infeasible_region_with_covered_rows_has_a_farkas_ray(self):
        # x0 + x1 = 0.5 is covered by x0 = 0.5; x1 + x2 = 2.5 is impossible
        # on [0,1]^3 and keeps its artificial
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b, lo, up = np.array([0.5, 2.5]), np.zeros(3), np.ones(3)
        with _simplex.lp_stats() as stats:
            st, _, _ = _simplex.solve_bounded(np.ones(3), A, b, lo, up)
        assert stats.artificials == [1] and stats.rungs == {0: 1}
        assert st == 1  # status 1 is returned only with a verified ray
        # the duals of the final phase-1 basis are the ray
        rung = _simplex.Ladder(A, b, lo, up, 100).rung(0)
        (p1, _, y), _ = _simplex._pass(rung, None, A, b, lo, up, 1e-8)
        assert p1 == 0
        assert _simplex._farkas_bound(A, b, lo, up, y) > 0.49
        # the least 1-norm miss is 0.5; the certified residual bounds it
        resid, _ = _simplex.min_infeasibility(A, b, lo, up)
        assert resid >= 0.5 - 1e-12

    def test_inverse_stays_the_basis_inverse(self):
        # a dense region has no singleton column: phase 1 pivots every
        # artificial out, past the refactor at REFACTOR_EVERY pivots
        rng = np.random.default_rng(99)
        m, n = 60, 120
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0, 1, size=n)
        with _simplex.lp_stats() as stats:
            st, A_all, state = _simplex._phase1(A, b, np.zeros(n), np.ones(n),
                                                10000)
        assert st == 0 and stats.artificials == [m]
        assert stats.pivots[1] > _simplex.REFACTOR_EVERY
        assert stats.refactors >= 1
        Binv, basis = state[0], state[4]
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
        # the basis is already optimal
        A_all, b = np.ones((1, 3)), np.zeros(1)
        x, L, U = np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 1.0])
        basis = np.array([0])
        in_basis = np.array([True, False, False])
        at_upper = np.zeros(3, dtype=np.bool_)
        with _simplex.lp_stats() as stats:
            st = _simplex._simplex_loop(np.eye(1), A_all, b, x, L, U, basis,
                                        in_basis, at_upper,
                                        np.array([0.0, -1.0, 1.0]), 100, 2)
        assert st == 0 and stats.pivots[2] == 0
        assert basis.tolist() == [0] and not at_upper.any()


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

    @pytest.fixture(scope="class")
    def demo_batch(self):
        """(region, costs, certified answers) of 8 support LPs on the
        relaxation of the demo lift."""
        from zonosharp import convex_relaxation, direction_set
        R = convex_relaxation(_demo_lift())
        region = (R.A, R.b, *R.factor_bounds())
        C = np.array([-(R.G.T @ u) for u in direction_set(2, 8)])
        true = _simplex.solve_bounded_many(C, *region)
        assert [st for st, _, _ in true] == [0] * len(C)
        return region, C, true

    @staticmethod
    def _spoil_after(monkeypatch, spoil, phases):
        """Spoil the carried inverse at the end of every simplex loop of the
        given phases, before the pass reads its values and duals."""
        real = _simplex._simplex_loop

        def loop(Binv, *args):
            st = real(Binv, *args)
            if args[-1] in phases:
                spoil(Binv)
            return st
        monkeypatch.setattr(_simplex, "_simplex_loop", loop)

    @pytest.mark.parametrize("spoil", SPOILS)
    def test_wrong_inverse_is_rejected_or_right(self, monkeypatch, demo_batch,
                                                spoil):
        region, C, true = demo_batch
        self._spoil_after(monkeypatch, spoil, {2})
        rung = _simplex.Ladder(*region).rung(0)
        verdicts = [_simplex._verdict(c, *region, 1e-8,
                                      _simplex._pass(rung, c, *region, 1e-8)[0])
                    for c in C]
        # a verdict passes only if its duals still prove its optimum
        assert any(v is None for v in verdicts)
        for v, (_, obj, _) in zip(verdicts, true):
            assert v is None or abs(v[1] - obj) <= 1e-6 * (1.0 + abs(obj))

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
