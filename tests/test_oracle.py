import copy
import json
import pickle

import numpy as np
import pytest
from test_simplex import assert_same_batch

from zonosharp import (
    ConstrainedZonotope,
    EmptySet,
    FactorForm,
    HybridZonotope,
    LinearProgram,
    LpStatus,
    NumericalFailure,
    SharpnessVerdict,
    _simplex,
    area_2d,
    boundary_2d,
    box,
    check_sharpness,
    contains,
    convert_form,
    convex_relaxation,
    direction_set,
    interval,
    is_empty,
    leaves,
    point,
    polygon_area,
    relugraph,
    rlt_sharpen,
    solve_lp,
    support,
    support_point,
    union,
)
from zonosharp.oracle import (FEAS_TOL, _in_a_leaf, _support_points,
                              polygon_to_csv)


def _unit_square(form=FactorForm.ZO):
    return box(np.array([[0.0, 1.0], [0.0, 1.0]]), form)


def _two_squares():
    return union([_unit_square(),
                  box(np.array([[2.0, 3.0], [0.0, 1.0]]), FactorForm.ZO)])


class TestSolveLp:
    def test_optimal(self):
        p = LinearProgram(np.array([1.0, 1.0]), np.ones((1, 2)), np.ones(1),
                          np.zeros(2), np.ones(2))
        r = solve_lp(p)
        assert r.status is LpStatus.OPTIMAL
        assert r.value == pytest.approx(1.0)

    def test_infeasible(self):
        p = LinearProgram(np.zeros(1), np.ones((1, 1)), np.array([2.0]),
                          np.zeros(1), np.ones(1))
        assert solve_lp(p).status is LpStatus.INFEASIBLE

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearProgram(np.zeros(2), np.zeros((0, 2)), np.zeros(0),
                          np.zeros(2), np.array([np.inf, 1.0]))
        with pytest.raises(ValueError):
            LinearProgram(np.zeros(1), np.zeros((0, 1)), np.zeros(0),
                          np.ones(1), np.zeros(1))


class TestKernelFailure:
    """A pass that never yields a certified verdict surfaces as NumericalFailure."""

    @pytest.fixture(autouse=True)
    def failing_kernel(self, fake_pass):
        fake_pass(2)

    # x1 + x2 = 1 over [0,1]^2: the segment from (1, 0) to (0, 1)
    SEGMENT = ConstrainedZonotope(np.eye(2), np.zeros(2), np.ones((1, 2)),
                                  np.ones(1), FactorForm.ZO)

    def test_solve_lp(self):
        p = LinearProgram(np.ones(2), np.ones((1, 2)), np.ones(1),
                          np.zeros(2), np.ones(2))
        with pytest.raises(NumericalFailure):
            solve_lp(p)

    def test_support(self):
        with pytest.raises(NumericalFailure):
            support(self.SEGMENT, [1.0, 0.0])

    def test_contains(self):
        with pytest.raises(NumericalFailure):
            contains(self.SEGMENT, [0.5, 0.5])

    def test_is_empty(self):
        with pytest.raises(NumericalFailure):
            is_empty(self.SEGMENT)

    def test_check_sharpness(self):
        with pytest.raises(NumericalFailure):
            check_sharpness(self.SEGMENT)

    def test_boundary_2d(self):
        with pytest.raises(NumericalFailure):
            boundary_2d(self.SEGMENT)


@pytest.fixture(scope="module")
def rlt_lift():
    """Relaxation of the acceptance suite's RLT hierarchy, instance 7, level 3."""
    from test_acceptance import _feasible_factor_points, _random_hz

    # replay the random draws of test_5 up to its instance 7 (n_b = 4)
    rng = np.random.default_rng(50)
    for i in range(8):
        H = _random_hz(rng, 2, 2, 1 + i % 4, 1)
        pts = _feasible_factor_points(rng, H, 250)
        scale = 1.0 + np.max(np.abs(H.c)) + np.sum(np.abs(H.Gc)) \
            + np.sum(np.abs(H.Gb))
        while len(pts) < 500:
            pts.append(rng.uniform(-scale, scale, 2))
    return convex_relaxation(rlt_sharpen(H, 3))


@pytest.fixture(scope="module")
def rlt_lift_lp(rlt_lift):
    """Support LP of `rlt_lift` in direction 8 of `direction_set(2, 64)`.

    On it an earlier kernel failed its first pass in phase 2, and phase 1 of
    its first perturbed retry stalled at a residual of 2.03e-8, just above
    the 2e-8 threshold: an uncertified "infeasible" for a feasible LP.
    """
    R = rlt_lift
    u = direction_set(2, 64)[8]
    lo, up = R.factor_bounds()
    lp = (-(R.G.T @ u), R.A, R.b, lo, up)
    return lp, _simplex.solve_bounded(*lp, feas_tol=FEAS_TOL)


class TestKernelRegression:
    def test_optimal_and_feasible(self, rlt_lift_lp):
        (c, A, b, lo, up), (st, obj, x) = rlt_lift_lp
        assert A.shape == (159, 191)
        assert st == 0
        assert np.all(x >= lo - 1e-6) and np.all(x <= up + 1e-6)
        assert np.max(np.abs(A @ x - b)) < 1e-6
        assert obj == pytest.approx(float(c @ x), abs=1e-12)

    def test_matches_highs(self, rlt_lift_lp):
        linprog = pytest.importorskip("scipy.optimize").linprog
        (c, A, b, lo, up), (st, obj, _) = rlt_lift_lp
        ref = linprog(c, A_eq=A, b_eq=b, bounds=np.column_stack([lo, up]),
                      method="highs")
        assert ref.status == 0 and st == 0
        assert abs(obj - ref.fun) <= 1e-6

    def test_batch_runs_each_rung_once(self, rlt_lift, phase1_runs):
        # every row is certified on rung 0, so the one phase 1 of rung 0
        # is the only one
        linprog = pytest.importorskip("scipy.optimize").linprog
        lo, up = rlt_lift.factor_bounds()
        region = (rlt_lift.A, rlt_lift.b, lo, up)
        C = np.array([-(rlt_lift.G.T @ u) for u in direction_set(2, 64)[8:16]])
        with _simplex.lp_stats() as stats:
            batch = _simplex.solve_bounded_many(C, *region, feas_tol=FEAS_TOL)
        assert len(phase1_runs) == 1 and stats.rungs == {0: len(C)}
        lone = [_simplex.solve_bounded(c, *region, feas_tol=FEAS_TOL)
                for c in C]
        duals = []
        for c, (st, obj, _) in zip(C, batch):
            ref = linprog(c, A_eq=region[0], b_eq=region[1],
                          bounds=np.column_stack([lo, up]), method="highs")
            assert ref.status == 0 and st == 0
            assert abs(obj - ref.fun) <= 1e-6 * (1.0 + abs(ref.fun))
            duals.append(ref.eqlin.marginals)
        assert_same_batch(batch, lone, C, *region, duals, FEAS_TOL)

    def test_every_direction_on_rung_0(self, rlt_lift):
        # a batch row starts from the last optimal basis; a cold start on
        # every row left 16 of these 64 rows to rung 1
        lo, up = rlt_lift.factor_bounds()
        C = np.array([-(rlt_lift.G.T @ u) for u in direction_set(2, 64)])
        with _simplex.lp_stats() as stats:
            batch = _simplex.solve_bounded_many(C, rlt_lift.A, rlt_lift.b, lo,
                                                up, feas_tol=FEAS_TOL)
        assert stats.phase1_runs == 1 and stats.rungs == {0: 64}
        assert [st for st, _, _ in batch] == [0] * 64

    def test_certified_on_a_perturbed_rung(self):
        # the n_b = 5, d = 5 lift on which `support` once raised
        # NumericalFailure: rung 0 fails, and a perturbed rung's point is
        # carried back onto the original data and certified there.  Which
        # perturbed rung depends on the BLAS thread count, since the pivots
        # follow the rounding of the matrix products: rung 1 with one
        # OpenBLAS thread, rung 2 with two.
        from test_acceptance import _random_hz
        H = _random_hz(np.random.default_rng(1), 2, 2, 5, 1)
        R = convex_relaxation(rlt_sharpen(H, 5))
        assert R.A.shape == (192, 255)
        u = np.array([np.cos(0.1), np.sin(0.1)])
        with _simplex.lp_stats() as stats:
            v = support(R, u)
        assert sum(stats.rungs.values()) == 1 and min(stats.rungs) >= 1
        highs = 1.9179378788803025  # HiGHS's optimum, as below
        assert abs(v - highs) <= 1e-6 * (1.0 + abs(highs))
        linprog = pytest.importorskip("scipy.optimize").linprog
        lo, up = R.factor_bounds()
        ref = linprog(-(R.G.T @ u), A_eq=R.A, b_eq=R.b,
                      bounds=np.column_stack([lo, up]), method="highs")
        assert ref.status == 0
        ref_v = float(u @ R.c) - ref.fun
        assert abs(v - ref_v) <= 1e-6 * (1.0 + abs(ref_v))


class TestSupport:
    def test_box_support_analytic(self):
        B = box(np.array([[-1.0, 2.0], [0.0, 3.0]]))
        assert support(B, [1.0, 0.0]) == pytest.approx(2.0, abs=1e-8)
        assert support(B, [-1.0, 0.0]) == pytest.approx(1.0, abs=1e-8)
        assert support(B, [0.0, 1.0]) == pytest.approx(3.0, abs=1e-8)
        assert support(B, [1.0, 1.0]) == pytest.approx(5.0, abs=1e-8)

    def test_support_point_achieves_value(self):
        rng = np.random.default_rng(0)
        Z = ConstrainedZonotope(rng.normal(size=(2, 4)), rng.normal(size=2),
                                np.zeros((0, 4)), np.zeros(0), FactorForm.PM1)
        for _ in range(10):
            u = rng.normal(size=2)
            val, p = support_point(Z, u)
            assert u @ p == pytest.approx(val, abs=1e-8)
            assert contains(Z, p, tol=1e-6)

    def test_hybrid_support_is_leaf_max(self):
        H = _two_squares()
        assert support(H, [1.0, 0.0]) == pytest.approx(3.0, abs=1e-6)
        assert support(H, [-1.0, 0.0]) == pytest.approx(0.0, abs=1e-6)

    def test_empty_raises(self):
        E = ConstrainedZonotope(np.eye(1), np.zeros(1), np.ones((1, 1)),
                                np.array([5.0]), FactorForm.ZO)
        with pytest.raises(EmptySet):
            support(E, [1.0])


class TestMembership:
    def test_point_membership_by_rejection_sampling(self):
        rng = np.random.default_rng(1)
        H = _two_squares()
        for _ in range(100):
            p = rng.uniform([-0.5, -0.5], [3.5, 1.5])
            expected = ((0 <= p[0] <= 1) or (2 <= p[0] <= 3)) and 0 <= p[1] <= 1
            near_edge = min(abs(p[0] - v) for v in (0, 1, 2, 3)) < 1e-3 or \
                min(abs(p[1] - v) for v in (0, 1)) < 1e-3
            if not near_edge:
                assert contains(H, p) == expected, p

    def test_point_set(self):
        P = point([1.0, -2.0])
        assert contains(P, [1.0, -2.0])
        assert not contains(P, [1.0, -1.99])


class TestEmptiness:
    def test_nonempty(self):
        assert not is_empty(_unit_square())

    def test_empty_cz(self):
        E = ConstrainedZonotope(np.eye(1), np.zeros(1), np.ones((1, 1)),
                                np.array([5.0]), FactorForm.ZO)
        assert is_empty(E)

    def test_hybrid_with_one_empty_leaf(self):
        # binary selects b in {1 (feasible), 3 (infeasible on [0,1])}
        H = HybridZonotope(np.eye(1), np.zeros((1, 1)), np.zeros(1),
                           np.ones((1, 1)), np.array([[2.0]]), np.array([1.0]),
                           FactorForm.ZO)
        assert not is_empty(H)


class TestSharpness:
    def test_zonotope_sharp(self):
        rep = check_sharpness(_unit_square())
        assert rep.verdict is SharpnessVerdict.SHARP
        assert rep.max_gap <= 1e-9

    def test_union_of_squares_sharp(self):
        rep = check_sharpness(_two_squares())
        assert rep.verdict is SharpnessVerdict.SHARP

    def test_not_sharp_detected(self):
        # ReLU graph cut at s <= 0.4: the relaxation keeps a piece of the
        # triangle above the chord, strictly beyond the hull of the V-shape
        from zonosharp import generalized_intersection, relu_graph_1d
        V = relu_graph_1d(-1.0, 1.0)
        band = interval(-1.0, 0.4, FactorForm.ZO)
        H = generalized_intersection(V, band, np.array([[0.0, 1.0]]))
        rep = check_sharpness(H)
        assert rep.verdict is SharpnessVerdict.NOT_SHARP
        assert rep.max_gap > 1e-3

    def test_inconclusive_on_cap(self):
        Gb = np.ones((1, 25))
        H = HybridZonotope(np.zeros((1, 0)), Gb, np.zeros(1),
                           np.zeros((0, 0)), np.zeros((0, 25)), np.zeros(0),
                           FactorForm.ZO)
        rep = check_sharpness(H)
        assert rep.verdict is SharpnessVerdict.INCONCLUSIVE

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-3])
    def test_bad_tol_raises(self, tol):
        with pytest.raises(ValueError):
            check_sharpness(_two_squares(), tol=tol)

    def test_report_serializes(self):
        rep = check_sharpness(_unit_square())
        obj = rep.to_obj()
        assert obj["verdict"] == "sharp"
        rep.to_json()

    def test_inconclusive_report_is_strict_json(self):
        # NaN is not JSON: an inconclusive report writes null instead
        rep = check_sharpness(_two_squares(), n_dirs=8, cap=0)
        assert rep.verdict is SharpnessVerdict.INCONCLUSIVE
        obj = rep.to_obj()
        assert obj["max_gap"] is None
        assert obj["relax_support"] == obj["hull_support"] == [None] * 8
        assert obj["closed_by_relaxation"] == [False] * 8
        json.dumps(obj, allow_nan=False)

    def test_direction_set_contains_axes(self):
        dirs = direction_set(3, 16)
        assert dirs.shape == (16, 3)
        for i in range(3):
            e = np.eye(3)[i]
            assert any(np.allclose(d, e) for d in dirs)
            assert any(np.allclose(d, -e) for d in dirs)


class TestClosedByRelaxation:
    """A direction in which the relaxation's optimum is a point of a leaf
    is answered by the relaxation; only the other directions run leaf LPs."""

    def test_sharp_lift_runs_the_relaxation_alone(self):
        X2 = rlt_sharpen(_level_set(), 2)
        with _simplex.lp_stats() as stats:
            rep = check_sharpness(X2, n_dirs=8)
        assert rep.verdict is SharpnessVerdict.SHARP and rep.max_gap == 0.0
        assert rep.closed.all()
        np.testing.assert_array_equal(rep.hull_support, rep.relax_support)
        assert stats.phase1_runs == 1
        assert all("lp_ladder" not in L._kept for _, L in leaves(X2))
        assert rep.to_obj()["closed_by_relaxation"] == [True] * 8

    def test_pm1_form_closes(self):
        # the binaries of the pm1 form end at -1 and 1, not at 0 and 1
        X2 = convert_form(rlt_sharpen(_level_set(), 2), FactorForm.PM1)
        with _simplex.lp_stats() as stats:
            rep = check_sharpness(X2, n_dirs=8)
        assert rep.verdict is SharpnessVerdict.SHARP and rep.closed.all()
        assert stats.phase1_runs == 1

    def test_open_directions_are_the_leaf_maximum(self):
        X = _level_set()
        rep = check_sharpness(X, n_dirs=16)
        leaf_list = [L for _, L in leaves(X)]
        assert 0 < rep.closed.sum() < len(rep.closed)
        opened = ~rep.closed
        best = _support_points(leaf_list, rep.directions[opened])
        np.testing.assert_array_equal(rep.hull_support[opened],
                                      [v for v, _ in best])
        np.testing.assert_array_equal(rep.hull_support[rep.closed],
                                      rep.relax_support[rep.closed])
        for u, h in zip(rep.directions, rep.hull_support):
            lone = [support(L, u) for L in leaf_list if not is_empty(L)]
            assert abs(h - max(lone)) <= 1e-9

    def test_a_leaf_point_needs_integral_binaries_and_the_leaf_equalities(self):
        X = _level_set()
        R = convex_relaxation(X)
        # a factor point of a nonempty leaf: its y from phase 1, its binaries
        a, L = [(a, L) for a, L in leaves(X) if not is_empty(L)][0]
        _, y = L.lp_ladder().min_infeasibility()
        xi = np.concatenate([y, a.as_array()])
        assert _in_a_leaf(X, R, xi[None]).all()
        # one binary off its end by more than FEAS_TOL
        lo, _ = X.binary_domain()
        fractional = xi.copy()
        fractional[-1] += 10.0 * FEAS_TOL * (1.0 if xi[-1] == lo else -1.0)
        # binaries on their ends, but y moved off the leaf's equalities
        j = int(np.argmax(np.abs(X.Ac).sum(axis=0)))
        shifted = xi.copy()
        shifted[j] += 0.1 if shifted[j] < 0.5 else -0.1
        assert not _in_a_leaf(X, R, np.array([fractional, shifted])).any()

    def test_without_binaries_every_direction_closes(self):
        S = ConstrainedZonotope(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]),
                                np.array([1.0]), FactorForm.ZO)
        for T in (S, S.as_hybrid()):
            rep = check_sharpness(T, n_dirs=8)
            assert rep.closed.all() and rep.max_gap == 0.0


class TestBoundary2d:
    def test_square_polygon_and_area(self):
        sq = convex_relaxation(_unit_square())
        poly = boundary_2d(sq, n_angles=16)
        assert len(poly) == 4
        assert polygon_area(poly) == pytest.approx(1.0, abs=1e-9)
        assert area_2d(sq, n_angles=64) == pytest.approx(1.0, abs=1e-9)

    def test_counterclockwise(self):
        poly = boundary_2d(convex_relaxation(_unit_square()), n_angles=16)
        x, y = poly[:, 0], poly[:, 1]
        signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert signed > 0

    def test_segment_order_is_stable(self):
        # a tilt of 1e-17 puts one end of the segment from (-1, 0) to (0, 0)
        # on either side of the x-axis; its vertices keep their order
        polys = [boundary_2d(ConstrainedZonotope(
            np.array([[0.5], [tilt]]), np.array([-0.5, 0.0]), np.zeros((0, 1)),
            np.zeros(0), FactorForm.PM1)) for tilt in (1e-17, -1e-17)]
        assert [len(p) for p in polys] == [2, 2]
        np.testing.assert_allclose(polys[0], polys[1], atol=1e-15)

    def test_hybrid_set_gives_its_hull(self):
        # L-shape [0,2]x[0,1] u [0,1]x[0,2]: the hull adds the corner triangle
        L = union([box(np.array([[0.0, 2.0], [0.0, 1.0]]), FactorForm.ZO),
                   box(np.array([[0.0, 1.0], [0.0, 2.0]]), FactorForm.ZO)])
        poly = boundary_2d(L, n_angles=64)
        assert polygon_area(poly) == pytest.approx(3.5, abs=1e-9)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            boundary_2d(convex_relaxation(interval(0, 1)))

    def test_csv_format(self):
        poly = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        text = polygon_to_csv(poly)
        rows = [r.split(",") for r in text.strip().splitlines()]
        assert len(rows) == 3 and float(rows[2][1]) == 1.0


class TestBatchedSupport:
    """Support over many directions is one batch of LPs per leaf; each answer
    is the one a lone direction gets."""

    def test_sharpness_supports_are_lone_supports(self):
        H = _two_squares()
        rep = check_sharpness(H, n_dirs=12)
        leaf_sets = [L for _, L in leaves(H) if not is_empty(L)]
        for u, r, h in zip(rep.directions, rep.relax_support, rep.hull_support):
            assert r == support(convex_relaxation(H), u)
            assert h == max(support(L, u) for L in leaf_sets)

    def test_boundary_points_are_lone_support_points(self):
        # the first direction's point is the lone one bit for bit; later
        # directions start warm and may stop at another point of the same
        # support line
        L = union([box(np.array([[0.0, 2.0], [0.0, 1.0]]), FactorForm.ZO),
                   box(np.array([[0.0, 1.0], [0.0, 2.0]]), FactorForm.ZO)])
        poly = boundary_2d(L, n_angles=16, dedup_tol=0.0)
        U = [[np.cos(th), np.sin(th)] for th in 2.0 * np.pi * np.arange(16) / 16]
        lone = [support_point(L, u) for u in U]
        np.testing.assert_array_equal(poly[0], lone[0][1])
        assert len(poly) <= 16
        for u, (h, _) in zip(U, lone):
            assert np.max(poly @ u) == pytest.approx(h, rel=1e-9, abs=1e-9)

    def test_failed_first_pass_falls_back(self, fake_pass):
        sq = convex_relaxation(_unit_square())
        expected = boundary_2d(sq, n_angles=16)
        calls = fake_pass(2, first_only=True)
        np.testing.assert_array_equal(boundary_2d(sq, n_angles=16), expected)
        assert len(calls) == 16 + 1


def _level_set():
    """The demo network's 0.5 level set: n_b = 2, four leaves."""
    return relugraph.level_set_above(relugraph.demo_network(), 0.5)


def _answers(S):
    """Every LP-backed answer of the queries that keep work on a set."""
    U = direction_set(2, 16)
    out = [support_point(S, u) for u in U]
    rep = check_sharpness(S, n_dirs=8)
    out += [rep.relax_support, rep.hull_support, is_empty(S),
            boundary_2d(S, n_angles=16),
            boundary_2d(convex_relaxation(S), n_angles=16)]
    return out


def _assert_bit_identical(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        if isinstance(a, tuple):
            assert a[0] == b[0]
            np.testing.assert_array_equal(a[1], b[1])
        else:
            np.testing.assert_array_equal(a, b)


class TestKeptLpWork:
    """A set keeps its leaves, its relaxation and the phase-1 ends of each
    leaf's retry ladder; no answer depends on what was asked before."""

    def test_queried_set_answers_as_a_fresh_copy(self):
        X = _level_set()
        first = _answers(X)
        with _simplex.lp_stats() as stats:
            again = _answers(X)
        assert stats.phase1_runs == 0 and stats.phase1_reused > 0
        fresh = HybridZonotope(X.Gc, X.Gb, X.c, X.Ac, X.Ab, X.b, X.factor_form)
        _assert_bit_identical(again, first)
        _assert_bit_identical(_answers(fresh), first)

    def test_equal_sets_run_their_own_phase1(self):
        X = _level_set()
        twin = HybridZonotope(X.Gc, X.Gb, X.c, X.Ac, X.Ab, X.b, X.factor_form)
        for S in (X, twin):
            with _simplex.lp_stats() as stats:
                support_point(S, [1.0, 0.0])
            assert stats.phase1_runs == 4 and stats.phase1_reused == 0

    def test_sixteen_support_points_run_phase1_once_per_leaf(self):
        X = _level_set()
        with _simplex.lp_stats() as stats:
            for u in direction_set(2, 16):
                support_point(X, u)
        assert stats.rows == 64
        assert stats.phase1_runs == 4 and stats.phase1_reused == 60

    def test_no_binaries_one_phase1(self):
        # with n_b = 0 the one leaf is the relaxation: one region, one ladder
        S = ConstrainedZonotope(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]),
                                np.array([1.0]), FactorForm.ZO)
        H = S.as_hybrid()
        with _simplex.lp_stats() as stats:
            rep = check_sharpness(H, n_dirs=8)
        assert rep.verdict is SharpnessVerdict.SHARP
        assert stats.phase1_runs == 1
        assert convex_relaxation(H) is leaves(H)[0][1]

    def test_emptiness_and_support_share_phase1(self):
        X = _level_set()
        with _simplex.lp_stats() as stats:
            assert not is_empty(X)
            support_point(X, [0.0, 1.0])
        # is_empty stops at the first nonempty leaf, the second; the
        # support LPs reuse the phase 1 of both leaves it read
        assert stats.phase1_runs == 4 and stats.phase1_reused == 2

    def test_kept_phase1_end_is_read_only_after_a_failed_row(self, fake_pass):
        R = convex_relaxation(_level_set())
        boundary_2d(R, n_angles=8)
        ladder = R.lp_ladder()
        kept = ladder._ends[0]  # (status, art_sign, packed B^-1, rest of end, ...)
        arrays = [kept[1], *kept[2], *kept[3]]
        before = [a.copy() for a in arrays]
        (_, _, end), _, _ = ladder.rung(0)
        calls = fake_pass(2, first_only=True)
        boundary_2d(R, n_angles=8)
        # the faked row fails rung 0 and is answered on rung 1; the other
        # rows run phase 2 on rung 0, each on a copy of its phase-1 end
        assert len(calls) == 8 + 1
        assert ladder._ends[0] is kept
        for a, b in zip(arrays, before, strict=True):
            assert not a.flags.writeable
            np.testing.assert_array_equal(a, b)
        with pytest.raises(ValueError):
            kept[2][1][0] = 0.0
        (_, _, again), _, _ = ladder.rung(0)
        for a, b in zip(end, again, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("clone", [lambda S: pickle.loads(pickle.dumps(S)),
                                       copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_queried_set_round_trips(self, clone):
        X = _level_set()
        first = _answers(X)
        Y = clone(X)
        assert Y is not X
        # the kept work travels with the set
        with _simplex.lp_stats() as stats:
            again = _answers(Y)
        assert stats.phase1_runs == 0
        _assert_bit_identical(again, first)
