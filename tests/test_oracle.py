import copy
import json
import pickle

import numpy as np
import pytest
from test_simplex import assert_same_batch, fake_near_miss, ladder_children

from zonosharp import (
    ConstrainedZonotope,
    DimensionMismatch,
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
from zonosharp.oracle import (FEAS_TOL, _factor_optima, _in_a_leaf,
                              _support_points, polygon_to_csv)


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
    return lp, _simplex.solve_bounded(*lp)


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

    def test_batch_runs_one_start(self, rlt_lift, phase1_runs):
        # every row is certified by a pass from the kept start, so the kept
        # start is the only one
        linprog = pytest.importorskip("scipy.optimize").linprog
        lo, up = rlt_lift.factor_bounds()
        region = (rlt_lift.A, rlt_lift.b, lo, up)
        C = np.array([-(rlt_lift.G.T @ u) for u in direction_set(2, 64)[8:16]])
        with _simplex.lp_stats() as stats:
            batch = _simplex.solve_bounded_many(C, *region)
        assert len(phase1_runs) == 1 and stats.cold_retries == 0
        lone = [_simplex.solve_bounded(c, *region) for c in C]
        duals = []
        for c, (st, obj, _) in zip(C, batch):
            ref = linprog(c, A_eq=region[0], b_eq=region[1],
                          bounds=np.column_stack([lo, up]), method="highs")
            assert ref.status == 0 and st == 0
            assert abs(obj - ref.fun) <= 1e-6 * (1.0 + abs(ref.fun))
            duals.append(ref.eqlin.marginals)
        assert_same_batch(batch, lone, C, *region, duals)

    def test_every_direction_on_rung_0(self, rlt_lift):
        # rung 0 is the kept start: a batch row starts from the last optimal
        # basis, and no row needs its cold retry; a cold phase 1 and phase
        # 2 on every row once left 16 of these 64 rows uncertified
        lo, up = rlt_lift.factor_bounds()
        C = np.array([-(rlt_lift.G.T @ u) for u in direction_set(2, 64)])
        with _simplex.lp_stats() as stats:
            batch = _simplex.solve_bounded_many(C, rlt_lift.A, rlt_lift.b, lo,
                                                up)
        assert stats.phase1_runs == 1 and stats.cold_retries == 0
        assert [st for st, _, _ in batch] == [0] * 64

    def test_certified_from_the_kept_start(self):
        # the n_b = 5, d = 5 lift on which `support` once raised
        # NumericalFailure, which a retry ladder later answered only on a
        # perturbed copy, and whose phase 2 from the kept start then crawled
        # under Bland's rule until the row's own dual start answered it:
        # phase 2 from the kept start is now certified, with no cold retry.
        # The pivots follow the rounding of the matrix products, so this
        # holds at the one OpenBLAS thread that conftest pins.
        from test_acceptance import _random_hz
        H = _random_hz(np.random.default_rng(1), 2, 2, 5, 1)
        R = convex_relaxation(rlt_sharpen(H, 5))
        assert R.A.shape == (192, 255)
        u = np.array([np.cos(0.1), np.sin(0.1)])
        with _simplex.lp_stats() as stats:
            v = support(R, u)
        assert stats.cold_retries == 0 and stats.phase1_runs == 1
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

    UNIT_BOX = ConstrainedZonotope(np.eye(2), np.zeros(2), np.zeros((0, 2)),
                                   np.zeros(0), FactorForm.ZO)

    @pytest.mark.parametrize("tol", [-1.0, np.nan, -1e-12, np.inf])
    @pytest.mark.parametrize("p", [[0.5, 0.5], [5.0, 5.0]],
                             ids=["inside", "outside"])
    def test_bad_tol_raises(self, tol, p):
        # a bad tol is the caller's error, not an answer or a kernel failure
        with pytest.raises(ValueError, match="finite number >= 0"):
            contains(self.UNIT_BOX, p, tol=tol)

    def test_zero_tol(self):
        assert contains(self.UNIT_BOX, [0.5, 0.5], tol=0.0)
        assert not contains(self.UNIT_BOX, [5.0, 5.0], tol=0.0)

    def test_point_within_tol_of_the_set(self):
        # the set {1}: ten rows pin the factor to 1.  The point 1 - 5e-7
        # misses by 5e-7 in the 1-norm, under the threshold 1e-6 * (1 + 1);
        # a phase 1 that signed each row by b - A lo raised NumericalFailure
        S = ConstrainedZonotope(np.ones((1, 1)), np.zeros(1), np.ones((10, 1)),
                                np.ones(10), FactorForm.ZO)
        assert contains(S, [1.0 - 5e-7], tol=1e-6)
        assert not contains(S, [1.0 - 5e-6], tol=1e-6)

    def test_hull_prefilter_rejects_only_past_the_threshold(self):
        # [-1000, 1000]: the point 1000 + 5e-4 misses by 5e-4, under the
        # threshold 1e-6 * (1 + 1000.0005); an interval-hull prefilter that
        # rejected at the absolute tol once answered False
        S = ConstrainedZonotope([[1000.0]], [0.0], np.zeros((0, 1)), [])
        assert contains(S, [1000.0 + 5e-4])
        assert not contains(S, [1000.0 + 2e-3])


@pytest.mark.parametrize("query", [contains, support, support_point])
@pytest.mark.parametrize("v", [[1.5], [0.5], [0.5, 0.5, 0.5]],
                         ids=["short-outside", "short-inside", "long"])
@pytest.mark.parametrize("S", [box(np.array([[0.0, 1.0], [0.0, 2.0]])),
                               _two_squares()], ids=["box", "union"])
def test_wrong_length_vector_raises(S, query, v):
    # broadcasting once answered a length-1 vector v for (v, v)
    with pytest.raises(DimensionMismatch):
        query(S, v)


@pytest.mark.parametrize("query", [contains, support, support_point])
@pytest.mark.parametrize("v", [[np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf]],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("S", [box(np.array([[0.0, 1.0], [0.0, 2.0]])),
                               _two_squares()], ids=["box", "union"])
def test_nonfinite_vector_raises(S, query, v):
    # a NaN point once ran the whole retry ladder into NumericalFailure, and
    # a NaN direction was answered nan
    with _simplex.lp_stats() as stats:
        with pytest.raises(ValueError, match="must have finite entries"):
            query(S, v)
    assert stats.phase1_runs == 0


def test_infeasible_row_answers_the_batch(monkeypatch):
    # the second direction's LP is certified infeasible after the first's
    # was certified optimal on the same region, so no direction has a value
    L = ConstrainedZonotope(np.ones((1, 1)), np.zeros(1), np.ones((1, 1)),
                            np.array([1.0 + 1e-7]))
    fake_near_miss(monkeypatch)
    assert _factor_optima(L, np.array([[1.0], [-1.0]])) == [None, None]


def test_nonfinite_objective_raises():
    p = LinearProgram(np.array([np.nan, 1.0]), np.ones((1, 2)), np.ones(1),
                      np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="finite entries"):
        solve_lp(p)


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

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_within_the_tolerance_is_nonempty(self, m):
        # xi = 1 + 0.9e-8 is just outside [0, 1]^m, within the kernel's
        # bound tolerance, and support answers there; an elastic LP once
        # summed the misses to 0.9e-8 * m, past its threshold 2e-8 at
        # m = 3 and 5, and is_empty said True
        S = ConstrainedZonotope(np.eye(m), np.zeros(m), np.eye(m),
                                (1.0 + 0.9e-8) * np.ones(m), FactorForm.ZO)
        assert not is_empty(S)
        assert support(S, np.eye(m)[0]) == pytest.approx(1.0 + 0.9e-8,
                                                         abs=1e-15)

    @staticmethod
    def _corpus():
        from test_acceptance import _random_hz, _seeded_network
        rng = np.random.default_rng(7)
        sets = [_random_hz(rng, 2, 2, 2, 3) for _ in range(3)]
        sets += [rlt_sharpen(_level_set(), 1),
                 # empty: the seeded 2-4-1 network's 0 level set, lifted
                 rlt_sharpen(relugraph.level_set_above(
                     _seeded_network([4], 0), 0.0), 1)]
        return sets

    def test_empty_exactly_when_support_raises(self):
        # is_empty reads the kept start that support reads, so the two
        # answer by one certificate, leaf by leaf and for the set
        answers = set()
        for H in self._corpus():
            for S in [H] + [L for _, L in leaves(H)]:
                empty = is_empty(S)
                answers.add(empty)
                for u in direction_set(2, 4):
                    if empty:
                        with pytest.raises(EmptySet):
                            support(S, u)
                    else:
                        support(S, u)
        assert answers == {False, True}


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


def _assert_within(values, ref, rel):
    """Each value within rel * (1 + |ref|) of its reference; -inf (every
    leaf empty) only where the reference is -inf too."""
    values, ref = np.asarray(values), np.asarray(ref)
    empty = np.isneginf(ref)
    np.testing.assert_array_equal(np.isneginf(values), empty)
    err = np.abs(values[~empty] - ref[~empty])
    assert np.all(err <= rel * (1.0 + np.abs(ref[~empty]))), np.max(err)


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
        # open directions are answered as children of the relaxation's LP,
        # a different computation from the leaves' own LPs
        best = np.array([v for v, _ in
                         _support_points(leaf_list, rep.directions[opened])])
        _assert_within(rep.hull_support[opened], best, 1e-9)
        np.testing.assert_array_equal(rep.hull_support[rep.closed],
                                      rep.relax_support[rep.closed])
        for u, h in zip(rep.directions, rep.hull_support):
            lone = [support(L, u) for L in leaf_list if not is_empty(L)]
            assert abs(h - max(lone)) <= 1e-9

    def test_a_leaf_point_needs_integral_binaries_and_the_leaf_equalities(self):
        X = _level_set()
        R = convex_relaxation(X)
        # a factor point of a nonempty leaf: its y from the elastic LP, its
        # binaries
        a, L = [(a, L) for a, L in leaves(X) if not is_empty(L)][0]
        _, y = _simplex.min_infeasibility(L.A, L.b, *L.factor_bounds())
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

    @pytest.mark.parametrize("n_angles", [0, -3, 2.0, True])
    def test_bad_n_angles_raises(self, n_angles):
        # 0 once failed in numpy ("zero-size array to reduction operation")
        sq = convex_relaxation(_unit_square())
        with _simplex.lp_stats() as stats:
            with pytest.raises(ValueError, match="positive integer"):
                boundary_2d(sq, n_angles=n_angles)
            with pytest.raises(ValueError, match="positive integer"):
                area_2d(sq, n_angles)
        assert stats.phase1_runs == 0 and stats.rows == 0

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
        poly = boundary_2d(L, n_angles=16)
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

    def test_emptiness_and_support_keep_their_work(self):
        X = _level_set()
        with _simplex.lp_stats() as stats:
            assert not is_empty(X)
            support_point(X, [0.0, 1.0])
            assert not is_empty(X)
            support_point(X, [1.0, 0.0])
        # is_empty stops at the first nonempty leaf, the second, and makes
        # the kept start of each leaf it reads; the support LPs read those
        # two and make the other two; then is_empty reads its two kept
        # starts again, and the support LPs all four
        assert stats.phase1_runs == 4 and stats.phase1_reused == 2 + 2 + 4

    def test_kept_phase1_end_is_read_only_after_a_failed_row(self, fake_pass):
        R = convex_relaxation(_level_set())
        boundary_2d(R, n_angles=8)
        ladder = R.lp_ladder()
        kept = ladder.kept_start()  # (verdict, state)
        before = [a.copy() for a in kept[1]]
        calls = fake_pass(2, first_only=True)
        boundary_2d(R, n_angles=8)
        # the first row's pass from the kept start fails, and its cold
        # retry answers it; the other rows run phase 2 warm, from the row
        # before
        assert [name for name, _ in calls] == \
            ["_pass", "_start"] + ["_pass"] * 7
        assert ladder.kept_start() is kept
        for a, b in zip(kept[1], before, strict=True):
            assert not a.flags.writeable
            assert a.tobytes() == b.tobytes()
        with pytest.raises(ValueError):
            kept[1][0][0, 0] = 0.0  # the basis inverse

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


def _leaf_enumeration(S, U):
    """The support of the union of S's leaves in each row of U from each
    leaf's own LPs, -inf where every leaf is empty."""
    return np.array([-np.inf if out is None else out[0] for out in
                     _support_points([L for _, L in leaves(S)], U)])


def _acceptance_corpus():
    """The random sets of the acceptance suite's RLT tests (n_b = 1 to 4,
    drawn from `default_rng(50)`), each followed by its RLT lifts."""
    from test_acceptance import _random_hz
    rng = np.random.default_rng(50)
    for i in range(20):
        H = _random_hz(rng, 2, 2, 1 + i % 4, 1)
        yield H
        for d in range(1, H.n_b + 1):
            yield rlt_sharpen(H, d)


def _children_args(S, u):
    """(relaxation ladder, cost, pinned columns, pinned values) of the leaf
    LPs of S in direction u as children of its relaxation's LP."""
    R = convex_relaxation(S)
    V = np.array([a.as_array() for a, _ in leaves(S)])
    return (R.lp_ladder(), -(R.G.T @ u), np.arange(S.n_g, S.n_g + S.n_b), V)


def _lone_children(ladder, c, cols, V):
    """The lone `solve_bounded` answer of each child of `Ladder.children`:
    the ladder's LP with the columns `cols` pinned to a row of V."""
    refs = []
    for v in V:
        lo, up = ladder.lo.copy(), ladder.up.copy()
        lo[cols] = up[cols] = v
        refs.append(_simplex.solve_bounded(c, ladder.A, ladder.b, lo, up))
    return refs


class TestChildren:
    """In a direction that the relaxation does not close, the leaf LPs are
    children of the relaxation's LP: its binary columns pinned, answered by
    a dual pass from its optimal basis with no phase 1.  A child that no
    pass certifies gets one cold retry, the dual start for its own LP."""

    @pytest.mark.parametrize("form", [FactorForm.ZO, FactorForm.PM1])
    def test_children_are_leaf_enumeration(self, form):
        children = 0
        for H in _acceptance_corpus():
            S = convert_form(H, form)
            with _simplex.lp_stats() as stats:
                rep = check_sharpness(S, n_dirs=8)
            children += stats.children
            opened = ~rep.closed
            if opened.any():
                _assert_within(rep.hull_support[opened],
                               _leaf_enumeration(S, rep.directions[opened]),
                               1e-9)
        assert children > 0

    def test_d1_lift_runs_one_phase1(self):
        X1 = rlt_sharpen(_level_set(), 1)
        with _simplex.lp_stats() as stats:
            rep = check_sharpness(X1, n_dirs=4)
        n_open = int(np.sum(~rep.closed))
        assert n_open > 0
        assert stats.phase1_runs == 1  # the relaxation's; it was 5
        assert stats.children == 4 * n_open and stats.cold_retries == 0
        assert stats.pivots["dual"] > 0
        assert all("lp_ladder" not in L._kept for _, L in leaves(X1))

    def test_open_direction_solves_its_parent_once(self, fake_pass):
        # the batch row of an open direction is the parent of its children:
        # the kept start, one pass per direction, then one dual pass per
        # leaf of the one open direction, and no second parent pass
        X1 = rlt_sharpen(_level_set(), 1)
        calls = fake_pass(2, passes=set())  # records every run, fakes none
        rep = check_sharpness(X1, n_dirs=4)
        assert [name for name, _ in calls] == ["_start"] + ["_pass"] * 8
        assert [args[-1] for _, args in calls[1:]] == [2] * 4 + ["dual"] * 4
        opened = ~rep.closed
        assert opened.sum() == 1
        _assert_within(rep.hull_support[opened],
                       _leaf_enumeration(X1, rep.directions[opened]), 1e-9)

    def test_empty_leaf_is_certified_infeasible_by_the_dual_ray(self):
        X = _level_set()
        ladder, c, cols, V = _children_args(X, direction_set(2, 8)[4])
        with _simplex.lp_stats() as stats:
            out = ladder_children(ladder, c, cols, V)
        empty = [is_empty(L) for _, L in leaves(X)]
        assert 0 < sum(empty) < len(empty)
        assert [o[0] for o in out] == [1 if e else 0 for e in empty]
        # the relaxation's phase 1 alone
        assert stats.phase1_runs == 1 and stats.cold_retries == 0

    @pytest.mark.parametrize("status", [0, 1, 2])
    def test_failed_dual_pass_is_answered_by_its_cold_retry(self, fake_pass,
                                                            status):
        X1 = rlt_sharpen(_level_set(), 1)
        ladder, c, cols, V = _children_args(X1, np.array([0.6, 0.8]))
        refs = _lone_children(ladder, c, cols, V)
        # runs 1 and 2 are the kept start and the parent's pass; then each
        # child's pass, faked, and the run after it
        children = set(range(3, 3 + 2 * len(V), 2))
        calls = fake_pass(status, passes=children)
        with _simplex.lp_stats() as stats:
            out = ladder_children(ladder, c, cols, V)
        # every proposal is wrong for its leaf: the pinned lower bounds,
        # which miss its equalities, or a ray that proves nothing; so the
        # run after each child's pass is the dual start for the child's own
        # LP, with its columns pinned
        assert [name for name, _ in calls] == \
            ["_start", "_pass"] + ["_pass", "_start"] * len(V)
        for k in children:
            (_, child), (_, retry) = calls[k - 1], calls[k]
            assert child[-1] == "dual" and retry[0] is child[1]
            np.testing.assert_array_equal(retry[3], child[0][2][:len(c)])
            np.testing.assert_array_equal(retry[4], child[0][3][:len(c)])
        assert stats.children == stats.cold_retries == len(V)
        assert stats.phase1_runs == 1 + len(V)
        assert {st for st, _, _ in refs} == {0, 1}
        for (st, obj, _), (ref_st, ref, _) in zip(out, refs):
            assert st == ref_st
            assert st == 1 or abs(obj - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_failed_dual_pass_and_cold_retry_raise(self, fake_pass,
                                                   monkeypatch):
        # a dry run on a twin of X1 numbers the runs; then the first child's
        # pass and its cold retry fail, and the check raises
        twin, X1 = (rlt_sharpen(_level_set(), 1) for _ in range(2))
        calls = fake_pass(2, passes=set())
        check_sharpness(twin, n_dirs=4)
        first = next(k for k, (name, args) in enumerate(calls, 1)
                     if name == "_pass" and args[-1] == "dual")
        monkeypatch.undo()
        fake_pass(2, passes={first})
        real = _simplex._start

        def start(c, A, b, lo, up, max_iter):
            if np.any(lo == up):  # a child's cold retry: its binaries pinned
                return (2, lo.copy(), None), None
            return real(c, A, b, lo, up, max_iter)
        monkeypatch.setattr(_simplex, "_start", start)
        with pytest.raises(NumericalFailure):
            check_sharpness(X1, n_dirs=4)

    def test_uncertified_parent_leaves_every_child_open(self, fake_pass):
        # the parent's pass from the kept start and its cold retry both
        # fail, so no basis is left for a dual pass, and each child, open,
        # gets its own cold retry
        X1 = rlt_sharpen(_level_set(), 1)
        ladder, c, cols, V = _children_args(X1, np.array([0.6, 0.8]))
        refs = _lone_children(ladder, c, cols, V)
        calls = fake_pass(2, passes={2, 3})
        with _simplex.lp_stats() as stats:
            out = ladder_children(ladder, c, cols, V)
        assert [name for name, _ in calls] == \
            ["_start", "_pass", "_start"] + ["_start"] * len(V)
        assert {st for st, _, _ in refs} == {0, 1}
        for (st, obj, _), (ref_st, ref, _) in zip(out, refs):
            assert st == ref_st
            assert st == 1 or abs(obj - ref) <= 1e-9 * (1.0 + abs(ref))
        assert stats.children == stats.cold_retries == len(V)
        assert stats.pivots["dual"] == 0
