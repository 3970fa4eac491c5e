import numpy as np
import pytest

from zonosharp import (
    ComplexityTuple,
    DimensionMismatch,
    EmptyList,
    FactorForm,
    FormMismatch,
    _simplex,
    affine_map,
    box,
    cartesian_product,
    check_sharpness,
    complexity,
    contains,
    convert_form,
    convex_relaxation,
    generalized_intersection,
    halfspace_intersection,
    interval,
    minkowski_sum,
    point,
    support,
    union,
    union_with_point,
)
from zonosharp.oracle import SharpnessVerdict


def _random_hz(rng, n=2, ng=2, nb=1, nc=1, form=FactorForm.ZO):
    from zonosharp import HybridZonotope
    Gc = rng.normal(size=(n, ng))
    Gb = rng.normal(size=(n, nb))
    c = rng.normal(size=n)
    Ac = rng.normal(size=(nc, ng))
    Ab = rng.normal(size=(nc, nb))
    lo = 0.0 if form is FactorForm.ZO else -1.0
    xi = rng.uniform(lo, 1.0, size=ng)
    xb = rng.integers(0, 2, size=nb).astype(float)
    if form is FactorForm.PM1:
        xb = 2 * xb - 1
    b = Ac @ xi + Ab @ xb
    return HybridZonotope(Gc, Gb, c, Ac, Ab, b, form)


class TestMinkowskiSum:
    def test_support_additivity(self):
        rng = np.random.default_rng(0)
        A = _random_hz(rng)
        B = _random_hz(rng)
        S = minkowski_sum(A, B)
        for _ in range(8):
            u = rng.normal(size=2)
            assert support(S, u) == pytest.approx(
                support(A, u) + support(B, u), abs=1e-6)

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            minkowski_sum(interval(0, 1), box(np.array([[0, 1], [0, 1]])))
        with pytest.raises(FormMismatch):
            minkowski_sum(interval(0, 1, FactorForm.PM1),
                          interval(0, 1, FactorForm.ZO))


class TestAffineMap:
    def test_support_identity(self):
        rng = np.random.default_rng(1)
        H = _random_hz(rng)
        R = rng.normal(size=(3, 2))
        s = rng.normal(size=3)
        M = affine_map(H, R, s)
        for _ in range(8):
            u = rng.normal(size=3)
            assert support(M, u) == pytest.approx(
                support(H, R.T @ u) + u @ s, abs=1e-6)

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            affine_map(interval(0, 1), np.eye(2))


class TestCartesianProduct:
    def test_membership(self):
        rng = np.random.default_rng(2)
        A = box(np.array([[0.0, 1.0]]), FactorForm.ZO)
        B = box(np.array([[2.0, 3.0]]), FactorForm.ZO)
        P = cartesian_product(A, B)
        assert contains(P, [0.5, 2.5])
        assert not contains(P, [1.5, 2.5])
        assert complexity(P) == ComplexityTuple(2, 0, 0)


class TestGeneralizedIntersection:
    def test_plain_intersection(self):
        A = box(np.array([[0.0, 2.0], [0.0, 2.0]]), FactorForm.ZO)
        B = box(np.array([[1.0, 3.0], [1.0, 3.0]]), FactorForm.ZO)
        X = generalized_intersection(A, B)
        assert contains(X, [1.5, 1.5])
        assert not contains(X, [0.5, 0.5])
        assert not contains(X, [2.5, 2.5])
        assert support(X, [1.0, 0.0]) == pytest.approx(2.0, abs=1e-6)
        assert support(X, [-1.0, 0.0]) == pytest.approx(-1.0, abs=1e-6)

    def test_with_map(self):
        # {x in [0,2]^2 | x1 + x2 in [0,1]}
        A = box(np.array([[0.0, 2.0], [0.0, 2.0]]), FactorForm.ZO)
        Z = interval(0.0, 1.0, FactorForm.ZO)
        X = generalized_intersection(A, Z, np.array([[1.0, 1.0]]))
        assert contains(X, [0.25, 0.25])
        assert not contains(X, [1.0, 0.5])

    def test_empty_intersection(self):
        from zonosharp import is_empty
        A = box(np.array([[0.0, 1.0]]), FactorForm.ZO)
        B = box(np.array([[2.0, 3.0]]), FactorForm.ZO)
        assert is_empty(generalized_intersection(A, B))


class TestHalfspaceIntersection:
    def test_square_cut(self):
        sq = box(np.array([[0.0, 1.0], [0.0, 1.0]]), FactorForm.ZO)
        H = halfspace_intersection(sq, [1.0, 0.0], 0.5)
        assert contains(H, [0.75, 0.5])
        assert not contains(H, [0.25, 0.5])
        assert support(H, [-1.0, 0.0]) == pytest.approx(-0.5, abs=1e-6)

    def test_cut_on_hybrid(self):
        rng = np.random.default_rng(3)
        U = union([box(np.array([[0.0, 1.0], [0.0, 1.0]]), FactorForm.ZO),
                   box(np.array([[2.0, 3.0], [0.0, 1.0]]), FactorForm.ZO)])
        H = halfspace_intersection(U, [1.0, 0.0], 1.5)
        for _ in range(50):
            p = rng.uniform([0, 0], [3, 1])
            if min(abs(p[0] - v) for v in (1, 1.5, 2)) < 1e-3:
                continue
            expected = 2 <= p[0] <= 3
            assert contains(H, p) == expected, p

    @pytest.mark.parametrize("a, k", [
        ([np.nan, 0.0], 0.5), ([np.inf, 0.0], 0.5), ([1.0, 0.0], np.nan),
        ([1.0, 0.0], np.inf), ([1.0, 0.0], -np.inf)],
        ids=["nan-a", "inf-a", "nan-k", "inf-k", "-inf-k"])
    def test_nonfinite_input_raises_before_the_lp(self, a, k):
        sq = box(np.array([[0.0, 1.0], [0.0, 1.0]]), FactorForm.ZO)
        with _simplex.lp_stats() as stats:
            with pytest.raises(ValueError, match="halfspace"):
                halfspace_intersection(sq, a, k)
        assert stats.phase1_runs == stats.rows == 0


class TestUnionWithPoint:
    def test_complexity_accounting(self):
        # one fresh binary, n_g + n_b new generators, n_c + n_g + n_b rows
        Z = _random_hz(np.random.default_rng(4), n=2, ng=3, nb=2, nc=1)
        U = union_with_point(Z, np.zeros(2))
        assert complexity(U) == ComplexityTuple(3 + 5, 2 + 1, 1 + 5)

    def test_membership_interval(self):
        Z = interval(0.0, 1.0, FactorForm.ZO)
        U = union_with_point(Z, np.array([3.0]))
        for v, exp in [(0.0, True), (0.5, True), (1.0, True), (3.0, True),
                       (2.0, False), (3.1, False), (-0.2, False)]:
            assert contains(U, [v]) == exp, v

    def test_requires_zo_form(self):
        with pytest.raises(FormMismatch):
            union_with_point(interval(0, 1, FactorForm.PM1), np.zeros(1))

    def test_sharp(self):
        Z = box(np.array([[0.0, 1.0], [0.0, 1.0]]), FactorForm.ZO)
        U = union_with_point(Z, np.array([3.0, 3.0]))
        rep = check_sharpness(U)
        assert rep.verdict is SharpnessVerdict.SHARP


class TestUnion:
    def test_complexity_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            N = int(rng.integers(2, 4))
            Zs = [_random_hz(rng, n=2, ng=int(rng.integers(1, 4)),
                             nb=int(rng.integers(0, 3)) or 1,
                             nc=int(rng.integers(0, 2)))
                  for _ in range(N)]
            U = union(Zs)
            ng = sum(2 * Z.n_g + Z.n_b for Z in Zs)
            nb = N + sum(Z.n_b for Z in Zs)
            nc = 1 + sum(Z.n_g + Z.n_b + Z.n_c for Z in Zs)
            assert complexity(U) == ComplexityTuple(ng, nb, nc)

    def test_membership_two_squares(self):
        rng = np.random.default_rng(6)
        U = union([box(np.array([[0.0, 1.0], [0.0, 1.0]]), FactorForm.ZO),
                   box(np.array([[2.0, 3.0], [0.0, 1.0]]), FactorForm.ZO)])
        for _ in range(60):
            p = rng.uniform([-0.5, -0.5], [3.5, 1.5])
            if min(abs(p[0] - v) for v in (0, 1, 2, 3)) < 1e-3:
                continue
            if min(abs(p[1] - v) for v in (0, 1)) < 1e-3:
                continue
            expected = ((0 <= p[0] <= 1) or (2 <= p[0] <= 3)) and 0 <= p[1] <= 1
            assert contains(U, p) == expected, p

    def test_empty_list(self):
        with pytest.raises(EmptyList):
            union([])

    def test_single_set(self):
        Z = box(np.array([[0.0, 1.0]]), FactorForm.ZO)
        U = union([Z])
        assert contains(U, [0.5]) and not contains(U, [1.5])

    def test_accepts_pm1_inputs(self):
        U = union([interval(0, 1, FactorForm.PM1),
                   interval(2, 3, FactorForm.PM1)])
        assert U.factor_form is FactorForm.ZO
        assert contains(U, [2.5]) and not contains(U, [1.5])


class TestConvexRelaxation:
    def test_structure(self):
        H = _random_hz(np.random.default_rng(7), ng=3, nb=2, nc=1)
        R = convex_relaxation(H)
        assert R.n_g == 5 and R.n_c == 1
        np.testing.assert_array_equal(R.G[:, :3], H.Gc)
        np.testing.assert_array_equal(R.G[:, 3:], H.Gb)

    def test_kept_on_the_set(self):
        from zonosharp import HybridZonotope
        H = _random_hz(np.random.default_rng(7), ng=3, nb=2, nc=1)
        assert convex_relaxation(H) is convex_relaxation(H)
        twin = HybridZonotope(H.Gc, H.Gb, H.c, H.Ac, H.Ab, H.b, H.factor_form)
        assert convex_relaxation(twin) is not convex_relaxation(H)
        R = convex_relaxation(H)
        assert convex_relaxation(R) is R

    def test_superset(self):
        rng = np.random.default_rng(8)
        H = _random_hz(rng)
        R = convex_relaxation(H)
        for _ in range(8):
            u = rng.normal(size=2)
            assert support(R, u) >= support(H, u) - 1e-8
