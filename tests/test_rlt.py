import copy
import errno
import mmap
import os
import pickle

import numpy as np
import pytest

from zonosharp import (
    ComplexityTuple,
    FactorForm,
    HybridZonotope,
    IndexSet,
    LevelOutOfRange,
    OverlappingIndexSets,
    build_xd,
    check_sharpness,
    complexity,
    contains,
    convex_relaxation,
    f_coefficients,
    interval,
    rlt_complexity,
    rlt_convex_hull,
    rlt_report,
    relugraph,
    rlt_sharpen,
    support,
    union,
)
from zonosharp.core import convert_form, leaves
from zonosharp.oracle import (SharpnessVerdict, _support_cz_many, direction_set,
                              is_feasible_cz)


def _random_hz_point(rng, n, ng, nb, nc):
    """01-form set and a feasible factor point (xb, xi) of it."""
    Gc = rng.normal(size=(n, ng))
    Gb = rng.normal(size=(n, nb))
    c = rng.normal(size=n)
    Ac = rng.normal(size=(nc, ng))
    Ab = rng.normal(size=(nc, nb))
    xi = rng.uniform(0, 1, size=ng)
    xb = rng.integers(0, 2, size=nb).astype(float)
    b = Ac @ xi + Ab @ xb
    return HybridZonotope(Gc, Gb, c, Ac, Ab, b, FactorForm.ZO), xb, xi


def _random_hz(rng, n, ng, nb, nc):
    return _random_hz_point(rng, n, ng, nb, nc)[0]


def _leaf_support(H, u):
    best = -np.inf
    for _, L in leaves(H):
        out = _support_cz_many(L, u[None])[0]
        if out is not None:
            best = max(best, out[0])
    return best


class TestIndexSet:
    def test_members_and_cardinality(self):
        J = IndexSet.of(1, 3)
        assert J.members() == (1, 3)
        assert len(J) == 2

    def test_subsets_ascending(self):
        masks = [S.mask for S in IndexSet.of(1, 2).subsets()]
        assert masks == [0b00, 0b01, 0b10, 0b11]

    def test_union(self):
        assert IndexSet.of(1).union(IndexSet.of(3)).members() == (1, 3)


class TestFCoefficients:
    def test_single_factor(self):
        # (1 - x1) linearized: +w_empty - w_{1}
        out = f_coefficients(IndexSet.of(), IndexSet.of(1))
        assert out == {IndexSet.of(): 1, IndexSet.of(1): -1}

    def test_mixed_pair(self):
        # x1 (1 - x2)(1 - x3)
        out = f_coefficients(IndexSet.of(1), IndexSet.of(2, 3))
        assert out == {IndexSet.of(1): 1, IndexSet.of(1, 2): -1,
                       IndexSet.of(1, 3): -1, IndexSet.of(1, 2, 3): 1}

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingIndexSets):
            f_coefficients(IndexSet.of(1), IndexSet.of(1, 2))


class TestComplexityFormula:
    def test_single_binary(self):
        assert rlt_complexity(ComplexityTuple(1, 1, 0), 1) == \
            ComplexityTuple(6, 1, 4)

    def test_level_bounds(self):
        with pytest.raises(LevelOutOfRange):
            rlt_complexity(ComplexityTuple(3, 2, 1), 3)
        with pytest.raises(LevelOutOfRange):
            rlt_complexity(ComplexityTuple(3, 2, 1), 0)

    def test_report_actual_vs_nominal(self):
        H = _random_hz(np.random.default_rng(0), 2, 2, 2, 1)
        out, report = rlt_report(H, 1)
        nominal = report["nominal"]
        actual = report["actual"]
        t = complexity(out)
        assert actual == {"n_g": t.n_g, "n_b": t.n_b, "n_c": t.n_c}
        # the closed-form count omits one slack per order-D product row
        from math import comb
        D = min(2, 2)
        extra = comb(2, D) * 2 ** D
        assert actual["n_g"] == nominal["n_g"] + extra
        assert actual["n_c"] == nominal["n_c"] + extra


class TestLift:
    def test_level_validation(self):
        H = _random_hz(np.random.default_rng(1), 2, 2, 2, 1)
        with pytest.raises(LevelOutOfRange):
            build_xd(H, 0)
        with pytest.raises(LevelOutOfRange):
            build_xd(H, 3)

    def test_lift_binary_count_unchanged(self):
        H = _random_hz(np.random.default_rng(2), 2, 2, 3, 1)
        for d in (1, 2, 3):
            assert rlt_sharpen(H, d).n_b == 3

    def test_nb_zero_passthrough(self):
        Z = interval(0.0, 1.0, FactorForm.ZO)
        assert rlt_sharpen(Z, 1) is Z

    @pytest.mark.parametrize("nb", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_lifted_point_satisfies_rows(self, nb, seed):
        # the lifted factor point in the documented column order: y, then
        # w_J (|J| >= 2), then v_{J,k} (|J| >= 1, k inside J), masks ascending
        H, x, y = _random_hz_point(np.random.default_rng([seed, nb]), 2, 2, nb, 1)
        mono = np.array([np.prod(x[[j for j in range(nb) if m >> j & 1]])
                         for m in range(1 << nb)])
        w = [mono[m] for m in range(1 << nb) if m.bit_count() >= 2]
        v = [mono[m] * yk for m in range(1, 1 << nb) for yk in y]
        z = np.concatenate([y, w, v])
        for d in range(1, nb + 1):
            X, table = build_xd(H, d)
            assert table.slack_start == len(z)
            assert table.n_cols == X.n_g == len(z) + table.n_slack
            assert sorted(table.w_index) == [m for m in range(1 << nb)
                                             if m.bit_count() >= 2]
            assert list(table.w_index.values()) == list(range(2, 2 + len(w)))
            assert list(table.v_index) == [(m, k) for m in range(1, 1 << nb)
                                           for k in range(2)]
            assert list(table.v_index.values()) == \
                list(range(2 + len(w), len(z)))
            slack = X.Ac[:, len(z):]
            resid = X.Ac[:, :len(z)] @ z + X.Ab @ x - X.b
            bound = np.any(slack != 0.0, axis=1)
            assert np.count_nonzero(bound) == table.n_slack
            eq_tol = 1e-12 * (1.0 + np.max(np.abs(X.b)))
            assert np.all(np.abs(resid[~bound]) <= eq_tol)
            # each bound-factor row owns one slack: a single -1 in its column
            assert np.all(np.count_nonzero(slack[bound], axis=1) == 1)
            cols = np.argmax(slack[bound] != 0.0, axis=1)
            assert sorted(cols) == list(range(table.n_slack))
            assert np.all(slack[bound, cols] == -1.0)
            assert np.all(resid[bound] >= -1e-12)
            assert np.all(resid[bound] <= 1.0 + 1e-12)


def _reference_lift(H, d):
    """The level-d lift built row by row, straight from f_coefficients and
    the documented row and column order: the slow reference for build_xd."""
    H = convert_form(H.as_hybrid(), FactorForm.ZO)
    nb, ng, r = H.n_b, H.n_g, H.n_c
    A, B, beta = H.Ab, H.Ac, H.b
    masks = range(1 << nb)
    wide = [m for m in masks if m.bit_count() >= 2]
    w_col = {m: ng + i for i, m in enumerate(wide)}
    v_col = {(m, k): ng + len(wide) + (m - 1) * ng + k
             for m in masks if m for k in range(ng)}
    rows = []  # (continuous coefficients, binary coefficients, rhs, slack?)

    def new_row(slack):
        rows.append(({}, {}, [0.0], slack))
        return rows[-1]

    def put_w(row, mask, coef):
        if coef == 0.0:
            return
        if mask == 0:
            row[2][0] = -coef
        elif mask.bit_count() == 1:
            row[1][mask.bit_length() - 1] = coef
        else:
            row[0][w_col[mask]] = coef

    def put_v(row, mask, k, coef):
        if coef != 0.0:
            row[0][v_col[mask, k] if mask else k] = coef

    def pairs(order):
        for U in (m for m in masks if m.bit_count() == order):
            for J1 in IndexSet(U).subsets():
                yield f_coefficients(J1, IndexSet(U ^ J1.mask))

    for J in sorted((m for m in masks if m.bit_count() <= d), key=int.bit_count):
        members = [j for j in range(nb) if J >> j & 1]
        for i in range(r):
            row = new_row(False)
            put_w(row, J, sum(A[i, j] for j in members) - beta[i])
            for j in range(nb):
                if j not in members:
                    put_w(row, J | 1 << j, A[i, j])
            for k in range(ng):
                put_v(row, J, k, B[i, k])
    for coefs in pairs(min(d + 1, nb)):
        row = new_row(True)
        for J, s in coefs.items():
            put_w(row, J.mask, float(s))
    for coefs in pairs(d):
        for k in range(ng):
            low, gap = new_row(True), new_row(True)
            for J, s in coefs.items():
                put_v(low, J.mask, k, float(s))
                put_w(gap, J.mask, float(s))
                put_v(gap, J.mask, k, -float(s))

    slack_start = ng + len(wide) + len(v_col)
    n_slack = sum(row[3] for row in rows)
    Ac = np.zeros((len(rows), slack_start + n_slack))
    Ab = np.zeros((len(rows), nb))
    b = np.zeros(len(rows))
    slack = slack_start
    for i, (cont, binary, rhs, has_slack) in enumerate(rows):
        for col, v in cont.items():
            Ac[i, col] = v
        for col, v in binary.items():
            Ab[i, col] = v
        b[i] = rhs[0]
        if has_slack:
            Ac[i, slack] = -1.0
            slack += 1
    Gc = np.zeros((nb + ng, Ac.shape[1]))
    Gc[nb:, :ng] = np.eye(ng)
    Gb = np.vstack([np.eye(nb), np.zeros((ng, nb))])
    return Gc, Gb, np.zeros(nb + ng), Ac, Ab, b


def _assert_same_bytes(X, reference):
    for name, ref in zip(("Gc", "Gb", "c", "Ac", "Ab", "b"), reference):
        got = getattr(X, name)
        assert (got.shape, got.dtype) == (ref.shape, ref.dtype), name
        assert got.tobytes() == ref.tobytes(), name


class TestLiftParity:
    """build_xd against the row-by-row reference, byte for byte (signed
    zeros count), including n_b = 1 (D = d), n_c = 0 (no family (i)) and
    n_g = 0 (no v columns and no family (iii))."""

    @pytest.mark.parametrize("nc", [0, 1, 2])
    @pytest.mark.parametrize("ng", [0, 1, 3])
    @pytest.mark.parametrize("nb", [1, 2, 3, 4, 5])
    def test_random_sets_every_level(self, nb, ng, nc):
        H = _random_hz(np.random.default_rng([nb, ng, nc]), 2, ng, nb, nc)
        for d in range(1, nb + 1):
            _assert_same_bytes(build_xd(H, d)[0], _reference_lift(H, d))

    def test_pm1_input(self):
        H = convert_form(_random_hz(np.random.default_rng(5), 2, 3, 3, 2),
                         FactorForm.PM1)
        for d in (1, 2, 3):
            _assert_same_bytes(build_xd(H, d)[0], _reference_lift(H, d))

    def test_zero_and_signed_zero_data(self):
        H = _random_hz(np.random.default_rng(6), 2, 2, 3, 2)
        Ab, Ac, b = H.Ab.copy(), H.Ac.copy(), H.b.copy()
        Ab[0, 1], Ab[1, 0], Ac[0, 0], Ac[1, 1], b[1] = -0.0, 0.0, -0.0, 0.0, -0.0
        Z = HybridZonotope(H.Gc, H.Gb, H.c, Ac, Ab, b, FactorForm.ZO)
        for d in (1, 2, 3):
            _assert_same_bytes(build_xd(Z, d)[0], _reference_lift(Z, d))

    @pytest.mark.parametrize("d", [1, 2])
    def test_demo_level_set(self, d):
        X = relugraph.level_set_above(relugraph.demo_network(), 0.5)
        _assert_same_bytes(build_xd(X, d)[0], _reference_lift(X, d))

    def test_mapped_lift_pickles_and_copies(self):
        # n_b = 8, d = 3 with n_g = 2 and n_c = 1, as in the benchmark; Ac is
        # a private mapping
        H = _random_hz(np.random.default_rng([8, 2, 1]), 2, 2, 8, 1)
        X, reference = build_xd(H, 3)[0], _reference_lift(H, 3)
        assert isinstance(_storage(X.Ac), mmap.mmap)
        _assert_same_bytes(X, reference)
        R = HybridZonotope(*reference, FactorForm.ZO)
        assert not X.Ac.flags.writeable and not R.Ac.flags.writeable
        assert pickle.dumps(X) == pickle.dumps(R)
        for Y in (pickle.loads(pickle.dumps(X)), copy.deepcopy(X)):
            _assert_same_bytes(Y, reference)
            assert pickle.dumps(Y) == pickle.dumps(R)


def _storage(a):
    """The object at the end of the chain of bases of the array a."""
    while isinstance(a, (np.ndarray, memoryview)):
        a = a.base if isinstance(a, np.ndarray) else a.obj
    return a


def _resident_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * mmap.PAGESIZE


class TestLiftStorage:
    """A sparse Ac commits memory only in the pages that its entries fall in;
    a dense one comes from np.zeros."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm")
    def test_sparse_lift_commits_less_than_half_of_ac(self):
        # n_b = 8, d = 4: 53288 entries in a 345 MiB Ac.  An np.zeros Ac grew
        # resident memory by about all of it where transparent huge pages
        # are in madvise or always mode; in never mode it commits only the
        # 4 KiB pages written too, so the storage is checked as well
        H = _random_hz(np.random.default_rng(8), 2, 2, 8, 1)
        before = _resident_bytes()
        X = build_xd(H, 4)[0]
        grown = _resident_bytes() - before
        assert X.Ac.shape == (6435, 7031)
        assert isinstance(_storage(X.Ac), mmap.mmap)
        assert grown < X.Ac.nbytes / 2, (grown, X.Ac.nbytes)

    def test_lift_without_private_mappings_is_the_same(self, monkeypatch):
        # Windows' mmap has no MAP_PRIVATE; there Ac comes from np.zeros
        H = _random_hz(np.random.default_rng([8, 2, 1]), 2, 2, 8, 1)
        monkeypatch.delattr(mmap, "MAP_PRIVATE")
        X = build_xd(H, 3)[0]
        assert not isinstance(_storage(X.Ac), mmap.mmap)
        _assert_same_bytes(X, _reference_lift(H, 3))

    def test_lift_with_entries_in_most_pages_is_not_mapped(self):
        # the d = 2 lift of the demo level set writes into every page of Ac
        X = relugraph.level_set_above(relugraph.demo_network(), 0.5)
        lift = build_xd(X, 2)[0]
        assert lift.Ac.nbytes >= 2 * mmap.PAGESIZE
        assert not isinstance(_storage(lift.Ac), mmap.mmap)

    def test_failed_mapping_raises_memory_error(self, monkeypatch):
        def no_memory(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(mmap, "mmap", no_memory)
        H = _random_hz(np.random.default_rng([8, 2, 1]), 2, 2, 8, 1)
        with pytest.raises(MemoryError):
            build_xd(H, 3)


class TestSetEquality:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_set_at_every_level(self, seed):
        rng = np.random.default_rng(seed)
        H = _random_hz(rng, 2, 2, 2, 1)
        pts = rng.uniform(-3, 3, size=(30, 2))
        # bias half the points toward the set so both answers get exercised
        for i in range(15):
            xi = rng.uniform(0, 1, size=2)
            xb = rng.integers(0, 2, size=2).astype(float)
            if np.max(np.abs(H.Ac @ xi + H.Ab @ xb - H.b)) < 1e-9:
                pts[i] = H.Gc @ xi + H.Gb @ xb + H.c
        for d in (1, 2):
            S = rlt_sharpen(H, d)
            for p in pts:
                assert contains(H, p) == contains(S, p), (d, p)


class TestHierarchyAndHull:
    def test_monotone_and_exact_on_union(self):
        # union of two squares is sharp, so every level must stay at the hull
        U = union([
            HybridZonotope(0.5 * np.eye(2), np.zeros((2, 0)),
                           np.array([0.5, 0.5]), np.zeros((0, 2)),
                           np.zeros((0, 0)), np.zeros(0), FactorForm.ZO),
            HybridZonotope(0.5 * np.eye(2), np.zeros((2, 0)),
                           np.array([2.5, 0.5]), np.zeros((0, 2)),
                           np.zeros((0, 0)), np.zeros(0), FactorForm.ZO)])
        dirs = direction_set(2, 16)
        hull = [_leaf_support(U, u) for u in dirs]
        R = convex_relaxation(rlt_sharpen(U, 1))
        for u, h in zip(dirs, hull):
            assert support(R, u) <= h + 1e-6

    def test_hull_on_l_shape(self):
        # L-shape: [0,2]x[0,1] u [0,1]x[0,2]; hull adds the corner triangle
        U = union([
            HybridZonotope(np.diag([1.0, 0.5]), np.zeros((2, 0)),
                           np.array([1.0, 0.5]), np.zeros((0, 2)),
                           np.zeros((0, 0)), np.zeros(0), FactorForm.ZO),
            HybridZonotope(np.diag([0.5, 1.0]), np.zeros((2, 0)),
                           np.array([0.5, 1.0]), np.zeros((0, 2)),
                           np.zeros((0, 0)), np.zeros(0), FactorForm.ZO)])
        hull = rlt_convex_hull(U)
        dirs = direction_set(2, 32)
        for u in dirs:
            assert support(hull, u) == pytest.approx(_leaf_support(U, u),
                                                     abs=1e-6)
        # hull contains the corner triangle midpoint, the set does not
        assert contains(hull, [1.4, 1.4])
        assert not contains(U, [1.4, 1.4])

    def test_hull_of_convex_input(self):
        Z = interval(0.0, 1.0, FactorForm.ZO)
        hull = rlt_convex_hull(Z)
        assert support(hull, [1.0]) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_hierarchy(self, seed):
        rng = np.random.default_rng(100 + seed)
        H = _random_hz(rng, 2, 2, 3, 1)
        if not any(is_feasible_cz(L) for _, L in leaves(H)):
            pytest.skip("randomly empty")
        dirs = direction_set(2, 12, seed=seed)
        prev = None
        for d in (1, 2, 3):
            R = convex_relaxation(rlt_sharpen(H, d))
            sup = np.array([support(R, u) for u in dirs])
            if prev is not None:
                assert np.all(sup <= prev + 1e-6)
            prev = sup
        hull = np.array([_leaf_support(H, u) for u in dirs])
        np.testing.assert_allclose(prev, hull, atol=1e-6)

    def test_sharpened_output_passes_checker(self):
        rng = np.random.default_rng(42)
        H = _random_hz(rng, 2, 2, 2, 1)
        S = rlt_sharpen(H, 2)
        rep = check_sharpness(S)
        assert rep.verdict is SharpnessVerdict.SHARP
