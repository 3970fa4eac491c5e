import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from zonosharp import (
    ComplexityTuple,
    FactorForm,
    HybridZonotope,
    IndexSet,
    LevelOutOfRange,
    OverlappingIndexSets,
    SparseMatrix,
    affine_map,
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
    support_point,
    union,
)
from zonosharp.core import convert_form, leaves, set_from_obj, set_to_obj
from zonosharp.oracle import (SharpnessVerdict, _factor_optima, direction_set,
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
        out = _factor_optima(L, u[None])[0]
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
        for lift in (build_xd, rlt_sharpen, rlt_report):
            with pytest.raises(LevelOutOfRange):
                lift(H, 0)
            with pytest.raises(LevelOutOfRange):
                lift(H, 3)
        # n_b = 0 has no level, though rlt_sharpen passes such a set through
        Z = interval(0.0, 1.0, FactorForm.ZO)
        for d in (0, 1):
            with pytest.raises(LevelOutOfRange):
                build_xd(Z, d)

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
        # w_J (|J| >= 2), then v_{J,k} (|J| >= 1, k fastest), masks ascending
        from math import comb
        H, x, y = _random_hz_point(np.random.default_rng([seed, nb]), 2, 2, nb, 1)
        mono = np.array([np.prod(x[[j for j in range(nb) if m >> j & 1]])
                         for m in range(1 << nb)])
        w = [mono[m] for m in range(1 << nb) if m.bit_count() >= 2]
        v = [mono[m] * yk for m in range(1, 1 << nb) for yk in y]
        z = np.concatenate([y, w, v])
        for d in range(1, nb + 1):
            X = build_xd(H, d)
            D = min(d + 1, nb)
            n_slack = (comb(nb, D) << D) + 2 * len(y) * (comb(nb, d) << d)
            assert X.n_g == len(z) + n_slack
            Ac = np.asarray(X.Ac)
            slack = Ac[:, len(z):]
            resid = Ac[:, :len(z)] @ z + X.Ab @ x - X.b
            bound = np.any(slack != 0.0, axis=1)
            assert np.count_nonzero(bound) == n_slack
            eq_tol = 1e-12 * (1.0 + np.max(np.abs(X.b)))
            assert np.all(np.abs(resid[~bound]) <= eq_tol)
            # each bound-factor row owns one slack: a single -1 in its column
            assert np.all(np.count_nonzero(slack[bound], axis=1) == 1)
            cols = np.argmax(slack[bound] != 0.0, axis=1)
            assert sorted(cols) == list(range(n_slack))
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
    """Every array of X, Ac by its dense form, equals the reference's byte
    for byte."""
    for name, ref in zip(("Gc", "Gb", "c", "Ac", "Ab", "b"), reference):
        got = np.asarray(getattr(X, name))
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
            _assert_same_bytes(build_xd(H, d), _reference_lift(H, d))

    def test_pm1_input(self):
        H = convert_form(_random_hz(np.random.default_rng(5), 2, 3, 3, 2),
                         FactorForm.PM1)
        for d in (1, 2, 3):
            _assert_same_bytes(build_xd(H, d), _reference_lift(H, d))

    def test_zero_and_signed_zero_data(self):
        H = _random_hz(np.random.default_rng(6), 2, 2, 3, 2)
        Ab, Ac, b = H.Ab.copy(), H.Ac.copy(), H.b.copy()
        Ab[0, 1], Ab[1, 0], Ac[0, 0], Ac[1, 1], b[1] = -0.0, 0.0, -0.0, 0.0, -0.0
        Z = HybridZonotope(H.Gc, H.Gb, H.c, Ac, Ab, b, FactorForm.ZO)
        for d in (1, 2, 3):
            _assert_same_bytes(build_xd(Z, d), _reference_lift(Z, d))

    @pytest.mark.parametrize("d", [1, 2])
    def test_demo_level_set(self, d):
        X = relugraph.level_set_above(relugraph.demo_network(), 0.5)
        _assert_same_bytes(build_xd(X, d), _reference_lift(X, d))

    def test_sparse_lift_pickles_and_copies(self):
        # n_b = 8, d = 3 with n_g = 2 and n_c = 1, as in the benchmark
        H = _random_hz(np.random.default_rng([8, 2, 1]), 2, 2, 8, 1)
        X, reference = build_xd(H, 3), _reference_lift(H, 3)
        assert isinstance(X.Ac, SparseMatrix)
        _assert_same_bytes(X, reference)
        assert not np.asarray(X.Ac).flags.writeable
        for Y in (pickle.loads(pickle.dumps(X)), copy.deepcopy(X)):
            assert isinstance(Y.Ac, SparseMatrix) and Y.Ac is not X.Ac
            # the dense form that X.Ac now keeps is not carried over
            assert Y.Ac._dense is None
            _assert_same_bytes(Y, reference)
            assert not np.asarray(Y.Ac).flags.writeable
            assert not Y.Ac.val.flags.writeable
        # copy() is a writable dense array of its own
        Ac = X.Ac.copy()
        Ac[0, 0] += 0.5
        assert Ac.tobytes() != reference[3].tobytes()
        _assert_same_bytes(X, reference)

    def test_relaxation_writes_the_entries_into_one_array(self):
        H = _random_hz(np.random.default_rng([8, 2, 1]), 2, 2, 8, 1)
        X, reference = build_xd(H, 3), _reference_lift(H, 3)
        tracemalloc.start()
        try:
            R = convex_relaxation(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.Ac._dense is None  # no dense Ac on the way
        assert peak <= 1.1 * 8 * X.n_c * (X.n_g + X.n_b), peak
        dense = np.hstack([reference[3], reference[4]])
        assert R.A.tobytes() == dense.tobytes()


def _assert_same_sharpened(H, d):
    """rlt_sharpen(H, d) against the lift of build_xd mapped back by
    affine_map: Ac's entries, Ab, b and Gc byte for byte, Gb and c as
    numbers (the map's products can turn a -0.0 of the input into +0.0)."""
    Hz = convert_form(H.as_hybrid(), FactorForm.ZO)
    ref = affine_map(build_xd(Hz, d), np.hstack([Hz.Gb, Hz.Gc]), Hz.c)
    out = rlt_sharpen(H, d)
    assert out.factor_form is FactorForm.ZO
    assert isinstance(out.Ac, SparseMatrix) and out.Ac.shape == ref.Ac.shape
    for name in ("row", "col", "val"):
        got, want = getattr(out.Ac, name), getattr(ref.Ac, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for name in ("Ab", "b", "Gc"):
        got, want = getattr(out, name), getattr(ref, name)
        assert (got.shape, got.dtype) == (want.shape, want.dtype), name
        assert got.tobytes() == want.tobytes(), name
    for name in ("Gb", "c"):
        got, want = getattr(out, name), getattr(ref, name)
        assert got.shape == want.shape and np.array_equal(got, want), name
    return out


class TestSharpenParity:
    """rlt_sharpen builds its output from the lift's rows and H's own
    generators; the reference is the route through build_xd's set over the
    factor coordinates and affine_map, on TestLiftParity's inputs."""

    @pytest.mark.parametrize("nc", [0, 1, 2])
    @pytest.mark.parametrize("ng", [0, 1, 3])
    @pytest.mark.parametrize("nb", [1, 2, 3, 4, 5])
    def test_random_sets_every_level(self, nb, ng, nc):
        H = _random_hz(np.random.default_rng([nb, ng, nc]), 2, ng, nb, nc)
        for d in range(1, nb + 1):
            _assert_same_sharpened(H, d)

    def test_pm1_input(self):
        H = convert_form(_random_hz(np.random.default_rng(5), 2, 3, 3, 2),
                         FactorForm.PM1)
        for d in (1, 2, 3):
            _assert_same_sharpened(H, d)

    def test_zero_and_signed_zero_data(self):
        H = _random_hz(np.random.default_rng(6), 2, 2, 3, 2)
        Ab, Ac, b = H.Ab.copy(), H.Ac.copy(), H.b.copy()
        Ab[0, 1], Ab[1, 0], Ac[0, 0], Ac[1, 1], b[1] = -0.0, 0.0, -0.0, 0.0, -0.0
        Gb, c = H.Gb.copy(), H.c.copy()
        Gb[1, 2], c[0] = -0.0, -0.0
        Z = HybridZonotope(H.Gc, Gb, c, Ac, Ab, b, FactorForm.ZO)
        for d in (1, 2, 3):
            out = _assert_same_sharpened(Z, d)
            # the output keeps the input's Gb and c, signed zeros included
            assert out.Gb.tobytes() == Gb.tobytes()
            assert out.c.tobytes() == c.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_demo_level_set(self, d):
        X = relugraph.level_set_above(relugraph.demo_network(), 0.5)
        _assert_same_sharpened(X, d)


class TestLiftEntryOrder:
    """Ac's entries come in family blocks, the order in which `Ac @ Z` sums
    each row: (i), (ii), then (iii)'s low rows on v_{J,k}, its gap rows on
    w_J and its gap rows on v_{J,k}, and last the slack diagonal."""

    @pytest.mark.parametrize("nb, ng, nc", [(3, 2, 1), (4, 1, 0), (3, 0, 2),
                                            (5, 3, 2)])
    def test_family_blocks(self, nb, ng, nc):
        from math import comb
        H = _random_hz(np.random.default_rng([nb, ng, nc]), 2, ng, nb, nc)
        for d in range(1, nb + 1):
            X = build_xd(H, d)
            row, col, val = X.Ac.row, X.Ac.col, X.Ac.val
            n_eq = nc * sum(comb(nb, i) for i in range(d + 1))
            n_D = comb(nb, min(d + 1, nb)) << min(d + 1, nb)
            n_slack = n_D + 2 * ng * (comb(nb, d) << d)
            n_w = (1 << nb) - nb - 1
            slack_start = ng + n_w + ng * ((1 << nb) - 1)
            # the slacks close the entries, -1 on the diagonal
            assert np.array_equal(row[-n_slack:], np.arange(n_eq, X.n_c))
            assert np.array_equal(col[-n_slack:],
                                  np.arange(slack_start, X.n_g))
            assert np.all(val[-n_slack:] == -1.0)
            row, col = row[:-n_slack], col[:-n_slack]
            gap = (row >= n_eq + n_D) & ((row - n_eq - n_D) % 2 == 1)
            on_w = (ng <= col) & (col < ng + n_w)
            family = np.select([row < n_eq, row < n_eq + n_D, ~gap,
                                on_w], [0, 1, 2, 3], 4)
            # the blocks come in order; the rows ascend in (i) and (ii), and
            # each (iii) block runs over its pairs' terms in order, with k
            # the fastest
            assert np.all(np.diff(family) >= 0)
            for f in range(2):
                assert np.all(np.diff(row[family == f]) >= 0)
            for f in range(2, 5) if ng else ():  # n_g = 0: no family (iii)
                pair, k = np.divmod((row[family == f] - n_eq - n_D) // 2, ng)
                assert np.all(np.diff(pair) >= 0)
                assert np.array_equal(k, np.tile(np.arange(ng), len(k) // ng))


class TestLiftStorage:
    """Ac is stored as its entries; the nominal dense array is never made."""

    def test_sparse_lift_commits_less_than_half_of_ac(self):
        # n_b = 8, d = 4: 53288 entries in a 6435 x 7031 Ac, whose dense
        # form (np.zeros) alone would take 345 MiB
        H = _random_hz(np.random.default_rng(8), 2, 2, 8, 1)
        for lift in (lambda: build_xd(H, 4), lambda: rlt_sharpen(H, 4)):
            tracemalloc.start()
            try:
                X = lift()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert isinstance(X.Ac, SparseMatrix) and X.Ac._dense is None
            assert X.Ac.shape == (6435, 7031) and X.Ac.nnz == 53288
            assert peak < 16 * 2 ** 20, peak


def test_lift_transient_memory():
    # n_b = 8, d = 4: build_xd's peak is at most 1.7 times what the call
    # leaves traced, the lift (Ac's entries, Ab, b and Gc).
    # Routing each family's entries where they are made reads 1.36 here;
    # concatenating all families before routing them read 2.02
    H = _random_hz(np.random.default_rng(8), 2, 2, 8, 1)
    tracemalloc.start()
    try:
        X = build_xd(H, 4)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.Ac.nnz == 53288
    assert peak <= 1.7 * held, (peak, held)


def _consumer_lifts():
    """(name, set, level, points for contains).  A point near the (6,2)
    lift takes up to 14 s of elastic LPs over its 64 leaves on each of the
    two sets, so it gets 4 points and the demo lifts 50."""
    demo = relugraph.level_set_above(relugraph.demo_network(), 0.5)
    H = _random_hz(np.random.default_rng([6, 2]), 2, 2, 6, 1)
    return [("demo-1", demo, 1, 50), ("demo-2", demo, 2, 50),
            ("random-6-2", H, 2, 4)]


@pytest.fixture(scope="module", params=_consumer_lifts(), ids=lambda p: p[0])
def sparse_and_dense(request):
    """A sharpened lift, with its sparse Ac, the same set built on the
    dense arrays, and the number of points to test contains on."""
    _, H, d, n_points = request.param
    X = rlt_sharpen(H, d)
    D = HybridZonotope(X.Gc, X.Gb, X.c, X.Ac.copy(), X.Ab, X.b, X.factor_form)
    return X, D, n_points


def _same_arrays(S, T):
    for name in ("Gc", "Gb", "c", "Ac", "Ab", "b"):
        assert np.asarray(getattr(S, name)).tobytes() == \
            np.asarray(getattr(T, name)).tobytes(), name


class TestSparseLiftConsumers:
    """Every consumer of a lift answers on the sparse Ac as on the set
    built on its dense arrays."""

    def test_products(self, sparse_and_dense):
        X, D, _ = sparse_and_dense
        assert isinstance(X.Ac, SparseMatrix) and isinstance(D.Ac, np.ndarray)
        Z = np.random.default_rng(0).normal(size=(X.n_g, 3))
        scale = 1.0 + np.abs(D.Ac) @ np.abs(Z)
        assert np.all(np.abs(X.Ac @ Z - D.Ac @ Z) <= 1e-12 * scale)
        assert np.all(np.abs(X.Ac @ Z[:, 0] - D.Ac @ Z[:, 0]) <= 1e-12 * scale[:, 0])
        np.testing.assert_allclose(X.Ac.sum(axis=1), D.Ac.sum(axis=1),
                                   rtol=1e-12, atol=1e-12)
        assert np.array_equal(X.Ac.any(axis=0), D.Ac.any(axis=0))
        assert X.Ac.nnz == np.count_nonzero(D.Ac)

    def test_json_and_forms(self, sparse_and_dense):
        X, D, _ = sparse_and_dense
        assert set_to_obj(X) == set_to_obj(D)
        _same_arrays(set_from_obj(set_to_obj(X)), D)
        # the rows' sums run in another order over the entries than over
        # the dense rows, so the shifted b may differ in its last bits
        P, PD = convert_form(X, FactorForm.PM1), convert_form(D, FactorForm.PM1)
        Z, ZD = convert_form(P, FactorForm.ZO), convert_form(PD, FactorForm.ZO)
        assert isinstance(P.Ac, SparseMatrix) and isinstance(Z.Ac, SparseMatrix)
        for S, T in ((P, PD), (Z, ZD)):
            for name in ("Gc", "Gb", "c", "Ac", "Ab"):
                assert np.asarray(getattr(S, name)).tobytes() == \
                    getattr(T, name).tobytes(), name
            np.testing.assert_allclose(S.b, T.b, rtol=1e-12, atol=1e-12)

    def test_relaxation(self, sparse_and_dense):
        X, D, _ = sparse_and_dense
        R, RD = convex_relaxation(X), convex_relaxation(D)
        for name in ("G", "c", "A", "b"):
            assert getattr(R, name).tobytes() == getattr(RD, name).tobytes(), name

    def test_support_and_contains(self, sparse_and_dense):
        # contains is asked at the support points, which are in the set,
        # then at seeded points of the bounding box grown by 0.2
        X, D, n_points = sparse_and_dense
        values, points = [], []
        for u in direction_set(2, 16):
            value, point = support_point(X, u)
            assert value == support(D, u)
            values.append(value)
            points.append(point)
        # the first four directions are +e1, +e2, -e1, -e2
        lo, hi = -np.array(values[2:4]), np.array(values[:2])
        rng = np.random.default_rng(50)
        points += list(rng.uniform(lo - 0.2, hi + 0.2, size=(50, 2)))
        answers = [contains(X, p) for p in points[:n_points]]
        assert answers == [contains(D, p) for p in points[:n_points]]
        assert all(answers[:16])

    def test_leaves_share_one_dense_a(self, sparse_and_dense):
        X, _, _ = sparse_and_dense
        pairs = leaves(X)
        first = np.asarray(pairs[0][1].A)
        assert not first.flags.writeable
        for _, L in pairs:
            assert L.A is X.Ac
            assert np.shares_memory(np.asarray(L.A), first)


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
