import json

import numpy as np
import pytest

from zonosharp import (
    BinaryAssignment,
    ComplexityTuple,
    ConstrainedZonotope,
    DimensionMismatch,
    EnumerationCapExceeded,
    FactorForm,
    HybridZonotope,
    SparseMatrix,
    binary_assignments,
    box,
    complexity,
    contains,
    convert_form,
    interval,
    leaf_of,
    leaves,
    point,
    read_set,
    set_from_obj,
    set_to_obj,
    write_set,
)


def _random_hz(rng, n=2, ng=3, nb=2, nc=1, form=FactorForm.ZO):
    Gc = rng.normal(size=(n, ng))
    Gb = rng.normal(size=(n, nb))
    c = rng.normal(size=n)
    Ac = rng.normal(size=(nc, ng))
    Ab = rng.normal(size=(nc, nb))
    lo, hi = (0.0, 1.0) if form is FactorForm.ZO else (-1.0, 1.0)
    xi = rng.uniform(lo, hi, size=ng)
    xb = rng.integers(0, 2, size=nb).astype(float)
    if form is FactorForm.PM1:
        xb = 2.0 * xb - 1.0
    b = Ac @ xi + Ab @ xb
    return HybridZonotope(Gc, Gb, c, Ac, Ab, b, form)


class TestConstruction:
    def test_dimensions_validated(self):
        with pytest.raises(DimensionMismatch):
            HybridZonotope(np.zeros((2, 3)), np.zeros((3, 1)), np.zeros(2),
                           np.zeros((0, 3)), np.zeros((0, 1)), np.zeros(0),
                           FactorForm.ZO)
        with pytest.raises(DimensionMismatch):
            ConstrainedZonotope(np.zeros((2, 3)), np.zeros(2),
                                np.zeros((1, 2)), np.zeros(1), FactorForm.PM1)

    def test_arrays_read_only(self):
        H = _random_hz(np.random.default_rng(0))
        with pytest.raises(ValueError):
            H.Gc[0, 0] = 99.0

    def test_complexity(self):
        H = _random_hz(np.random.default_rng(0), n=2, ng=3, nb=2, nc=1)
        assert complexity(H) == ComplexityTuple(3, 2, 1)
        from zonosharp import convex_relaxation
        assert complexity(convex_relaxation(H)) == ComplexityTuple(5, 0, 1)

    def test_constructors(self):
        I = interval(-2.0, 4.0)
        assert I.dim == 1 and complexity(I) == ComplexityTuple(1, 0, 0)
        B = box(np.array([[0.0, 1.0], [2.0, 5.0]]))
        assert B.dim == 2
        P = point([1.0, 2.0, 3.0])
        assert P.dim == 3 and complexity(P) == ComplexityTuple(0, 0, 0)
        np.testing.assert_allclose(P.c, [1.0, 2.0, 3.0])


class TestFormConversion:
    @pytest.mark.parametrize("form", [FactorForm.PM1, FactorForm.ZO])
    def test_round_trip_exact(self, form):
        rng = np.random.default_rng(7)
        H = _random_hz(rng, form=form)
        other = (FactorForm.ZO if form is FactorForm.PM1 else FactorForm.PM1)
        back = convert_form(convert_form(H, other), form)
        np.testing.assert_array_equal(back.Gc, H.Gc)
        np.testing.assert_array_equal(back.Gb, H.Gb)
        np.testing.assert_allclose(back.c, H.c, atol=1e-14)
        np.testing.assert_array_equal(back.Ac, H.Ac)
        np.testing.assert_allclose(back.b, H.b, atol=1e-14)

    def test_conversion_preserves_set(self):
        rng = np.random.default_rng(3)
        H = _random_hz(rng, form=FactorForm.PM1)
        Z = convert_form(H, FactorForm.ZO)
        for _ in range(20):
            xi = rng.uniform(-1, 1, size=H.n_g)
            xb = rng.choice([-1.0, 1.0], size=H.n_b)
            if np.max(np.abs(H.Ac @ xi + H.Ab @ xb - H.b)) > 1e-9:
                continue
            p = H.Gc @ xi + H.Gb @ xb + H.c
            assert contains(Z, p)

    def test_noop_conversion_is_identity(self):
        H = _random_hz(np.random.default_rng(0))
        assert convert_form(H, H.factor_form) is H


class TestLeaves:
    def test_assignment_enumeration_order(self):
        H2 = HybridZonotope(np.zeros((2, 0)), np.eye(2), np.zeros(2),
                            np.zeros((0, 0)), np.zeros((0, 2)), np.zeros(0),
                            FactorForm.ZO)
        assert [a.bits for a in binary_assignments(H2)] == [
            (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        H1 = HybridZonotope(np.zeros((1, 0)), np.eye(1), np.zeros(1),
                            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros(0),
                            FactorForm.PM1)
        assert [a.bits for a in binary_assignments(H1)] == [(-1.0,), (1.0,)]

    def test_leaf_of(self):
        rng = np.random.default_rng(1)
        H = _random_hz(rng)
        a = BinaryAssignment((1.0, 0.0))
        L = leaf_of(H, a)
        xb = np.array(a.bits)
        np.testing.assert_allclose(L.c, H.c + H.Gb @ xb)
        np.testing.assert_allclose(L.b, H.b - H.Ab @ xb)
        np.testing.assert_array_equal(L.G, H.Gc)

    def test_leaves_count_and_cap(self):
        H = _random_hz(np.random.default_rng(2), nb=3)
        assert len(leaves(H)) == 8
        with pytest.raises(EnumerationCapExceeded):
            leaves(H, cap=2)

    def test_leaves_are_kept_on_the_set(self):
        H = _random_hz(np.random.default_rng(2), nb=3)
        first, second = leaves(H), leaves(H)
        assert first is not second
        assert all(a is a2 and L is L2
                   for (a, L), (a2, L2) in zip(first, second, strict=True))
        first.clear()  # each caller's list is its own
        assert len(leaves(H)) == 8
        # the cap is checked on every call, also once the leaves are kept
        with pytest.raises(EnumerationCapExceeded):
            leaves(H, cap=2)
        # an equal set keeps leaves of its own
        twin = HybridZonotope(H.Gc, H.Gb, H.c, H.Ac, H.Ab, H.b, H.factor_form)
        assert all(L is not L2 for (_, L), (_, L2) in zip(leaves(twin), second))

    def test_union_of_leaves_is_the_set(self):
        rng = np.random.default_rng(4)
        H = _random_hz(rng)
        for _ in range(10):
            xi = rng.uniform(0, 1, size=H.n_g)
            for _, L in leaves(H):
                lo, up = L.factor_bounds()
                # a point built from any leaf's feasible factor lies in H
                res = np.max(np.abs(L.A @ xi - L.b)) if L.n_c else 0.0
                if res < 1e-9:
                    assert contains(H, L.G @ xi + L.c)


class TestJson:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        H = _random_hz(rng)
        path = tmp_path / "h.json"
        write_set(path, H)
        back = read_set(path)
        assert isinstance(back, HybridZonotope)
        assert back.factor_form is H.factor_form
        for name in ("Gc", "Gb", "c", "Ac", "Ab", "b"):
            np.testing.assert_array_equal(getattr(back, name), getattr(H, name))

    def test_cz_and_zono_kinds(self):
        Z = ConstrainedZonotope(np.eye(2), np.zeros(2), np.zeros((0, 2)),
                                np.zeros(0), FactorForm.PM1)
        obj = set_to_obj(Z)
        assert obj["type"] == "zono"
        back = set_from_obj(obj)
        assert isinstance(back, ConstrainedZonotope)
        C = ConstrainedZonotope(np.eye(2), np.zeros(2), np.ones((1, 2)),
                                np.ones(1), FactorForm.PM1)
        assert set_to_obj(C)["type"] == "cz"

    def test_accepts_plain_g_a_aliases(self):
        obj = {"type": "cz", "form": "pm1", "G": [[1.0, 0.0], [0.0, 1.0]],
               "c": [0.0, 0.0], "A": [[1.0, 1.0]], "b": [0.5]}
        Z = set_from_obj(obj)
        assert isinstance(Z, ConstrainedZonotope)
        assert Z.n_g == 2 and Z.n_c == 1

    def test_json_serializable(self):
        H = _random_hz(np.random.default_rng(6))
        json.dumps(set_to_obj(H))

    @pytest.mark.parametrize("name", ["c", "Gc", "Gb", "Ac", "Ab", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_raises(self, name, bad):
        # JSON readers take NaN and Infinity; the set constructors do not
        # look for them, so the reader does
        obj = set_to_obj(_random_hz(np.random.default_rng(6)))
        arr = np.array(obj[name], dtype=float)
        arr.flat[-1] = bad
        obj[name] = arr.tolist()
        with pytest.raises(ValueError, match="finite"):
            set_from_obj(json.loads(json.dumps(obj)))


class TestSparseMatrix:
    """The matrix that a lift's Ac is stored as, on a small example."""

    def _pair(self):
        A = SparseMatrix((3, 4), [0, 2, 2], [1, 0, 3], [1.5, -2.0, 0.25])
        D = np.zeros((3, 4))
        D[0, 1], D[2, 0], D[2, 3] = 1.5, -2.0, 0.25
        return A, D

    def test_dense_form_is_kept_and_read_only(self):
        A, D = self._pair()
        dense = np.asarray(A)
        assert dense is np.asarray(A, dtype=np.float64)
        assert not dense.flags.writeable and dense.tobytes() == D.tobytes()
        fresh = A.copy()
        fresh[0, 0] = 1.0
        assert np.asarray(A)[0, 0] == 0.0
        assert np.asarray(A, dtype=np.float32).dtype == np.float32

    def test_entry_arithmetic(self):
        A, D = self._pair()
        np.testing.assert_array_equal(A @ np.arange(4.0), D @ np.arange(4.0))
        np.testing.assert_array_equal(np.asarray(-2.0 * A), -2.0 * D)
        assert isinstance(A * 0.5, SparseMatrix)
        assert (A.shape, A.ndim, A.size, A.nnz) == ((3, 4), 2, 12, 3)
        with pytest.raises(ValueError):
            A @ np.ones(3)
        with pytest.raises(ValueError):
            A * np.inf

    def test_ufunc_is_refused_rather_than_made_dense(self):
        A, _ = self._pair()
        with pytest.raises(TypeError):
            np.abs(A)
        assert A._dense is None

    def test_entry_outside_the_shape_is_refused(self):
        with pytest.raises(ValueError):
            SparseMatrix((2, 2), [2], [0], [1.0])
        with pytest.raises(ValueError):
            SparseMatrix((2, 2), [0, 1], [0], [1.0])
