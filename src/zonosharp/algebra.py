"""Set operations on hybrid zonotopes.

All identities are exact block-matrix constructions; the two union
constructions (union with a point, N-ary union) preserve sharpness and come
with closed-form complexity accounting that the tests pin down exactly.
"""

from __future__ import annotations

import numpy as np

from .core import (
    AnySet,
    ConstrainedZonotope,
    FactorForm,
    HybridZonotope,
    _kept,
    convert_form,
    leaves,
    point,
)
from .errors import DimensionMismatch, EmptyList, FormMismatch
from .sparse import SparseMatrix


def _check_forms(Z1: HybridZonotope, Z2: HybridZonotope):
    if Z1.factor_form is not Z2.factor_form:
        raise FormMismatch(f"{Z1.factor_form} vs {Z2.factor_form}")


def _put(block: np.ndarray, M) -> None:
    """Write M, an array or a SparseMatrix, into the all-zero block."""
    if isinstance(M, SparseMatrix):
        block[M.row, M.col] = M.val
    else:
        block[...] = M


def _blockdiag(A, B) -> np.ndarray:
    out = np.zeros((A.shape[0] + B.shape[0], A.shape[1] + B.shape[1]))
    _put(out[:A.shape[0], :A.shape[1]], A)
    _put(out[A.shape[0]:, A.shape[1]:], B)
    return out


def minkowski_sum(Z1: AnySet, Z2: AnySet) -> HybridZonotope:
    Z1, Z2 = Z1.as_hybrid(), Z2.as_hybrid()
    _check_forms(Z1, Z2)
    if Z1.dim != Z2.dim:
        raise DimensionMismatch(f"ambient dims {Z1.dim} vs {Z2.dim}")
    return HybridZonotope(
        np.hstack([Z1.Gc, Z2.Gc]), np.hstack([Z1.Gb, Z2.Gb]), Z1.c + Z2.c,
        _blockdiag(Z1.Ac, Z2.Ac), _blockdiag(Z1.Ab, Z2.Ab),
        np.concatenate([Z1.b, Z2.b]), Z1.factor_form)


def affine_map(H: AnySet, R, s=None) -> HybridZonotope:
    H = H.as_hybrid()
    R = np.atleast_2d(np.asarray(R, dtype=np.float64))
    if R.shape[1] != H.dim:
        raise DimensionMismatch(f"R has {R.shape[1]} columns, set has dim {H.dim}")
    if s is None:
        s = np.zeros(R.shape[0])
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    if s.shape[0] != R.shape[0]:
        raise DimensionMismatch("offset length must equal R row count")
    return HybridZonotope(R @ H.Gc, R @ H.Gb, R @ H.c + s,
                          H.Ac, H.Ab, H.b, H.factor_form)


def cartesian_product(Z1: AnySet, Z2: AnySet) -> HybridZonotope:
    Z1, Z2 = Z1.as_hybrid(), Z2.as_hybrid()
    _check_forms(Z1, Z2)
    return HybridZonotope(
        _blockdiag(Z1.Gc, Z2.Gc), _blockdiag(Z1.Gb, Z2.Gb),
        np.concatenate([Z1.c, Z2.c]),
        _blockdiag(Z1.Ac, Z2.Ac), _blockdiag(Z1.Ab, Z2.Ab),
        np.concatenate([Z1.b, Z2.b]), Z1.factor_form)


def generalized_intersection(X: AnySet, Z: AnySet, Rmap=None) -> HybridZonotope:
    """{x in X | Rmap x in Z}; plain intersection when Rmap is identity."""
    X, Z = X.as_hybrid(), Z.as_hybrid()
    _check_forms(X, Z)
    if Rmap is None:
        Rmap = np.eye(X.dim)
    Rmap = np.atleast_2d(np.asarray(Rmap, dtype=np.float64))
    if Rmap.shape != (Z.dim, X.dim):
        raise DimensionMismatch(f"Rmap must be {Z.dim}x{X.dim}, got {Rmap.shape}")
    n, nz = X.dim, Z.dim
    Gc = np.hstack([X.Gc, np.zeros((n, Z.n_g))])
    Gb = np.hstack([X.Gb, np.zeros((n, Z.n_b))])
    Ac = np.vstack([
        np.hstack([X.Ac, np.zeros((X.n_c, Z.n_g))]),
        np.hstack([np.zeros((Z.n_c, X.n_g)), Z.Ac]),
        np.hstack([Rmap @ X.Gc, -Z.Gc]),
    ])
    Ab = np.vstack([
        np.hstack([X.Ab, np.zeros((X.n_c, Z.n_b))]),
        np.hstack([np.zeros((Z.n_c, X.n_b)), Z.Ab]),
        np.hstack([Rmap @ X.Gb, -Z.Gb]),
    ])
    b = np.concatenate([X.b, Z.b, Z.c - Rmap @ X.c])
    return HybridZonotope(Gc, Gb, X.c, Ac, Ab, b, X.factor_form)


def halfspace_intersection(H: AnySet, a, k: float) -> HybridZonotope:
    """{x in H | a'x >= k}, via one bounding LP on the relaxation.

    Raises ValueError for a NaN or infinite entry of a or k before the LP
    runs.
    """
    from . import core
    from .oracle import _factor_optima

    H = H.as_hybrid()
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    if a.shape[0] != H.dim:
        raise DimensionMismatch("normal vector length must equal ambient dim")
    if not (np.isfinite(a).all() and np.isfinite(k)):
        raise ValueError("a halfspace must have a finite normal and bound")
    out = _factor_optima(convex_relaxation(H), a[None])[0]
    M = k if out is None else out[0]
    hi = max(M, k) + 1e-6
    band = convert_form(core.interval(k, hi), H.factor_form)
    return generalized_intersection(H, band, a.reshape(1, -1))


def union_with_point(Z: AnySet, x) -> HybridZonotope:
    """Z union {x} for a 01-form hybrid zonotope, by the exact block identity.

    One fresh binary selects between Z (all original factors free) and the
    point x (all original factors pinned to zero).  Preserves sharpness.
    """
    Z = Z.as_hybrid()
    if Z.factor_form is not FactorForm.ZO:
        raise FormMismatch("union_with_point requires 01 form; convert first")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    n, ng, nb, nc = Z.dim, Z.n_g, Z.n_b, Z.n_c
    if x.shape[0] != n:
        raise DimensionMismatch("point length must equal ambient dim")
    m = ng + nb
    Gc = np.hstack([Z.Gc, np.zeros((n, m))])
    Gb = np.hstack([Z.Gb, (Z.c - x).reshape(-1, 1)])
    c = x.copy()
    Ac = np.vstack([
        np.hstack([Z.Ac, np.zeros((nc, m))]),
        np.hstack([np.vstack([np.eye(ng), np.zeros((nb, ng))]), np.eye(m)]),
    ])
    Ab = np.vstack([
        np.hstack([Z.Ab, -Z.b.reshape(-1, 1)]),
        np.hstack([np.vstack([np.zeros((ng, nb)), np.eye(nb)]), -np.ones((m, 1))]),
    ])
    b = np.zeros(nc + m)
    return HybridZonotope(Gc, Gb, c, Ac, Ab, b, FactorForm.ZO)


def union(Z_list) -> HybridZonotope:
    """N-ary union: lift each set to (Z_i x {1}) u {0}, Minkowski-sum the
    lifts, slice at last coordinate 1, and project back down.  Sharpness is
    preserved when every input is sharp.  Output is in 01 form.
    """
    Z_list = list(Z_list)
    if not Z_list:
        raise EmptyList("union requires at least one set")
    n = Z_list[0].dim
    lifted = []
    for Z in Z_list:
        Z = convert_form(Z.as_hybrid(), FactorForm.ZO)
        if Z.dim != n:
            raise DimensionMismatch("union operands must share ambient dim")
        U = union_with_point(cartesian_product(Z, point([1.0], FactorForm.ZO)),
                             np.zeros(n + 1))
        lifted.append(U)
    total = lifted[0]
    for U in lifted[1:]:
        total = minkowski_sum(total, U)
    row = np.zeros((1, n + 1))
    row[0, n] = 1.0
    sliced = generalized_intersection(total, point([1.0], FactorForm.ZO), row)
    proj = np.hstack([np.eye(n), np.zeros((n, 1))])
    return affine_map(sliced, proj)


def convex_relaxation(H: AnySet) -> ConstrainedZonotope:
    """Binary factors become continuous over their interval hull.

    The relaxation is made once and kept on H: every call on H returns the
    same object, so queries on it share its LP work.  With no binaries it is
    H's one leaf, so the leaf and the relaxation share one LP ladder, the
    kernel's kept start over their factor region.  Its A = [Ac Ab] is one
    new array that Ac's entries and Ab are written into, so a sparse Ac is
    not made dense on the way.
    """
    if isinstance(H, ConstrainedZonotope):
        return H
    if H.n_b == 0:
        return leaves(H)[0][1]

    def relax():
        A = np.zeros((H.n_c, H.n_g + H.n_b))
        _put(A[:, :H.n_g], H.Ac)
        A[:, H.n_g:] = H.Ab
        return ConstrainedZonotope(np.hstack([H.Gc, H.Gb]), H.c, A, H.b,
                                   H.factor_form)

    return _kept(H, "relaxation", relax)
