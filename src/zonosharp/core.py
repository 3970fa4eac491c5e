"""Core set representations: constrained and hybrid zonotopes.

A hybrid zonotope is the matrix bundle (Gc, Gb, c, Ac, Ab, b) together with a
factor form: in pm1 form the continuous factors live in [-1,1] and the binary
factors in {-1,1}; in 01 form they live in [0,1] and {0,1}.  A constrained
zonotope is the binary-free special case (G, c, A, b).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from . import _simplex
from .errors import DimensionMismatch, EnumerationCapExceeded
from .sparse import SparseMatrix

DEFAULT_LEAF_CAP = 20  # max n_b for exhaustive leaf enumeration


class FactorForm(enum.Enum):
    PM1 = "pm1"
    ZO = "01"


def _kept(S, key, make):
    """The value that make() returns, made on the first call for key and
    kept on the set S for as long as S lives.

    A set is immutable, so what is derived from it stays valid.  The value
    belongs to the object, not to its content: two equal sets each make
    their own.  It travels with S through pickle and deepcopy.
    """
    kept = S._kept
    if key not in kept:
        kept[key] = make()
    return kept[key]


def _as_matrix(M, rows=None, cols=None) -> np.ndarray | SparseMatrix:
    """M as a float64 matrix; a SparseMatrix is kept as it is."""
    if isinstance(M, SparseMatrix):
        return M
    out = np.asarray(M, dtype=np.float64)
    if out.size == 0:
        out = out.reshape((rows if rows is not None else 0,
                           cols if cols is not None else 0))
    if out.ndim != 2:
        raise DimensionMismatch(f"expected matrix, got shape {out.shape}")
    return out


def _freeze(M) -> None:
    """Make the array M read-only; a SparseMatrix already is."""
    if isinstance(M, np.ndarray):
        M.setflags(write=False)


def _as_vector(v, length=None) -> np.ndarray:
    out = np.asarray(v, dtype=np.float64).reshape(-1)
    if length is not None and out.shape[0] != length:
        raise DimensionMismatch(f"expected vector of length {length}, got {out.shape[0]}")
    return out


@dataclass(frozen=True)
class ComplexityTuple:
    n_g: int
    n_b: int
    n_c: int

    def __post_init__(self):
        if min(self.n_g, self.n_b, self.n_c) < 0:
            raise ValueError("complexity counts must be nonnegative")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_g, self.n_b, self.n_c)


@dataclass(frozen=True)
class BinaryAssignment:
    """One choice of binary factors, in the active binary domain."""

    bits: tuple[float, ...]

    def __len__(self):
        return len(self.bits)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.bits, dtype=np.float64)


@dataclass(frozen=True)
class ConstrainedZonotope:
    """The set {G xi + c : A xi = b, xi in the factor box}.

    The fields are read-only float64 arrays, except that A may be a
    `SparseMatrix`, as the A of a leaf of an RLT lift is.  That A is kept as
    it is, never made dense here, and a consumer that needs the dense form
    takes `np.asarray(A)`, which every holder of A shares.
    """

    G: np.ndarray
    c: np.ndarray
    A: np.ndarray | SparseMatrix
    b: np.ndarray
    factor_form: FactorForm = FactorForm.PM1

    def __post_init__(self):
        c = _as_vector(self.c)
        n = c.shape[0]
        G = _as_matrix(self.G, rows=n)
        b = _as_vector(self.b)
        A = _as_matrix(self.A, rows=b.shape[0], cols=G.shape[1])
        if G.shape[0] != n:
            raise DimensionMismatch("G rows must match len(c)")
        if A.shape != (b.shape[0], G.shape[1]):
            raise DimensionMismatch("A must be (len(b), n_g)")
        for name, arr in (("G", G), ("c", c), ("A", A), ("b", b)):
            _freeze(arr)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_kept", {})

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    @property
    def n_g(self) -> int:
        return self.G.shape[1]

    @property
    def n_c(self) -> int:
        return self.A.shape[0]

    def factor_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box bounds of the continuous factors for the active form."""
        if self.factor_form is FactorForm.PM1:
            return -np.ones(self.n_g), np.ones(self.n_g)
        return np.zeros(self.n_g), np.ones(self.n_g)

    def lp_ladder(self) -> _simplex.Ladder:
        """The LP kernel's kept work over the factor region {xi in the
        factor box : A xi = b}, kept on this set: its dual start for the
        cost 0, which the support, emptiness and sharpness queries all
        read, is made at most once per set object."""
        return _kept(self, "lp_ladder",
                     lambda: _simplex.Ladder(self.A, self.b, *self.factor_bounds()))

    def as_hybrid(self) -> "HybridZonotope":
        n, nc = self.dim, self.n_c
        return HybridZonotope(self.G, np.zeros((n, 0)), self.c,
                              self.A, np.zeros((nc, 0)), self.b, self.factor_form)


@dataclass(frozen=True)
class HybridZonotope:
    """The set {Gc xi + Gb xb + c : Ac xi + Ab xb = b}, xi in the factor box
    and xb at the binary values of the factor form.

    The fields are read-only float64 arrays, except that Ac may be a
    `SparseMatrix`, as it is in every RLT lift (`rlt.build_xd`).  That Ac is
    kept as it is, and the set operations and queries read its entries or
    its one shared dense form (`np.asarray(Ac)`).
    """

    Gc: np.ndarray
    Gb: np.ndarray
    c: np.ndarray
    Ac: np.ndarray | SparseMatrix
    Ab: np.ndarray
    b: np.ndarray
    factor_form: FactorForm = FactorForm.PM1

    def __post_init__(self):
        c = _as_vector(self.c)
        n = c.shape[0]
        Gc = _as_matrix(self.Gc, rows=n)
        Gb = _as_matrix(self.Gb, rows=n)
        b = _as_vector(self.b)
        nc = b.shape[0]
        Ac = _as_matrix(self.Ac, rows=nc, cols=Gc.shape[1])
        Ab = _as_matrix(self.Ab, rows=nc, cols=Gb.shape[1])
        if Gc.shape[0] != n or Gb.shape[0] != n:
            raise DimensionMismatch("Gc/Gb rows must match len(c)")
        if Ac.shape != (nc, Gc.shape[1]) or Ab.shape != (nc, Gb.shape[1]):
            raise DimensionMismatch("Ac/Ab must share rows with b and columns with Gc/Gb")
        for name, arr in (("Gc", Gc), ("Gb", Gb), ("c", c),
                          ("Ac", Ac), ("Ab", Ab), ("b", b)):
            _freeze(arr)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_kept", {})

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    @property
    def n_g(self) -> int:
        return self.Gc.shape[1]

    @property
    def n_b(self) -> int:
        return self.Gb.shape[1]

    @property
    def n_c(self) -> int:
        return self.Ab.shape[0]

    def as_hybrid(self) -> "HybridZonotope":
        return self

    def binary_domain(self) -> tuple[float, float]:
        """(low, high) values a binary factor may take."""
        return (-1.0, 1.0) if self.factor_form is FactorForm.PM1 else (0.0, 1.0)

    def as_constrained(self) -> ConstrainedZonotope:
        if self.n_b != 0:
            raise DimensionMismatch("only an n_b = 0 hybrid zonotope is a constrained zonotope")
        return ConstrainedZonotope(self.Gc, self.c, self.Ac, self.b, self.factor_form)


AnySet = ConstrainedZonotope | HybridZonotope


def complexity(H: AnySet) -> ComplexityTuple:
    if isinstance(H, ConstrainedZonotope):
        return ComplexityTuple(H.n_g, 0, H.n_c)
    return ComplexityTuple(H.n_g, H.n_b, H.n_c)


def convert_form(H: AnySet, target: FactorForm) -> AnySet:
    """Re-express the same set with factors in the target domain.

    Uses the affine substitution xi_pm1 = 2*xi_01 - 1 columnwise; the
    represented subset of R^n is unchanged.
    """
    if H.factor_form is target:
        return H
    if isinstance(H, ConstrainedZonotope):
        return convert_form(H.as_hybrid(), target).as_constrained()
    if target is FactorForm.ZO:
        # xi = 2 xi' - 1 : scale columns by 2, shift center/right-hand side
        shift_c = H.Gc.sum(axis=1) + H.Gb.sum(axis=1)
        shift_b = H.Ac.sum(axis=1) + H.Ab.sum(axis=1)
        return HybridZonotope(2.0 * H.Gc, 2.0 * H.Gb, H.c - shift_c,
                              2.0 * H.Ac, 2.0 * H.Ab, H.b + shift_b, FactorForm.ZO)
    # xi' = (xi + 1) / 2
    shift_c = 0.5 * (H.Gc.sum(axis=1) + H.Gb.sum(axis=1))
    shift_b = 0.5 * (H.Ac.sum(axis=1) + H.Ab.sum(axis=1))
    return HybridZonotope(0.5 * H.Gc, 0.5 * H.Gb, H.c + shift_c,
                          0.5 * H.Ac, 0.5 * H.Ab, H.b - shift_b, FactorForm.PM1)


def binary_assignments(H: HybridZonotope):
    """All 2^n_b binary assignments in counting order, LSB = first factor."""
    lo, hi = H.binary_domain()
    nb = H.n_b
    for idx in range(1 << nb):
        bits = tuple(hi if (idx >> i) & 1 else lo for i in range(nb))
        yield BinaryAssignment(bits)


def leaf_of(H: HybridZonotope, assignment: BinaryAssignment) -> ConstrainedZonotope:
    """Fix the binary factors, folding Gb*xi_b into the center and Ab*xi_b into b."""
    xb = assignment.as_array()
    if xb.shape[0] != H.n_b:
        raise DimensionMismatch("assignment length must equal n_b")
    return ConstrainedZonotope(H.Gc, H.c + H.Gb @ xb, H.Ac, H.b - H.Ab @ xb,
                               H.factor_form)


def leaves(H: HybridZonotope,
           cap: int = DEFAULT_LEAF_CAP) -> list[tuple[BinaryAssignment, ConstrainedZonotope]]:
    """Decompose into the union of 2^n_b constrained zonotopes.

    The leaves are made on the first call and kept on H, so every call on H
    hands out the same leaf objects, with the LP work each leaf keeps, in a
    new list.  The cap is checked on every call.
    """
    if H.n_b > cap:
        raise EnumerationCapExceeded(f"n_b={H.n_b} exceeds enumeration cap {cap}")
    return list(_kept(H, "leaves",
                      lambda: [(a, leaf_of(H, a)) for a in binary_assignments(H)]))


# --- JSON set format -------------------------------------------------------
#
# {"type": "hz"|"cz"|"zono", "form": "pm1"|"01",
#  "Gc": [[...]], "Gb": [[...]], "c": [...], "Ac": [[...]], "Ab": [[...]], "b": [...]}
# Row-major nested arrays; absent keys mean empty matrices.

def set_to_obj(S: AnySet) -> dict:
    form = S.factor_form.value
    if isinstance(S, ConstrainedZonotope):
        obj = {"type": "zono" if S.n_c == 0 else "cz", "form": form,
               "c": S.c.tolist()}
        if S.n_g:
            obj["Gc"] = S.G.tolist()
        if S.n_c:
            obj["Ac"] = S.A.tolist()
            obj["b"] = S.b.tolist()
        return obj
    obj = {"type": "hz", "form": form, "c": S.c.tolist()}
    if S.n_g:
        obj["Gc"] = S.Gc.tolist()
    if S.n_b:
        obj["Gb"] = S.Gb.tolist()
    if S.n_c:
        obj["b"] = S.b.tolist()
        if S.n_g:
            obj["Ac"] = S.Ac.tolist()
        if S.n_b:
            obj["Ab"] = S.Ab.tolist()
    return obj


def _check_finite(*arrays) -> None:
    """ValueError unless every entry of the arrays is finite: a JSON reader
    takes NaN and Infinity."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("a set or network must have finite entries")


def set_from_obj(obj: dict) -> AnySet:
    """The set that `set_to_obj` wrote; ValueError for a NaN or infinite
    entry."""
    kind = obj.get("type", "hz")
    form = FactorForm.ZO if obj.get("form", "pm1") == "01" else FactorForm.PM1
    c = _as_vector(obj["c"])
    n = c.shape[0]
    b = _as_vector(obj.get("b", []))
    nc = b.shape[0]
    Gc = _as_matrix(obj.get("Gc", obj.get("G", [])), rows=n)
    Ac = _as_matrix(obj.get("Ac", obj.get("A", [])), rows=nc, cols=Gc.shape[1])
    _check_finite(c, b, Gc, Ac)
    if kind in ("cz", "zono"):
        return ConstrainedZonotope(Gc, c, Ac, b, form)
    Gb = _as_matrix(obj.get("Gb", []), rows=n)
    Ab = _as_matrix(obj.get("Ab", []), rows=nc, cols=Gb.shape[1])
    _check_finite(Gb, Ab)
    return HybridZonotope(Gc, Gb, c, Ac, Ab, b, form)


def write_set(path, S: AnySet) -> None:
    with open(path, "w") as fh:
        json.dump(set_to_obj(S), fh)


def read_set(path) -> AnySet:
    with open(path) as fh:
        return set_from_obj(json.load(fh))


# --- small constructors used throughout ------------------------------------

def interval(lo: float, hi: float, form: FactorForm = FactorForm.PM1) -> HybridZonotope:
    """The closed interval [lo, hi] in R^1 as a hybrid zonotope."""
    if lo > hi:
        raise DimensionMismatch("interval requires lo <= hi")
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    H = HybridZonotope([[rad]], np.zeros((1, 0)), [mid],
                       np.zeros((0, 1)), np.zeros((0, 0)), [], FactorForm.PM1)
    return convert_form(H, form)


def box(bounds, form: FactorForm = FactorForm.PM1) -> HybridZonotope:
    """Axis-aligned box from per-coordinate (lo, hi) pairs."""
    bounds = np.asarray(bounds, dtype=np.float64).reshape(-1, 2)
    mid = 0.5 * (bounds[:, 0] + bounds[:, 1])
    rad = 0.5 * (bounds[:, 1] - bounds[:, 0])
    H = HybridZonotope(np.diag(rad), np.zeros((len(mid), 0)), mid,
                       np.zeros((0, len(mid))), np.zeros((0, 0)), [], FactorForm.PM1)
    return convert_form(H, form)


def point(c, form: FactorForm = FactorForm.PM1) -> HybridZonotope:
    c = _as_vector(c)
    n = c.shape[0]
    return HybridZonotope(np.zeros((n, 0)), np.zeros((n, 0)), c,
                          np.zeros((0, 0)), np.zeros((0, 0)), [], form)
