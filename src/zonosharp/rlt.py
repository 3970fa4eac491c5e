"""Reformulation-linearization on the factor space of a hybrid zonotope.

The binary factors x and continuous factors y of a 01-form hybrid zonotope
satisfy an affine system A x + B y = beta.  The level-d lift introduces
products w_J ~ prod_{j in J} x_j and v_{J,k} ~ y_k * prod_{j in J} x_j,
multiplies the equality system by every monomial of degree <= d, and turns
the bound-factor product inequalities into equalities with [0,1] slacks.
The lift's sparsity pattern is known from n_b, n_g and d alone, so
`build_xd` sizes it up front and writes it in one pass of (row, column,
value) triplets.  Projecting the lift back to the original ambient space
gives a set equal to the input at every level; at d = n_b its relaxation
is the convex hull.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import comb

import numpy as np

from .core import (
    AnySet,
    ComplexityTuple,
    ConstrainedZonotope,
    FactorForm,
    HybridZonotope,
    complexity,
    convert_form,
)
from .errors import LevelOutOfRange, OverlappingIndexSets


@dataclass(frozen=True)
class IndexSet:
    """Subset of {1..n_b} as a bitmask; bit i-1 stands for index i."""

    mask: int

    @classmethod
    def of(cls, *indices: int) -> "IndexSet":
        m = 0
        for i in indices:
            if i < 1:
                raise ValueError("indices are 1-based")
            m |= 1 << (i - 1)
        return cls(m)

    def cardinality(self) -> int:
        return self.mask.bit_count()

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(self.mask | other.mask)

    def members(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.mask.bit_length())
                     if (self.mask >> i) & 1)

    def subsets(self):
        """All subsets in ascending mask order."""
        subs = []
        s = self.mask
        while True:
            subs.append(s)
            if s == 0:
                break
            s = (s - 1) & self.mask
        for m in sorted(subs):
            yield IndexSet(m)

    def __len__(self) -> int:
        return self.cardinality()


def f_coefficients(J1: IndexSet, J2: IndexSet) -> dict[IndexSet, int]:
    """Signed w-coefficients of the linearized product over (J1, J2):
    (-1)^|I| on w_{J1 u I} for every I subset of J2."""
    if J1.mask & J2.mask:
        raise OverlappingIndexSets(f"{J1.members()} and {J2.members()} overlap")
    out: dict[IndexSet, int] = {}
    for I in J2.subsets():
        out[J1.union(I)] = -1 if I.cardinality() % 2 else 1
    return out


@dataclass
class RltVariableTable:
    """Column bookkeeping for the lifted factor space.

    Continuous columns: the original y block first, then w_J (|J| >= 2) in
    ascending masks, then v_{J,k} (|J| >= 1) in ascending masks with k
    inside J, then the n_slack slacks, one per bound-factor row in row
    order.  w_empty is the constant 1 and w_{i} is the binary x_i; neither
    gets a fresh column.
    """

    n_bin: int
    n_cont_orig: int
    w_index: dict[int, int] = field(default_factory=dict)
    v_index: dict[tuple[int, int], int] = field(default_factory=dict)
    slack_start: int = 0
    n_slack: int = 0

    @property
    def n_cols(self) -> int:
        return self.slack_start + self.n_slack


def _masks_of_size(n: int, size: int):
    for m in range(1 << n):
        if m.bit_count() == size:
            yield m


def _order_pairs(n: int, order: int):
    """Disjoint (J1, J2) with |J1 u J2| = order, deterministic order."""
    for union_mask in _masks_of_size(n, order):
        for J1 in IndexSet(union_mask).subsets():
            yield J1.mask, union_mask ^ J1.mask


def _allocate_table(nb: int, ng: int, n_slack: int) -> RltVariableTable:
    table = RltVariableTable(nb, ng, n_slack=n_slack)
    col = ng
    for m in range(1 << nb):
        if m.bit_count() >= 2:
            table.w_index[m] = col
            col += 1
    for m in range(1, 1 << nb):
        for k in range(ng):
            table.v_index[(m, k)] = col
            col += 1
    table.slack_start = col
    return table


def build_xd(H: AnySet, d: int) -> tuple[HybridZonotope, RltVariableTable]:
    """Level-d lift of the factor space, as a 01-hybrid zonotope over the
    original (x, y) coordinates (x first).  All lift variables get zero
    generator columns; the ambient map back to R^n is the caller's affine map.

    Rows: (i) the equality system times each monomial of degree <= d;
    (ii) the order-D bound-factor products, D = min(d + 1, n_b); (iii) two
    rows per order-d pair and k.  Each row of (ii) and (iii) owns one [0,1]
    slack, with coefficient -1.  The sizes are known up front: continuous
    coefficients go in as (row, col, value) triplets, binary ones and
    right-hand sides straight into Ab and b.  No entry is written twice.
    """
    H = convert_form(H.as_hybrid(), FactorForm.ZO)
    nb, ng, r = H.n_b, H.n_g, H.n_c
    if not 1 <= d <= nb:
        raise LevelOutOfRange(f"level {d} outside 1..{nb}")
    A, B, beta = H.Ab, H.Ac, H.b

    monomials = [m for size in range(d + 1) for m in _masks_of_size(nb, size)]
    pairs_D = list(_order_pairs(nb, min(d + 1, nb)))
    pairs_d = list(_order_pairs(nb, d))
    n_eq = r * len(monomials)
    table = _allocate_table(nb, ng, len(pairs_D) + 2 * ng * len(pairs_d))
    n_rows = n_eq + table.n_slack
    Ac = np.zeros((n_rows, table.n_cols))
    Ab = np.zeros((n_rows, nb))
    b = np.zeros(n_rows)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def put_w(row: int, mask: int, coef: float):
        if coef == 0.0:
            return
        if mask == 0:
            b[row] = -coef  # w_empty = 1: constant moves to the right-hand side
        elif mask.bit_count() == 1:
            Ab[row, mask.bit_length() - 1] = coef
        else:
            rows.append(row)
            cols.append(table.w_index[mask])
            vals.append(coef)

    def put_v(row: int, mask: int, k: int, coef: float):
        if coef == 0.0:
            return
        rows.append(row)
        cols.append(table.v_index[(mask, k)] if mask else k)  # v_{empty,k} = y_k
        vals.append(coef)

    # (i) the equality system multiplied through by each monomial, |J| <= d
    row = 0
    for Jm in monomials:
        members = [j for j in range(nb) if (Jm >> j) & 1]
        others = [j for j in range(nb) if not (Jm >> j) & 1]
        for i in range(r):
            put_w(row, Jm, sum(A[i, j] for j in members) - beta[i])
            for j in others:
                put_w(row, Jm | (1 << j), A[i, j])
            for k in range(ng):
                put_v(row, Jm, k, B[i, k])
            row += 1

    # (ii) order-D bound-factor products
    for J1m, J2m in pairs_D:
        for J, s in f_coefficients(IndexSet(J1m), IndexSet(J2m)).items():
            put_w(row, J.mask, float(s))
        row += 1

    # (iii) order-d double inequalities: the low row, then the gap row
    for J1m, J2m in pairs_d:
        coefs = f_coefficients(IndexSet(J1m), IndexSet(J2m))
        for k in range(ng):
            for J, s in coefs.items():
                put_v(row, J.mask, k, float(s))
                put_w(row + 1, J.mask, float(s))
                put_v(row + 1, J.mask, k, -float(s))
            row += 2

    Ac[rows, cols] = vals
    slack = np.arange(table.n_slack)
    Ac[n_eq + slack, table.slack_start + slack] = -1.0

    # ambient (x, y): x from the binaries, y from the first ng continuous cols
    dim = nb + ng
    Gb = np.vstack([np.eye(nb), np.zeros((ng, nb))])
    Gc = np.zeros((dim, table.n_cols))
    Gc[nb:, :ng] = np.eye(ng)
    lifted = HybridZonotope(Gc, Gb, np.zeros(dim), Ac, Ab, b, FactorForm.ZO)
    return lifted, table


def rlt_sharpen(H: AnySet, d: int) -> HybridZonotope:
    """Equal set, re-represented so the level-d lift tightens the relaxation.

    At d = n_b the relaxation of the output is the convex hull of H.
    Output is in 01 form; an n_b = 0 input is returned unchanged.
    """
    H = H.as_hybrid()
    if H.n_b == 0:
        return H
    Hz = convert_form(H, FactorForm.ZO)
    lifted, _ = build_xd(Hz, d)
    R = np.hstack([Hz.Gb, Hz.Gc])  # ambient of the lift is (x, y)
    from .algebra import affine_map
    return affine_map(lifted, R, Hz.c)


def rlt_convex_hull(H: AnySet) -> ConstrainedZonotope:
    from .algebra import convex_relaxation
    H = H.as_hybrid()
    return convex_relaxation(rlt_sharpen(H, H.n_b))


def rlt_complexity(t: ComplexityTuple, d: int) -> ComplexityTuple:
    """Closed-form (nominal) complexity of the level-d output."""
    ng, nb, nc = t.n_g, t.n_b, t.n_c
    if not 1 <= d <= nb:
        raise LevelOutOfRange(f"level {d} outside 1..{nb}")
    ng_out = 2 ** nb * (ng + 1) + 2 ** (d + 1) * comb(nb, d) * ng - nb - 1
    nc_out = nc * sum(comb(nb, i) for i in range(d + 1)) + 2 ** (d + 1) * comb(nb, d) * ng
    return ComplexityTuple(ng_out, nb, nc_out)


def rlt_report(H: AnySet, d: int) -> tuple[HybridZonotope, dict]:
    """Sharpened set plus a complexity report.

    The closed-form count omits the slacks of the order-D rows, so the
    constructed set is slightly larger; both tuples are reported.
    """
    H = H.as_hybrid()
    nominal = rlt_complexity(complexity(H), d)
    out = rlt_sharpen(H, d)
    report = {"level": d, "nominal": asdict(nominal),
              "actual": asdict(complexity(out))}
    return out, report
