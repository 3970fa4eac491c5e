"""Reformulation-linearization on the factor space of a hybrid zonotope.

The binary factors x and continuous factors y of a 01-form hybrid zonotope
satisfy an affine system A x + B y = beta.  The level-d lift introduces
products w_J ~ prod_{j in J} x_j and v_{J,k} ~ y_k * prod_{j in J} x_j,
multiplies the equality system by every monomial of degree <= d, and turns
the bound-factor product inequalities into equalities with [0,1] slacks.
The lift's sparsity pattern is known from n_b, n_g and d alone, so
`build_xd` sizes it up front, computes every (row, column, value) triplet
as whole index arrays from bit tables of the masks, with no loop over
entries, and writes them with one fancy assignment each into Ac, Ab and b.
Projecting the lift back to the original ambient space gives a set equal
to the input at every level; at d = n_b its relaxation is the convex hull.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import product
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


def _pair_terms(bits: np.ndarray, size: np.ndarray, o: int):
    """(pair, J, sign) of every term of the order-o bound-factor products.

    Pairs (J1, J2), |J1 u J2| = o, are numbered by ascending union mask,
    then by J1 over the union's subsets in ascending order; a pair's terms
    are f_coefficients(J1, J2).  The t-th subset of a union holds its q-th
    member when bit q of t is set, so subsets t1 and t1 | ti, for ti
    disjoint from t1, are J1 and J1 u I.
    """
    t = np.arange(1 << o)
    t1, ti = np.nonzero((t[:, None] & t) == 0)
    members = np.nonzero(bits[size == o])[1].reshape(-1, o)
    subset = (1 << members) @ bits[:1 << o, :o].T  # (union, t)
    pair = (np.arange(len(members))[:, None] << o) + t1
    sign = np.tile(1.0 - 2.0 * (size[ti] & 1), len(members))
    return pair.ravel(), subset[:, t1 | ti].ravel(), sign


def build_xd(H: AnySet, d: int) -> tuple[HybridZonotope, RltVariableTable]:
    """Level-d lift of the factor space, as a 01-hybrid zonotope over the
    original (x, y) coordinates (x first).  All lift variables get zero
    generator columns; the ambient map back to R^n is the caller's affine map.

    Rows: (i) the equality system times each monomial of degree <= d, by
    monomial (size, then mask) and then equality row; (ii) the order-D
    bound-factor products, D = min(d + 1, n_b); (iii) two rows per order-d
    pair and k, the low row and then the gap row.  Each row of (ii) and
    (iii) owns one [0,1] slack, with coefficient -1, in row order.  The
    constant of a family (i) row is the sequential sum of A over the
    monomial's members in ascending order, minus beta.

    The sizes are known up front.  The terms are index arrays computed from
    bit tables of the masks, with no loop over entries: a term sits at
    row * W + its column in [Ac | Ab | b] (w_J: its own column for |J| >= 2,
    x_j's column of Ab for J = {j}, b for J empty), and one fancy assignment
    each into Ac, Ab and b writes them.  Zero coefficients are skipped and
    no entry is written twice.  Row order, slack order, the sequential sum
    and the skipped zeros are those of the row-by-row construction that
    tests/test_rlt.py keeps as the reference, byte for byte.
    """
    H = convert_form(H.as_hybrid(), FactorForm.ZO)
    nb, ng, r = H.n_b, H.n_g, H.n_c
    if not 1 <= d <= nb:
        raise LevelOutOfRange(f"level {d} outside 1..{nb}")
    D, N, n_w = min(d + 1, nb), 1 << nb, (1 << nb) - nb - 1
    n_mono = sum(comb(nb, i) for i in range(d + 1))
    n_eq, n_D = r * n_mono, comb(nb, D) << D
    table = RltVariableTable(nb, ng, slack_start=n_w + ng * N,
                             n_slack=n_D + 2 * ng * (comb(nb, d) << d))
    n_rows, n_cols = n_eq + table.n_slack, table.n_cols
    W = n_cols + nb + 1

    # bits[J, j]: j is in J; the ng columns past nb are 0 and stand for the
    # y_k that family (i) multiplies
    bit = np.arange(nb)
    bits = np.arange(N)[:, None] >> np.arange(nb + ng) & 1
    size = bits.sum(axis=1)
    wide = np.flatnonzero(size >= 2)
    table.w_index = dict(zip(wide.tolist(), range(ng, ng + n_w)))
    table.v_index = dict(zip(product(range(1, N), range(ng)),
                             range(ng + n_w, table.slack_start)))
    w_at = np.full(N, n_cols + nb)  # w_empty = 1: the constant
    w_at[wide] = np.arange(ng, ng + n_w)
    w_at[1 << bit] = n_cols + bit  # w_{j} is the binary x_j
    v_at = n_w + np.arange(ng * N).reshape(N, ng)
    v_at[0] -= n_w  # v_{empty,k} = y_k

    # (i) row i times monomial J: the constant (the sequential sum of A over
    # J's members, ascending, minus beta), w_{J u j} for j outside J
    # (members get 0.0, which is skipped), then v_{J,k}
    mono = np.argsort(size, kind="stable")[:n_mono]
    inside = bits[mono][:, None]
    AB = np.hstack([H.Ab, H.Ac])
    const = np.cumsum(np.where(inside, AB, 0.0), axis=2)[..., nb - 1:nb] - H.b[:, None]
    at = np.hstack([w_at[mono[:, None] | np.append(0, 1 << bit)], v_at[mono]])
    pos = [np.arange(n_eq).reshape(n_mono, r, 1) * W + at[:, None]]
    val = [np.concatenate([const, np.where(inside, 0.0, AB)], axis=2)]

    # (ii) the order-D products; (iii) per order-d pair and k, the low row
    # on v_{J,k} and the gap row on w_J - v_{J,k}
    pair, J, sign = _pair_terms(bits, size, D)
    pos.append((n_eq + pair) * W + w_at[J])
    val.append(sign)
    if d < D:
        pair, J, sign = _pair_terms(bits, size, d)
    low = (n_eq + n_D + 2 * (pair[:, None] * ng + np.arange(ng))) * W
    sign = np.repeat(sign, ng)
    pos += [low + v_at[J], low + (W + w_at[J])[:, None], low + W + v_at[J]]
    val += [sign, sign, -sign]
    # the slacks: -1 on the diagonal of the last n_slack rows and columns
    pos.append(np.arange(n_eq * W + table.slack_start, n_rows * W, W + 1))
    val.append(np.full(table.n_slack, -1.0))

    val = np.concatenate(val, axis=None)
    keep = val != 0.0
    row, col = np.divmod(np.concatenate(pos, axis=None)[keep], W)
    val = val[keep]
    to_ac, to_b = col < n_cols, col == n_cols + nb
    to_ab = ~(to_ac | to_b)
    Ac = np.zeros((n_rows, n_cols))
    Ab = np.zeros((n_rows, nb))
    b = np.zeros(n_rows)
    Ac[row[to_ac], col[to_ac]] = val[to_ac]
    Ab[row[to_ab], col[to_ab] - n_cols] = val[to_ab]
    b[row[to_b]] = -val[to_b]  # the constant moves to the right-hand side

    # ambient (x, y): x from the binaries, y from the first ng continuous cols
    dim = nb + ng
    Gb = np.vstack([np.eye(nb), np.zeros((ng, nb))])
    Gc = np.zeros((dim, n_cols))
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
    constructed set is slightly larger; both tuples are reported, with
    "nnz", the nonzeros of the output's [Ac Ab].
    """
    H = H.as_hybrid()
    nominal = rlt_complexity(complexity(H), d)
    out = rlt_sharpen(H, d)
    report = {"level": d, "nominal": asdict(nominal),
              "actual": asdict(complexity(out)),
              "nnz": int(np.count_nonzero(out.Ac) + np.count_nonzero(out.Ab))}
    return out, report
