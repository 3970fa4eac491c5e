"""Reformulation-linearization on the factor space of a hybrid zonotope.

The binary factors x and continuous factors y of a 01-form hybrid zonotope
satisfy an affine system A x + B y = beta.  The level-d lift introduces
products w_J ~ prod_{j in J} x_j and v_{J,k} ~ y_k * prod_{j in J} x_j,
multiplies the equality system by every monomial of degree <= d, and turns
the bound-factor product inequalities into equalities with [0,1] slacks.
The lift's sparsity pattern is known from n_b, n_g and d alone, so
`_lift_rows` sizes it up front, computes every (row, column, value)
triplet as whole index arrays from bit tables of the masks, with no loop
over entries, and routes each family's triplets to Ac, Ab or b as it makes
them.  A lift has about 8 entries per row in a column for every
subset of the binaries, so its Ac is nearly all zeros, and it is kept as
its entries, a `SparseMatrix`: the nominal dense array is never built
here.  Ab and b are dense.
Every lift variable has a zero generator, so `rlt_sharpen` builds its
output from the lift's rows (`_lift_rows`) and the input's own generators,
Gc padded with zero columns: a set equal to the input at every level,
whose relaxation at d = n_b is the convex hull.  `build_xd` is the same
rows as a set over the factor coordinates (x, y), the factor-space lift
for callers who want it; `rlt_sharpen` does not go through it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import count, product
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
from .sparse import SparseMatrix


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
    gets a fresh column.  `w_index` and `v_index` map w_J's mask and v_{J,k}'s
    (mask, k) to their columns; each is built at its first read.
    """

    n_bin: int
    n_cont_orig: int
    slack_start: int = 0
    n_slack: int = 0

    @property
    def n_cols(self) -> int:
        return self.slack_start + self.n_slack

    @cached_property
    def w_index(self) -> dict[int, int]:
        wide = (m for m in range(1 << self.n_bin) if m.bit_count() >= 2)
        return dict(zip(wide, count(self.n_cont_orig)))

    @cached_property
    def v_index(self) -> dict[tuple[int, int], int]:
        nb, ng = self.n_bin, self.n_cont_orig
        return dict(zip(product(range(1, 1 << nb), range(ng)),
                        count(ng + (1 << nb) - nb - 1)))


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
    generator columns.  `rlt_sharpen` does not go through this set: it
    builds its output from the same rows (`_lift_rows`) with H's own
    generators, so this is the factor-space lift for callers who want it.

    Rows: (i) the equality system times each monomial of degree <= d, by
    monomial (size, then mask) and then equality row; (ii) the order-D
    bound-factor products, D = min(d + 1, n_b); (iii) two rows per order-d
    pair and k, the low row and then the gap row.  Each row of (ii) and
    (iii) owns one [0,1] slack, with coefficient -1, in row order.  The
    constant of a family (i) row is the sequential sum of A over the
    monomial's members in ascending order, minus beta.

    The sizes are known up front.  Each family's terms are (row, column,
    value) arrays computed from bit tables of the masks, with no loop over
    entries, and routed where the family makes them.  v_{J,k} is always a
    column of Ac; w_J is its own column of Ac for |J| >= 2, x_j's column of
    Ab for J = {j} and the constant, moved into b, for J empty.  So only
    the terms of (i) and (ii) and the w_J terms of the gap rows of (iii)
    are split between Ac, Ab and b, and the v_{J,k} terms of (iii) and the
    slacks go to Ac as they are.  Only (i) can have zero coefficients, of
    either sign, and drops them; no position gets two terms.  Ac keeps its
    terms as a `SparseMatrix`, concatenated once in the order (i), (ii),
    (iii)'s low rows, its gap rows' w_J terms and their v_{J,k} terms, and
    the slacks: the order in which `Ac @ Z` sums each row.  Row order,
    slack order, the sequential sum and the dropped zeros are those of the
    row-by-row construction that tests/test_rlt.py keeps as the reference,
    and the dense form of Ac equals its Ac byte for byte.  At n_b = 8,
    d = 4, Ac keeps 53288 entries, 1.2 MiB as (row, column, value), where
    its dense form, 6435 x 7031, would take 345 MiB.
    """
    H = convert_form(H.as_hybrid(), FactorForm.ZO)
    nb, ng = H.n_b, H.n_g
    table, Ac, Ab, b = _lift_rows(H, d)
    # ambient (x, y): x from the binaries, y from the first ng continuous cols
    dim = nb + ng
    Gb = np.vstack([np.eye(nb), np.zeros((ng, nb))])
    Gc = np.zeros((dim, table.n_cols))
    Gc[nb:, :ng] = np.eye(ng)
    lifted = HybridZonotope(Gc, Gb, np.zeros(dim), Ac, Ab, b, FactorForm.ZO)
    return lifted, table


def _lift_rows(H: HybridZonotope, d: int):
    """(table, Ac, Ab, b) of the level-d lift of the 01-form H, the rows
    that `build_xd` documents.  Raises LevelOutOfRange unless
    1 <= d <= n_b.  Ac's parts are freed before Ab and b are split off,
    and its other temporaries when it returns, before the caller makes Gc,
    so they do not add to the call's peak."""
    nb, ng, r = H.n_b, H.n_g, H.n_c
    if not 1 <= d <= nb:
        raise LevelOutOfRange(f"level {d} outside 1..{nb}")
    D, N, n_w = min(d + 1, nb), 1 << nb, (1 << nb) - nb - 1
    n_mono = sum(comb(nb, i) for i in range(d + 1))
    n_eq, n_D = r * n_mono, comb(nb, D) << D
    table = RltVariableTable(nb, ng, slack_start=n_w + ng * N,
                             n_slack=n_D + 2 * ng * (comb(nb, d) << d))
    n_rows, n_cols = n_eq + table.n_slack, table.n_cols

    # bits[J, j]: j is in J; the ng columns past nb are 0 and stand for the
    # y_k that family (i) multiplies
    bit = np.arange(nb)
    bits = np.arange(N)[:, None] >> np.arange(nb + ng) & 1
    size = bits.sum(axis=1)
    # w_J's column in [Ac | Ab | b], v_{J,k}'s in Ac
    w_at = np.full(N, n_cols + nb)  # w_empty = 1: the constant
    w_at[size >= 2] = np.arange(ng, ng + n_w)
    w_at[1 << bit] = n_cols + bit  # w_{j} is the binary x_j
    v_at = n_w + np.arange(ng * N).reshape(N, ng)
    v_at[0] -= n_w  # v_{empty,k} = y_k

    parts = []  # Ac's entries, (row, col, val), block by block
    Abb = np.zeros((n_rows, nb + 1))  # [Ab | the constant]

    def route(row, col, val):
        """The entries in Ac's columns to `parts`, the others into Abb."""
        to_ac = col < n_cols
        parts.append((row[to_ac], col[to_ac], val[to_ac]))
        rest = ~to_ac
        Abb[row[rest], col[rest] - n_cols] = val[rest]

    # (i) row i times monomial J: the constant (the sequential sum of A over
    # J's members, ascending, minus beta), w_{J u j} for j outside J
    # (members get 0.0), then v_{J,k}; the only family with zero
    # coefficients, which are dropped
    mono = np.argsort(size, kind="stable")[:n_mono]
    inside = bits[mono][:, None]
    AB = np.hstack([H.Ab, H.Ac])
    const = np.cumsum(np.where(inside, AB, 0.0), axis=2)[..., nb - 1:nb] - H.b[:, None]
    at = np.hstack([w_at[mono[:, None] | np.append(0, 1 << bit)], v_at[mono]])
    val = np.concatenate([const, np.where(inside, 0.0, AB)], axis=2)
    m, i, t = np.nonzero(val)  # by row, then term; -0.0 counts as zero
    route(m * r + i, at[m, t], val[m, i, t])

    # (ii) the order-D products
    pair, J, sign = _pair_terms(bits, size, D)
    route(n_eq + pair, w_at[J], sign)

    # (iii) per order-d pair and k, the low row on v_{J,k} and the gap row
    # on w_J - v_{J,k}; only w_J can leave Ac
    if d < D:
        pair, J, sign = _pair_terms(bits, size, d)
    low = (n_eq + n_D + 2 * (pair[:, None] * ng + np.arange(ng))).ravel()
    sign, v = np.repeat(sign, ng), v_at[J].ravel()
    parts.append((low, v, sign))
    route(low + 1, np.repeat(w_at[J], ng), sign)
    parts.append((low + 1, v, -sign))
    # the slacks: -1 on the diagonal of the last n_slack rows and columns
    parts.append((np.arange(n_eq, n_rows), np.arange(table.slack_start, n_cols),
                  np.full(table.n_slack, -1.0)))

    Ac = SparseMatrix((n_rows, n_cols), *map(np.concatenate, zip(*parts)))
    del parts
    # the constant moves to the right-hand side; 0.0 - 0.0 is +0.0, so a row
    # with no constant keeps b = +0.0
    return table, Ac, Abb[:, :nb].copy(), 0.0 - Abb[:, nb]


def rlt_sharpen(H: AnySet, d: int) -> HybridZonotope:
    """Equal set, re-represented so the level-d lift tightens the relaxation.

    At d = n_b the relaxation of the output is the convex hull of H.
    Output is in 01 form; an n_b = 0 input is returned unchanged.  Every
    lift variable has a zero generator, so the output's generators are H's
    own in 01 form, Gc padded with zero columns, and its constraints are the
    lift's rows (`_lift_rows`).
    """
    H = H.as_hybrid()
    if H.n_b == 0:
        return H
    Hz = convert_form(H, FactorForm.ZO)
    table, Ac, Ab, b = _lift_rows(Hz, d)
    Gc = np.zeros((Hz.dim, table.n_cols))
    Gc[:, :Hz.n_g] = Hz.Gc
    return HybridZonotope(Gc, Hz.Gb, Hz.c, Ac, Ab, b, FactorForm.ZO)


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
    "nnz", the nonzeros of the output's [Ac Ab], counted from the entries
    of its sparse Ac.
    """
    H = H.as_hybrid()
    nominal = rlt_complexity(complexity(H), d)
    out = rlt_sharpen(H, d)
    report = {"level": d, "nominal": asdict(nominal),
              "actual": asdict(complexity(out)),
              "nnz": out.Ac.nnz + int(np.count_nonzero(out.Ab))}
    return out, report
