"""The LP kernel against HiGHS (`scipy.optimize.linprog`), LP by LP.

The corpus is the brute-force LPs of test_simplex and the support LPs of
RLT-lift relaxations of seeded random sets.  The kernel and HiGHS must agree
on the status, and on the optimum to within 1e-6 * (1 + |optimum|).  On the
lift LPs, each row of `solve_bounded_many` must also agree with one
`solve_bounded` call for its cost: bit for bit on the first row, and on
later rows, which start warm, to the same tolerance, with a point that
HiGHS's duals certify.  The hull supports that a sharpness check answers
from the relaxation's basis must agree with HiGHS's leaf LPs to the same
tolerance.
Skipped when scipy is missing.
"""

import numpy as np
import pytest

from test_acceptance import _random_hz
from test_simplex import assert_same_batch, small_random_lp

from zonosharp import (_simplex, check_sharpness, convex_relaxation,
                       direction_set, leaves, rlt_sharpen)

linprog = pytest.importorskip("scipy.optimize").linprog

HIGHS_STATUS = {0: 0, 2: 1}  # HiGHS optimal / infeasible -> kernel status

LIFTS = [(nb, d) for nb in (2, 3, 4) for d in sorted({1, (nb + 1) // 2, nb})] \
    + [(5, 1), (5, 5), (6, 1)]


def _assert_agree(c, A, b, lo, up):
    _assert_matches_highs(_simplex.solve_bounded(c, A, b, lo, up),
                          c, A, b, lo, up)


def _assert_matches_highs(result, c, A, b, lo, up):
    """Returns HiGHS's result."""
    st, obj, _ = result
    ref = linprog(c, A_eq=A, b_eq=b, bounds=np.column_stack([lo, up]),
                  method="highs")
    assert ref.status in HIGHS_STATUS, ref.message
    assert st == HIGHS_STATUS[ref.status]
    if st == 0:
        assert abs(obj - ref.fun) <= 1e-6 * (1.0 + abs(ref.fun))
    return ref


@pytest.mark.parametrize("seed", range(30))
def test_brute_force_corpus(seed):
    _assert_agree(*small_random_lp(seed))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("nb,d", LIFTS)
def test_lift_support(nb, d, seed):
    H = _random_hz(np.random.default_rng([seed, nb, d]), 2, 2, nb, 1)
    R = convex_relaxation(rlt_sharpen(H, d))
    lo, up = R.factor_bounds()
    for u in direction_set(2, 8, seed=seed):
        _assert_agree(-(R.G.T @ u), R.A, R.b, lo, up)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("nb,d", LIFTS)
def test_lift_support_batch(nb, d, seed):
    H = _random_hz(np.random.default_rng([seed, nb, d]), 2, 2, nb, 1)
    R = convex_relaxation(rlt_sharpen(H, d))
    lo, up = R.factor_bounds()
    C = np.array([-(R.G.T @ u) for u in direction_set(2, 8, seed=seed)])
    batch = _simplex.solve_bounded_many(C, R.A, R.b, lo, up)
    lone = [_simplex.solve_bounded(c, R.A, R.b, lo, up) for c in C]
    refs = [_assert_matches_highs(answer, c, R.A, R.b, lo, up)
            for c, answer in zip(C, batch)]
    duals = [ref.eqlin.marginals if ref.status == 0 else None for ref in refs]
    assert_same_batch(batch, lone, C, R.A, R.b, lo, up, duals)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("nb,d", LIFTS)
def test_children_match_highs(nb, d, seed):
    # the open directions of a sharpness check on the lift are answered as
    # children of its relaxation's LP; HiGHS solves each leaf LP on its own
    H = _random_hz(np.random.default_rng([seed, nb, d]), 2, 2, nb, 1)
    H = rlt_sharpen(H, d)
    rep = check_sharpness(H, n_dirs=8, seed=seed)
    opened = ~rep.closed
    for u, h in zip(rep.directions[opened], rep.hull_support[opened]):
        best = -np.inf
        for _, L in leaves(H):
            lo, up = L.factor_bounds()
            ref = linprog(-(L.G.T @ u), A_eq=L.A, b_eq=L.b,
                          bounds=np.column_stack([lo, up]), method="highs")
            assert ref.status in HIGHS_STATUS, ref.message
            if ref.status == 0:
                best = max(best, float(u @ L.c) - ref.fun)
        assert abs(h - best) <= 1e-6 * (1.0 + abs(best))
