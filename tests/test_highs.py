"""The LP kernel against HiGHS (`scipy.optimize.linprog`), LP by LP.

The corpus is the brute-force LPs of test_simplex and the support LPs of
RLT-lift relaxations of seeded random sets.  The kernel and HiGHS must agree
on the status, and on the optimum to within 1e-6 * (1 + |optimum|).  On the
lift LPs, each row of `solve_bounded_many` must also agree with one
`solve_bounded` call for its cost: bit for bit on the first row, and on
later rows, which start warm, to the same tolerance, with a point that
HiGHS's duals certify.  The hull supports that a sharpness check answers
from the relaxation's basis must agree with HiGHS's leaf LPs to the same
tolerance.  Lifts outside `LIFTS` are the ones a retry ladder of perturbed
copies failed on, or whose phase 2 once crawled under Bland's rule: the
(6, 6) batches at seeds 0, 1 and 2, the first row of the (6, 3) batch at
seed 0, the (5, 3) sharpness check at seed 0 and the empty level-4 lift
of a seeded ReLU network.  Skipped when scipy is missing.
"""

import numpy as np
import pytest

from test_acceptance import _random_hz, _seeded_network
from test_simplex import assert_same_batch, small_random_lp

from zonosharp import (_simplex, check_sharpness, convex_relaxation,
                       direction_set, leaves, level_set_above, rlt_sharpen)

linprog = pytest.importorskip("scipy.optimize").linprog

HIGHS_STATUS = {0: 0, 2: 1}  # HiGHS optimal / infeasible -> kernel status

LIFTS = [(nb, d) for nb in (2, 3, 4) for d in sorted({1, (nb + 1) // 2, nb})] \
    + [(5, 1), (5, 3), (5, 5), (6, 1)]


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
    _assert_batch_agrees(nb, d, seed)


def test_6_6_lift_support_batch():
    # a retry ladder of perturbed copies certified these rows only on its
    # last rung, after 16.9 s
    _assert_batch_certified(6, 6, 1)


def test_6_6_seed_0_lift_support_batch():
    # phase 2 from the kept start crawled under Bland's rule on this lift
    # until 5 of its 8 rows were answered by their cold retries
    _assert_batch_certified(6, 6, 0)


def test_6_6_seed_2_lift_support_batch():
    # phase 2 once took 10955 of this batch's 12733 steps under Bland's
    # rule, with no cold retry; the steps are exact at conftest's one BLAS
    # thread, and a crawl of that length fails the bound
    with _simplex.lp_stats() as stats:
        _assert_batch_certified(6, 6, 2)
    assert stats.cold_retries == 0 and stats.pivots[2] < 2000


def test_5_3_lift_support_batch_from_one_start():
    # every row is answered by its one pass from the kept start or from
    # the row before; it once crawled under Bland's rule until a row
    # needed its cold retry
    with _simplex.lp_stats() as stats:
        _assert_batch_certified(5, 3, 0)
    assert stats.cold_retries == 0 and stats.phase1_runs == 1


def test_6_3_lift_support_first_direction():
    # the first row of the (6, 3) seed-0 batch, 922 x 1071: phase 2 from
    # the kept start crawled for 531 steps under Bland's rule until the
    # row needed its cold retry; HiGHS's optimum is -2.8346002343613934
    R, C = _lift_batch(6, 3, 0)
    assert R.A.shape == (922, 1071)
    lo, up = R.factor_bounds()
    with _simplex.lp_stats() as stats:
        answer = _simplex.solve_bounded(C[0], R.A, R.b, lo, up)
    assert answer[0] == 0
    _assert_matches_highs(answer, C[0], R.A, R.b, lo, up)
    assert stats.cold_retries == 0 and stats.phase1_runs == 1


def _assert_batch_certified(nb, d, seed):
    """Every row of the lift's batch is certified optimal, as HiGHS finds
    it."""
    R, C = _lift_batch(nb, d, seed)
    lo, up = R.factor_bounds()
    batch = _simplex.solve_bounded_many(C, R.A, R.b, lo, up)
    for c, answer in zip(C, batch):
        assert answer[0] == 0
        _assert_matches_highs(answer, c, R.A, R.b, lo, up)


def _lift_batch(nb, d, seed):
    """The relaxation of `test_lift_support`'s lift and its 8 costs."""
    H = _random_hz(np.random.default_rng([seed, nb, d]), 2, 2, nb, 1)
    R = convex_relaxation(rlt_sharpen(H, d))
    return R, np.array([-(R.G.T @ u) for u in direction_set(2, 8, seed=seed)])


def _assert_batch_agrees(nb, d, seed):
    R, C = _lift_batch(nb, d, seed)
    lo, up = R.factor_bounds()
    batch = _simplex.solve_bounded_many(C, R.A, R.b, lo, up)
    lone = [_simplex.solve_bounded(c, R.A, R.b, lo, up) for c in C]
    refs = [_assert_matches_highs(answer, c, R.A, R.b, lo, up)
            for c, answer in zip(C, batch)]
    duals = [ref.eqlin.marginals if ref.status == 0 else None for ref in refs]
    assert_same_batch(batch, lone, C, R.A, R.b, lo, up, duals)


def test_empty_lift_is_infeasible():
    # the level-4 lift of the seeded 2-4-1 network's empty 0 level set,
    # 832 x 943: a retry ladder of perturbed copies ended every row in
    # status 2; one dual start now proves it empty
    H = level_set_above(_seeded_network([4], 0), 0.0)
    R = convex_relaxation(rlt_sharpen(H, 4))
    lo, up = R.factor_bounds()
    assert R.A.shape == (832, 943)
    C = np.array([-(R.G.T @ u) for u in direction_set(2, 8)])
    with _simplex.lp_stats() as stats:
        batch = _simplex.solve_bounded_many(C, R.A, R.b, lo, up)
    assert [st for st, _, _ in batch] == [1] * 8
    assert stats.phase1_runs == 1
    _assert_matches_highs(batch[0], C[0], R.A, R.b, lo, up)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("nb,d", LIFTS)
def test_children_match_highs(nb, d, seed):
    _assert_children_agree(nb, d, seed)


def test_5_3_children_match_highs():
    # the children of the one open direction, 32 leaves, once fell back to
    # leaf ladders that failed, and the check raised NumericalFailure
    with _simplex.lp_stats() as stats:
        _assert_children_agree(5, 3, 0)
    # the relaxation's kept start answers every relaxation row, and no
    # child needs a start of its own
    assert stats.children == 32
    assert stats.cold_retries == 0 and stats.phase1_runs == 1


def _assert_children_agree(nb, d, seed):
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
