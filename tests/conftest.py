"""Seams into the LP kernel shared by the test modules.

The BLAS runs one thread, as in `perfbench/run.py` and
`tools/lift_stats.py`: the kernel's pivots follow the rounding of its
matrix products, which depends on the thread count, so a count that a test
pins holds at one thread count only.  The variables are set before numpy is
first imported, which is when the BLAS reads them.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from zonosharp import _simplex  # noqa: E402


def _fake(status):
    """A simplex pass that proposes `status` from an all-artificial basis.

    Its point is lo, and its duals are those of that basis, diag(art_sign):
    for the phase-1 cost (a candidate Farkas ray, art_sign) when status is 1
    or c is None, for the phase-2 cost (0 on every artificial) otherwise,
    and None for status 2.
    """
    def one_pass(rung, c, A, b, lo, *rest):
        (_, A_all, _), _, _ = rung
        art_sign = A_all[:, A.shape[1]:].diagonal().copy()
        if status == 2:
            y = None
        elif status == 1 or c is None:
            y = art_sign
        else:
            y = np.zeros_like(art_sign)
        return (status, lo.copy(), y), None
    return one_pass


@pytest.fixture
def fake_pass(monkeypatch):
    """`fake_pass(status, first_only=False, passes=None, columns=None)`
    routes every simplex pass, only the first, or only those whose numbers
    (from 1) are in `passes`, to a fake that proposes `status`; with
    `columns`, only the passes over a region with that many columns.  It
    returns the list of the arguments of every pass made."""
    def install(status, first_only=False, passes=None, columns=None):
        real = _simplex._pass
        calls = []
        if first_only:
            passes = {1}

        def one_pass(*args):
            calls.append(args)
            faked = (passes is None or len(calls) in passes) and \
                (columns is None or args[2].shape[1] == columns)
            return (_fake(status) if faked else real)(*args)
        monkeypatch.setattr(_simplex, "_pass", one_pass)
        return calls
    return install


@pytest.fixture
def fake_dual_pass(monkeypatch):
    """`fake_dual_pass(status)` routes every dual pass of
    `Ladder.children` to a fake that proposes `status` with the parent's
    own point, whose pinned columns are not at their pins in general, and
    no ray that proves anything: zero duals, or None for status 2.  It
    returns the list of the arguments of every dual pass made."""
    def install(status):
        calls = []

        def dual_pass(parent, A_all, *rest):
            calls.append((parent, A_all, *rest))
            m = A_all.shape[0]
            n = A_all.shape[1] - m
            y = None if status == 2 else np.zeros(m)
            return status, parent[1][:n].copy(), y
        monkeypatch.setattr(_simplex, "_dual_pass", dual_pass)
        return calls
    return install


@pytest.fixture
def phase1_runs(monkeypatch):
    """The arguments of every phase 1 that the kernel runs."""
    runs = []
    real = _simplex._phase1

    def phase1(*args):
        runs.append(args)
        return real(*args)
    monkeypatch.setattr(_simplex, "_phase1", phase1)
    return runs
