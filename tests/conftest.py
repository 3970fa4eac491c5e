"""Seams into the LP kernel shared by the test modules.

The BLAS runs one thread, as in `perfbench/run.py` and
`tools/lift_stats.py`: the kernel's pivots follow the rounding of its
matrix products, which depends on the thread count, so a count that a test
pins holds at one thread count only.  The variables are set before numpy is
first imported, which is when the BLAS reads them.  When numpy was imported
before this file runs, setting them is too late: unless each was already 1
in the environment, the session stops with a message naming them.
"""

import os
import sys

import pytest

_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

if "numpy" in sys.modules and any(os.environ.get(v) != "1" for v in _THREADS):
    pytest.exit("numpy was imported before tests/conftest.py could pin its "
                "BLAS to one thread, so the step counts that the tests pin "
                "would follow another thread count; set "
                + ", ".join(f"{v}=1" for v in _THREADS)
                + " in the environment", returncode=pytest.ExitCode.USAGE_ERROR)
for _var in _THREADS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from zonosharp import _simplex  # noqa: E402


def _region(name, args):
    """(cost, lower bounds, right-hand side) of the LP of a `_start` or a
    `_pass` call; a pass's lower bounds are its start state's L, with a
    child's columns pinned."""
    if name == "_start":  # _start(c, A, b, lo, up, max_iter)
        return args[0], args[3], args[2]
    # _pass(start, c, A, b, max_iter, phase); the state runs over the
    # columns of A, then the artificials
    return args[1], args[0][2], args[3]


def _fake(status, name, args):
    """The (proposal, state) of a fake `_start` or `_pass` that proposes
    `status` with the structural lower bounds as its point and duals that
    prove nothing: zeros, or None for status 2."""
    c, lo, b = _region(name, args)
    y = None if status == 2 else np.zeros(b.shape[0])
    return (status, lo[:c.shape[0]].copy(), y), None


@pytest.fixture
def fake_pass(monkeypatch):
    """`fake_pass(status, first_only=False, passes=None, columns=None)`
    routes every simplex run, a dual start (`_start`) or a pass (`_pass`)
    of a batch row or of a child, to a fake that proposes `status`; or
    only the first run, or only those whose numbers (from 1, in call
    order) are in `passes`; with `columns`, only the runs over a region
    with that many structural columns.  It returns the list of (name,
    arguments) of every run made."""
    def install(status, first_only=False, passes=None, columns=None):
        calls = []
        if first_only:
            passes = {1}

        def routed(name):
            real = getattr(_simplex, name)

            def run(*args):
                calls.append((name, args))
                faked = (passes is None or len(calls) in passes) and \
                    (columns is None or
                     _region(name, args)[0].shape[0] == columns)
                return _fake(status, name, args) if faked else real(*args)
            return run
        for name in ("_start", "_pass"):
            monkeypatch.setattr(_simplex, name, routed(name))
        return calls
    return install


@pytest.fixture
def phase1_runs(monkeypatch):
    """The arguments of every dual start (`_start`) that the kernel makes:
    a region's kept start, the cold retry of a batch row or of a child of
    `Ladder.children`, or the elastic LP of `min_infeasibility`."""
    runs = []
    real = _simplex._start

    def start(*args):
        runs.append(args)
        return real(*args)
    monkeypatch.setattr(_simplex, "_start", start)
    return runs
