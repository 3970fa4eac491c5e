"""Seams into the LP kernel shared by the test modules."""

import numpy as np
import pytest

from zonosharp import _simplex


def _fake(status):
    """A simplex pass that proposes `status` from an all-artificial basis."""
    def one_pass(rung, c, A, b, lo, *rest):
        (_, A_all, _), _, _ = rung
        m, n = A.shape
        return (status, lo.copy(), np.arange(n, n + m), A_all), None
    return one_pass


@pytest.fixture
def fake_pass(monkeypatch):
    """`fake_pass(status, first_only=False, passes=None)` routes every
    simplex pass, only the first, or only those whose numbers (from 1) are
    in `passes`, to a fake that proposes `status`; it returns the list of
    the arguments of every pass made."""
    def install(status, first_only=False, passes=None):
        real = _simplex._pass
        calls = []
        if first_only:
            passes = {1}

        def one_pass(*args):
            calls.append(args)
            faked = passes is None or len(calls) in passes
            return (_fake(status) if faked else real)(*args)
        monkeypatch.setattr(_simplex, "_pass", one_pass)
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
