"""Per-layer tracing, installed from outside the package.

The layers are the package's modules.  `Tracer.install` replaces their
public functions with wrappers that record a span per call (layer, start,
end, parent) and the counts named in the README; `uninstall` puts the
originals back.  A layer's time is its self time: the span's duration minus
the time of the spans nested in it.  A call is counted when its parent span
belongs to another layer, so `support` calling `support_point` is one query.

With a reference solver attached, every LP that reaches `_simplex` is solved
a second time with HiGHS.  That solve runs with the clock paused: `clock()`
is wall time minus paused time, and the benchmark takes every timing of a
traced run from it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

from zonosharp import _simplex, algebra, core, oracle, relugraph, rlt
from zonosharp.errors import NumericalFailure

# (module, function name, layer); a name imported into a second module is
# patched there too, since that module calls its own binding
TARGETS = [
    (relugraph, "level_set_above", "relugraph"),
    (algebra, "union", "algebra"),
    (algebra, "convex_relaxation", "algebra"),
    (rlt, "rlt_sharpen", "rlt"),
    (rlt, "rlt_report", "rlt"),
    (rlt, "rlt_convex_hull", "rlt"),
    (rlt, "build_xd", "rlt"),
    (core, "leaves", "core"),
    (oracle, "leaves", "core"),
    (oracle, "support", "oracle"),
    (oracle, "support_point", "oracle"),
    (oracle, "contains", "oracle"),
    (oracle, "is_empty", "oracle"),
    (oracle, "check_sharpness", "oracle"),
    (oracle, "boundary_2d", "oracle"),
    (oracle, "area_2d", "oracle"),
    (oracle, "solve_lp", "oracle"),
    (_simplex, "solve_bounded", "simplex"),
    (_simplex, "min_infeasibility", "simplex"),
]

# per-layer metrics: (name, unit, which way is better); `simplex` is the
# `_simplex` module, renamed because a metric name must start with a letter
METRICS = [
    ("relugraph.s", "s", "lower"), ("relugraph.calls", "count", "lower"),
    ("algebra.s", "s", "lower"), ("algebra.calls", "count", "lower"),
    ("rlt.s", "s", "lower"), ("rlt.calls", "count", "lower"),
    ("rlt.rows", "count", "lower"), ("rlt.cols", "count", "lower"),
    ("rlt.nnz", "count", "lower"), ("rlt.dense_mb", "MB", "lower"),
    ("rlt.zero_cols", "count", "lower"),
    ("core.leaves_calls", "count", "lower"), ("core.leaves_built", "count", "lower"),
    ("core.leaves_s", "s", "lower"),
    ("oracle.queries", "count", "lower"), ("oracle.s", "s", "lower"),
    ("oracle.lp_per_query", "ratio", "lower"),
    ("simplex.calls", "count", "lower"), ("simplex.s", "s", "lower"),
    ("simplex.ms_per_call", "ms", "lower"),
    ("simplex.phase1_calls", "count", "lower"), ("simplex.phase1_s", "s", "lower"),
    ("simplex.rows_mean", "rows", "lower"), ("simplex.cols_mean", "cols", "lower"),
    ("simplex.optimal", "count", "higher"), ("simplex.infeasible", "count", "lower"),
    ("simplex.failed", "count", "lower"), ("simplex.feasible_share", "ratio", "higher"),
    ("simplex.vs_highs", "ratio", "lower"),
    ("trace.pass_s", "s", "lower"), ("trace.overhead_s", "s", "lower"),
]


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "child")

    def __init__(self, layer, name, parent, start):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.child = 0.0


class Tracer:
    """Spans and counters for the layers in TARGETS.

    `reference(kind, args, kwargs)` is called for every kernel call; it
    solves the same LP with another solver and returns its seconds.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.paused = 0.0
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.count = Counter()
        self._saved = []

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def install(self):
        for module, name, layer in TARGETS:
            fn = getattr(module, name)
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(layer, name, fn))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(layer, name, parent, self.clock())
            self.stack.append(span)
            try:
                out = fn(*args, **kwargs)
            except NumericalFailure:
                if layer == "simplex":
                    self.count["simplex.failed"] += 1
                raise
            finally:
                span.end = self.clock()
                self.stack.pop()
                self._close(span)
            self._record(span, args, kwargs, out)
            return out
        return traced

    def _close(self, span):
        duration = span.end - span.start
        if span.parent is not None:
            span.parent.child += duration
        self.spans.append(span)
        own = duration - span.child
        c = self.count
        outer = span.parent is None or span.parent.layer != span.layer
        if span.layer == "core":
            c["core.leaves_s"] += own
            c["core.leaves_calls"] += outer
        elif span.layer == "oracle":
            c["oracle.s"] += own
            c["oracle.queries"] += outer
        elif span.layer == "simplex":
            c["simplex.s"] += own
            c["simplex.calls"] += 1
            if span.name == "min_infeasibility":
                c["simplex.phase1_s"] += own
                c["simplex.phase1_calls"] += 1
        else:
            c[span.layer + ".s"] += own
            c[span.layer + ".calls"] += outer

    def _record(self, span, args, kwargs, out):
        c = self.count
        if span.layer == "core":
            c["core.leaves_built"] += len(out)
        elif span.name == "rlt_sharpen":
            c["rlt.rows"] += out.n_c
            c["rlt.cols"] += out.n_g + out.n_b
            c["rlt.nnz"] += int(np.count_nonzero(out.Ac) + np.count_nonzero(out.Ab))
            sizes = (out.Gc.size + out.Gb.size + out.c.size + out.Ac.size
                     + out.Ab.size + out.b.size)
            c["rlt.dense_mb"] += 8 * sizes / 1e6
            used = out.Ac.any(axis=0) | out.Gc.any(axis=0)
            c["rlt.zero_cols"] += int(np.count_nonzero(~used))
        elif span.layer == "simplex":
            A = args[1] if span.name == "solve_bounded" else args[0]
            b = args[2] if span.name == "solve_bounded" else args[1]
            c["simplex.rows"] += A.shape[0]
            c["simplex.cols"] += A.shape[1]
            if span.name == "solve_bounded":
                key = {0: "optimal", 1: "infeasible"}.get(out[0], "failed")
            else:
                tol = kwargs.get("tol", args[4] if len(args) > 4 else 1e-8)
                feasible = out[0] <= tol * (1.0 + np.max(np.abs(b), initial=0.0))
                key = "optimal" if feasible else "infeasible"
            c["simplex." + key] += 1
            if self.reference is not None:
                t0 = time.perf_counter()
                c["simplex.highs_s"] += self.reference(span.name, args, kwargs)
                self.paused += time.perf_counter() - t0

    def metrics(self, pass_s, overhead_s) -> dict:
        """name -> (value, unit) for every entry of METRICS; `pass_s` and
        `overhead_s` are the traced pass's time and its excess over the
        untraced passes, measured by the caller."""
        v = Counter(self.count)
        calls = v["simplex.calls"]
        v["oracle.lp_per_query"] = calls / v["oracle.queries"] if v["oracle.queries"] else 0.0
        v["simplex.ms_per_call"] = 1e3 * v["simplex.s"] / calls if calls else 0.0
        v["simplex.rows_mean"] = v["simplex.rows"] / calls if calls else 0.0
        v["simplex.cols_mean"] = v["simplex.cols"] / calls if calls else 0.0
        v["simplex.feasible_share"] = v["simplex.optimal"] / calls if calls else 0.0
        v["simplex.vs_highs"] = (v["simplex.s"] / v["simplex.highs_s"]
                                 if v["simplex.highs_s"] else 0.0)
        v["trace.pass_s"] = pass_s
        v["trace.overhead_s"] = overhead_s
        return {name: (v[name], unit) for name, unit, _ in METRICS}
