"""The benchmark's checks reject planted wrong answers.

Each test builds a small corpus of its workload, runs one untimed pass,
shows that the check accepts the true answers, and then that it rejects one
planted error.  Run with:

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import METRICS  # noqa: E402
from zonosharp.core import HybridZonotope  # noqa: E402


def one_pass(workload, seed=0):
    corpus = workload.setup(seed)
    answers = workload.run_pass(corpus, workloads.Ops(time.perf_counter))
    return corpus, answers


def test_lift_with_one_entry_changed_is_rejected():
    w = workloads.RltBuild()
    item = w.setup(0)["items"][1]  # n_b = 6, d = 2
    H, d = item["H"], item["d"]
    X = workloads.rlt.rlt_sharpen(H, d)
    assert checks.check_lift(H, d, X, item["points"]) == []
    Ac = X.Ac.copy()
    Ac[0, 0] += 0.5
    wrong = HybridZonotope(X.Gc, X.Gb, X.c, Ac, X.Ab, X.b, X.factor_form)
    assert checks.check_lift(H, d, wrong, item["points"])


def test_hull_area_off_by_one_percent_is_rejected():
    w = workloads.LevelsetHull()
    corpus, report = one_pass(w)
    assert w.check(corpus, [report]) == []
    wrong = copy.deepcopy(report)
    wrong["hull_area"] *= 1.01
    assert w.check(corpus, [wrong])


def test_grid_reference_brackets_the_exact_hull():
    # the demo network's 0.5 level set has hull area 11/3, worked out by hand
    net = workloads.relugraph.demo_network()
    area, tol = checks.grid_hull_area(net, 0.5)
    assert abs(area - 11 / 3) <= tol


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in listed] == METRICS


def test_expected_size_counts_columns_by_hand():
    # n_b = 2, n_g = 2, n_c = 1, d = 1: y (2) + w_12 (1) + v (3 masks x 2)
    # + order-2 slacks C(2,2) 2^2 = 4 + order-1 pair slacks 2 * 2 * 2 * 2 = 16
    assert checks.expected_size(2, 2, 1, 1) == (2 + 1 + 6 + 4 + 16, 2, 3 + 16 + 4)
    assert np.isclose(checks.expected_size(8, 2, 1, 4)[0], 7031)
