"""Acceptance suite.

Nine end-to-end checks, each printing a single PASS/FAIL line with the
measured quantity and its tolerance.  Expected values come from closed-form
complexity arithmetic, independently coded oracles (vertex enumeration,
leaf-wise support, feasibility sampling), and membership predicates
evaluated on a different representation than the one under test.
"""

import itertools
import time

import numpy as np
import pytest

from test_simplex import brute_force_lp

from zonosharp import (
    ComplexityTuple,
    FactorForm,
    HybridZonotope,
    LinearProgram,
    LpStatus,
    ReluNetwork,
    affine_map,
    cartesian_product,
    check_sharpness,
    complexity,
    contains,
    convex_relaxation,
    direction_set,
    minkowski_sum,
    point,
    polygon_area,
    rlt_complexity,
    rlt_convex_hull,
    rlt_sharpen,
    solve_lp,
    support,
    union,
    union_with_point,
)
from zonosharp.algebra import generalized_intersection
from zonosharp.cli import main as cli_main
from zonosharp.core import leaves
from zonosharp.oracle import SharpnessVerdict, _support_cz_many


def _line(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _random_hz(rng, n, ng, nb, nc, form=FactorForm.ZO):
    """Random hybrid zonotope with at least one feasible leaf."""
    Gc = rng.normal(size=(n, ng))
    Gb = rng.normal(size=(n, nb))
    c = rng.normal(size=n)
    Ac = rng.normal(size=(nc, ng))
    Ab = rng.normal(size=(nc, nb))
    lo = 0.0 if form is FactorForm.ZO else -1.0
    xi = rng.uniform(lo, 1.0, size=ng)
    xb = rng.integers(0, 2, size=nb).astype(float)
    if form is FactorForm.PM1:
        xb = 2.0 * xb - 1.0
    b = Ac @ xi + Ab @ xb
    return HybridZonotope(Gc, Gb, c, Ac, Ab, b, form)


def _random_zonotope(rng, n=2, ng=3):
    return HybridZonotope(rng.normal(size=(n, ng)), np.zeros((n, 0)),
                          rng.normal(size=n), np.zeros((0, ng)),
                          np.zeros((0, 0)), np.zeros(0), FactorForm.ZO)


def _seeded_network(widths, seed):
    """A ReLU network from R^2 through hidden layers of the given widths to
    one output, over the input box [-1, 1]^2, drawn from
    `numpy.random.default_rng(seed)`: each layer of k units over an input
    of width w draws W = normal(size=(k, w)) / sqrt(w), then bias =
    normal(size=k) * 0.1.  The 0 level set of widths [4] at seed 0 (the
    2-4-1 network) is empty."""
    rng = np.random.default_rng(seed)
    layers, w = [], 2
    for k in [*widths, 1]:
        W = rng.normal(size=(k, w)) / np.sqrt(w)
        layers.append((W, rng.normal(size=k) * 0.1))
        w = k
    return ReluNetwork(tuple(layers), np.array([[-1.0, 1.0], [-1.0, 1.0]]))


def _leaf_support(H, u):
    """Convex-hull support via exhaustive leaf enumeration (the oracle)."""
    best = -np.inf
    for _, L in leaves(H):
        out = _support_cz_many(L, u[None])[0]
        if out is not None:
            best = max(best, out[0])
    return best


def _feasible_factor_points(rng, H, count):
    """Sample ambient points of H by solving its constraints leaf by leaf."""
    pts = []
    assignments = list(itertools.product([0.0, 1.0], repeat=H.n_b))
    while len(pts) < count:
        xb = np.array(assignments[rng.integers(len(assignments))])
        rhs = H.b - H.Ab @ xb
        if H.n_c:
            xi0, *_ = np.linalg.lstsq(H.Ac, rhs, rcond=None)
            null = np.eye(H.n_g) - np.linalg.pinv(H.Ac) @ H.Ac
            xi = xi0 + null @ rng.normal(size=H.n_g)
        else:
            xi = rng.uniform(0, 1, H.n_g)
        if np.all(xi >= 0.01) and np.all(xi <= 0.99) and \
                (H.n_c == 0 or np.max(np.abs(H.Ac @ xi - rhs)) < 1e-9):
            pts.append(H.Gc @ xi + H.Gb @ xb + H.c)
        elif rng.random() < 0.05:
            break  # leaf line may never cross the unit box; give up gracefully
    return pts


class TestAcceptance:

    def test_1_rlt_complexity_closed_form(self, capsys):
        t = ComplexityTuple(21, 5, 14)
        rlt_complexity(t, 2)  # warm up before timing
        start = time.perf_counter()
        full = rlt_complexity(t, 5)
        low = rlt_complexity(t, 1)
        elapsed = time.perf_counter() - start
        ok = (full == ComplexityTuple(2042, 5, 1792)
              and low == ComplexityTuple(1118, 5, 504)
              and elapsed < 1e-3)
        _line(capsys, ok, "1 RLT complexity closed form",
              f"level 5 -> ({full.n_g},{full.n_b},{full.n_c}), "
              f"level 1 -> ({low.n_g},{low.n_b},{low.n_c}) "
              f"(expected (2042,5,1792) / (1118,5,504) exactly), "
              f"{elapsed * 1e6:.0f} us < 1 ms")

    def test_2_union_complexity_formula(self, capsys):
        rng = np.random.default_rng(20)
        bad = 0
        for _ in range(100):
            N = int(rng.integers(2, 5))
            Zs = [_random_hz(rng, 2, int(rng.integers(1, 4)),
                             int(rng.integers(0, 3)), int(rng.integers(0, 2)))
                  for _ in range(N)]
            U = union(Zs)
            expect = ComplexityTuple(
                sum(2 * Z.n_g + Z.n_b for Z in Zs),
                N + sum(Z.n_b for Z in Zs),
                1 + sum(Z.n_g + Z.n_b + Z.n_c for Z in Zs))
            if complexity(U) != expect:
                bad += 1
        _line(capsys, bad == 0, "2 union complexity formula",
              f"{100 - bad}/100 random cases match exactly (0 tolerance)")

    def test_3_union_with_point_membership(self, capsys):
        rng = np.random.default_rng(30)
        start = time.perf_counter()
        mismatches = 0
        total = 0
        for _ in range(50):
            n = int(rng.integers(1, 4))
            nb = int(rng.integers(0, 4))
            nc = int(rng.integers(0, 2))
            Z = _random_hz(rng, n, int(rng.integers(1, 4)), nb, nc)
            x = rng.normal(size=n) * 2.0
            U = union_with_point(Z, x)
            scale = 1.0 + np.max(np.abs(Z.c)) + np.sum(np.abs(Z.Gc)) \
                + np.sum(np.abs(Z.Gb))
            inside = _feasible_factor_points(rng, Z, 150)
            pts = list(inside)
            pts += [rng.uniform(-scale, scale, n) for _ in range(200 - len(pts))]
            pts += [x.copy() for _ in range(20)]
            pts += [x + rng.normal(size=n) * 1e-3 for _ in range(40)]
            mid = 0.5 * (x + Z.c)
            pts += [mid + rng.normal(size=n) * 0.1 for _ in range(40)]
            while len(pts) < 500:
                pts.append(rng.uniform(-scale, scale, n))
            for p in pts[:500]:
                want = contains(Z, p) or bool(np.all(p == x))
                if contains(U, p) != want:
                    mismatches += 1
                total += 1
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and elapsed < 60.0
        _line(capsys, ok, "3 union-with-point membership",
              f"{mismatches} mismatches in {total} points across 50 sets "
              f"(tol 1e-6), {elapsed:.1f}s < 60s")

    def test_4_sharpness_preservation(self, capsys):
        rng = np.random.default_rng(40)

        def sharp_input():
            kind = rng.integers(3)
            if kind == 0:
                return _random_zonotope(rng)
            if kind == 1:
                return union([_random_zonotope(rng), _random_zonotope(rng)])
            return union_with_point(_random_zonotope(rng), rng.normal(size=2) * 3)

        ops = {
            "minkowski_sum": lambda: minkowski_sum(sharp_input(), sharp_input()),
            "affine_map": lambda: affine_map(sharp_input(),
                                             rng.normal(size=(2, 2)),
                                             rng.normal(size=2)),
            "cartesian_product": lambda: cartesian_product(
                sharp_input(), _random_zonotope(rng, n=1, ng=2)),
            "union_with_point": lambda: union_with_point(
                sharp_input(), rng.normal(size=2) * 3),
            "union": lambda: union([sharp_input(), _random_zonotope(rng)]),
        }
        worst = 0.0
        failures = []
        for name, make in ops.items():
            for i in range(50):
                rep = check_sharpness(make(), n_dirs=64, tol=1e-6,
                                      seed=int(rng.integers(10000)))
                worst = max(worst, rep.max_gap)
                if rep.verdict is not SharpnessVerdict.SHARP:
                    failures.append((name, i))
        _line(capsys, not failures, "4 sharpness preservation",
              f"5 ops x 50 cases, max support gap {worst:.2e} <= 1e-6 "
              f"over 64 directions; failures: {failures or 'none'}")

    def _hierarchy_instances(self):
        rng = np.random.default_rng(50)
        out = []
        for i in range(20):
            nb = 1 + i % 4
            out.append((rng, _random_hz(rng, 2, 2, nb, 1)))
        return out

    def test_5_rlt_hierarchy_monotone_and_set_equal(self, capsys):
        rng = np.random.default_rng(50)
        dirs = direction_set(2, 64)
        worst_jump = -np.inf
        mismatches = 0
        total_pts = 0
        for i in range(20):
            nb = 1 + i % 4
            H = _random_hz(rng, 2, 2, nb, 1)
            inside = _feasible_factor_points(rng, H, 250)
            scale = 1.0 + np.max(np.abs(H.c)) + np.sum(np.abs(H.Gc)) \
                + np.sum(np.abs(H.Gb))
            pts = list(inside)
            while len(pts) < 500:
                pts.append(rng.uniform(-scale, scale, 2))
            want = [contains(H, p) for p in pts]
            prev = None
            for d in range(1, nb + 1):
                S = rlt_sharpen(H, d)
                R = convex_relaxation(S)
                sup = np.array([support(R, u) for u in dirs])
                if prev is not None:
                    worst_jump = max(worst_jump, float(np.max(sup - prev)))
                prev = sup
                for p, w in zip(pts, want):
                    if contains(S, p) != w:
                        mismatches += 1
                    total_pts += 1
        ok = worst_jump <= 1e-6 and mismatches == 0
        _line(capsys, ok, "5 RLT hierarchy",
              f"20 instances: support increase across levels "
              f"{worst_jump:.2e} <= 1e-6 over 64 directions; "
              f"{mismatches}/{total_pts} membership mismatches (expect 0)")

    def test_6_rlt_hull_matches_leaf_support(self, capsys):
        rng = np.random.default_rng(50)
        dirs = direction_set(2, 64)
        start = time.perf_counter()
        worst = 0.0
        for i in range(20):
            nb = 1 + i % 4
            H = _random_hz(rng, 2, 2, nb, 1)
            hull = rlt_convex_hull(H)
            for u in dirs:
                got = support(hull, u)
                ref = _leaf_support(H, u)
                worst = max(worst, abs(got - ref))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-6 and elapsed < 300.0
        _line(capsys, ok, "6 convex hull exactness",
              f"20 instances x 64 directions, max |hull - leaf-max| "
              f"{worst:.2e} <= 1e-6, {elapsed:.1f}s < 300s")

    def test_7_relaxation_intersection_commute(self, capsys):
        rng = np.random.default_rng(70)
        bad = 0
        for _ in range(100):
            n = int(rng.integers(1, 4))
            nz = int(rng.integers(1, 3))
            X = _random_hz(rng, n, int(rng.integers(1, 4)),
                           int(rng.integers(0, 3)), int(rng.integers(0, 2)))
            Z = _random_hz(rng, nz, int(rng.integers(1, 3)),
                           int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            R = rng.normal(size=(nz, n))
            first = convex_relaxation(generalized_intersection(X, Z, R))
            second = generalized_intersection(convex_relaxation(X),
                                              convex_relaxation(Z), R)
            second = convex_relaxation(second)
            # route one orders factors [X cont, Z cont, X bin, Z bin];
            # route two orders them [X cont, X bin, Z cont, Z bin]
            order = np.concatenate([
                np.arange(X.n_g),
                X.n_g + Z.n_g + np.arange(X.n_b),
                X.n_g + np.arange(Z.n_g),
                X.n_g + Z.n_g + X.n_b + np.arange(Z.n_b),
            ]).astype(int)
            # the copied blocks, offsets, and right-hand sides must agree
            # bit for bit; the coupling rows contain the same products
            # R (generators) issued through differently shaped matmuls, so
            # they are allowed a few ulp
            A1 = first.A[:, order]
            ulp = 8 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(A1)))
                                                if A1.size else 1.0)
            same = (np.array_equal(first.G[:, order], second.G)
                    and np.array_equal(first.c, second.c)
                    and np.array_equal(first.b, second.b)
                    and (A1.size == 0
                         or float(np.max(np.abs(A1 - second.A))) <= ulp))
            if not same:
                bad += 1
        _line(capsys, bad == 0, "7 relaxation/intersection commutation",
              f"{100 - bad}/100 random pairs matrix-identical up to the "
              f"fixed factor reordering (computed entries within a few ulp)")

    def test_8_relu_level_set_pipeline(self, capsys, tmp_path):
        import json
        out = str(tmp_path / "report.json")
        start = time.perf_counter()
        rc = cli_main(["demo-levelset", "-o", out, "--angles", "720"])
        elapsed = time.perf_counter() - start
        rep = json.load(open(out))
        levels = sorted(rep["levels"], key=lambda e: e["level"])
        last = levels[-1]
        ratios = [rep["relax_area_ratio"]] + [e["area_ratio"] for e in levels]
        monotone = all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
        ok = (rc == 0
              and rep["pre_rlt"]["verdict"] == "not_sharp"
              and last["verdict"] == "sharp" and last["max_gap"] <= 1e-6
              and monotone and abs(last["area_ratio"] - 1.0) <= 1e-3
              and elapsed < 120.0)
        _line(capsys, ok, "8 ReLU level-set pipeline",
              f"pre-RLT {rep['pre_rlt']['verdict']} "
              f"(gap {rep['pre_rlt']['max_gap']:.3f}), area ratios "
              f"{[round(r, 6) for r in ratios]} monotone={monotone}, "
              f"final level {last['verdict']} gap {last['max_gap']:.1e} "
              f"<= 1e-6, final ratio within 1e-3 of 1.0 at 720 angles, "
              f"{elapsed:.1f}s < 120s")

    def test_9_lp_engine_against_oracles(self, capsys):
        rng = np.random.default_rng(90)
        disagreements = 0
        vertex_checked = 0
        for trial in range(1000):
            n = int(rng.integers(1, 7)) if trial % 3 else int(rng.integers(1, 3))
            m = int(rng.integers(0, min(n, 4)))
            c = rng.normal(size=n)
            A = rng.normal(size=(m, n))
            lo = rng.uniform(-2, 0, n)
            up = lo + rng.uniform(0.1, 3, n)
            if trial % 4 == 3 and m > 0:
                # provably infeasible: rhs beyond the interval image of the box
                reach = np.where(A > 0, A * up, A * lo).sum(axis=1)
                b = reach + 1.0 + rng.uniform(0, 1, m)
            else:
                x0 = rng.uniform(lo, up)
                b = A @ x0
            r = solve_lp(LinearProgram(c, A, b, lo, up))
            if trial % 4 == 3 and m > 0:
                if r.status is not LpStatus.INFEASIBLE:
                    disagreements += 1
                continue
            if r.status is not LpStatus.OPTIMAL:
                disagreements += 1
                continue
            x = r.point
            feas = (np.all(x >= lo - 1e-6) and np.all(x <= up + 1e-6)
                    and (m == 0 or np.max(np.abs(A @ x - b)) < 1e-6))
            if not feas or abs(float(c @ x) - r.value) > 1e-6:
                disagreements += 1
                continue
            # sampling oracle: no feasible point may beat the reported optimum
            if m:
                N = np.eye(n) - np.linalg.pinv(A) @ A
                for _ in range(50):
                    xs = x0 + N @ rng.normal(size=n)
                    if np.all(xs >= lo) and np.all(xs <= up):
                        if float(c @ xs) < r.value - 1e-6:
                            disagreements += 1
                            break
            else:
                for _ in range(50):
                    xs = rng.uniform(lo, up)
                    if float(c @ xs) < r.value - 1e-6:
                        disagreements += 1
                        break
            if n <= 2:
                feasible, best = brute_force_lp(c, A, b, lo, up)
                vertex_checked += 1
                if not feasible or abs(best - r.value) > 1e-6:
                    disagreements += 1
        _line(capsys, disagreements == 0, "9 LP engine",
              f"1000 random LPs, {disagreements} disagreements with the "
              f"sampling/vertex oracles at 1e-6 "
              f"({vertex_checked} vertex-enumerated)")
