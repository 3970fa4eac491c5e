"""The scripts under tools/: the BENCH summary and the lift counts; the
names that perfbench's tracer wraps; and the imports of the package and
the tools."""

import ast
import glob
import importlib.util
import json
import os
import subprocess
import sys

from zonosharp import _simplex

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def _module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tool(name):
    return _module(name, os.path.join(TOOLS, name + ".py"))


def _run(pass_s, correct=True, failed=0, attempted=100):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"pass_s": pass_s}}


class TestBenchSummary:
    def test_metrics_and_checks_per_side(self):
        bench_pairs = _tool("bench_pairs")
        runs = [{"seed": 1, "parent": _run(2.0), "change": _run(1.0)},
                {"seed": 2, "parent": _run(4.0, failed=3),
                 "change": _run(3.0, correct=False)},
                {"seed": 3, "parent": _run(3.0), "change": _run(5.0, failed=1)}]
        summary = bench_pairs.summarize(runs)
        entry = summary["pass_s"]
        assert entry["parent"]["median"] == 3.0
        assert entry["change"]["median"] == 3.0
        assert entry["change_better_pairs"] == 2
        assert entry["parent_better_pairs"] == 1
        assert summary["checks"] == {
            "parent": {"incorrect_runs": 0, "failed_ops": 3, "attempted_ops": 300},
            "change": {"incorrect_runs": 1, "failed_ops": 1, "attempted_ops": 300}}

    def test_incorrect_run_is_written_then_exits_1(self, tmp_path, monkeypatch):
        bench_pairs = _tool("bench_pairs")
        answers = iter([_run(2.0), _run(1.0, correct=False)])
        monkeypatch.setattr(bench_pairs, "checkout", lambda rev, dest: None)
        monkeypatch.setattr(bench_pairs, "run_once",
                            lambda *args: next(answers))
        out = tmp_path / "BENCH.json"
        code = bench_pairs.main(["--parent", "HEAD", "--workload", "w",
                                 "--seeds", "1", "--out", str(out)])
        assert code == 1
        checks = json.loads(out.read_text())["workloads"]["w"]["summary"]["checks"]
        assert checks["change"]["incorrect_runs"] == 1
        assert checks["parent"]["incorrect_runs"] == 0


def test_lift_stats_prints_one_record_per_lift():
    # a subprocess, since the tool pins the BLAS threads of its process
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(TOOLS, "lift_stats.py"),
                          "2,1", "3,2", "e,4"], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert [(r["nb"], r["d"], r["seed"]) for r in records] == \
        [(2, 1, 0), (3, 2, 0), ("e", 4, 0)]
    for r in records:
        assert len(r["shape"]) == 2 and r["seconds"] >= 0.0
        rows, cols = r["shape"]
        lift = r["lift"]
        assert set(lift) == {"seconds", "entries", "dense_mib"}
        assert lift["seconds"] >= 0.0
        assert 0 < lift["entries"] <= rows * cols
        assert lift["dense_mib"] == round(8 * rows * cols / 2 ** 20, 4)
        assert r["us_per_step"] > 0.0  # every batch runs phase 1 steps
        stats = r["lp_stats"]
        assert stats["rows"] == 8 and sum(stats["status"].values()) == 8
        assert stats["phase1_runs"] >= 1 and stats["cold_retries"] >= 0
        assert set(stats["steps"]) == {"1", "2", "dual"}
        for steps in stats["steps"].values():
            assert 0 <= steps["by_dual"] <= steps["all"]
        assert stats["steps"]["1"]["by_dual"] > 0  # a start's dual steps
        assert len(r["objectives"]) == 8
        assert all(repr(float(v)) == v for v in r["objectives"])  # exact
        sharp = r["sharpness"]
        assert sharp["phase1_runs"] >= 1 and sharp["seconds"] >= 0.0
        assert sharp["cold_retries"] >= 0
        assert set(sharp["by_dual"]) == {"1", "2", "dual"}
        assert sharp["us_per_step"] is None or sharp["us_per_step"] > 0.0
    for r in records[:2]:
        sharp = r["sharpness"]
        assert sharp["verdict"] in ("sharp", "not_sharp")
        assert repr(float(sharp["max_gap"])) == sharp["max_gap"]
        assert 0 <= sharp["closed"] <= 8
    # the level-4 lift of the seeded 2-4-1 network's empty level set: one
    # start proves every row infeasible
    empty = records[2]
    assert empty["shape"] == [832, 943]
    assert empty["lp_stats"]["status"] == {"1": 8}
    assert empty["lp_stats"]["phase1_runs"] == 1
    assert empty["sharpness"]["verdict"] == "empty"


def test_lift_stats_counts_children():
    # seed 0's (4, 1) lift has 2 open directions of 8, 16 leaves each
    lift_stats = _tool("lift_stats")
    first, again = (lift_stats.lift_stats(4, 1) for _ in range(2))
    sharp = first["sharpness"]
    assert sharp["verdict"] == "not_sharp" and sharp["closed"] == 6
    assert sharp["children"] == 2 * 16 and "child_fallbacks" not in sharp
    assert sharp["dual_steps"] > 0 and sharp["phase1_runs"] == 1
    # a child's pass restores its pinned bounds by dual steps
    assert 0 < sharp["by_dual"]["dual"] <= sharp["dual_steps"]
    assert sharp["cold_retries"] == first["lp_stats"]["cold_retries"] == 0
    for r in (first, again):
        del r["seconds"], r["sharpness"]["seconds"], r["lift"]["seconds"]
        del r["us_per_step"], r["sharpness"]["us_per_step"]
    assert first == again


def test_us_per_step_is_the_time_over_all_loop_steps():
    lift_stats = _tool("lift_stats")
    stats = _simplex.LpStats()
    assert lift_stats.us_per_step(0.5, stats) is None
    stats.pivots.update({1: 100, 2: 300, "dual": 100})
    assert lift_stats.us_per_step(0.01, stats) == 20.0


def test_tracer_targets_resolve_and_are_restored():
    # `perfbench/run.py --trace 1` wraps every name in TARGETS, so a name
    # removed from the package must leave TARGETS first
    tracing = _module("perfbench_tracing",
                      os.path.join(ROOT, "perfbench", "tracing.py"))
    missing = [f"{module.__name__}.{name}" for module, name, _ in tracing.TARGETS
               if not hasattr(module, name)]
    assert not missing
    originals = [getattr(module, name) for module, name, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(module, name) is not fn for (module, name, _), fn
                   in zip(tracing.TARGETS, originals, strict=True))
    finally:
        tracer.uninstall()
    assert all(getattr(module, name) is fn for (module, name, _), fn
               in zip(tracing.TARGETS, originals, strict=True))


def _unused_imports(path):
    """The names that a module imports at its top level and never reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                # `import a.b` binds the name a
                imported[alias.asname or alias.name.split(".")[0]] = \
                    alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{os.path.relpath(path, ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # the package's __init__ imports its public API, which it never reads
    paths = [p for p in glob.glob(os.path.join(ROOT, "src", "zonosharp", "*.py"))
             if os.path.basename(p) != "__init__.py"]
    paths += glob.glob(os.path.join(TOOLS, "*.py"))
    assert len(paths) > 2
    assert [name for p in sorted(paths) for name in _unused_imports(p)] == []
