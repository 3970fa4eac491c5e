"""The scripts under tools/: the BENCH summary and the lift counts."""

import importlib.util
import json
import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools")


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    root = os.path.dirname(TOOLS)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, os.path.join(TOOLS, "lift_stats.py"),
                          "2,1", "3,2"], cwd=root, env=env, capture_output=True,
                         text=True, check=True)
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert [(r["nb"], r["d"], r["seed"]) for r in records] == [(2, 1, 0), (3, 2, 0)]
    for r in records:
        assert len(r["shape"]) == 2 and r["seconds"] >= 0.0
        stats = r["lp_stats"]
        assert stats["rows"] == 8 and sum(stats["status"].values()) == 8
        assert stats["phase1_runs"] >= 1 and set(stats["steps"]) == {"1", "2"}
        assert len(r["objectives"]) == 8
        assert all(repr(float(v)) == v for v in r["objectives"])  # exact
