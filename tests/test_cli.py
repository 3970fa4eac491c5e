import json

import numpy as np
import pytest

from zonosharp import FactorForm, _simplex, box, core, interval, read_set, relugraph
from zonosharp.cli import main


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "sq.json"
    core.write_set(path, box(np.array([[0.0, 1.0], [0.0, 1.0]]), FactorForm.ZO))
    return str(path)


@pytest.fixture
def square2(tmp_path):
    path = tmp_path / "sq2.json"
    core.write_set(path, box(np.array([[2.0, 3.0], [0.0, 1.0]]), FactorForm.ZO))
    return str(path)


@pytest.fixture
def two_squares(square, square2, tmp_path):
    path = str(tmp_path / "u.json")
    assert main(["op", "union", square, square2, "-o", path]) == 0
    return path


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command, flag, value", [
    ("check-sharp", "--cap", "-1"), ("check-sharp", "--dirs", "-3"),
    ("check-sharp", "--dirs", "0"), ("plot2d", "--cap", "-1"),
    ("demo-levelset", "--cap", "-1"), ("demo-levelset", "--dirs", "-3")])
def test_negative_count_exit_2(square, tmp_path, capsys, command, flag, value):
    args = [command] + ([square] if command != "demo-levelset" else [])
    with pytest.raises(SystemExit) as exc:
        main(args + [flag, value, "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("args, flag", [
    (["demo-levelset", "--angles", "8", "--threshold", "nan"], "--threshold"),
    (["demo-levelset", "--angles", "8", "--threshold", "inf"], "--threshold"),
    (["op", "halfspace", "{set}", "--normal", "[NaN, 0]", "--bound", "0"],
     "--normal"),
    (["op", "halfspace", "{set}", "--normal", "[1, 0]", "--bound", "nan"],
     "--bound"),
    (["op", "map", "{set}", "--matrix", "[[NaN, 0], [0, 1]]"], "--matrix"),
    (["op", "map", "{set}", "--matrix", "[[1, 0], [0, 1]]",
      "--offset", "[NaN, 0]"], "--offset"),
    (["op", "intersect", "{set}", "{set}", "--matrix", "[[NaN, 0], [0, 1]]"],
     "--matrix"),
    (["op", "union-point", "{set}", "--point", "[Infinity, 0]"], "--point")],
    ids=["threshold-nan", "threshold-inf", "normal-nan", "bound-nan",
         "matrix-nan", "offset-nan", "intersect-nan", "point-inf"])
def test_nonfinite_number_exit_2(square, tmp_path, capsys, args, flag):
    # each once ended in a traceback or wrote a set file with NaN or
    # Infinity in it, which the readers then refuse
    out = tmp_path / "out.json"
    try:
        code = main([a.format(set=square) for a in args] + ["-o", str(out)])
    except SystemExit as exc:  # argparse rejects its own arguments
        code = exc.code
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]
    assert "Traceback" not in err and "finite" in errors[0]


class TestOp:
    def test_minksum(self, square, square2, tmp_path):
        out = str(tmp_path / "out.json")
        assert main(["op", "minksum", square, square2, "-o", out]) == 0
        S = read_set(out)
        assert S.dim == 2 and S.n_g == 4

    def test_union_round_trip(self, square, square2, tmp_path):
        out = str(tmp_path / "u.json")
        assert main(["op", "union", square, square2, "-o", out]) == 0
        U = read_set(out)
        assert U.n_b == 2
        rewritten = str(tmp_path / "u2.json")
        core.write_set(rewritten, U)
        again = read_set(rewritten)
        np.testing.assert_array_equal(again.Ac, U.Ac)

    def test_map(self, square, tmp_path):
        out = str(tmp_path / "m.json")
        rc = main(["op", "map", square, "--matrix", "[[2,0],[0,1]]",
                   "--offset", "[1,0]", "-o", out])
        assert rc == 0
        from zonosharp import support
        S = read_set(out)
        assert support(S, [1.0, 0.0]) == pytest.approx(3.0, abs=1e-8)
        assert support(S, [0.0, 1.0]) == pytest.approx(1.0, abs=1e-8)

    def test_halfspace(self, square, tmp_path):
        out = str(tmp_path / "h.json")
        rc = main(["op", "halfspace", square, "--normal", "[1,0]",
                   "--bound", "0.5", "-o", out])
        assert rc == 0

    def test_relax_and_convert(self, square, square2, tmp_path):
        u = str(tmp_path / "u.json")
        main(["op", "union", square, square2, "-o", u])
        out = str(tmp_path / "r.json")
        assert main(["op", "relax", u, "-o", out]) == 0
        assert json.load(open(out))["type"] == "cz"
        out2 = str(tmp_path / "c.json")
        assert main(["op", "convert-form", u, "--form", "pm1", "-o", out2]) == 0
        assert json.load(open(out2))["form"] == "pm1"

    def test_union_point(self, tmp_path):
        p = str(tmp_path / "i.json")
        core.write_set(p, interval(0.0, 1.0, FactorForm.ZO))
        out = str(tmp_path / "up.json")
        rc = main(["op", "union-point", p, "--point", "[3.0]", "-o", out])
        assert rc == 0
        assert read_set(out).n_b == 1

    def test_parse_error_exit_2(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        assert main(["op", "relax", missing]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["op", "relax", str(bad)]) == 2

    def test_dimension_error_exit_3(self, square, tmp_path):
        p = str(tmp_path / "i.json")
        core.write_set(p, interval(0.0, 1.0, FactorForm.ZO))
        assert main(["op", "minksum", square, p]) == 3

    def test_form_error_exit_3(self, square, tmp_path):
        p = str(tmp_path / "pm.json")
        core.write_set(p, box(np.array([[0.0, 1.0], [0.0, 1.0]]),
                              FactorForm.PM1))
        assert main(["op", "minksum", square, p]) == 3


class TestRlt:
    def test_level_and_report(self, square, square2, tmp_path):
        u = str(tmp_path / "u.json")
        main(["op", "union", square, square2, "-o", u])
        out = str(tmp_path / "s.json")
        rep = str(tmp_path / "rep.json")
        assert main(["rlt", u, "--level", "1", "-o", out, "--report", rep]) == 0
        report = json.load(open(rep))
        assert report["level"] == 1
        assert set(report["nominal"]) == {"n_g", "n_b", "n_c"}
        S = read_set(out)
        assert S.n_b == read_set(u).n_b

    def test_report_nnz(self, two_squares, tmp_path):
        out = str(tmp_path / "s.json")
        rep = str(tmp_path / "rep.json")
        assert main(["rlt", two_squares, "--level", "2", "-o", out,
                     "--report", rep]) == 0
        S = read_set(out)
        nnz = json.load(open(rep))["nnz"]
        assert nnz == np.count_nonzero(S.Ac) + np.count_nonzero(S.Ab) > 0
        # the hull is the relaxation of the level-n_b lift: A = [Ac Ab]
        assert main(["rlt", two_squares, "--hull", "-o", out,
                     "--report", rep]) == 0
        hull_nnz = json.load(open(rep))["nnz"]
        assert hull_nnz == np.count_nonzero(read_set(out).A) == nnz

    def test_hull(self, square, square2, tmp_path):
        u = str(tmp_path / "u.json")
        main(["op", "union", square, square2, "-o", u])
        out = str(tmp_path / "hull.json")
        assert main(["rlt", u, "--hull", "-o", out]) == 0
        assert json.load(open(out))["type"] == "cz"

    def test_level_out_of_range_exit_4(self, square, square2, tmp_path):
        u = str(tmp_path / "u.json")
        main(["op", "union", square, square2, "-o", u])
        assert main(["rlt", u, "--level", "99",
                     "-o", str(tmp_path / "x.json")]) == 4


class TestCheckSharp:
    def test_sharp_exit_0(self, square, tmp_path):
        rep = str(tmp_path / "rep.json")
        assert main(["check-sharp", square, "-o", rep]) == 0
        assert json.load(open(rep))["verdict"] == "sharp"

    def test_not_sharp_exit_1(self, tmp_path):
        from zonosharp import generalized_intersection, relu_graph_1d
        H = generalized_intersection(relu_graph_1d(-1.0, 1.0),
                                     interval(-1.0, 0.4, FactorForm.ZO),
                                     np.array([[0.0, 1.0]]))
        p = str(tmp_path / "ns.json")
        core.write_set(p, H)
        rep = str(tmp_path / "r.json")
        assert main(["check-sharp", p, "-o", rep]) == 1
        # the directions that needed leaf LPs are those not closed
        obj = json.load(open(rep))
        closed = obj["closed_by_relaxation"]
        assert len(closed) == len(obj["directions"]) and False in closed
        assert all(h == r for h, r, c in zip(obj["hull_support"],
                                              obj["relax_support"], closed) if c)

    def test_inconclusive_exit_5(self, tmp_path):
        from zonosharp import HybridZonotope
        H = HybridZonotope(np.zeros((1, 0)), np.ones((1, 25)), np.zeros(1),
                           np.zeros((0, 0)), np.zeros((0, 25)), np.zeros(0),
                           FactorForm.ZO)
        p = str(tmp_path / "big.json")
        core.write_set(p, H)
        assert main(["check-sharp", p, "-o", str(tmp_path / "r.json")]) == 5

    def test_inconclusive_report_is_strict_json(self, two_squares, tmp_path):
        rep = str(tmp_path / "r.json")
        assert main(["check-sharp", two_squares, "--cap", "0", "--dirs", "8",
                     "-o", rep]) == 5
        obj = json.loads(open(rep).read(), parse_constant=_reject_constant)
        assert obj["verdict"] == "inconclusive" and obj["max_gap"] is None
        assert obj["relax_support"] == [None] * 8

    def test_empty_set_exit_2(self, tmp_path, capsys):
        from zonosharp import ConstrainedZonotope
        E = ConstrainedZonotope(np.eye(2), np.zeros(2),
                                np.array([[1.0, 0.0]]), np.array([5.0]),
                                FactorForm.ZO)
        p = str(tmp_path / "e.json")
        core.write_set(p, E)
        assert main(["check-sharp", p, "-o", str(tmp_path / "r.json")]) == 2
        assert "empty" in capsys.readouterr().err

    def test_kernel_failure_exit_5(self, square, tmp_path, fake_pass, capsys):
        fake_pass(2)
        assert main(["check-sharp", square, "-o", str(tmp_path / "r.json")]) == 5
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text", [
        '{"type": "cz", "form": "01", "c": [0, 0], "Gc": [[1, 0], [0, NaN]]}',
        '{"type": "cz", "form": "01", "c": [0, 0], "Gc": [[1, 0], [0, 1]],'
        ' "Ac": [[Infinity, 1]], "b": [0.5]}',
        '{"c": [0], "Gc": [[1]], "Gb": [[-Infinity]], "Ab": [[]], "Ac": [[]],'
        ' "b": []}'], ids=["nan-Gc", "inf-Ac", "inf-Gb"])
    def test_nonfinite_set_exit_2(self, tmp_path, capsys, text):
        # Python's JSON reader takes NaN and Infinity; such a set once
        # reached the kernel and exited 1, "not sharp", on a traceback
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["check-sharp", str(p), "-o", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "cannot read set file" in err and "finite" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3", "abc"])
    def test_bad_tol_exit_2(self, square, tmp_path, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["check-sharp", square, "--tol", tol, "-o",
                  str(tmp_path / "r.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--tol" in err and "Traceback" not in err


    def test_stats(self, square, tmp_path):
        plain, counted = str(tmp_path / "p.json"), str(tmp_path / "s.json")
        assert main(["check-sharp", square, "-o", plain]) == 0
        assert main(["check-sharp", square, "--stats", "-o", counted]) == 0
        rep = json.load(open(counted))
        stats = rep.pop("lp_stats")
        # without the flag the report is what it was
        assert json.dumps(rep, indent=1) == open(plain).read()
        assert stats["phase1_runs"] >= 1 and stats["refactors"] == 0
        assert set(stats["steps"]) == {"1", "2", "dual"}
        for steps in stats["steps"].values():
            assert set(steps) == {"all", "by_dual", "degenerate"}
            assert 0 <= steps["by_dual"] <= steps["all"]
        # a box closes every direction at its relaxation: no leaf LP
        assert stats["children"] == 0 and "child_fallbacks" not in stats
        assert stats["cold_retries"] == 0 and set(stats["status"]) == {"0"}
        assert 0.0 <= stats["max_residual"] <= 1.0
        assert stats["max_gap"] <= 1.0


class TestPlot2d:
    def test_square_polygon(self, square, tmp_path):
        out = str(tmp_path / "poly.json")
        assert main(["plot2d", square, "-o", out, "--angles", "8"]) == 0
        data = json.load(open(out))
        tags = [p["tag"] for p in data["polygons"]]
        assert tags == ["leaf", "relaxation", "hull"]
        leaf = data["polygons"][0]["vertices"]
        assert len(leaf) == 4

    def test_union_leaf_polygons(self, square, square2, tmp_path):
        u = str(tmp_path / "u.json")
        main(["op", "union", square, square2, "-o", u])
        out = str(tmp_path / "poly.json")
        assert main(["plot2d", u, "-o", out, "--angles", "16"]) == 0
        tags = [p["tag"] for p in json.load(open(out))["polygons"]]
        assert tags.count("leaf") == 2
        assert "hull" in tags and "relaxation" in tags

    def test_one_phase1_per_region(self, two_squares, tmp_path):
        # 4 leaves and the relaxation: the hull polygon reuses the leaves
        # that the leaf polygons were drawn from
        with _simplex.lp_stats() as stats:
            assert main(["plot2d", two_squares, "-o",
                         str(tmp_path / "p.json")]) == 0
        assert stats.phase1_runs == 5

    def test_no_binaries_one_phase1(self, tmp_path):
        # the segment x1 + x2 = 1 of the unit square: its leaf, relaxation
        # and hull are one region
        from zonosharp import ConstrainedZonotope
        p = str(tmp_path / "seg.json")
        core.write_set(p, ConstrainedZonotope(np.eye(2), np.zeros(2),
                                              np.array([[1.0, 1.0]]),
                                              np.array([1.0]), FactorForm.ZO))
        with _simplex.lp_stats() as stats:
            assert main(["plot2d", p, "-o", str(tmp_path / "p.json")]) == 0
        assert stats.phase1_runs == 1

    def test_not_2d_exit_6(self, tmp_path):
        p = str(tmp_path / "i.json")
        core.write_set(p, interval(0.0, 1.0, FactorForm.ZO))
        assert main(["plot2d", p, "-o", str(tmp_path / "x.json")]) == 6

    def test_empty_set_warning(self, tmp_path, capsys):
        from zonosharp import ConstrainedZonotope
        E = ConstrainedZonotope(np.eye(2), np.zeros(2),
                                np.array([[1.0, 0.0]]), np.array([5.0]),
                                FactorForm.ZO)
        p = str(tmp_path / "e.json")
        core.write_set(p, E)
        out = str(tmp_path / "poly.json")
        assert main(["plot2d", p, "-o", out]) == 0
        assert json.load(open(out))["polygons"] == []
        assert "empty" in capsys.readouterr().err

    def test_csv_output(self, square, tmp_path):
        out = str(tmp_path / "poly.json")
        csv = str(tmp_path / "poly.csv")
        main(["plot2d", square, "-o", out, "--csv", csv, "--angles", "8"])
        text = open(csv).read()
        assert "# leaf" in text and "# hull" in text

    def test_kernel_failure_exit_5(self, square, tmp_path, fake_pass):
        fake_pass(2)
        assert main(["plot2d", square, "-o", str(tmp_path / "p.json")]) == 5

    def test_leaf_cap_exit_5(self, square, square2, tmp_path, capsys):
        u = str(tmp_path / "u.json")
        main(["op", "union", square, square2, "-o", u])
        capsys.readouterr()
        assert main(["plot2d", u, "--cap", "1", "-o",
                     str(tmp_path / "p.json")]) == 5
        assert capsys.readouterr().err.startswith("error: ")

    def test_nonpositive_angles_exit_2(self, square, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plot2d", square, "--angles", "0", "-o",
                  str(tmp_path / "p.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--angles" in err and "Traceback" not in err


class TestDemoLevelset:
    def test_pipeline_small_angles(self, tmp_path):
        out = str(tmp_path / "demo.json")
        csv = str(tmp_path / "demo.csv")
        rc = main(["demo-levelset", "-o", out, "--angles", "72",
                   "--dirs", "16", "--csv", csv])
        assert rc == 0
        assert "# hull" in open(csv).read()
        rep = json.load(open(out))
        assert rep["pre_rlt"]["verdict"] == "not_sharp"
        levels = {e["level"]: e for e in rep["levels"]}
        assert levels[2]["verdict"] == "sharp"
        ratios = [rep["relax_area_ratio"]] + \
            [levels[d]["area_ratio"] for d in sorted(levels)]
        assert all(r2 <= r1 + 1e-9 for r1, r2 in zip(ratios, ratios[1:]))

    def test_bad_level_exit_4(self, tmp_path):
        assert main(["demo-levelset", "-o", str(tmp_path / "x.json"),
                     "--rlt-levels", "7"]) == 4

    def test_lift_nnz_on_the_demo_lifts(self, tmp_path):
        # the nonzeros of [Ac Ab] of the demo level set's d = 1 and d = 2
        # lifts, the counts that a scan of the dense arrays gives; the
        # report counts them from the entries of the sparse Ac
        want = [351, 485]
        out = str(tmp_path / "demo.json")
        assert main(["demo-levelset", "-o", out, "--angles", "8",
                     "--dirs", "4"]) == 0
        levels = json.load(open(out))["levels"]
        assert [e["complexity"]["nnz"] for e in levels] == want
        X = str(tmp_path / "x.json")
        core.write_set(X, relugraph.level_set_above(relugraph.demo_network(), 0.5))
        for d, nnz in zip((1, 2), want):
            rep = str(tmp_path / "rep.json")
            assert main(["rlt", X, "--level", str(d), "-o",
                         str(tmp_path / "s.json"), "--report", rep]) == 0
            assert json.load(open(rep))["nnz"] == nnz

    @pytest.fixture
    def no_binaries(self, tmp_path):
        """A network whose one hidden unit, x1 + 5, is active on the whole
        input box, so that its level set N(x) >= 5 has n_b = 0."""
        path = tmp_path / "net.json"
        path.write_text(json.dumps({
            "layers": [{"W": [[1.0, 0.0]], "b": [5.0]},
                       {"W": [[1.0]], "b": [0.0]}],
            "input_box": [[-1, 1], [-1, 1]]}))
        return str(path)

    def test_nonfinite_network_exit_2(self, tmp_path, capsys):
        # a NaN weight once ended demo-levelset in a traceback
        path = tmp_path / "net.json"
        path.write_text('{"layers": [{"W": [[1.0, NaN]], "b": [0.0]},'
                        ' {"W": [[1.0]], "b": [0.0]}],'
                        ' "input_box": [[-1, 1], [-1, 1]]}')
        assert main(["demo-levelset", str(path), "--angles", "8", "--dirs",
                     "4", "-o", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "cannot read network file" in err and "finite" in err

    def test_no_binaries_has_no_levels(self, tmp_path, no_binaries):
        out = str(tmp_path / "x.json")
        assert main(["demo-levelset", no_binaries, "--threshold", "5.0",
                     "--angles", "16", "--dirs", "4", "-o", out]) == 0
        assert json.load(open(out))["levels"] == []

    def test_level_without_binaries_exit_4(self, tmp_path, capsys,
                                           no_binaries):
        assert main(["demo-levelset", no_binaries, "--threshold", "5.0",
                     "--rlt-levels", "1", "-o", str(tmp_path / "x.json")]) == 4
        assert "RLT level 1 outside 1..0" in capsys.readouterr().err

    def test_empty_level_set_exit_2(self, tmp_path, capsys):
        assert main(["demo-levelset", "-o", str(tmp_path / "x.json"),
                     "--threshold", "100", "--angles", "8", "--dirs", "4"]) == 2
        assert "empty" in capsys.readouterr().err

    def test_leaf_cap_exit_5(self, tmp_path, capsys):
        assert main(["demo-levelset", "-o", str(tmp_path / "x.json"),
                     "--cap", "1", "--angles", "16", "--dirs", "4"]) == 5
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag, value", [("--angles", "-3"),
                                             ("--rlt-levels", "1,x"),
                                             ("--tol", "nan")])
    def test_bad_argument_exit_2(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["demo-levelset", "-o", str(tmp_path / "x.json"), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    def test_stats(self, tmp_path):
        plain, counted = str(tmp_path / "p.json"), str(tmp_path / "s.json")
        args = ["demo-levelset", "--angles", "16", "--dirs", "4"]
        assert main(args + ["-o", plain]) == 0
        assert main(args + ["--stats", "-o", counted]) == 0
        rep = json.load(open(counted))
        stats = rep.pop("lp_stats")
        assert json.dumps(rep, indent=1) == open(plain).read()
        assert stats["phase1_runs"] >= 1
        steps = stats["steps"]["2"]
        assert steps["degenerate"] <= steps["all"]
        assert stats["rows"] == sum(stats["status"].values())
        assert stats["cold_retries"] == 0
        # the open directions' leaves, answered from the relaxations' bases
        assert stats["children"] > 0 and "child_fallbacks" not in stats
        dual = stats["steps"]["dual"]
        assert dual["all"] > 0 and dual["degenerate"] <= dual["all"]
        # a dual pass takes dual steps, and phase 1 starts with them
        assert 0 < dual["by_dual"] <= dual["all"]
        assert 0 < stats["steps"]["1"]["by_dual"] <= stats["steps"]["1"]["all"]
        assert steps["by_dual"] <= steps["all"]

    def test_one_phase1_per_region(self, tmp_path):
        # the relaxation and 4 leaves of the level set, the relaxation of the
        # d = 1 lift, whose open directions' leaves are children of its LP,
        # and the d = 2 lift's relaxation, which closes every direction: the
        # hull polygon runs the level set's leaves, and each relaxation
        # polygon reuses its relaxation
        out = str(tmp_path / "s.json")
        assert main(["demo-levelset", "--angles", "32", "--dirs", "8",
                     "--stats", "-o", out]) == 0
        stats = json.load(open(out))["lp_stats"]
        # one kept start per region, and no row needs its cold retry
        assert stats["phase1_runs"] == 7 and stats["cold_retries"] == 0
        assert stats["phase1_reused"] > 0 and stats["rows"] > 0

    def test_closed_directions_per_level(self, tmp_path):
        out = str(tmp_path / "s.json")
        assert main(["demo-levelset", "--angles", "16", "--dirs", "4",
                     "-o", out]) == 0
        rep = json.load(open(out))
        assert rep["pre_rlt"]["closed_directions"] == 1
        assert [lv["closed_directions"] for lv in rep["levels"]] == [3, 4]
