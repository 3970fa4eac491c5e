"""Command-line front end.

One subcommand per concept, composable through files:

    zonosharp op <name> <set.json>... -o out.json
    zonosharp rlt <set.json> --level d | --hull
    zonosharp check-sharp <set.json>
    zonosharp plot2d <set.json>
    zonosharp demo-levelset [network.json]

Result data goes to the output file (or stdout); complexity tuples and
warnings go to stderr.  Exit codes: 0 success (check-sharp: sharp),
1 check-sharp not-sharp, 2 parse error or empty set, 3 dimension/form
mismatch, 4 RLT level out of range, 5 sharpness inconclusive, a set past the
leaf cap, or an LP that the kernel could not solve to a certified verdict,
6 plot2d on a non-2D set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict

import numpy as np

from . import _simplex, algebra, core, oracle, relugraph, rlt
from .core import FactorForm
from .errors import (
    DimensionMismatch,
    EmptyList,
    EmptySet,
    EnumerationCapExceeded,
    FormMismatch,
    LevelOutOfRange,
    NumericalFailure,
)

EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_LEVEL = 4
EXIT_INCONCLUSIVE = 5
EXIT_NOT_2D = 6


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def _tolerance(text):
    value = float(text)
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}")
    return value


def _finite_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _level_list(text):
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _read_set(path):
    try:
        return core.read_set(path)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"cannot read set file {path}: {exc}")


def _read_network(path):
    try:
        return relugraph.read_network(path)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"cannot read network file {path}: {exc}")


def _parse_array(text, what):
    try:
        value = np.asarray(json.loads(text), dtype=np.float64)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"cannot parse {what}: {exc}")
    if not np.isfinite(value).all():
        raise CliError(EXIT_PARSE, f"{what} must have finite entries")
    return value


def _emit_set(S, output):
    if output:
        core.write_set(output, S)
    else:
        json.dump(core.set_to_obj(S), sys.stdout, indent=1)
        sys.stdout.write("\n")
    t = core.complexity(S)
    print(f"complexity (n_g={t.n_g}, n_b={t.n_b}, n_c={t.n_c})", file=sys.stderr)


def _emit_json(obj, output):
    # allow_nan=False: NaN and Infinity are not JSON; a report writes null
    if output:
        with open(output, "w") as fh:
            json.dump(obj, fh, indent=1, allow_nan=False)
    else:
        json.dump(obj, sys.stdout, indent=1, allow_nan=False)
        sys.stdout.write("\n")


def cmd_op(args):
    sets = [_read_set(p) for p in args.inputs]
    name = args.operation
    try:
        if name == "minksum":
            if len(sets) < 2:
                raise CliError(EXIT_PARSE, "minksum needs at least 2 sets")
            out = sets[0]
            for S in sets[1:]:
                out = algebra.minkowski_sum(out, S)
        elif name == "map":
            if len(sets) != 1:
                raise CliError(EXIT_PARSE, "map takes exactly 1 set")
            if args.matrix is None:
                raise CliError(EXIT_PARSE, "map requires --matrix")
            R = _parse_array(args.matrix, "--matrix")
            s = _parse_array(args.offset, "--offset") if args.offset else None
            out = algebra.affine_map(sets[0], R, s)
        elif name == "cartprod":
            if len(sets) < 2:
                raise CliError(EXIT_PARSE, "cartprod needs at least 2 sets")
            out = sets[0]
            for S in sets[1:]:
                out = algebra.cartesian_product(out, S)
        elif name == "intersect":
            if len(sets) != 2:
                raise CliError(EXIT_PARSE, "intersect takes exactly 2 sets")
            Rmap = _parse_array(args.matrix, "--matrix") if args.matrix else None
            out = algebra.generalized_intersection(sets[0], sets[1], Rmap)
        elif name == "halfspace":
            if len(sets) != 1:
                raise CliError(EXIT_PARSE, "halfspace takes exactly 1 set")
            if args.normal is None or args.bound is None:
                raise CliError(EXIT_PARSE, "halfspace requires --normal and --bound")
            a = _parse_array(args.normal, "--normal")
            out = algebra.halfspace_intersection(sets[0], a, args.bound)
        elif name == "union":
            out = algebra.union(sets)
        elif name == "union-point":
            if len(sets) != 1:
                raise CliError(EXIT_PARSE, "union-point takes exactly 1 set")
            if args.point is None:
                raise CliError(EXIT_PARSE, "union-point requires --point")
            x = _parse_array(args.point, "--point")
            out = algebra.union_with_point(sets[0], x)
        elif name == "relax":
            if len(sets) != 1:
                raise CliError(EXIT_PARSE, "relax takes exactly 1 set")
            out = algebra.convex_relaxation(sets[0])
        elif name == "convert-form":
            if len(sets) != 1:
                raise CliError(EXIT_PARSE, "convert-form takes exactly 1 set")
            if args.form is None:
                raise CliError(EXIT_PARSE, "convert-form requires --form")
            out = core.convert_form(sets[0], FactorForm(args.form))
        else:  # argparse choices make this unreachable
            raise CliError(EXIT_PARSE, f"unknown operation {name}")
    except (DimensionMismatch, FormMismatch, EmptyList) as exc:
        raise CliError(EXIT_DIMENSION, str(exc))
    _emit_set(out, args.output)
    return 0


def cmd_rlt(args):
    S = _read_set(args.input)
    if args.hull:
        # the relaxation of the level-n_b lift is the convex hull
        lifted = S.as_hybrid()
        report = {"level": max(lifted.n_b, 1), "hull": True}
        if lifted.n_b:
            lifted, rep = rlt.rlt_report(lifted, lifted.n_b)
            report["nominal"] = rep["nominal"]
        out = algebra.convex_relaxation(lifted)
        report["actual"] = asdict(core.complexity(out))
        report["nnz"] = int(np.count_nonzero(out.A))
    else:
        if args.level is None:
            raise CliError(EXIT_PARSE, "rlt requires --level or --hull")
        try:
            out, report = rlt.rlt_report(S, args.level)
        except LevelOutOfRange as exc:
            raise CliError(EXIT_LEVEL, str(exc))
    _emit_set(out, args.output)
    if args.report:
        _emit_json(report, args.report)
    else:
        print(json.dumps(report), file=sys.stderr)
    return 0


def _write_csv(polygons, path):
    with open(path, "w") as fh:
        for entry in polygons:
            fh.write(f"# {entry['tag']}\n")
            fh.write(oracle.polygon_to_csv(np.asarray(entry["vertices"])))


def _lp_stats(args):
    """`_simplex.lp_stats()` when --stats asks for the kernel's counters,
    else a block that yields None."""
    return _simplex.lp_stats() if args.stats else contextlib.nullcontext()


def cmd_check_sharp(args):
    S = _read_set(args.input)
    with _lp_stats(args) as stats:
        report = oracle.check_sharpness(S, n_dirs=args.dirs, tol=args.tol,
                                        cap=args.cap, seed=args.seed)
    obj = report.to_obj()
    if stats is not None:
        obj["lp_stats"] = stats.to_obj()
    _emit_json(obj, args.output)
    verdict = report.verdict
    if verdict is oracle.SharpnessVerdict.SHARP:
        return 0
    if verdict is oracle.SharpnessVerdict.NOT_SHARP:
        return 1
    return EXIT_INCONCLUSIVE


def cmd_plot2d(args):
    S = _read_set(args.input)
    if S.dim != 2:
        raise CliError(EXIT_NOT_2D, f"plot2d needs a 2D set, got dim {S.dim}")
    H = S.as_hybrid()
    polygons = []
    for bits, leaf in core.leaves(H, cap=args.cap):
        try:
            poly = oracle.boundary_2d(leaf, n_angles=args.angles)
        except EmptySet:
            continue
        polygons.append({"tag": "leaf", "binaries": list(bits.bits),
                         "vertices": poly.tolist()})
    if not polygons:
        print("warning: set is empty, no polygons", file=sys.stderr)
    else:
        relaxed = algebra.convex_relaxation(H)
        poly = oracle.boundary_2d(relaxed, n_angles=args.angles)
        polygons.append({"tag": "relaxation", "vertices": poly.tolist()})
        hull = oracle.boundary_2d(H, n_angles=args.angles, cap=args.cap)
        polygons.append({"tag": "hull", "vertices": hull.tolist()})
    _emit_json({"polygons": polygons}, args.output)
    if args.csv:
        _write_csv(polygons, args.csv)
    return 0


def cmd_demo_levelset(args):
    net = _read_network(args.network) if args.network else relugraph.demo_network()
    X = relugraph.level_set_above(net, args.threshold)
    nb = X.n_b
    levels = args.rlt_levels or list(range(1, nb + 1))
    for d in levels:
        if not 1 <= d <= nb:
            raise CliError(EXIT_LEVEL, f"RLT level {d} outside 1..{nb}")
    with _lp_stats(args) as stats:
        pre = oracle.check_sharpness(X, n_dirs=args.dirs, tol=args.tol,
                                     cap=args.cap, seed=args.seed)
        hull_poly = oracle.boundary_2d(X, n_angles=args.angles, cap=args.cap)
        hull_area = oracle.polygon_area(hull_poly)
        report = {
            "threshold": args.threshold,
            "level_set_complexity": asdict(core.complexity(X)),
            "pre_rlt": {"verdict": pre.verdict.value, "max_gap": pre.max_gap,
                        "closed_directions": int(np.sum(pre.closed))},
            "hull_area": hull_area,
            "relax_area": None,
            "levels": [],
        }
        relax_poly = oracle.boundary_2d(algebra.convex_relaxation(X),
                                        n_angles=args.angles)
        relax_area = oracle.polygon_area(relax_poly)
        report["relax_area"] = relax_area
        report["relax_area_ratio"] = relax_area / hull_area if hull_area else None
        polygons = [{"tag": "hull", "vertices": hull_poly.tolist()},
                    {"tag": "relaxation", "vertices": relax_poly.tolist()}]
        for d in levels:
            Xd, rep_d = rlt.rlt_report(X, d)
            sharp_d = oracle.check_sharpness(Xd, n_dirs=args.dirs, tol=args.tol,
                                             cap=args.cap, seed=args.seed)
            poly_d = oracle.boundary_2d(algebra.convex_relaxation(Xd),
                                        n_angles=args.angles)
            area_d = oracle.polygon_area(poly_d)
            report["levels"].append({
                "level": d,
                "complexity": rep_d,
                "verdict": sharp_d.verdict.value,
                "max_gap": sharp_d.max_gap,
                "closed_directions": int(np.sum(sharp_d.closed)),
                "area": area_d,
                "area_ratio": area_d / hull_area if hull_area else None,
            })
            polygons.append({"tag": f"rlt_d{d}", "vertices": poly_d.tolist()})
    if stats is not None:
        report["lp_stats"] = stats.to_obj()
    _emit_json(report, args.output)
    if args.polygons:
        _emit_json({"polygons": polygons}, args.polygons)
    if args.csv:
        _write_csv(polygons, args.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zonosharp",
                                description="Exact set computation with hybrid zonotopes")
    sub = p.add_subparsers(dest="command", required=True)

    p_op = sub.add_parser("op", help="apply a set operation to JSON set files")
    p_op.add_argument("operation", choices=[
        "minksum", "map", "cartprod", "intersect", "halfspace", "union",
        "union-point", "relax", "convert-form"])
    p_op.add_argument("inputs", nargs="+", help="input set JSON files")
    p_op.add_argument("-o", "--output", help="output set JSON file (default stdout)")
    p_op.add_argument("--matrix", help="JSON matrix for map/intersect")
    p_op.add_argument("--offset", help="JSON vector offset for map")
    p_op.add_argument("--normal", help="JSON normal vector for halfspace")
    p_op.add_argument("--bound", type=_finite_float,
                      help="halfspace bound k in a'x >= k")
    p_op.add_argument("--point", help="JSON point for union-point")
    p_op.add_argument("--form", choices=["pm1", "01"], help="target factor form")
    p_op.set_defaults(func=cmd_op)

    p_rlt = sub.add_parser("rlt", help="sharpen a set with the level-d RLT lift")
    p_rlt.add_argument("input")
    p_rlt.add_argument("-o", "--output", help="output set JSON file (default stdout)")
    p_rlt.add_argument("--level", type=int, help="RLT level d (1..n_b)")
    p_rlt.add_argument("--hull", action="store_true",
                       help="emit the convex hull (level n_b + relaxation)")
    p_rlt.add_argument("--report", help="write the complexity report JSON here")
    p_rlt.set_defaults(func=cmd_rlt)

    p_cs = sub.add_parser("check-sharp", help="empirical sharpness certificate")
    p_cs.add_argument("input")
    p_cs.add_argument("-o", "--output", help="report JSON file (default stdout)")
    p_cs.add_argument("--dirs", type=_positive_int, default=64)
    p_cs.add_argument("--tol", type=_tolerance, default=oracle.SHARP_TOL)
    p_cs.add_argument("--cap", type=_nonnegative_int, default=core.DEFAULT_LEAF_CAP)
    p_cs.add_argument("--seed", type=int, default=0)
    p_cs.add_argument("--stats", action="store_true",
                      help="add the LP kernel's counters to the JSON")
    p_cs.set_defaults(func=cmd_check_sharp)

    p_plot = sub.add_parser("plot2d", help="polygon data for a 2D set")
    p_plot.add_argument("input")
    p_plot.add_argument("-o", "--output", help="polygon JSON file (default stdout)")
    p_plot.add_argument("--csv", help="also write polygons as CSV here")
    p_plot.add_argument("--angles", type=_positive_int, default=64)
    p_plot.add_argument("--cap", type=_nonnegative_int, default=core.DEFAULT_LEAF_CAP)
    p_plot.set_defaults(func=cmd_plot2d)

    p_demo = sub.add_parser("demo-levelset",
                            help="ReLU level-set pipeline: build, RLT sweep, areas")
    p_demo.add_argument("network", nargs="?",
                        help="network JSON (default: packaged demo network)")
    p_demo.add_argument("-o", "--output", help="report JSON file (default stdout)")
    p_demo.add_argument("--polygons", help="write overlay polygons JSON here")
    p_demo.add_argument("--csv", help="write overlay polygons CSV here")
    p_demo.add_argument("--threshold", type=_finite_float, default=0.5)
    p_demo.add_argument("--rlt-levels", type=_level_list,
                        help="comma-separated levels (default 1..n_b)")
    p_demo.add_argument("--angles", type=_positive_int, default=720)
    p_demo.add_argument("--dirs", type=_positive_int, default=64)
    p_demo.add_argument("--tol", type=_tolerance, default=oracle.SHARP_TOL)
    p_demo.add_argument("--cap", type=_nonnegative_int, default=core.DEFAULT_LEAF_CAP)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--stats", action="store_true",
                        help="add the LP kernel's counters to the JSON")
    p_demo.set_defaults(func=cmd_demo_levelset)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DimensionMismatch, FormMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except EmptySet as exc:
        print(f"error: set is empty ({exc})", file=sys.stderr)
        return EXIT_PARSE
    except (NumericalFailure, EnumerationCapExceeded) as exc:
        # no verdict could be certified: inconclusive, never "not sharp"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
