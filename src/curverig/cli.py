"""Command-line front end: reproducible experiments with JSON/CSV reports.

Every subcommand echoes its resolved configuration (including seeds) into
the output document, so a report can be reproduced byte-for-byte modulo the
timing field.  Exit codes: 0 success, 2 invalid input, 3 numeric failure
(partial results are still written when available).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction


from . import __version__
from .counting import (Exact, Tolerance, count_distinct_values, elekes_lower_bound,
                       fit_exponent, generate_point_set, parse_scheme)
from .curves import builtin_curve, check_simplicity, curve_from_json
from .elekes import admissibility_scan, verify_incidence_invariant
from .errors import CurverigError, DomainExit, SingularH
from .motion import (classify_helix, derivative_norm_profile,
                     trace_framework_motion, trace_triangle_motion)
from .quantity import quantity_from_json
from .rational import as_fraction
from .rigidity import Framework, infinitesimal_nullity, scan_T_degeneracy, triangle
from .counting import ParamPointSet
from .curves import HelixCurve

_NUMERIC_ERRORS = (DomainExit, SingularH)


def _load_doc(arg: str) -> dict:
    if arg.strip().startswith("{"):
        return json.loads(arg)
    if os.path.exists(arg):
        with open(arg) as fh:
            return json.load(fh)
    raise ValueError(f"not a JSON document or file: {arg!r}")


def load_curve_arg(arg: str):
    """Curve from inline JSON, a JSON file path, or a builtin name."""
    if arg.strip().startswith("{") or os.path.exists(arg):
        return curve_from_json(_load_doc(arg))
    name = arg.removeprefix("builtin:")
    return builtin_curve(name)


def load_quantity_arg(arg: str):
    """Quantity from inline JSON, a file, or shorthand like
    sq_euclidean / pinned_area:vx,vy."""
    if arg.strip().startswith("{") or os.path.exists(arg):
        return quantity_from_json(_load_doc(arg))
    if arg == "sq_euclidean":
        return quantity_from_json({"kind": "sq_euclidean"})
    if arg.startswith("pinned_area:"):
        vx, vy = arg.split(":", 1)[1].split(",")
        return quantity_from_json({"kind": "pinned_area", "apex": [vx, vy]})
    raise ValueError(f"unknown quantity shorthand {arg!r}")


def _parse_mode(text: str):
    if text == "exact":
        return Exact()
    if text.startswith("tol:"):
        return Tolerance(float(text.split(":", 1)[1]))
    raise ValueError(f"bad mode {text!r}; use exact or tol:<rel_eps>")


def _parse_params(text: str) -> list:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            out.append(as_fraction(tok))
        except (ValueError, ZeroDivisionError):
            out.append(float(tok))
    return out


def _emit(doc: dict, out_path, fmt: str = "json", csv_rows=None,
          csv_header=None) -> None:
    if fmt == "csv" and csv_rows is not None:
        text = ",".join(csv_header) + "\n" + \
            "\n".join(",".join(str(c) for c in row) for row in csv_rows) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(command: str, config: dict, result: dict, started: float) -> dict:
    return {"command": command, "version": __version__, "config": config,
            "timing_seconds": round(time.perf_counter() - started, 6),
            "result": result}


# -- subcommand implementations ----------------------------------------------


def cmd_count_distances(args) -> int:
    started = time.perf_counter()
    curve = load_curve_arg(args.curve)
    quantity = load_quantity_arg(args.quantity)
    pset = generate_point_set(curve, parse_scheme(args.scheme))
    res = count_distinct_values(pset, quantity, _parse_mode(args.mode),
                                threads=args.threads)
    config = {"curve": args.curve, "quantity": args.quantity,
              "scheme": args.scheme, "mode": args.mode,
              "threads": args.threads, "seed": args.seed}
    _emit(_envelope("count-distances", config, res.to_dict(), started),
          args.out, args.format)
    return 0


def cmd_estimate_exponent(args) -> int:
    started = time.perf_counter()
    curve = load_curve_arg(args.curve)
    quantity = load_quantity_arg(args.quantity)
    sizes = [int(s) for s in args.sizes.split(",")]
    mode = _parse_mode(args.mode)
    runs = []
    for n in sizes:
        scheme = parse_scheme(f"{args.scheme}:{n}")
        pset = generate_point_set(curve, scheme)
        res = count_distinct_values(pset, quantity, mode, threads=args.threads)
        runs.append((pset, res.count))
    fit = fit_exponent(runs)
    config = {"curve": args.curve, "quantity": args.quantity,
              "scheme": args.scheme, "sizes": sizes, "mode": args.mode,
              "threads": args.threads, "seed": args.seed}
    rows = [[n, c] for n, c in fit.samples]
    if args.csv_out:
        _emit({}, args.csv_out, "csv", csv_rows=rows, csv_header=["N", "count"])
    _emit(_envelope("estimate-exponent", config, fit.to_dict(), started),
          args.out, args.format, csv_rows=rows, csv_header=["N", "count"])
    return 0


def cmd_elekes_analyze(args) -> int:
    started = time.perf_counter()
    curve = load_curve_arg(args.curve)
    quantity = load_quantity_arg(args.quantity)
    if ":" in args.points:
        pset = generate_point_set(curve, parse_scheme(args.points))
    else:
        pset = ParamPointSet(curve, tuple(sorted(_parse_params(args.points))))
    incidence = verify_incidence_invariant(pset, quantity)
    scan = admissibility_scan(pset, quantity, sample_pairs=args.pairs,
                              n=args.grid, tol=args.tol, seed=args.seed,
                              threads=args.threads)
    config = {"curve": args.curve, "quantity": args.quantity,
              "points": args.points, "pairs": args.pairs, "grid": args.grid,
              "tol": args.tol, "seed": args.seed, "threads": args.threads}
    result = {"incidence": incidence.to_dict(), "admissibility": scan.to_dict()}
    _emit(_envelope("elekes-analyze", config, result, started),
          args.out, args.format)
    return 0


def cmd_test_degeneracy(args) -> int:
    started = time.perf_counter()
    curve = load_curve_arg(args.curve)
    quantity = load_quantity_arg(args.quantity)
    rep = scan_T_degeneracy(curve, quantity, m=args.pairs, n=args.tau_grid,
                            tol=args.tol, threads=args.threads)
    config = {"curve": args.curve, "quantity": args.quantity,
              "pairs": args.pairs, "tau_grid": args.tau_grid, "tol": args.tol,
              "threads": args.threads, "seed": args.seed}
    _emit(_envelope("test-degeneracy", config, rep.to_dict(), started),
          args.out, args.format)
    return 0


def cmd_flex(args) -> int:
    started = time.perf_counter()
    doc = _load_doc(args.framework)
    curve = curve_from_json(doc["curve"]) if isinstance(doc["curve"], dict) \
        else load_curve_arg(doc["curve"])
    quantity = quantity_from_json(doc["quantity"]) \
        if isinstance(doc["quantity"], dict) else load_quantity_arg(doc["quantity"])
    params = [as_fraction(p) if isinstance(p, str) else p
              for p in doc["params"]]
    fw = Framework(len(params), tuple(tuple(e) for e in doc["edges"]),
                   tuple(params), curve, quantity)
    res = infinitesimal_nullity(fw, tol=args.tol)
    config = {"framework": args.framework, "tol": args.tol,
              "threads": args.threads, "seed": args.seed}
    _emit(_envelope("flex", config, res.to_dict(), started),
          args.out, args.format)
    return 0


def cmd_trace_motion(args) -> int:
    started = time.perf_counter()
    curve = load_curve_arg(args.curve)
    quantity = load_quantity_arg(args.quantity)
    a, t, b = [float(x) for x in args.triangle.split(",")]
    trace = trace_triangle_motion(curve, quantity, (a, t, b),
                                  delta=args.step, steps=args.steps)
    config = {"curve": args.curve, "quantity": args.quantity,
              "triangle": args.triangle, "step": args.step,
              "steps": args.steps, "threads": args.threads, "seed": args.seed}
    doc = _envelope("trace-motion", config, trace.to_dict(), started)
    _emit(doc, args.out, args.format)
    return 3 if trace.aborted else 0


def cmd_classify_curve(args) -> int:
    started = time.perf_counter()
    curve = load_curve_arg(args.curve)
    profile = derivative_norm_profile(curve, max_order=args.max_order,
                                      samples=args.samples)
    result = {"profile": profile.to_dict(),
              "helix_candidate": profile.helix_candidate}
    if isinstance(curve, HelixCurve):
        result["structural"] = classify_helix(
            curve, denominator_bound=args.denominator_bound,
            tol=args.ratio_tol).to_dict()
    config = {"curve": args.curve, "max_order": args.max_order,
              "samples": args.samples,
              "denominator_bound": args.denominator_bound,
              "ratio_tol": args.ratio_tol, "threads": args.threads,
              "seed": args.seed}
    rows = [[k] + profile.norms[i]
            for i, k in enumerate(profile.orders)]
    header = ["order"] + [f"s{i}" for i in range(len(profile.samples))]
    if args.csv_out:
        _emit({}, args.csv_out, "csv", csv_rows=rows, csv_header=header)
    _emit(_envelope("classify-curve", config, result, started),
          args.out, args.format, csv_rows=rows, csv_header=header)
    return 0


def cmd_check_simplicity(args) -> int:
    started = time.perf_counter()
    curve = load_curve_arg(args.curve)
    quantity = load_quantity_arg(args.quantity)
    rep = check_simplicity(curve, quantity, n=args.grid, tol=args.tol)
    config = {"curve": args.curve, "quantity": args.quantity,
              "grid": args.grid, "tol": args.tol, "threads": args.threads,
              "seed": args.seed}
    _emit(_envelope("check-simplicity", config, rep.to_dict(), started),
          args.out, args.format)
    return 0


def cmd_bound(args) -> int:
    started = time.perf_counter()
    value = elekes_lower_bound(args.np, args.nxi, admissibility_c=args.c,
                               incidence_k=args.k)
    config = {"np": args.np, "nxi": args.nxi, "c": args.c, "k": args.k,
              "threads": args.threads, "seed": args.seed}
    sys.stdout.write(f"delta_star = {value:.6g}\n")
    doc = _envelope("bound", config, {"delta_star": value}, started)
    if args.out:
        _emit(doc, args.out, args.format)
    return 0


# -- self tests ----------------------------------------------------------------


def _selftest_count_distances():
    line = builtin_curve("line")
    q = load_quantity_arg("sq_euclidean")
    pset = generate_point_set(line, parse_scheme("arith:0:1:10"))
    checks = [("line 0..9 gives 9 distances",
               count_distinct_values(pset, q, Exact()).count == 9),
              ("arith(0,1,5) params",
               generate_point_set(line, parse_scheme("arith:0:1:5")).params
               == (0, 1, 2, 3, 4))]
    p1 = generate_point_set(builtin_curve("parabola"), parse_scheme("rand:42:3"))
    p2 = generate_point_set(builtin_curve("parabola"), parse_scheme("rand:42:3"))
    checks.append(("random scheme reproducible", p1.params == p2.params))
    return checks


def _selftest_estimate_exponent():
    fit = fit_exponent([(10, 100), (100, 10000), (1000, 1000000)])
    fit2 = fit_exponent([(10, 10), (100, 100), (1000, 1000)])
    return [("perfect square law slope 2", abs(fit.slope - 2) < 1e-12),
            ("linear law slope 1", abs(fit2.slope - 1) < 1e-12)]


def _selftest_bound():
    return [("huge K degenerates to 1",
             elekes_lower_bound(100, 10000, incidence_k=1e9) == 1.0),
            ("smallest instance", elekes_lower_bound(3, 1) == 1.0)]


def _selftest_elekes():
    from .elekes import ElekesCurve
    from .curves import Interval, RationalCurve
    from .rational import RationalFunction
    par = RationalCurve([RationalFunction.from_coeffs([0, 1]),
                         RationalFunction.from_coeffs([0, 0, 1])],
                        Interval(-2, 3))
    q = load_quantity_arg("sq_euclidean")
    e = ElekesCurve(par, q, Fraction(0), Fraction(1))
    checks = [("xi(0) = (0, 2)", e.eval(Fraction(0)) == (0, 2)),
              ("xi(1) = (2, 0)", e.eval(Fraction(1)) == (2, 0)),
              ("xi(2) = (20, 10)", e.eval(Fraction(2)) == (20, 10))]
    pset = ParamPointSet(par, tuple(Fraction(k) for k in range(-1, 3)))
    rep = verify_incidence_invariant(pset, q)
    checks.append(("incidence identity holds", not rep.failures))
    return checks


def _selftest_degeneracy():
    from .rigidity import eval_H
    circ = builtin_curve("unit_circle")
    q = load_quantity_arg("sq_euclidean")
    h1 = eval_H(circ, q, 0.3, 1.1, 2.0)
    h2 = eval_H(circ, q, 1.1, 0.3, 2.0)
    return [("circle H is 1", abs(h1 - 1) < 1e-10),
            ("swap inverts H", abs(h1 * h2 - 1) < 1e-10)]


def _selftest_flex():
    circ = builtin_curve("unit_circle")
    q = load_quantity_arg("sq_euclidean")
    fw11 = Framework(2, ((0, 1),), (0.2, 1.3), circ, q)
    fw21 = Framework(3, ((0, 2), (1, 2)), (0.2, 1.3, 2.1), circ, q)
    tri = triangle(circ, q, 0.0, 2 * math.pi / 3 - math.pi / 2, -2.0)
    return [("K_{1,1} nullity 1", infinitesimal_nullity(fw11).nullity == 1),
            ("K_{2,1} nullity >= 1", infinitesimal_nullity(fw21).nullity >= 1),
            ("circle triangle rotates", infinitesimal_nullity(tri).nullity >= 1)]


def _selftest_trace():
    circ = builtin_curve("unit_circle")
    q = load_quantity_arg("sq_euclidean")
    t1 = trace_triangle_motion(circ, q, (0.0, 0.8, 1.7), 0.005, 10)
    fw = triangle(circ, q, 0.0, 0.8, 1.7)
    t2 = trace_framework_motion(fw, 0, 0.005, 10)
    gap = abs(t1.max_drift - t2.max_drift)
    return [("triangle = K3 trace", gap < 1e-10)]


def _selftest_classify():
    circle = HelixCurve([1.0], [1.0], [], 2)
    torus = HelixCurve([1.0, 1.0], [2.0, 3.0], [], 4)
    helix3 = HelixCurve([1.0], [1.0], [0.5], 3)
    c = classify_helix(torus)
    return [("circle is algebraic", classify_helix(circle).is_algebraic),
            ("ratio 3/2 certified", c.is_algebraic and
             c.ratio_certificates[0].numerator == 3
             and c.ratio_certificates[0].denominator == 2),
            ("drift helix not algebraic",
             not classify_helix(helix3).is_algebraic)]


def _selftest_simplicity():
    line = builtin_curve("line")
    par = builtin_curve("parabola")
    q = load_quantity_arg("sq_euclidean")
    rl = check_simplicity(line, q, n=64)
    rp = check_simplicity(par, q, n=64)
    cond2 = next(c for c in rl.conditions if c.index == 2)
    checks = [("line fails second-derivative condition", not cond2.passed),
              ("parabola passes all five", rp.passed)]
    from .curves import Interval, RationalCurve
    from .rational import RationalFunction
    wide = RationalCurve([RationalFunction.from_coeffs([0, 1]),
                          RationalFunction.from_coeffs([0, 0, 1])],
                         Interval(-10, 10))
    checks.append(("evaluate (t,t^2) at 3", wide.evaluate(Fraction(3)) == (3, 9)))
    circ = builtin_curve("unit_circle")
    p0 = circ.evaluate(0.0)
    checks.append(("circle at 0 is (1,0)",
                   abs(p0[0] - 1) < 1e-15 and abs(p0[1]) < 1e-15))
    return checks


_SELF_TESTS = {
    "count-distances": _selftest_count_distances,
    "estimate-exponent": _selftest_estimate_exponent,
    "elekes-analyze": _selftest_elekes,
    "test-degeneracy": _selftest_degeneracy,
    "flex": _selftest_flex,
    "trace-motion": _selftest_trace,
    "classify-curve": _selftest_classify,
    "check-simplicity": _selftest_simplicity,
    "bound": _selftest_bound,
}


def _run_self_test(command: str) -> int:
    checks = _SELF_TESTS[command]()
    ok = True
    for name, passed in checks:
        print(f"[{command}] {'ok' if passed else 'FAIL'}: {name}")
        ok = ok and passed
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curverig",
        description="Distinct-value counting and rigidity analysis on curves")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--self-test", action="store_true",
                       help="run this subcommand's built-in checks and exit")

    p = sub.add_parser("count-distances", help="count distinct D values")
    common(p)
    p.add_argument("--curve")
    p.add_argument("--quantity", default="sq_euclidean")
    p.add_argument("--scheme", default=None,
                   help="arith:s:d:N | geom:s:r:N | rand:seed:N | angles:N")
    p.add_argument("--mode", default="tol:1e-9")
    p.set_defaults(func=cmd_count_distances, required_opts=["curve", "scheme"])

    p = sub.add_parser("estimate-exponent", help="fit log count vs log N")
    common(p)
    p.add_argument("--curve")
    p.add_argument("--quantity", default="sq_euclidean")
    p.add_argument("--scheme", default=None,
                   help="scheme prefix without N, e.g. arith:0:0.001")
    p.add_argument("--sizes", default=None, help="comma list, e.g. 64,128,256")
    p.add_argument("--mode", default="tol:1e-9")
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=cmd_estimate_exponent,
                   required_opts=["curve", "scheme", "sizes"])

    p = sub.add_parser("elekes-analyze",
                       help="incidence identity + admissibility scan")
    common(p)
    p.add_argument("--curve")
    p.add_argument("--quantity", default="sq_euclidean")
    p.add_argument("--points", default=None,
                   help="comma-separated parameters or a scheme string")
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_elekes_analyze, required_opts=["curve", "points"])

    p = sub.add_parser("test-degeneracy", help="scan H variation")
    common(p)
    p.add_argument("--curve")
    p.add_argument("--quantity", default="sq_euclidean")
    p.add_argument("--pairs", type=int, default=16)
    p.add_argument("--tau-grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_test_degeneracy, required_opts=["curve"])

    p = sub.add_parser("flex", help="infinitesimal flexibility of a framework")
    common(p)
    p.add_argument("--framework", help="JSON with curve, quantity, params, edges")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_flex, required_opts=["framework"])

    p = sub.add_parser("trace-motion", help="trace a triangle motion")
    common(p)
    p.add_argument("--curve")
    p.add_argument("--quantity", default="sq_euclidean")
    p.add_argument("--triangle", default=None, help="alpha,tau,beta")
    p.add_argument("--step", type=float, default=0.005)
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(func=cmd_trace_motion, required_opts=["curve", "triangle"])

    p = sub.add_parser("classify-curve",
                       help="derivative-norm profile and helix verdict")
    common(p)
    p.add_argument("--curve")
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--samples", type=int, default=24)
    p.add_argument("--denominator-bound", type=int, default=10 ** 6)
    p.add_argument("--ratio-tol", type=float, default=1e-12)
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=cmd_classify_curve, required_opts=["curve"])

    p = sub.add_parser("check-simplicity", help="verify simple-pair conditions")
    common(p)
    p.add_argument("--curve")
    p.add_argument("--quantity", default="sq_euclidean")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_check_simplicity, required_opts=["curve"])

    p = sub.add_parser("bound", help="incidence-implied distinct-value bound")
    common(p)
    p.add_argument("--np", type=int, default=None)
    p.add_argument("--nxi", type=int, default=None)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--k", type=float, default=1.0)
    p.set_defaults(func=cmd_bound, required_opts=["np", "nxi"])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.self_test:
        return _run_self_test(args.command)
    missing = [o for o in getattr(args, "required_opts", [])
               if getattr(args, o.replace("-", "_")) is None]
    if missing:
        sys.stderr.write(
            f"error: missing required option(s): "
            + ", ".join("--" + o for o in missing) + "\n")
        return 2
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except (CurverigError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
