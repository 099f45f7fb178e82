"""Command-line front end: reproducible experiments with JSON/CSV reports.

Every subcommand echoes its resolved configuration (including seeds) into
the output document, so a report can be reproduced byte-for-byte modulo the
timing field.  Exit codes: 0 success, 2 invalid input, 3 numeric failure
(partial results are still written when available).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import NamedTuple, Optional

from . import __version__
from .counting import (Exact, ParamPointSet, Tolerance, count_distinct_values,
                       elekes_lower_bound, fit_exponent, generate_point_set,
                       parse_param, parse_scheme)
from .curves import HelixCurve, builtin_curve, check_simplicity, curve_from_json
from .elekes import admissibility_scan, verify_incidence_invariant
from .errors import CurverigError, DomainExit, SingularH
from .motion import classify_helix, derivative_norm_profile, trace_triangle_motion
from .quantity import quantity_from_json
from .rigidity import Framework, infinitesimal_nullity, scan_T_degeneracy

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


def _parse_sizes(text: str) -> list:
    return [int(s) for s in text.split(",")]


class Outcome(NamedTuple):
    """What a subcommand computed; `_execute` wraps it into the report."""

    result: dict
    code: int = 0
    csv: Optional[tuple] = None  # (header, rows) for --format csv / --csv-out
    summary: Optional[str] = None  # stdout line; the report then needs --out


# parsed arguments that are not echoed as the report's config
_NOT_CONFIG = frozenset({"command", "func", "required_opts", "self_test",
                         "out", "format", "csv_out"})


def _execute(args) -> tuple[dict, Outcome]:
    """Run one subcommand, timed, and build its report envelope."""
    started = time.perf_counter()
    outcome = args.func(args)
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    doc = {"command": args.command, "version": __version__, "config": config,
           "timing_seconds": round(time.perf_counter() - started, 6),
           "result": outcome.result}
    return doc, outcome


def _write(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, doc: dict, outcome: Outcome) -> None:
    """Write the report as JSON (or CSV rows under --format csv)."""
    csv_text = None
    if outcome.csv is not None:
        header, rows = outcome.csv
        csv_text = ",".join(header) + "\n" + "\n".join(
            ",".join(str(c) for c in row) for row in rows) + "\n"
        if getattr(args, "csv_out", None):
            _write(csv_text, args.csv_out)
    if outcome.summary is not None:
        sys.stdout.write(outcome.summary)
        if not args.out:
            return
    if args.format == "csv" and csv_text is not None:
        _write(csv_text, args.out)
    else:
        _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)


# -- subcommand implementations ----------------------------------------------


def cmd_count_distances(args) -> Outcome:
    curve = load_curve_arg(args.curve)
    quantity = load_quantity_arg(args.quantity)
    pset = generate_point_set(curve, parse_scheme(args.scheme))
    res = count_distinct_values(pset, quantity, _parse_mode(args.mode),
                                threads=args.threads)
    return Outcome(res.to_dict())


def cmd_estimate_exponent(args) -> Outcome:
    curve = load_curve_arg(args.curve)
    quantity = load_quantity_arg(args.quantity)
    mode = _parse_mode(args.mode)
    runs = []
    for n in args.sizes:
        scheme = parse_scheme(f"{args.scheme}:{n}")
        pset = generate_point_set(curve, scheme)
        res = count_distinct_values(pset, quantity, mode, threads=args.threads)
        runs.append((pset, res.count))
    fit = fit_exponent(runs)
    rows = [[n, c] for n, c in fit.samples]
    return Outcome(fit.to_dict(), csv=(["N", "count"], rows))


def cmd_elekes_analyze(args) -> Outcome:
    curve = load_curve_arg(args.curve)
    quantity = load_quantity_arg(args.quantity)
    if ":" in args.points:
        pset = generate_point_set(curve, parse_scheme(args.points))
    else:
        pset = ParamPointSet(
            curve, tuple(sorted(map(parse_param, args.points.split(",")))))
    incidence = verify_incidence_invariant(pset, quantity)
    scan = admissibility_scan(pset, quantity, sample_pairs=args.pairs,
                              n=args.grid, tol=args.tol, seed=args.seed,
                              threads=args.threads)
    return Outcome({"incidence": incidence.to_dict(),
                    "admissibility": scan.to_dict()})


def cmd_test_degeneracy(args) -> Outcome:
    curve = load_curve_arg(args.curve)
    quantity = load_quantity_arg(args.quantity)
    rep = scan_T_degeneracy(curve, quantity, m=args.pairs, n=args.tau_grid,
                            tol=args.tol, threads=args.threads)
    return Outcome(rep.to_dict())


def cmd_flex(args) -> Outcome:
    doc = _load_doc(args.framework)
    curve = curve_from_json(doc["curve"]) if isinstance(doc["curve"], dict) \
        else load_curve_arg(doc["curve"])
    quantity = quantity_from_json(doc["quantity"]) \
        if isinstance(doc["quantity"], dict) else load_quantity_arg(doc["quantity"])
    params = [parse_param(p) for p in doc["params"]]
    fw = Framework(len(params), tuple(tuple(e) for e in doc["edges"]),
                   tuple(params), curve, quantity)
    return Outcome(infinitesimal_nullity(fw, tol=args.tol).to_dict())


def cmd_trace_motion(args) -> Outcome:
    curve = load_curve_arg(args.curve)
    quantity = load_quantity_arg(args.quantity)
    a, t, b = [float(x) for x in args.triangle.split(",")]
    trace = trace_triangle_motion(curve, quantity, (a, t, b),
                                  delta=args.step, steps=args.steps)
    return Outcome(trace.to_dict(), code=3 if trace.aborted else 0)


def cmd_classify_curve(args) -> Outcome:
    curve = load_curve_arg(args.curve)
    profile = derivative_norm_profile(curve, max_order=args.max_order,
                                      samples=args.samples)
    result = {"profile": profile.to_dict(),
              "helix_candidate": profile.helix_candidate}
    if isinstance(curve, HelixCurve):
        result["structural"] = classify_helix(
            curve, denominator_bound=args.denominator_bound,
            tol=args.ratio_tol).to_dict()
    rows = [[k] + profile.norms[i]
            for i, k in enumerate(profile.orders)]
    header = ["order"] + [f"s{i}" for i in range(len(profile.samples))]
    return Outcome(result, csv=(header, rows))


def cmd_check_simplicity(args) -> Outcome:
    curve = load_curve_arg(args.curve)
    quantity = load_quantity_arg(args.quantity)
    rep = check_simplicity(curve, quantity, n=args.grid, tol=args.tol)
    return Outcome(rep.to_dict())


def cmd_bound(args) -> Outcome:
    value = elekes_lower_bound(args.np, args.nxi, incidence_k=args.k)
    return Outcome({"delta_star": value},
                   summary=f"delta_star = {value:.6g}\n")


# -- self tests ----------------------------------------------------------------

_TORUS = ('{"kind": "helix", "radii": [1.0, 1.0], "frequencies": [2.0, 3.0], '
          '"dimension": 4}')
_CIRCLE_TRIANGLE = ('{"curve": "rational_circle", "quantity": "sq_euclidean", '
                    '"params": ["0", "1/2", "2"], "edges": [[0, 1], [0, 2], [1, 2]]}')

# Each subcommand's self-test: flags for a small fixed input, and checks of
# report fields known in closed form.  It runs through `_execute`, like a
# normal invocation.
_SELF_TESTS = {
    "count-distances": (
        ["--curve", "line", "--scheme", "arith:0:1:10", "--mode", "exact"],
        [("line 0..9 gives 9 distances", lambda r: r["count"] == 9)]),
    "estimate-exponent": (
        ["--curve", "line", "--scheme", "arith:0:1", "--sizes", "8,16,32",
         "--mode", "exact"],
        [("N line points give N-1 distances",
          lambda r: r["samples"] == [[8, 7], [16, 15], [32, 31]])]),
    "elekes-analyze": (
        ["--curve", "parabola", "--points", "1/4,1/2,3/4", "--pairs", "3",
         "--grid", "8"],
        [("3 points: 6 incidences, each point on 1 curve",
          lambda r: r["incidence"]["checked"] == 6
          and r["incidence"]["n_failures"] == 0
          and r["incidence"]["min_incident"] == r["incidence"]["max_incident"] == 1),
         ("6 Elekes curves meet within Bezout 4*4",
          lambda r: r["admissibility"]["n_curves"] == 6
          and r["admissibility"]["pairs_checked"] == 3
          and r["admissibility"]["max_pairwise_intersections"] <= 16)]),
    "test-degeneracy": (
        ["--curve", "unit_circle", "--pairs", "8", "--tau-grid", "64"],
        [("circle H is constant",
          lambda r: r["is_degenerate_candidate"] and r["max_H_variation"] < 1e-8)]),
    "flex": (
        ["--framework", _CIRCLE_TRIANGLE],
        [("circle triangle flexes by rotation only",
          lambda r: r["exact_nullity"] == 1 and r["flexible"])]),
    "trace-motion": (
        ["--curve", "unit_circle", "--triangle", "0.0,0.8,1.7", "--steps", "10"],
        [("circle triangle rotates rigidly",
          lambda r: r["steps_completed"] == 10 and r["max_drift"] < 1e-9)]),
    "classify-curve": (
        ["--curve", _TORUS, "--max-order", "2", "--samples", "4"],
        [("torus ratio 3/2 certified",
          lambda r: r["structural"]["is_algebraic"]
          and r["structural"]["ratio_certificates"][0]["numerator"] == 3
          and r["structural"]["ratio_certificates"][0]["denominator"] == 2),
         ("torus curvature sqrt(97)/13",
          lambda r: max(abs(v - 97 ** 0.5 / 13)
                        for v in r["profile"]["norms"][1]) < 1e-12)]),
    "check-simplicity": (
        ["--curve", "line", "--grid", "64"],
        [("line fails only the second-derivative condition",
          lambda r: [c["index"] for c in r["conditions"] if not c["passed"]] == [2])]),
    "bound": (
        ["--np", "3", "--nxi", "1"],
        [("smallest instance gives 1", lambda r: r["delta_star"] == 1.0)]),
}


def _run_self_test(command: str) -> int:
    flags, checks = _SELF_TESTS[command]
    doc, outcome = _execute(build_parser().parse_args([command] + flags))
    results = [("exit code 0", outcome.code == 0)] + \
        [(name, bool(check(doc["result"]))) for name, check in checks]
    for name, passed in results:
        print(f"[{command}] {'ok' if passed else 'FAIL'}: {name}")
    return 0 if all(passed for _, passed in results) else 1


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curverig",
        description="Distinct-value counting and rigidity analysis on curves")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, required_opts, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, required_opts=required_opts)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and echoed; has no effect")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--self-test", action="store_true",
                       help="run this subcommand on a fixed input, check its report")
        return p

    p = command("count-distances", cmd_count_distances, ["curve", "scheme"],
                "count distinct D values")
    p.add_argument("--curve")
    p.add_argument("--quantity", default="sq_euclidean")
    p.add_argument("--scheme", default=None,
                   help="arith:s:d:N | geom:s:r:N | rand:seed:N | angles:N")
    p.add_argument("--mode", default="tol:1e-9")

    p = command("estimate-exponent", cmd_estimate_exponent,
                ["curve", "scheme", "sizes"], "fit log count vs log N")
    p.add_argument("--curve")
    p.add_argument("--quantity", default="sq_euclidean")
    p.add_argument("--scheme", default=None,
                   help="scheme prefix without N, e.g. arith:0:0.001")
    p.add_argument("--sizes", type=_parse_sizes, default=None,
                   help="comma list, e.g. 64,128,256")
    p.add_argument("--mode", default="tol:1e-9")
    p.add_argument("--csv-out", default=None)

    p = command("elekes-analyze", cmd_elekes_analyze, ["curve", "points"],
                "incidence identity + admissibility scan")
    p.add_argument("--curve")
    p.add_argument("--quantity", default="sq_euclidean")
    p.add_argument("--points", default=None,
                   help="comma-separated parameters or a scheme string")
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-5)

    p = command("test-degeneracy", cmd_test_degeneracy, ["curve"],
                "scan H variation")
    p.add_argument("--curve")
    p.add_argument("--quantity", default="sq_euclidean")
    p.add_argument("--pairs", type=int, default=16)
    p.add_argument("--tau-grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-8)

    p = command("flex", cmd_flex, ["framework"],
                "infinitesimal flexibility of a framework")
    p.add_argument("--framework", help="JSON with curve, quantity, params, edges")
    p.add_argument("--tol", type=float, default=1e-9)

    p = command("trace-motion", cmd_trace_motion, ["curve", "triangle"],
                "trace a triangle motion")
    p.add_argument("--curve")
    p.add_argument("--quantity", default="sq_euclidean")
    p.add_argument("--triangle", default=None, help="alpha,tau,beta")
    p.add_argument("--step", type=float, default=0.005)
    p.add_argument("--steps", type=int, default=100)

    p = command("classify-curve", cmd_classify_curve, ["curve"],
                "derivative-norm profile and helix verdict")
    p.add_argument("--curve")
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--samples", type=int, default=24)
    p.add_argument("--denominator-bound", type=int, default=10 ** 6)
    p.add_argument("--ratio-tol", type=float, default=1e-12)
    p.add_argument("--csv-out", default=None)

    p = command("check-simplicity", cmd_check_simplicity, ["curve"],
                "verify simple-pair conditions")
    p.add_argument("--curve")
    p.add_argument("--quantity", default="sq_euclidean")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-9)

    p = command("bound", cmd_bound, ["np", "nxi"],
                "incidence-implied distinct-value bound")
    p.add_argument("--np", type=int, default=None)
    p.add_argument("--nxi", type=int, default=None)
    p.add_argument("--k", type=float, default=1.0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    missing = [o for o in args.required_opts if getattr(args, o) is None]
    if missing and not args.self_test:
        sys.stderr.write(
            f"error: missing required option(s): "
            + ", ".join("--" + o for o in missing) + "\n")
        return 2
    try:
        if args.self_test:
            return _run_self_test(args.command)
        doc, outcome = _execute(args)
        _emit(args, doc, outcome)
        return outcome.code
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except (CurverigError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
