"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Headline asymptotics are checked at desk scale as finite
separations and invariants, at the stated tolerances and runtime limits.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from curverig import (ArithmeticProgression, ElekesFamily, EquallySpacedAngle,
                      Exact, Framework, HelixCurve, ParamPointSet, PinnedAreaSquared,
                      SquaredEuclidean, Tolerance, UniformRandom,
                      admissibility_scan, classify_helix, complete_framework,
                      count_distinct_values, derivative_norm_profile, eval_H,
                      fit_exponent, generate_point_set, implicitize_rational,
                      infinitesimal_nullity, scan_T_degeneracy,
                      trace_framework_motion, trace_triangle_motion, triangle,
                      trig_ellipse, verify_incidence_invariant)
from curverig.bipoly import BiPoly
from curverig import RationalCurve, RationalFunction
from conftest import (make_circular_helix, make_cubic, make_parabola,
                      make_rational_circle, make_rect_hyperbola,
                      make_unit_circle)

F = Fraction
RF = RationalFunction.from_coeffs
SQ = SquaredEuclidean()

PARABOLA = BiPoly({(2, 0): 1, (0, 1): -1})             # X^2 - Y
CIRCLE = BiPoly({(2, 0): 1, (0, 2): 1, (0, 0): -1})    # X^2 + Y^2 - 1
HYPERBOLA = BiPoly({(1, 1): 1, (0, 0): -1})            # XY - 1


def _report(num, name, elapsed, limit, ok, detail=""):
    status = "PASS" if ok and elapsed <= limit else "FAIL"
    print(f"[criterion {num:2d}] {status} ({elapsed:.2f}s/{limit:g}s) "
          f"{name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed <= limit, \
        f"criterion {num} runtime {elapsed:.2f}s exceeds {limit}s"


def _helix_counts():
    helix = make_circular_helix(0.5)
    out = []
    for n in (32, 64, 128, 256, 512, 1024):
        pset = generate_point_set(helix, ArithmeticProgression(0.0, 0.3, n))
        res = count_distinct_values(pset, SQ, Tolerance(1e-9))
        out.append((n, res.count))
    return out


def _circle_counts():
    circ = make_unit_circle()
    out = []
    for n in (6, 10, 100):
        pset = generate_point_set(circ, EquallySpacedAngle(n))
        res = count_distinct_values(pset, SQ, Tolerance(1e-9))
        out.append((n, res.count))
    return out


def _parabola_counts():
    par = make_parabola(0, 1)
    out = []
    for n in (64, 128, 256, 512):
        pset = generate_point_set(
            par, ArithmeticProgression(F(1, n + 1), F(1, n + 1), n))
        res = count_distinct_values(pset, SQ, Tolerance(1e-9))
        out.append((n, res.count))
    return out


_SCAN_CASES = [
    ("circle+sq", lambda: make_unit_circle(), SquaredEuclidean(), True),
    ("helix+sq", lambda: make_circular_helix(0.5), SquaredEuclidean(), True),
    ("ellipse+pinned", lambda: trig_ellipse(2.0, 1.0),
     PinnedAreaSquared(apex=(0, 0)), True),
    ("parabola+sq", lambda: make_parabola(0, 1), SquaredEuclidean(), False),
    ("offcenter-circle+pinned", lambda: make_unit_circle(),
     PinnedAreaSquared(apex=(F(1, 2), F(1, 5))), False),
]


def _scan_outputs():
    return [(name, scan_T_degeneracy(make(), q, m=12, n=256, tol=1e-9).to_dict())
            for name, make, q, _ in _SCAN_CASES]


def _parabola_12_point_set():
    rng = random.Random(3)
    par = make_parabola(0, 1)
    params = tuple(sorted(F(rng.randrange(1, 997), 997) for _ in range(12)))
    return ParamPointSet(par, params)


def _admissibility_output():
    pset = _parabola_12_point_set()
    return admissibility_scan(ElekesFamily(pset, SQ), sample_pairs=200, n=64,
                              seed=1).to_dict()


def test_criterion_01_helix_linear_growth():
    t0 = time.perf_counter()
    counts = _helix_counts()
    ok = all(c <= n - 1 for n, c in counts)
    fit = fit_exponent(counts)
    ok = ok and fit.slope <= 1.05
    _report(1, "helix linear growth", time.perf_counter() - t0, 10.0, ok,
            f"counts={counts} slope={fit.slope:.4f}")


def test_criterion_02_circle_degeneracy():
    t0 = time.perf_counter()
    counts = _circle_counts()
    # brute-force chord-length oracle
    oracle = {n: len({round(4 * math.sin(math.pi * k / n) ** 2, 9)
                      for k in range(1, n)}) for n, _ in counts}
    ok = all(c == n // 2 == oracle[n] for n, c in counts)
    _report(2, "circle floor(N/2) distances", time.perf_counter() - t0, 1.0,
            ok, f"counts={counts}")


def test_criterion_03_parabola_exponent_gap():
    t0 = time.perf_counter()
    counts = _parabola_counts()
    fit = fit_exponent(counts)
    ok = fit.slope >= 1.25
    _report(3, "parabola exponent >= 1.25", time.perf_counter() - t0, 30.0,
            ok, f"slope={fit.slope:.4f} counts={counts}")


def test_criterion_04_H_dichotomy():
    t0 = time.perf_counter()
    results = _scan_outputs()
    ok = True
    details = []
    for (name, doc), (_, _, _, degenerate) in zip(results, _SCAN_CASES):
        if degenerate:
            good = doc["is_degenerate_candidate"] and \
                doc["max_H_variation"] < 1e-9
        else:
            good = (not doc["is_degenerate_candidate"]
                    and doc["max_H_variation"] > 1e-3
                    and doc["witness"] is not None)
        ok = ok and good
        details.append(f"{name}:{doc['max_H_variation']:.1e}")
    _report(4, "H variation dichotomy", time.perf_counter() - t0, 20.0, ok,
            " ".join(details))


def test_criterion_05_infinitesimal_rigidity():
    t0 = time.perf_counter()
    circ = make_rational_circle()
    ok = True
    details = []
    rng = random.Random(17)
    for _ in range(5):
        ts = sorted(F(rng.randrange(-300, 300), 100) for _ in range(3))
        if min(b - a for a, b in zip(ts, ts[1:])) == 0:
            continue
        res = infinitesimal_nullity(triangle(circ, SQ, *ts))
        ok = ok and res.exact_nullity == 1 \
            and res.exact_nullity == res.numerical_nullity
    details.append("circle triangles: exact nullity 1")
    par = make_parabola(-1, 3)
    res = infinitesimal_nullity(triangle(par, SQ, F(0), F(1), F(2)))
    ok = ok and res.exact_nullity == 0 == res.numerical_nullity
    details.append("parabola (0,1,2): nullity 0")
    zoo = [make_parabola(0, 1), make_rational_circle(),
           make_rect_hyperbola(F(1, 100), 64), make_unit_circle(),
           make_circular_helix(0.5), make_cubic(0, 1)]
    count21 = 0
    i = 0
    while count21 < 30:
        i += 1
        curve = zoo[i % len(zoo)]
        lo = max(float(curve.domain.lo), -6.0)
        hi = min(float(curve.domain.hi), 6.0)
        if isinstance(curve, RationalCurve):
            ts = sorted(F(rng.randrange(int(lo * 64) + 1, int(hi * 64)), 64)
                        for _ in range(3))
        else:
            ts = sorted(round(rng.uniform(lo + 0.01, hi - 0.01), 6)
                        for _ in range(3))
        if min(float(b - a) for a, b in zip(ts, ts[1:])) < 1 / 64:
            continue
        fw21 = Framework(3, ((0, 2), (1, 2)), tuple(ts), curve, SQ)
        res = infinitesimal_nullity(fw21)
        ok = ok and res.nullity >= 1
        if res.exact_nullity is not None:
            ok = ok and res.exact_nullity == res.numerical_nullity
        count21 += 1
    details.append("30 K_{2,1}: nullity >= 1, paths agree")
    _report(5, "infinitesimal rigidity", time.perf_counter() - t0, 5.0, ok,
            "; ".join(details))


def test_criterion_06_motion_dichotomy():
    t0 = time.perf_counter()
    circ = make_unit_circle()
    helix = make_circular_helix(0.5)
    ok = True
    details = []
    traces = {}
    tr = trace_triangle_motion(circ, SQ, (0.0, 0.8, 1.7), 0.005, 100)
    traces["circle-tri"] = tr
    ok = ok and tr.max_drift < 1e-7
    tr = trace_triangle_motion(helix, SQ, (0.0, 0.7, 1.5), 0.005, 100)
    traces["helix-tri"] = tr
    ok = ok and tr.max_drift < 1e-7
    k5c = complete_framework(circ, SQ,
                             [-math.pi + (2 * j + 1) * math.pi / 5
                              for j in range(5)])
    tr = trace_framework_motion(k5c, 0, 0.005, 100)
    traces["circle-K5"] = tr
    ok = ok and tr.max_drift < 1e-7
    k5h = complete_framework(helix, SQ, [0.0, 0.6, 1.3, 2.1, 2.9])
    tr = trace_framework_motion(k5h, 0, 0.005, 100)
    traces["helix-K5"] = tr
    ok = ok and tr.max_drift < 1e-7
    details.append("flex drifts " + " ".join(
        f"{k}={v.max_drift:.1e}" for k, v in traces.items()))
    par = make_parabola(-2, 3)
    tr = trace_triangle_motion(par, SQ, (0.0, 0.5, 1.0), 0.01, 10)
    ok = ok and tr.max_drift > 1e-4
    details.append(f"parabola drift={tr.max_drift:.1e}")
    # ODE cross-check on the degenerate traces
    for curve, key in ((circ, "circle-tri"), (helix, "helix-tri")):
        tcur = traces[key]
        alphas, taus, betas = tcur.paths[0], tcur.paths[1], tcur.paths[2]
        for k in range(10, 90, 20):
            bp = (betas[k + 1] - betas[k - 1]) / (alphas[k + 1] - alphas[k - 1])
            h = eval_H(curve, SQ, alphas[k], betas[k], taus[k])
            ok = ok and abs(bp - 1.0 / h) < 1e-4
    details.append("beta' = 1/H within 1e-4")
    _report(6, "motion dichotomy", time.perf_counter() - t0, 10.0, ok,
            "; ".join(details))


def test_criterion_07_derivative_norm_constancy():
    t0 = time.perf_counter()
    helix = make_circular_helix(0.5, 0.0, 6.0)
    prof = derivative_norm_profile(helix, max_order=2, samples=20)
    ok = prof.variations[1] < 1e-5
    ok = ok and all(abs(v - 0.8) <= 1e-4 for v in prof.norms[1])
    par = make_parabola(0, 1)
    prof2 = derivative_norm_profile(par, max_order=2, samples=20)
    ok = ok and prof2.variations[1] > 0.10
    _report(7, "derivative-norm constancy", time.perf_counter() - t0, 5.0,
            ok, f"helix |sigma''|~{prof.norms[1][0]:.6f} "
                f"var={prof.variations[1]:.1e}; "
                f"parabola var={prof2.variations[1]:.2f}")


def test_criterion_08_algebraic_helix_classification():
    t0 = time.perf_counter()
    ok = classify_helix(HelixCurve([1.0, 1.0], [2.0, 3.0], [], 4)).is_algebraic
    res = classify_helix(HelixCurve([1.0, 1.0], [1.0, math.sqrt(2)], [], 4),
                         denominator_bound=10 ** 6, tol=1e-12)
    ok = ok and not res.is_algebraic
    ok = ok and not classify_helix(
        HelixCurve([1.0], [1.0], [0.5], 3)).is_algebraic
    _report(8, "algebraic-helix classification", time.perf_counter() - t0,
            1.0, ok, "(2,3) yes; (1,sqrt2) no; k,l>0 no")


def test_criterion_09_implicitization():
    t0 = time.perf_counter()
    ok = implicitize_rational(RF([0, 1]), RF([0, 0, 1])) == PARABOLA
    ok = ok and implicitize_rational(
        RF([1, 0, -1], [1, 0, 1]), RF([0, 2], [1, 0, 1])) == CIRCLE
    ok = ok and implicitize_rational(RF([0, 1]), RF([1], [0, 1])) == HYPERBOLA
    rng = random.Random(99)
    built = 0
    while built < 10:
        deg = rng.randrange(1, 5)
        cs = lambda d: [rng.randrange(-5, 6) for _ in range(d + 1)]
        try:
            x = RationalFunction.from_coeffs(cs(deg), cs(rng.randrange(0, deg + 1)))
            y = RationalFunction.from_coeffs(cs(rng.randrange(1, deg + 1)),
                                             cs(rng.randrange(0, deg + 1)))
            if x.is_constant() and y.is_constant():
                continue
            G = implicitize_rational(x, y)
        except Exception:
            continue
        built += 1
        checked = 0
        while checked < 200:
            t = F(rng.randrange(-3000, 3000), rng.randrange(1, 700))
            if x.den(t) == 0 or y.den(t) == 0:
                continue
            ok = ok and G.eval_exact(x(t), y(t)) == 0
            checked += 1
    _report(9, "resultant implicitization", time.perf_counter() - t0, 5.0,
            ok, "3 canonical exact; 10 random curves vanish at 200 pts each")


def test_criterion_10_incidence_invariant():
    t0 = time.perf_counter()
    zoo = [make_parabola(0, 1), make_rational_circle(),
           make_rect_hyperbola(F(1, 100), 64), make_cubic(0, 1)]
    ok = True
    for i in range(10):
        curve = zoo[i % len(zoo)]
        n = 5 + (i % 8)  # 5..12 points
        pset = generate_point_set(curve, UniformRandom(seed=500 + i, n=n))
        # each check also tests G_pq(D(r, p), D(r, q)) = 0
        family = ElekesFamily(pset, SQ)
        rep = verify_incidence_invariant(family)
        ok = ok and len(family.implicits) == n * (n - 1)
        ok = ok and rep.failures == [] and rep.checked == n * (n - 1) * (n - 2) \
            and rep.min_incident == rep.max_incident == n - 2
    _report(10, "incidence invariant", time.perf_counter() - t0, 5.0, ok,
            "10 point sets, exact identity and implicit equations, "
            "N-2 product points each")


def test_criterion_11_elekes_intersection_bound():
    t0 = time.perf_counter()
    doc = _admissibility_output()
    pairs_same = any(len(cls) > 1 for cls in doc["duplicate_curve_classes"])
    ok = not pairs_same
    ok = ok and doc["pairs_checked"] == 200
    ok = ok and doc["max_pairwise_intersections"] <= 16
    # the exact counts themselves, so a wrong intersector fails; Newton's
    # estimate read 5 on the mirrored pairs (486/997, 595/997) and
    # (595/997, 641/997), which meet 3 times (tests/test_elekes.py)
    ok = ok and doc["max_pairwise_intersections"] == 3
    ok = ok and doc["histogram"] == {"1": 29, "2": 167, "3": 4}
    ok = ok and doc["count_methods"] == {"exact": 200}
    _report(11, "Elekes intersection bound", time.perf_counter() - t0, 60.0,
            ok, f"max={doc['max_pairwise_intersections']} <= 16, "
                f"histogram={doc['histogram']}, "
                f"no same-curve pairs among {doc['pairs_checked']}")


# Two README-shaped commands, each run in fresh interpreters whose string
# hashing differs.  The criterion keeps its historical name: it was a
# 1- vs 8-thread comparison, and `threads` has no effect any more.
_DETERMINISM_COMMANDS = [
    ["count-distances", "--curve", "parabola", "--scheme", "rand:7:48"],
    ["elekes-analyze", "--curve", "parabola", "--points", "1/7,2/7,3/7,4/7,5/7",
     "--pairs", "20", "--grid", "32"],
]
_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _fresh_process_report(argv, hash_seed, out):
    """The report of `python -m curverig.cli argv`, without timing_seconds."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "curverig.cli", *argv,
                           "--out", str(out)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    doc.pop("timing_seconds")
    return doc


def test_criterion_12_determinism_across_threads(tmp_path):
    t0 = time.perf_counter()
    ok = all(_fresh_process_report(argv, 0, tmp_path / "a.json")
             == _fresh_process_report(argv, 1, tmp_path / "b.json")
             for argv in _DETERMINISM_COMMANDS)
    _report(12, "determinism across processes", time.perf_counter() - t0,
            120.0, ok, "count-distances and elekes-analyze reports identical "
                       "under PYTHONHASHSEED 0 and 1, timing apart")


def test_criterion_13_exact_count_speed():
    # the ROADMAP baseline instance: every one of the 130,816 pair values
    # on parabola rand:7:512 is distinct
    pset = generate_point_set(make_parabola(0, 1), UniformRandom(seed=7, n=512))
    t0 = time.perf_counter()
    res = count_distinct_values(pset, SQ, Exact())
    ok = res.count == res.n_pairs == 130816
    _report(13, "exact count on parabola rand:7:512",
            time.perf_counter() - t0, 4.0, ok, f"count={res.count}")
