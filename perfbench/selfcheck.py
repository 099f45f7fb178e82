"""Self-check of the benchmark itself (not of curverig).

    python3 perfbench/selfcheck.py            # seeds + BENCHMARK.json, seconds
    python3 perfbench/selfcheck.py --traced   # also one traced run per workload

1. Seeds: two seeds give the same command mix and sizes but different
   inputs, and no two commands of a run (over three rounds) share an input.
2. BENCHMARK.json names exactly the per-layer metrics the tracer reports.
3. With --traced: every layer metric fires (is nonzero) on the workloads
   EXPECTED assigns it to; the elekes and bipoly layers are idle on
   exact-count and float-geometry, rigidity and motion are idle on elekes
   and exact-count; unattributed time is at most 10% of the traced wall
   time.  run.py itself fails a traced run whose wrappers were not all
   removed again.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.tracer import PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

E, X, F = "elekes", "exact-count", "float-geometry"
# README commands keep their documented inputs in round 0 for every seed
README_FIXED = {E: 1, X: 1, F: 8}

# metric -> workloads on which it must be nonzero
EXPECTED = {
    **{m: {E} for m, _ in PER_LAYER
       if m.startswith("elekes.") and m != "elekes.self_s"},
    "rational.poly_eval_exact.calls": {E, X},
    "rational.float_coeffs.calls": {E, F},
    "rational.count_real_roots.calls": {E, X, F},
    "curves.evaluate_exact.calls": {E, X},
    "curves.derivative_array.calls": {E, F},
    "curves.arc_length.inversions": {F},
    "curves.check_simplicity.peak_mb": {F},
    "quantity.eval.calls": {E, X, F},
    "quantity.eval_batch.calls": {E, F},
    "quantity.grad_batch.calls": {E, F},
    "counting.count_distinct_values.calls": {X, F},
    "counting.pairs": {X, F},
    "counting.generate_point_set.s": {E, X, F},
    "bipoly.sylvester_resultant.calls": {E},
    "bipoly.square_free_part.calls": {E},
    "rigidity.scan_T.s": {F},
    "rigidity.pairs_scanned": {F},
    "rigidity.eval_H.calls": {F},
    "rigidity.nullity.s": {F},
    "rigidity.flex_matrix_exact.s": {F},
    "motion.trace.s": {F},
    "motion.steps": {F},
    "motion.newton_iterations": {F},
    "motion.profile.s": {F},
    "motion.profile.failures": {F},
    "parallel.calls": {E, X, F},
    "parallel.chunks": {E, X, F},
    "parallel.pooled_s": {E, X, F},
    "cli.self_s": {E, X, F},
}
IDLE = {"elekes.": {X, F}, "bipoly.": {X, F}, "rigidity.": {E, X}, "motion.": {E, X}}

_SIZE_OPTS = {"--pairs", "--grid", "--sizes", "--steps", "--tau-grid", "--max-order",
              "--step", "--mode", "--quantity", "--tol"}
_SCHEME_FIELDS = {"rand": 3, "arith": 4, "geom": 4, "angles": 2}


def _options(argv):
    rest = list(argv[1:])
    while rest:
        tok = rest.pop(0)
        yield tuple(tok.split("=", 1)) if "=" in tok else (tok, rest.pop(0))


def shape(argv) -> tuple:
    """What must not depend on the seed: subcommand, options, sizes."""
    out = [argv[0]]
    for opt, val in _options(argv):
        if opt in _SIZE_OPTS:
            out.append((opt, val))
        elif opt in ("--scheme", "--points"):
            parts = val.split(":")
            if len(parts) == 1:
                out.append((opt, "list", val.count(",") + 1))
            else:
                full = len(parts) == _SCHEME_FIELDS[parts[0]]
                out.append((opt, parts[0], parts[-1] if full else None))
        else:
            out.append(opt)
    return tuple(out)


def check_seeds() -> list:
    problems = []
    for name, build in WORKLOADS.items():
        a, b = build(1, 0), build(2, 0)
        if [shape(c.argv) for c in a] != [shape(c.argv) for c in b]:
            problems.append(f"{name}: seeds 1 and 2 differ in command mix or sizes")
        same = sum(ca.argv == cb.argv for ca, cb in zip(a, b))
        if same > README_FIXED[name]:
            problems.append(f"{name}: {same} commands identical across seeds")
        run = [c.key for r in range(3) for c in build(1, r)]
        if len(set(run)) != len(run):
            problems.append(f"{name}: commands of one run share an input")
        if [shape(c.argv) for c in build(1, 1)] != [shape(c.argv) for c in a]:
            problems.append(f"{name}: later rounds change the command mix")
    return problems


def check_manifest() -> list:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    return [] if listed == PER_LAYER else ["BENCHMARK.json per_layer != tracer.PER_LAYER"]


def check_traced(seed: int) -> list:
    problems = []
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", name, "--seed", str(seed), "--trace", "1"],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            problems.append(f"{name}: traced run exited {proc.returncode}: "
                            f"{proc.stderr[-500:]}")
            continue
        detail, result = (json.loads(x) for x in proc.stdout.splitlines()[-2:])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        for metric, where in EXPECTED.items():
            if name in where and not m[metric] > 0:
                problems.append(f"{name}: {metric} never fired")
        for prefix, idle_on in IDLE.items():
            if name in idle_on:
                busy = [k for k, v in m.items() if k.startswith(prefix) and v]
                if busy:
                    problems.append(f"{name}: {prefix}* should be idle: {busy}")
        if m["trace.unattributed_s"] > 0.1 * detail["traced_wall_s"]:
            problems.append(f"{name}: unattributed time above 10% of traced wall")
        print(f"{name}: traced {detail['traced_wall_s']:.2f}s, overhead "
              f"{m['trace.overhead_ratio']:.2f}x, exact-eval share of intersect "
              f"{m['elekes.intersect_pair.exact_eval_share']:.3f}", flush=True)
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    problems = check_seeds() + check_manifest()
    if args.traced:
        problems += check_traced(args.seed)
    for p in problems:
        print("FAIL:", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
