"""curverig benchmark: end-to-end CLI timings and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload elekes --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/workloads.py): `elekes`, `exact-count`,
`float-geometry`.  Each run starts fresh interpreters with
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1 and a fixed PYTHONHASHSEED, imports
curverig from the checkout's `src`, and sends the workload's commands to
`curverig.cli.main(argv)` one at a time (a closed loop with one client),
each with `--threads 2`.

--trace 0 prints the end-to-end metrics: setup_s (fresh interpreter to the
first command ready, median of several starts), cpu_s (user + system CPU
seconds of one round of the command list, median over rounds), peak_rss_mb.
--trace 1 runs one untraced and one traced round and prints the per-layer
metrics of perfbench/tracer.py.  The last stdout line is the result object;
the line before it holds the wall time of each round, provenance,
per-subcommand times, failures and output digests.

`--record-digests` rewrites perfbench/digests.json from seed 0, the
reference against which `outputs_changed` counts changed reports.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_STARTS = 9    # setup-only interpreter starts per run, plus the run's own
DEADLINE = time.monotonic() + 175  # a run must end within 180 s

sys.path.insert(0, os.path.dirname(HERE))
from perfbench.tracer import PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def _worker(mode: str, workload: str, seed: int, seconds: float, out_dir: str):
    """Start one worker interpreter; returns (spawn clock, report)."""
    argv = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--out-dir", out_dir, "--digests", DIGESTS]
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker {mode} exited {proc.returncode}")
    return spawn, json.loads(lines[-1])


def _provenance(report: dict) -> dict:
    prov = dict(report["provenance"], git_commit=None)
    if os.path.exists(os.path.join(ROOT, ".git")):  # not an enclosing repo's HEAD
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                 capture_output=True, text=True)
            if git.returncode == 0:
                prov["git_commit"] = git.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "curverig", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    prov["source_sha256"] = h.hexdigest()[:16]
    return prov


def _detail(workload, seed, reports, extra) -> dict:
    last = reports[-1]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {"workload": workload, "seed": seed, "provenance": _provenance(last),
            "rounds": [r["rounds"] for r in reports],
            "per_subcommand_s": last["per_kind_s"],
            "fail_ratio": failed / attempted,
            "outputs_changed": sum(r["outputs_changed"] for r in reports),
            "outputs_compared": sum(r["outputs_compared"] for r in reports),
            "runtime_warnings": last["runtime_warnings"],
            "timed_machine_steal_s": last["steal_s"],
            "failures": [f for r in reports for f in r["failures"]][:20], **extra}


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, seed, seconds, out_dir):
    _worker("setup", workload, seed, 0, out_dir)  # fills bytecode caches
    setups = []
    for _ in range(SETUP_STARTS):
        spawn, rep = _worker("setup", workload, seed, 0, out_dir)
        setups.append(rep["ready"] - spawn)
    spawn, rep = _worker("run", workload, seed, seconds, out_dir)
    setups.append(rep["ready"] - spawn)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "cpu_s": _metric(statistics.median(rep["cpu_s"]), "s"),
        "peak_rss_mb": _metric(rep["peak_rss_mb"], "MB"),
    }
    detail = _detail(workload, seed, [rep], {"setup_samples_s": setups,
                                             "wall_s": statistics.median(rep["wall_s"]),
                                             "round_wall_s": rep["wall_s"],
                                             "round_cpu_s": rep["cpu_s"]})
    return [rep], metrics, detail


def run_traced(workload, seed, out_dir):
    _, plain = _worker("run", workload, seed, 0, out_dir)  # exactly one round
    _, traced = _worker("trace", workload, seed, 0, out_dir)
    if traced["restore_problems"]:
        raise RuntimeError("tracer left wrappers in place: "
                           + ", ".join(traced["restore_problems"][:10]))
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"][0] / plain["wall_s"][0]
    metrics = {name: _metric(layers[name], unit) for name, unit in PER_LAYER}
    detail = _detail(workload, seed, [plain, traced],
                     {"untraced_wall_s": plain["wall_s"][0],
                      "traced_wall_s": traced["wall_s"][0],
                      "span_names": traced["span_names"]})
    return [plain, traced], metrics, detail


def record_digests(out_dir) -> None:
    table = {}
    for workload in WORKLOADS:
        _, rep = _worker("run", workload, 0, 0, out_dir)
        table.update(rep["digests"])
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "curverig", "cli.py")):
        sys.stderr.write("perfbench: run from a curverig checkout "
                         "(no src/curverig/cli.py here)\n")
        return 2
    if not args.record_digests and args.workload is None:
        ap.error("--workload is required")

    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.record_digests:
            record_digests(out_dir)
            return 0
        if args.trace:
            reports, metrics, detail = run_traced(args.workload, args.seed, out_dir)
        else:
            reports, metrics, detail = run_untraced(args.workload, args.seed,
                                                    args.seconds, out_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(json.dumps(detail))
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
