"""One workload in one fresh interpreter: set up, run, check, report.

Started by run.py as `python3 -m perfbench.worker ...` from the checkout
root with curverig's `src` on PYTHONPATH.  Prints one JSON object as its
last stdout line.  Modes:

- setup: import curverig.cli, build round 0's commands, report the
  CLOCK_MONOTONIC time at which the first command is ready;
- run: rounds of the workload, closed loop, one command at a time through
  `curverig.cli.main(argv)`, until another round would overrun --seconds;
- trace: one round with every public curverig function wrapped in spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter, defaultdict

from perfbench.workloads import THREADS, WORKLOADS


def _digest(doc, rc) -> str:
    if doc is None:
        return f"exit:{rc}"
    body = {k: v for k, v in doc.items() if k != "timing_seconds"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


def _layer_of(filename: str) -> str:
    base = os.path.basename(filename)
    return base[:-3] if base.endswith(".py") and os.sep + "curverig" + os.sep in filename \
        else "other"


def _run_command(main, cmd, out_dir: str, index: int) -> dict:
    out = os.path.join(out_dir, f"c{index}.json")
    if os.path.exists(out):  # left by an earlier worker of the same run
        os.remove(out)
    argv = cmd.argv + ["--threads", str(THREADS), "--out", out]
    if cmd.csv:
        argv += ["--csv-out", os.path.join(out_dir, f"c{index}.csv")]
    sink_out, sink_err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed benchmark
            rc = "crash"
            sink_err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    runtime = Counter(_layer_of(w.filename) for w in caught
                      if issubclass(w.category, RuntimeWarning))
    return {"index": index, "kind": cmd.kind, "rc": rc, "seconds": dt,
            "out": out, "stderr": sink_err.getvalue()[-400:],
            "runtime_warnings": dict(runtime)}


def _steal_s() -> float:
    """Machine-wide CPU time taken by the hypervisor (/proc/stat), or 0."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _run_round(main, cmds, out_dir: str, first_index: int, tracer=None):
    results = []
    t0, c0 = time.perf_counter(), time.process_time()  # CPU of all threads
    for i, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.cmd = first_index + i
        results.append(_run_command(main, cmd, out_dir, first_index + i))
    return time.perf_counter() - t0, time.process_time() - c0, results


def _check(cmd, res, digests: dict) -> dict:
    """Check the report whenever the command wrote one: trace-motion writes
    its partial trace before it exits 3."""
    doc, problems = None, []
    if res["rc"] == 0 or os.path.exists(res["out"]):
        try:
            with open(res["out"]) as fh:
                doc = json.load(fh)
            problems = cmd.check(doc)
        except (OSError, ValueError) as exc:
            problems = [f"no readable report: {exc}"]
        except (KeyError, TypeError, IndexError) as exc:
            problems = [f"report lacks an expected field: {exc!r}"]
    digest = _digest(doc, res["rc"])
    return {"problems": problems, "digest": digest,
            "changed": None if cmd.key not in digests else digests[cmd.key] != digest}


def _provenance() -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": THREADS}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--digests", default=None)
    args = ap.parse_args()

    # -- set-up: what a user pays before the first command --------------------
    from curverig.cli import main as cli_main
    build = WORKLOADS[args.workload]
    cmds = build(args.seed, 0)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)  # run.py reads the same clock
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    digests = {}
    if args.digests and os.path.exists(args.digests):
        with open(args.digests) as fh:
            digests = json.load(fh)

    tracer = None
    if args.mode == "trace":
        from perfbench.tracer import Tracer
        tracer = Tracer()
        tracer.install()

    rounds, walls, cpus, start = [], [], [], time.perf_counter()
    steal0 = _steal_s()
    try:
        rnd, index = 0, 0
        while True:
            wall, cpu, results = _run_round(cli_main, cmds, args.out_dir, index, tracer)
            rounds.append((cmds, results))
            walls.append(wall)
            cpus.append(cpu)
            index += len(cmds)
            rnd += 1
            if tracer is not None or time.perf_counter() - start + wall > args.seconds:
                break
            cmds = build(args.seed, rnd)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steal = _steal_s() - steal0

    # -- checks (after timing, so their memory is not in peak_rss_mb) -----------
    attempted = failed = changed = compared = 0
    correct = True
    failures, warn_by_layer = [], Counter()
    per_kind = defaultdict(list)
    record = {}
    for cmds_r, results in rounds:
        kinds = defaultdict(float)
        for cmd, res in zip(cmds_r, results):
            verdict = _check(cmd, res, digests)
            record[cmd.key] = verdict["digest"]
            attempted += 1
            kinds[cmd.kind] += res["seconds"]
            warn_by_layer.update(res["runtime_warnings"])
            if verdict["changed"] is not None:
                compared += 1
                changed += int(verdict["changed"])
            if res["rc"] != 0 or verdict["problems"]:
                failed += 1
                failures.append({"command": cmd.argv, "rc": res["rc"],
                                 "problems": verdict["problems"],
                                 "stderr": res["stderr"].strip()})
            if verdict["problems"] or res["rc"] not in cmd.ok_rcs:
                correct = False
        for kind, secs in kinds.items():
            per_kind[kind].append(secs)

    report = {
        "ready": ready, "rounds": len(rounds), "wall_s": walls, "cpu_s": cpus,
        "per_kind_s": {k: statistics.median(v) for k, v in sorted(per_kind.items())},
        "attempted": attempted, "failed": failed, "correct": correct,
        "failures": failures, "peak_rss_mb": peak_rss_mb,
        "outputs_changed": changed, "outputs_compared": compared,
        "runtime_warnings": dict(warn_by_layer), "provenance": _provenance(),
        "steal_s": steal,
        "digests": record,
    }
    if tracer is not None:
        from perfbench.tracer import layer_metrics
        report["restore_problems"] = tracer.restored_problems()
        report["layers"] = layer_metrics(tracer, walls[0], dict(warn_by_layer))
        report["span_names"] = sorted(tracer.names)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
