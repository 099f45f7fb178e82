"""The benchmark's three workloads as lists of curverig CLI commands.

A workload is a function (seed, round) -> commands.  The mix and the sizes
of the commands are fixed; the seed and the round only choose the inputs
(scheme seeds, point sets, curve coefficients, triangle positions), so a
seed the benchmark was not tuned on exercises the same work.  Every command
of one run has its own input: round 0 holds the README examples verbatim,
later rounds replace them by inputs of the same shape.  No command shares
an input with another command of the run, so a cache kept across commands
cannot fake a gain that one-command-per-process users would not get.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import checks

THREADS = 2


@dataclass
class Command:
    kind: str           # CLI subcommand
    argv: list          # full argv without --threads/--out/--csv-out
    check: Callable     # check(doc) -> list of problems
    csv: bool = False   # also write --csv-out
    ok_rcs: tuple = (0,)  # exit codes that leave the run correct

    @property
    def key(self) -> str:
        """Identity of the input, for output digests."""
        return json.dumps(self.argv)


def _sid(seed: int, rnd: int, i: int) -> int:
    """Scheme seed unique to (seed, round, command index)."""
    return 1000 + 100_000 * seed + 100 * rnd + i


def _rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rnd}")


def _rational_curve(coords, domain) -> str:
    """Inline JSON of a polynomial plane curve; coords are ascending
    coefficient lists of strings."""
    return json.dumps({"kind": "rational",
                       "coords": [{"num": c, "den": ["1"]} for c in coords],
                       "domain": domain})


def _circle(r: float) -> str:
    """Radius-r circle; the domain spans a full period, as angles:N needs."""
    return json.dumps({"kind": "helix", "radii": [r], "frequencies": [1.0],
                       "drift": [], "dimension": 2, "domain": [-3.2, 3.2]})


# (t, t^3 - t): a plane cubic, so its Elekes curves have degree <= 6
CUBIC = _rational_curve([["0", "1"], ["0", "-1", "0", "1"]], ["-2", "2"])


def _shear_parabola(rng) -> str:
    """(t, a t^2 + b t) on (0, 1): an affine image of the parabola."""
    a, b = rng.randrange(1, 9), rng.randrange(-4, 5)
    return _rational_curve([["0", "1"], ["0", str(b), str(a)]], ["0", "1"])


def _line(rng) -> str:
    m = rng.randrange(1, 50)
    return _rational_curve([["0", "1"], ["0", f"{m}/7"]], ["-10", "10"])


def _triangle(rng, lo, hi, gap) -> str:
    """alpha in (lo, hi), then tau and beta each gap..2 gap further on."""
    a = rng.uniform(lo, hi)
    t = a + rng.uniform(gap, 2 * gap)
    b = t + rng.uniform(gap, 2 * gap)
    return f"{a:.6f},{t:.6f},{b:.6f}"


# -- elekes ------------------------------------------------------------------

# (curve, curve degree or None for transcendental, points, sampled pairs)
_ELEKES_MIX = [("parabola", 2, 6, 10), ("parabola", 2, 8, 10),
               ("rational_circle", 2, 5, 10), ("rational_circle", 2, 7, 10),
               (CUBIC, 3, 4, 6), ("circular_helix(0.5)", None, 5, 2)]


def elekes(seed: int, rnd: int) -> list:
    rng = _rng("elekes", seed, rnd)
    q = 7 if rnd == 0 else rng.randrange(8, 17)  # round 0: README, 1/7 .. 5/7
    ks = range(1, 6) if rnd == 0 else sorted(rng.sample(range(1, q), 5))
    points = ",".join(f"{k}/{q}" for k in ks)
    cmds = [Command("elekes-analyze",
                    ["elekes-analyze", "--curve", "parabola", "--points", points,
                     "--pairs", "200", "--grid", "64", "--seed", str(rnd)],
                    partial(checks.check_elekes, n=5, pairs=200, curve_degree=2,
                            method="exact"))]
    for i, (curve, deg, n, pairs) in enumerate(_ELEKES_MIX, start=1):
        sid = _sid(seed, rnd, i)
        cmds.append(Command(
            "elekes-analyze",
            ["elekes-analyze", "--curve", curve, "--points", f"rand:{sid}:{n}",
             "--pairs", str(pairs), "--grid", "64", "--seed", str(sid)],
            partial(checks.check_elekes, n=n, pairs=pairs, curve_degree=deg,
                    method="exact" if deg else "fingerprint")))
    return cmds


# -- exact-count ---------------------------------------------------------------


def exact_count(seed: int, rnd: int) -> list:
    rng = _rng("exact-count", seed, rnd)
    sid = partial(_sid, seed, rnd)
    cmds = []
    # round 0 starts with the ROADMAP baseline, parabola rand:7:512
    for i, (curve, n) in enumerate([("parabola", 512), ("rational_circle", 128)]):
        s = 7 if (i, rnd) == (0, 0) else sid(i)
        cmds.append(Command(
            "count-distances",
            ["count-distances", "--curve", curve, "--scheme", f"rand:{s}:{n}",
             "--mode", "exact"],
            partial(checks.check_exact_count, curve=curve, seed=s, n=n)))
    start = f"{rng.randrange(-3000, 3000)}/7"  # line arith: all but N-1 values collide
    cmds.append(Command(
        "count-distances",
        ["count-distances", "--curve", "line", "--scheme", f"arith:{start}:1/7:256",
         "--mode", "exact"],
        partial(checks.check_line_arith, n=256)))
    for i, curve in enumerate(["parabola", "rational_circle"], start=3):
        s, sizes = sid(i), [32, 64, 128]
        cmds.append(Command(
            "estimate-exponent",
            ["estimate-exponent", "--curve", curve, "--scheme", f"rand:{s}",
             "--sizes", ",".join(map(str, sizes)), "--mode", "exact"],
            partial(checks.check_exponent, sizes=sizes,
                    counter=partial(checks.EXACT_COUNTERS[curve], s))))
    start = f"{rng.randrange(-3000, 3000)}/7"
    sizes = [64, 128, 256]
    cmds.append(Command(
        "estimate-exponent",
        ["estimate-exponent", "--curve", "line", "--scheme", f"arith:{start}:1/7",
         "--sizes", ",".join(map(str, sizes)), "--mode", "exact"],
        partial(checks.check_exponent, sizes=sizes, counter=lambda n: n - 1)))
    return cmds


# -- float-geometry --------------------------------------------------------------

_README_FRAMEWORK = {"curve": {"kind": "builtin", "name": "rational_circle"},
                     "quantity": {"kind": "sq_euclidean"},
                     "params": ["0", "1/2", "2"],
                     "edges": [[0, 1], [0, 2], [1, 2]]}


def _readme_float(seed: int, rnd: int, rng) -> list:
    """The README's float examples; later rounds use same-shape inputs."""
    first = rnd == 0
    circle = "unit_circle" if first else _circle(round(rng.uniform(0.5, 2.0), 4))
    s = 7 if first else _sid(seed, rnd, 0)
    sizes = [64, 128, 256, 512]
    h_circle = "unit_circle" if first else _circle(round(rng.uniform(0.5, 2.0), 4))
    fw = dict(_README_FRAMEWORK)
    if not first:
        d = rng.randrange(2, 50)
        fw["params"] = [f"{k}/{d}" for k in sorted(rng.sample(range(-190, 190), 3))]
    tri = "0.0,0.8,1.7" if first else f"{-rng.uniform(0, 0.5):.6f},0.8,1.7"
    c = 0.5 if first else round(rng.uniform(0.45, 0.55), 4)
    parabola = "parabola" if first else _shear_parabola(rng)
    n_p = 100 if first else rng.randrange(50, 5000)
    return [
        Command("count-distances",
                ["count-distances", "--curve", circle, "--scheme", "angles:100",
                 "--mode", "tol:1e-9"],
                partial(checks.check_angles, n=100)),
        Command("estimate-exponent",
                ["estimate-exponent", "--curve", "parabola", "--scheme", f"rand:{s}",
                 "--sizes", ",".join(map(str, sizes))],
                partial(checks.check_exponent, sizes=sizes,
                        counter=partial(checks.tol_count_bounds, "parabola", s,
                                        rel_eps=1e-9)),
                csv=True),
        Command("test-degeneracy",
                ["test-degeneracy", "--curve", h_circle, "--pairs", "16",
                 "--tau-grid", "256", "--tol", "1e-8"],
                partial(checks.check_degeneracy, degenerate=True, tau_grid=256)),
        Command("flex", ["flex", "--framework", json.dumps(fw)], checks.check_flex),
        Command("trace-motion",
                ["trace-motion", "--curve", "unit_circle", f"--triangle={tri}",
                 "--step", "0.005", "--steps", "100"],
                partial(checks.check_motion, steps=100, flexible=True)),
        # The one known defect: exits 3 (StepTooSmall) at the seed commit and
        # counts as failed.  Exit 0 stays correct if the report passes its
        # check, so a fix does not read as a fault.
        Command("classify-curve",
                ["classify-curve", "--curve", f"circular_helix({c})",
                 "--max-order", "4"],
                partial(checks.check_classify, helix=True, algebraic=False),
                csv=True, ok_rcs=(0, 3)),
        Command("check-simplicity",
                ["check-simplicity", "--curve", parabola, "--grid", "256",
                 "--tol", "1e-9"],
                partial(checks.check_simplicity, passed=True)),
        Command("bound", ["bound", "--np", str(n_p), "--nxi", "10000", "--k", "1"],
                partial(checks.check_bound, np_=n_p, nxi=10000, k=1.0)),
    ]


def float_geometry(seed: int, rnd: int) -> list:
    rng = _rng("float-geometry", seed, rnd)
    cmds = _readme_float(seed, rnd, rng)
    sid = partial(_sid, seed, rnd)
    # each command gets its own curve, so no two commands share an input
    c1, c2, c3 = (round(rng.uniform(0.3, 0.7), 4) for _ in range(3))
    r1, r2, r3 = (round(rng.uniform(0.5, 2.0), 4) for _ in range(3))
    helix = f"circular_helix({c1})"
    for i, curve in enumerate([helix, "parabola"], start=1):
        cmds.append(Command(
            "count-distances",
            ["count-distances", "--curve", curve, "--scheme", f"rand:{sid(i)}:3000",
             "--mode", "tol:1e-9"],
            partial(checks.check_tol_count, curve=curve, seed=sid(i), n=3000,
                    rel_eps=1e-9)))
    cmds += [
        Command("check-simplicity",
                ["check-simplicity", "--curve", _shear_parabola(rng), "--grid",
                 "1024"],
                partial(checks.check_simplicity, passed=True)),
        Command("check-simplicity",
                ["check-simplicity", "--curve", _line(rng), "--grid", "768"],
                partial(checks.check_simplicity, passed=False, failing=(2,))),
    ]
    for curve, tri, step, flexible in [
            (_circle(r1), _triangle(rng, -3.0, -1.5, 0.3), "0.0005", True),
            (f"circular_helix({c2})", _triangle(rng, -5.0, 5.0, 0.3), "0.0005", True),
            ("parabola", _triangle(rng, 0.05, 0.2, 0.1), "0.0001", False)]:
        cmds.append(Command(
            "trace-motion",
            ["trace-motion", "--curve", curve, f"--triangle={tri}", "--step", step,
             "--steps", "2000"],
            partial(checks.check_motion, steps=2000, flexible=flexible)))
    for curve, degenerate in [(_circle(r2), True), (_shear_parabola(rng), False)]:
        cmds.append(Command(
            "test-degeneracy",
            ["test-degeneracy", "--curve", curve, "--pairs", "16",
             "--tau-grid", "4096", "--tol", "1e-8"],
            partial(checks.check_degeneracy, degenerate=degenerate, tau_grid=4096)))
    a, b = round(rng.uniform(1.5, 3.0), 3), round(rng.uniform(0.5, 1.2), 3)
    # order 2: at order 3 the finite differences fail on large circles and
    # eccentric ellipses (see README.md); the README command keeps order 4
    for curve, helix_ok, algebraic in [
            (f"circular_helix({c3})", True, False),
            (_circle(r3), True, True),
            (_shear_parabola(rng), False, None),
            (f"ellipse({a},{b})", False, None)]:
        cmds.append(Command(
            "classify-curve",
            ["classify-curve", "--curve", curve, "--max-order", "2"],
            partial(checks.check_classify, helix=helix_ok, algebraic=algebraic)))
    return cmds


WORKLOADS = {"elekes": elekes, "exact-count": exact_count,
             "float-geometry": float_geometry}
