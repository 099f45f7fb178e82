"""Finite motion tracing, derivative-norm profiling and helix detection.

Motions are traced by per-step Newton constraint propagation along a BFS
tree of the framework (no ODE integration, so no integrator drift): the
driver vertex advances, every other vertex is re-solved on its defining
edge, and all remaining edges are drift monitors.  Zero drift on the
monitors witnesses local smooth flexibility.  Each step is a secant
predictor with at least one Newton correction (Allgower and Georg,
*Introduction to Numerical Continuation Methods*, ch. 2), and each vertex's
point is evaluated once per step, read from the curve's float_jet without
numpy's per-call cost.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .curves import CurveSpec, HelixCurve, arc_length_reparametrize
from .errors import DisconnectedFramework, DomainError, DomainExit
from .quantity import QuantitySpec, pairing
from .rigidity import Framework, triangle


def _rel(x: float, ref: float) -> float:
    return abs(x) / max(1.0, abs(ref))


@dataclass
class MotionTrace:
    driver: int
    step_grid: list
    paths: list
    edge_targets: dict
    defining_edges: dict
    monitored_edges: list
    drift_per_edge: dict
    max_drift: float
    newton_iterations: int
    newton_failures: int
    aborted: bool = False
    abort_reason: str = ""

    @property
    def steps_completed(self) -> int:
        return len(self.step_grid) - 1

    def to_dict(self) -> dict:
        return {"driver": self.driver,
                "steps_completed": self.steps_completed,
                "max_drift": self.max_drift,
                "drift_per_edge": {f"{u}-{w}": v for (u, w), v
                                   in sorted(self.drift_per_edge.items())},
                "edge_targets": {f"{u}-{w}": v for (u, w), v
                                 in sorted(self.edge_targets.items())},
                "newton_iterations": self.newton_iterations,
                "newton_failures": self.newton_failures,
                "aborted": self.aborted, "abort_reason": self.abort_reason,
                "final_params": [p[-1] for p in self.paths]}


def _bfs_tree(fw: Framework, driver: int):
    adj: dict = {v: [] for v in range(fw.vertex_count)}
    for u, w in fw.edges:
        adj[u].append(w)
        adj[w].append(u)
    for v in adj:
        adj[v].sort()
    parent = {driver: None}
    order = [driver]
    queue = deque([driver])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
                queue.append(w)
    if len(order) != fw.vertex_count:
        missing = sorted(set(range(fw.vertex_count)) - set(order))
        raise DisconnectedFramework(f"vertices {missing} unreachable "
                                    f"from driver {driver}")
    return order, parent


_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 60
_MAX_HALVINGS = 10  # step halvings before a trace aborts


def _solve_edge(curve, quantity, pa, seed: float, target: float):
    """Newton solve of D(pa, gamma(x)) = target in x, pa the anchor's point.
    Returns (x, gamma(x), iterations), or (None, None, iterations) on
    failure.  A solve is accepted only after at least one Newton update, so
    a seed that already meets the tolerance is still corrected once."""
    x = seed
    for it in range(1, _NEWTON_MAX_ITER + 1):
        try:
            px, vx = curve.float_jet(x, 1)
        except DomainError:
            return None, None, it
        g = float(quantity.eval(pa, px)) - target
        if it > 1 and _rel(g, target) <= _NEWTON_TOL:
            return x, px, it
        dg = float(pairing(quantity, pa, None, px, vx)[1])
        if abs(dg) < 1e-300:
            return None, None, it
        x = x - g / dg
    return None, None, _NEWTON_MAX_ITER


def trace_framework_motion(fw: Framework, driver: int = 0,
                           delta: float = 0.005, steps: int = 100) -> MotionTrace:
    """Propagate one vertex's motion through the framework.

    Per trial step h the driver advances by h and each remaining vertex v is
    Newton solved on its BFS defining edge, seeded by the secant predictor
    x_v + r_v h: r_v is v's last accepted increment divided by the driver's
    (0 before the first accepted step), and a predicted seed outside the
    domain falls back to x_v.  Each vertex's point gamma(x_v) is evaluated
    once per trial: the driver's directly, every other one by its own solve,
    and the child solves and the drift monitors read those points.  The drift
    of every non-defining edge against its initial value is recorded.
    Newton failures trigger step halving (up to _MAX_HALVINGS), after which
    the trace aborts and is returned partially with aborted=True.  The
    driver leaving the domain raises DomainExit.
    """
    if not (0 <= driver < fw.vertex_count):
        raise ValueError(f"driver index {driver} out of range")
    order, parent = _bfs_tree(fw, driver)
    domain = fw.curve.domain
    jet = fw.curve.float_jet

    def edge_value(pts, e):
        return float(fw.quantity.eval(pts[e[0]], pts[e[1]]))

    cur = [float(t) for t in fw.params]
    cur_pts = [jet(t, 0)[0] for t in cur]
    edge_targets = {e: edge_value(cur_pts, e) for e in fw.edges}
    defining = {v: (min(v, parent[v]), max(v, parent[v]))
                for v in order if parent[v] is not None}
    monitored = [e for e in fw.edges if e not in set(defining.values())]

    paths = [[c] for c in cur]
    step_grid = [cur[driver]]
    drift = {e: 0.0 for e in monitored}
    rates = [0.0] * fw.vertex_count
    total_iters = 0
    failures = 0
    aborted = False
    reason = ""

    def propagate(state, h):
        nonlocal total_iters
        new = list(state)
        new[driver] = state[driver] + h
        if not domain.contains(new[driver]):
            return None
        pts = [None] * len(state)
        pts[driver] = jet(new[driver], 0)[0]
        for v in order[1:]:
            seed = state[v] + rates[v] * h
            if not domain.contains(seed):
                seed = state[v]
            x, px, iters = _solve_edge(fw.curve, fw.quantity, pts[parent[v]],
                                       seed, edge_targets[defining[v]])
            total_iters += iters
            if x is None:  # a returned x passed float_jet's domain check
                return None
            new[v], pts[v] = x, px
        if any(abs(a - b) < 1e-12 for i, a in enumerate(new)
               for b in new[i + 1:]):
            return None  # vertex collision: topology change, abort
        return new, pts

    for _ in range(steps):
        if not domain.contains(cur[driver] + delta):
            raise DomainExit(
                f"driver parameter {cur[driver] + delta} leaves the domain")
        remaining = delta
        h = delta
        halvings = 0
        stepped = True
        while abs(remaining) > 1e-16 * max(1.0, abs(delta)):
            advanced = math.copysign(min(abs(h), abs(remaining)), delta)
            trial = propagate(cur, advanced)
            if trial is None:
                failures += 1
                halvings += 1
                h = h / 2
                if halvings > _MAX_HALVINGS:
                    aborted, reason, stepped = True, "newton divergence", False
                    break
                continue
            rates = [(b - a) / advanced for a, b in zip(cur, trial[0])]
            cur, cur_pts = trial
            remaining -= advanced
        if not stepped:
            break
        step_grid.append(cur[driver])
        for v, p in enumerate(paths):
            p.append(cur[v])
        for e in monitored:
            val = edge_value(cur_pts, e)
            drift[e] = max(drift[e], _rel(val - edge_targets[e],
                                          edge_targets[e]))

    return MotionTrace(
        driver=driver, step_grid=step_grid, paths=paths,
        edge_targets=edge_targets, defining_edges=defining,
        monitored_edges=monitored, drift_per_edge=drift,
        max_drift=max(drift.values()) if drift else 0.0,
        newton_iterations=total_iters, newton_failures=failures,
        aborted=aborted, abort_reason=reason)


def trace_triangle_motion(curve: CurveSpec, quantity: QuantitySpec,
                          initial, delta: float = 0.005,
                          steps: int = 100) -> MotionTrace:
    """Triangle trace preserving D(alpha, tau) and D(alpha, beta) while
    monitoring D(tau, beta); vertices are (alpha, tau, beta), driver alpha.

    Zero drift on the monitored edge witnesses local smooth flexibility;
    nonzero drift is conclusive local rigidity evidence at the step scale.
    """
    a0, t0, b0 = initial
    fw = triangle(curve, quantity, a0, t0, b0)
    return trace_framework_motion(fw, driver=0, delta=delta, steps=steps)


# -- derivative-norm profiles -------------------------------------------------


@dataclass
class DerivativeNormProfile:
    """||sigma^(k)(s)|| over samples of the unit-speed reparametrization."""

    orders: list
    samples: list
    norms: list           # norms[k-1][i] for order k at sample i
    variations: list      # per-order relative variation
    helix_candidate: bool
    arc_length: float

    def to_dict(self) -> dict:
        return asdict(self)


_HELIX_VARIATION_TOL = 1e-4


def derivative_norm_profile(curve: CurveSpec, max_order: int = 3,
                            samples: int = 24) -> DerivativeNormProfile:
    """Norms of sigma^(k) on the arc-length curve, from its exact jets.

    Order 1 is the unit-speed check and must come out 1.  The
    helix-candidate flag is set when every order-2..K variation stays below
    1e-4 (constant-norm derivatives characterize generalized helices).
    Raises JetOrderError when the curve cannot supply jets of order K.
    """
    if not 1 <= max_order <= 5:
        raise ValueError("max_order must be in 1..5")
    sigma = arc_length_reparametrize(curve)
    L = sigma.total_length
    margin = 0.08 * L
    ss = np.linspace(margin, L - margin, samples)
    jets = [sigma.derivative_jet(float(s), max_order) for s in ss]
    norms = [[float(np.linalg.norm(jet[k])) for jet in jets]
             for k in range(1, max_order + 1)]

    variations = [(max(row) - min(row)) / max(max(row), 1e-6) for row in norms]
    helix = all(v < _HELIX_VARIATION_TOL for v in variations[1:])
    return DerivativeNormProfile(
        orders=list(range(1, max_order + 1)), samples=[float(s) for s in ss],
        norms=norms, variations=variations, helix_candidate=helix,
        arc_length=L)


# -- algebraic-helix classification -------------------------------------------


@dataclass(frozen=True)
class RatioCertificate:
    index: int
    ratio: float
    numerator: Optional[int]
    denominator: Optional[int]
    ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class HelixClassification:
    is_generalized: bool
    is_algebraic: bool
    ratio_certificates: list

    def to_dict(self) -> dict:
        return asdict(self)


def _reconstruct_rational(value: float, max_den: int, tol: float):
    """First continued-fraction convergent p/q with q <= max_den matching
    value to relative tolerance tol; exact Fraction arithmetic throughout."""
    target = Fraction(value)
    bound = abs(target) * Fraction(tol) if target else Fraction(tol)
    x = target
    h_prev, h_cur = 1, int(math.floor(x))
    k_prev, k_cur = 0, 1
    x -= h_cur
    while True:
        if k_cur <= max_den and abs(target - Fraction(h_cur, k_cur)) <= bound:
            return h_cur, k_cur
        if x == 0 or k_cur > max_den:
            return None
        x = 1 / x
        a = int(math.floor(x))
        x -= a
        h_prev, h_cur = h_cur, a * h_cur + h_prev
        k_prev, k_cur = k_cur, a * k_cur + k_prev


def classify_helix(curve: HelixCurve, denominator_bound: int = 10 ** 6,
                   tol: float = 1e-12) -> HelixClassification:
    """Algebraic-helix test: k = 0 (a line), or no drift and every frequency
    ratio lambda_i / lambda_1 admits a bounded-denominator rational
    reconstruction by continued fractions."""
    if denominator_bound < 2:
        raise ValueError("denominator bound must be >= 2")
    drift_present = any(w != 0 for w in curve.drift)
    if curve.k == 0:
        return HelixClassification(True, True, [])
    if drift_present:
        return HelixClassification(True, False, [])
    certs = []
    base = curve.frequencies[0]
    for i, lam in enumerate(curve.frequencies[1:], start=1):
        ratio = lam / base
        rec = _reconstruct_rational(ratio, denominator_bound, tol)
        if rec is None:
            certs.append(RatioCertificate(i, ratio, None, None, False))
        else:
            certs.append(RatioCertificate(i, ratio, rec[0], rec[1], True))
    return HelixClassification(True, all(c.ok for c in certs), certs)
