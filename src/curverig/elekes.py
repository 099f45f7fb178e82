"""Elekes curves t -> (D(gamma(t), p), D(gamma(t), q)) and their analysis.

For rational base curves with rational data the two components are cached
as univariate rational functions and the curve is implicitized exactly as
a Sylvester resultant; intersection counting is numerical (grid seeds plus
Newton refinement) and reports a lower-bound estimate of the true count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bipoly import BiPoly, square_free_part, sylvester_resultant
from .counting import ParamPointSet
from .curves import CurveSpec, is_exact_data
from .errors import DegenerateParametrization
from .parallel import parallel_chunked
from .quantity import QuantitySpec, pairings, quantity_degree
from .rational import RationalFunction, is_exact


def _clear_denominators(rf: RationalFunction) -> tuple[list[int], list[int]]:
    denoms = [c.denominator for c in rf.num.coeffs] + \
             [c.denominator for c in rf.den.coeffs]
    L = 1
    for d in denoms:
        L = L * d // math.gcd(L, d)
    num = [int(c * L) for c in rf.num.coeffs]
    den = [int(c * L) for c in rf.den.coeffs]
    return num, den


def implicitize_rational(x: RationalFunction, y: RationalFunction) -> BiPoly:
    """G(X, Y) = Res_t(g1(t) X - f1(t), g2(t) Y - f2(t)), square-free part.

    Computed by fraction-free Bareiss elimination of the Sylvester matrix
    over big integers after clearing denominators, and normalized.  Raises
    DegenerateParametrization when the resultant is zero or constant.
    """
    if x.is_constant() and y.is_constant():
        raise DegenerateParametrization("both coordinates are constant")
    f1, g1 = _clear_denominators(x)
    f2, g2 = _clear_denominators(y)
    n1 = max(len(f1), len(g1)) - 1
    n2 = max(len(f2), len(g2)) - 1

    def coeff(fs, gs, var, k):
        terms = {}
        if k < len(gs) and gs[k]:
            terms[(1, 0) if var == "x" else (0, 1)] = gs[k]
        if k < len(fs) and fs[k]:
            terms[(0, 0)] = -fs[k]
        return BiPoly(terms)

    p = [coeff(f1, g1, "x", k) for k in range(n1 + 1)]
    q = [coeff(f2, g2, "y", k) for k in range(n2 + 1)]
    res = sylvester_resultant(p, q)
    if res.is_zero():
        raise DegenerateParametrization("resultant vanishes identically")
    G = square_free_part(res)
    if G.is_constant():
        raise DegenerateParametrization("resultant has no curve factor")
    return G


def implicit_to_dict(G: BiPoly) -> dict:
    """Report form of an implicit polynomial: its total degree and its
    integer coefficients as [i, j, "c"] rows, sorted by (i, j)."""
    return {"degree": G.total_degree(),
            "coeffs": [[i, j, str(c)] for (i, j), c in sorted(G.terms.items())]}


class ElekesCurve:
    """Plane curve traced by t -> (D(gamma(t), gamma(a)), D(gamma(t), gamma(b)))."""

    def __init__(self, curve: CurveSpec, quantity: QuantitySpec,
                 p_param, q_param):
        if p_param == q_param:
            raise ValueError("Elekes curve needs two distinct base parameters")
        curve.domain.require(p_param)
        curve.domain.require(q_param)
        self.curve = curve
        self.quantity = quantity
        self.p_param = p_param
        self.q_param = q_param
        self._components: Optional[tuple] = None
        self._base_points: Optional[tuple] = None
        self._implicit: Optional[BiPoly] = None

    def __repr__(self):
        return f"ElekesCurve(p={self.p_param}, q={self.q_param})"

    def pair(self) -> tuple:
        return (self.p_param, self.q_param)

    def is_exactable(self) -> bool:
        return is_exact_data(self.curve, self.pair(), self.quantity)

    def components(self) -> tuple[RationalFunction, RationalFunction]:
        """Cached rational components (A(t), B(t)); exact path only."""
        if self._components is None:
            if not self.is_exactable():
                raise DegenerateParametrization(
                    "rational components need a rational curve and exact data")
            A, B = (self.quantity.eval(self.curve.coords, self.curve.evaluate(t))
                    for t in self.pair())
            if not all(isinstance(c, RationalFunction) for c in (A, B)):
                raise DegenerateParametrization("D does not depend on gamma(t)")
            self._components = (A, B)
        return self._components

    def implicit(self) -> BiPoly:
        if self._implicit is None:
            A, B = self.components()
            self._implicit = implicitize_rational(A, B)
        return self._implicit

    def degree_bound(self) -> int:
        """deg D * deg gamma; deg D * 2 when gamma has no algebraic degree."""
        dg = self.curve.degree if self.curve.degree else 2
        return quantity_degree(self.quantity) * dg

    def eval(self, t):
        """xi(t) as a 2-tuple: the cached components (A(t), B(t)) on exact
        data with an exact t, else D at gamma(t) and the two base points."""
        if is_exact(t) and self.is_exactable():
            self.curve.domain.require(t)
            return tuple(c(t) for c in self.components())
        x = self.curve.evaluate(t)
        p = self.curve.evaluate(self.p_param)
        q = self.curve.evaluate(self.q_param)
        return (self.quantity.eval(x, p), self.quantity.eval(x, q))

    def base_points(self) -> tuple[np.ndarray, np.ndarray]:
        """gamma(p) and gamma(q), evaluated once and rounded to float."""
        if self._base_points is None:
            self._base_points = tuple(
                np.array([float(c) for c in self.curve.evaluate(t)])
                for t in (self.p_param, self.q_param))
        return self._base_points

    def eval_batch(self, ts: np.ndarray) -> np.ndarray:
        """xi over a float parameter array, shape (len(ts), 2)."""
        X = self.curve.evaluate_array(np.asarray(ts, dtype=float))
        return np.stack([self.quantity.eval_batch(X, b)
                         for b in self.base_points()], axis=-1)

    def tangent_batch(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(xi(t), xi'(t)) over a float array, each shape (len(ts), 2), with
        xi'(t) = gamma'(t) . D_X(gamma(t), p_or_q); xi is eval_batch's."""
        ts = np.asarray(ts, dtype=float)
        X = self.curve.evaluate_array(ts)
        V = self.curve.derivative_array(ts, 1)
        D, T = zip(*(pairings(self.quantity, X, V, b, None)[:2]
                     for b in self.base_points()))
        return np.stack(D, axis=-1), np.stack(T, axis=-1)


def same_algebraic_curve(e1: ElekesCurve, e2: ElekesCurve,
                         tol: float = 1e-9) -> tuple[bool, str]:
    """Dichotomy test: exact square-free implicit comparison when both
    sides are rational, else a flagged floating value-agreement fingerprint."""
    if e1.is_exactable() and e2.is_exactable():
        return e1.implicit() == e2.implicit(), "exact"
    m = 2 * max(e1.degree_bound(), e2.degree_bound()) + 1
    probes = e2.eval_batch(e2.curve.domain.uniform_grid(m))
    dense_ts = e1.curve.domain.uniform_grid(4096)
    dense = e1.eval_batch(dense_ts)
    scale = max(1.0, float(np.max(np.abs(dense))), float(np.max(np.abs(probes))))
    lo, hi = float(e1.curve.domain.lo), float(e1.curve.domain.hi)
    pad = 1e-12 * (hi - lo)
    for pt in probes:
        d2 = np.sum((dense - pt) ** 2, axis=-1)
        t = float(dense_ts[int(np.argmin(d2))])
        for _ in range(60):  # Gauss-Newton projection onto the image
            xi, g = e1.tangent_batch(np.array([t]))
            r, g = xi[0] - pt, g[0]
            gg = float(g @ g)
            if gg < 1e-300:
                break
            t = min(max(t - float(g @ r) / gg, lo + pad), hi - pad)
        best = float(np.linalg.norm(e1.eval_batch(np.array([t]))[0] - pt))
        if best > tol * scale:
            return False, "fingerprint"
    return True, "fingerprint"


@dataclass
class IntersectionReport:
    points: list
    same_algebraic_curve: bool
    detection_method: str
    n_seeds: int = 0
    n_converged: int = 0
    n_unconverged: int = 0

    @property
    def count(self) -> int:
        return len(self.points)


def intersect_elekes_pair(e1: ElekesCurve, e2: ElekesCurve, n: int = 64,
                          tol: float = 1e-5) -> IntersectionReport:
    """Solve xi1(t) = xi2(s) from an n x n seed grid with Newton refinement.

    Only machine-converged solutions are kept and image points within
    tol * scale are merged, so tangential intersections collapse to one
    point; the reported count is a lower-bound estimate of the true number
    of intersections.  same_algebraic_curve short-circuits the search.
    """
    if e1.pair() == e2.pair() and e1.curve is e2.curve:
        raise ValueError("intersection needs two distinct Elekes curves")
    same, method = same_algebraic_curve(e1, e2)
    if same:
        return IntersectionReport([], True, method)

    t0 = e1.curve.domain.uniform_grid(n)
    s0 = e2.curve.domain.uniform_grid(n)
    T, S = [a.ravel() for a in np.meshgrid(t0, s0)]
    lo1, hi1 = float(e1.curve.domain.lo), float(e1.curve.domain.hi)
    lo2, hi2 = float(e2.curve.domain.lo), float(e2.curve.domain.hi)
    scale = max(1.0, float(np.max(np.abs(e1.eval_batch(t0)))),
                float(np.max(np.abs(e2.eval_batch(s0)))))

    t, s = T.copy(), S.copy()
    for _ in range(40):
        xi1, J1 = e1.tangent_batch(t)
        xi2, J2 = e2.tangent_batch(s)
        F = xi1 - xi2
        det = -J1[:, 0] * J2[:, 1] + J1[:, 1] * J2[:, 0]
        ok = np.abs(det) > 1e-300
        safe = np.where(ok, det, 1.0)
        dt = np.where(ok, (-J2[:, 1] * F[:, 0] + J2[:, 0] * F[:, 1]) / safe, 0.0)
        ds = np.where(ok, (-J1[:, 1] * F[:, 0] + J1[:, 0] * F[:, 1]) / safe, 0.0)
        step = np.maximum(np.abs(dt), np.abs(ds))
        clip = np.minimum(1.0, 0.1 * max(hi1 - lo1, hi2 - lo2)
                          / np.maximum(step, 1e-300))
        t = np.clip(t - clip * dt, lo1, hi1)
        s = np.clip(s - clip * ds, lo2, hi2)

    F = e1.eval_batch(t) - e2.eval_batch(s)
    resid = np.linalg.norm(F, axis=-1)
    inside = ((t > lo1) & (t < hi1) & (s > lo2) & (s < hi2))
    good = inside & (resid <= 1e-12 * scale)
    n_conv = int(np.count_nonzero(good))

    pts = e1.eval_batch(t[good])
    dedup: list = []
    img_tol = max(tol * scale, 1e-12 * scale)
    for x, y in sorted(map(tuple, pts)):
        if all((x - a) ** 2 + (y - b) ** 2 > img_tol ** 2 for a, b in dedup):
            dedup.append((float(x), float(y)))
    return IntersectionReport(points=dedup, same_algebraic_curve=False,
                              detection_method=method, n_seeds=len(T),
                              n_converged=n_conv,
                              n_unconverged=len(T) - n_conv)


@dataclass
class IncidenceReport:
    checked: int
    failures: list
    incident_counts: dict = field(default_factory=dict)

    @property
    def min_incident(self):
        return min(self.incident_counts.values()) if self.incident_counts else 0

    @property
    def max_incident(self):
        return max(self.incident_counts.values()) if self.incident_counts else 0

    def to_dict(self) -> dict:
        return {"checked": self.checked, "n_failures": len(self.failures),
                "failures": [repr(f) for f in self.failures[:16]],
                "min_incident": self.min_incident,
                "max_incident": self.max_incident}


def verify_incidence_invariant(pset: ParamPointSet, q: QuantitySpec) -> IncidenceReport:
    """Check xi_pq(r) = (D(r, p), D(r, q)) for every ordered pair and every
    third point r, and count the distinct product points on each Elekes
    curve.  On exact data xi_pq(r) comes from its symbolic components, so a
    wrong component fails; on other data (helix, float parameters) both
    sides evaluate D at the same points, and the check compares D with
    itself."""
    params = pset.params
    n = len(params)
    if n < 3:
        raise ValueError("incidence check needs at least 3 points")
    curve, checked, failures = pset.curve, 0, []
    incident = {}
    points = {t: curve.evaluate(t) for t in params}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            e = ElekesCurve(curve, q, params[i], params[j])
            hits = set()
            for r in range(n):
                if r == i or r == j:
                    continue
                checked += 1
                via_curve = e.eval(params[r])
                direct = (q.eval(points[params[r]], points[params[i]]),
                          q.eval(points[params[r]], points[params[j]]))
                if via_curve != direct:
                    failures.append((i, j, r, via_curve, direct))
                hits.add(direct)
            incident[(i, j)] = len(hits)
    return IncidenceReport(checked=checked, failures=failures,
                           incident_counts=incident)


@dataclass
class AdmissibilityReport:
    pairs_checked: int
    max_pairwise_intersections: int
    histogram: dict
    duplicate_curve_classes: list
    n_curves: int
    n_classes: int
    detection_method: str
    class_implicits: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"pairs_checked": self.pairs_checked,
                "max_pairwise_intersections": self.max_pairwise_intersections,
                "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
                "duplicate_curve_classes":
                    [[list(map(repr, p)) for p in cls]
                     for cls in self.duplicate_curve_classes],
                "class_implicits": [implicit_to_dict(g) for g in self.class_implicits],
                "n_curves": self.n_curves, "n_classes": self.n_classes,
                "detection_method": self.detection_method}


def _unrank_pair(k: int, n: int) -> tuple[int, int]:
    """The k-th pair of itertools.combinations(range(n), 2), without
    building the list."""
    i = n - 2 - (math.isqrt(4 * n * (n - 1) - 8 * k - 7) - 1) // 2
    return i, k + i + 1 - n * (n - 1) // 2 + (n - i) * (n - i - 1) // 2


def admissibility_scan(pset: ParamPointSet, q: QuantitySpec, sample_pairs: int,
                       n: int = 64, tol: float = 1e-5, seed: int = 0,
                       threads: int = 1) -> AdmissibilityReport:
    """Empirical admissibility of the Elekes family of a point set.

    Groups curves sharing one algebraic curve (exact implicit equality when
    available, else a flagged fingerprint over the sampled pairs), then runs
    the numeric intersector over `sample_pairs` sampled unordered pairs of
    curves from distinct classes and histograms the counts.
    """
    params = pset.params
    curves = [ElekesCurve(pset.curve, q, a, b)
              for a in params for b in params if a != b]
    exact = is_exact_data(pset.curve, params, q)

    if exact:
        by_implicit: dict = {}
        for c in curves:
            by_implicit.setdefault(c.implicit(), []).append(c.pair())
        classes = list(by_implicit.values())
        dup_implicits = [G for G, cls in by_implicit.items() if len(cls) > 1]
        method = "exact"
    else:
        classes = [[c.pair()] for c in curves]  # refined below from samples
        dup_implicits = []
        method = "fingerprint"

    if sample_pairs <= 0:
        dup = [cls for cls in classes if len(cls) > 1]
        return AdmissibilityReport(0, 0, {}, dup, len(curves), len(classes),
                                   method, dup_implicits)

    n_pairs = len(curves) * (len(curves) - 1) // 2
    rng = random.Random(seed)
    take = min(sample_pairs, n_pairs)
    chosen = sorted(rng.sample(range(n_pairs), take))

    class_of = {}
    for ci, cls in enumerate(classes):
        for pair in cls:
            class_of[pair] = ci

    def worker(a, b):
        out = []
        for k in chosen[a:b]:
            i, j = _unrank_pair(k, len(curves))
            e1, e2 = curves[i], curves[j]
            if exact and class_of[e1.pair()] == class_of[e2.pair()]:
                out.append(("same", e1.pair(), e2.pair()))
                continue
            rep = intersect_elekes_pair(e1, e2, n=n, tol=tol)
            if rep.same_algebraic_curve:
                out.append(("same", e1.pair(), e2.pair()))
            else:
                out.append(("count", rep.count))
        return out

    results = parallel_chunked(worker, len(chosen), threads=threads,
                               chunk_size=8)

    histogram: dict = {}
    max_int = 0
    merged: list = []
    for item in results:
        if item[0] == "count":
            histogram[item[1]] = histogram.get(item[1], 0) + 1
            max_int = max(max_int, item[1])
        else:
            merged.append((item[1], item[2]))

    if not exact and merged:
        # union-find on fingerprint-coincident sampled pairs
        parent = {c.pair(): c.pair() for c in curves}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in merged:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups: dict = {}
        for c in curves:
            groups.setdefault(find(c.pair()), []).append(c.pair())
        classes = list(groups.values())

    dup = [sorted(cls) for cls in classes if len(cls) > 1]
    return AdmissibilityReport(
        pairs_checked=take, max_pairwise_intersections=max_int,
        histogram=histogram, duplicate_curve_classes=dup,
        n_curves=len(curves), n_classes=len(classes), detection_method=method,
        class_implicits=dup_implicits)
