"""Parametrized curves in R^d: rational, helix and black-box analytic.

A curve carries an open domain interval, supports point evaluation and
derivative jets, and can be reparametrized by arc length.  RationalCurve
evaluation is exact at rational parameters; HelixCurve jets are closed-form
trigonometric; AnalyticCurve delegates to a user evaluator whose supported
jet order is part of its contract.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DomainError, JetOrderError, PoleError,
                     SingularParametrization)
from .quantity import pairings, quantity_is_rational
from .rational import (NEG_INF, POS_INF, Poly, RationalFunction, as_fraction,
                       count_real_roots, is_exact)


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi); endpoints rational or +-inf."""

    lo: object
    hi: object

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not (lo == NEG_INF or is_exact(lo) or isinstance(lo, float)):
            raise ValueError(f"bad interval endpoint {lo!r}")
        if not (hi == POS_INF or is_exact(hi) or isinstance(hi, float)):
            raise ValueError(f"bad interval endpoint {hi!r}")
        if not lo < hi:
            raise ValueError(f"empty interval ({lo}, {hi})")

    def contains(self, t) -> bool:
        return self.lo < t < self.hi

    def is_finite(self) -> bool:
        return self.lo != NEG_INF and self.hi != POS_INF

    def require(self, t):
        if not self.contains(t):
            raise DomainError(f"parameter {t} outside open domain "
                              f"({self.lo}, {self.hi})")

    def span(self) -> float:
        return float(self.hi) - float(self.lo)

    def uniform_grid(self, n: int) -> np.ndarray:
        """n interior points, half-step inset from both endpoints."""
        if not self.is_finite():
            raise DomainError("finite domain required for grid sampling")
        lo, hi = float(self.lo), float(self.hi)
        return lo + (hi - lo) * (np.arange(n) + 0.5) / n

    def chebyshev_grid(self, n: int) -> np.ndarray:
        """n interior Chebyshev nodes (all strictly inside the interval)."""
        if not self.is_finite():
            raise DomainError("finite domain required for grid sampling")
        lo, hi = float(self.lo), float(self.hi)
        k = np.arange(n)
        x = np.cos((2 * k + 1) * np.pi / (2 * n))[::-1]
        return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x


def _endpoint_from_json(v):
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("-inf", "-infinity"):
            return NEG_INF
        if s in ("inf", "+inf", "infinity"):
            return POS_INF
        return as_fraction(v)
    if isinstance(v, (int, float)):
        return v if isinstance(v, float) and not math.isfinite(v) else as_fraction(v)
    raise ValueError(f"bad domain endpoint {v!r}")


class RationalCurve:
    """Curve with reduced rational-function coordinates over Q.

    Every coefficient is a Fraction (Poly converts floats exactly), and
    every denominator is certified root-free on the domain by Sturm
    real-root counting.
    """

    def __init__(self, coords: Sequence[RationalFunction], domain: Interval):
        self.coords = tuple(coords)
        self.domain = domain
        self.dimension = len(self.coords)
        if self.dimension < 1:
            raise ValueError("curve needs at least one coordinate")
        for rf in self.coords:
            self._certify_denominator(rf.den, domain)
        self.degree = max(rf.degree for rf in self.coords)
        self._jets = [list(self.coords)]  # order -> coordinate derivatives
        self._float_jets: list = []  # order -> [(num, den)] polyval arrays

    @staticmethod
    def _certify_denominator(den: Poly, domain: Interval):
        if den.is_constant():
            return
        # Float endpoints embed exactly into Q, so Sturm certification
        # applies to every constructible instance.
        lo = domain.lo if domain.lo == NEG_INF else as_fraction(domain.lo)
        hi = domain.hi if domain.hi == POS_INF else as_fraction(domain.hi)
        if count_real_roots(den, lo, hi) > 0:
            raise PoleError(
                f"denominator {den!r} has a root inside ({domain.lo}, {domain.hi})")

    def _derivatives(self, order: int):
        while len(self._jets) <= order:
            self._jets.append([rf.derivative() for rf in self._jets[-1]])
        return self._jets[order]

    def evaluate(self, t):
        """Point gamma(t); tuple of Fractions when t is rational."""
        self.domain.require(t)
        if is_exact(t):
            return tuple(rf(t) for rf in self.coords)
        tf = float(t)
        return np.array([rf(tf) for rf in self.coords])

    def derivative_jet(self, t, order: int):
        """[gamma(t), gamma'(t), ..., gamma^(order)(t)], exact on rationals."""
        self.domain.require(t)
        if order < 0:
            raise ValueError("jet order must be >= 0")
        self._derivatives(order)
        if is_exact(t):
            return [tuple(rf(t) for rf in self._jets[k]) for k in range(order + 1)]
        tf = float(t)
        return [np.array([rf(tf) for rf in self._jets[k]])
                for k in range(order + 1)]

    def evaluate_array(self, ts: np.ndarray) -> np.ndarray:
        return self.derivative_array(ts, 0)

    def derivative_array(self, ts: np.ndarray, order: int) -> np.ndarray:
        """Vectorized order-th derivative values, shape (len(ts), d)."""
        ts = np.asarray(ts, dtype=float)
        while len(self._float_jets) <= order:
            self._float_jets.append(
                [(np.array(rf.num.float_coeffs()[::-1] or [0.0]),
                  np.array(rf.den.float_coeffs()[::-1]))
                 for rf in self._derivatives(len(self._float_jets))])
        return np.stack([np.polyval(num, ts) / np.polyval(den, ts)
                         for num, den in self._float_jets[order]], axis=-1)


class HelixCurve:
    """Generalized helix (a1 cos l1 t, a1 sin l1 t, ..., t*w, 0-padding)."""

    def __init__(self, radii: Sequence[float], frequencies: Sequence[float],
                 drift: Sequence[float] = (), dimension: Optional[int] = None,
                 domain: Interval = Interval(-1000, 1000)):
        self.radii = tuple(float(a) for a in radii)
        self.frequencies = tuple(float(f) for f in frequencies)
        self.drift = tuple(float(w) for w in drift)
        if len(self.radii) != len(self.frequencies):
            raise ValueError("radii and frequencies must have equal length")
        if any(a <= 0 for a in self.radii):
            raise ValueError("radii must be positive")
        if any(f == 0 for f in self.frequencies):
            raise ValueError("frequencies must be nonzero")
        self.k = len(self.radii)
        self.l = len(self.drift)
        if (self.k, self.l) == (0, 0):
            raise ValueError("helix needs k > 0 or l > 0")
        min_dim = 2 * self.k + self.l
        self.dimension = min_dim if dimension is None else int(dimension)
        if self.dimension < min_dim:
            raise ValueError(f"dimension {self.dimension} < 2k+l = {min_dim}")
        self.domain = domain
        self.degree = None  # not an algebraic invariant of this type

    def evaluate(self, t):
        self.domain.require(t)
        return self.derivative_array(np.asarray(float(t)), 0)

    def derivative_jet(self, t, order: int):
        self.domain.require(t)
        if order < 0:
            raise ValueError("jet order must be >= 0")
        ts = np.asarray(float(t))
        return [self.derivative_array(ts, j) for j in range(order + 1)]

    def evaluate_array(self, ts: np.ndarray) -> np.ndarray:
        return self.derivative_array(ts, 0)

    def derivative_array(self, ts: np.ndarray, order: int) -> np.ndarray:
        # [()] turns a 0-d array into a numpy scalar, whose arithmetic is
        # several times cheaper; the values are the same
        ts = np.asarray(ts, dtype=float)[()]
        v = np.zeros(ts.shape + (self.dimension,))
        j = order
        for i, (a, lam) in enumerate(zip(self.radii, self.frequencies)):
            ph = lam * ts + j * np.pi / 2
            scale = a * lam ** j
            v[..., 2 * i] = scale * np.cos(ph)
            v[..., 2 * i + 1] = scale * np.sin(ph)
        for i, w in enumerate(self.drift):
            if j == 0:
                v[..., 2 * self.k + i] = ts * w
            elif j == 1:
                v[..., 2 * self.k + i] = w
        return v


class AnalyticCurve:
    """Black-box curve: evaluator(t, order) -> [gamma(t), ..., gamma^(order)(t)].

    The evaluator must be deterministic and singularity-free on the domain;
    max_jet_order (None = unlimited) is part of its contract.
    """

    def __init__(self, dimension: int, evaluator: Callable, domain: Interval,
                 max_jet_order: Optional[int] = None, label: str = "analytic"):
        self.dimension = int(dimension)
        self.evaluator = evaluator
        self.domain = domain
        self.max_jet_order = max_jet_order
        self.label = label
        self.degree = None

    def evaluate(self, t):
        self.domain.require(t)
        return np.asarray(self.evaluator(float(t), 0)[0], dtype=float)

    def derivative_jet(self, t, order: int):
        self.domain.require(t)
        if order < 0:
            raise ValueError("jet order must be >= 0")
        if self.max_jet_order is not None and order > self.max_jet_order:
            raise JetOrderError(
                f"{self.label}: jet order {order} > supported {self.max_jet_order}")
        return [np.asarray(v, dtype=float) for v in self.evaluator(float(t), order)]

    def evaluate_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return np.stack([self.evaluate(float(t)) for t in ts.ravel()]
                        ).reshape(ts.shape + (self.dimension,))

    def derivative_array(self, ts: np.ndarray, order: int) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return np.stack([self.derivative_jet(float(t), order)[order]
                         for t in ts.ravel()]).reshape(ts.shape + (self.dimension,))


CurveSpec = RationalCurve | HelixCurve | AnalyticCurve


def is_exact_data(curve: CurveSpec, params, quantity) -> bool:
    """True when the exact (Fraction) pipelines apply: a rational curve,
    int/Fraction parameters and a D with rational coefficients."""
    return (isinstance(curve, RationalCurve) and all(is_exact(t) for t in params)
            and quantity_is_rational(quantity))


# -- arc-length reparametrization ----------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _gl_integrate_speed(curve, a: float, b: float) -> float:
    ts = 0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES
    sp = np.linalg.norm(curve.derivative_array(ts, 1), axis=-1)
    return 0.5 * (b - a) * float(np.dot(_GL_WEIGHTS, sp))


def _compose(coeffs: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Taylor coefficients of sum_j coeffs[j] h^j, truncated to len(h) terms;
    h is a scalar series with h[0] = 0, coeffs[j] may be vectors."""
    out = np.zeros((len(h),) + coeffs.shape[1:])
    power = np.zeros(len(h))
    power[0] = 1.0
    for c in coeffs:
        out += np.multiply.outer(power, c)
        power = np.convolve(power, h)[:len(h)]
    return out


def _unit_speed_jet(jet) -> list:
    """[sigma, sigma', ..., sigma^(K)] at s(t) from [gamma, ..., gamma^(K)]
    at t, K >= 1, by truncated Taylor arithmetic in h (Griewank-Walther,
    Evaluating Derivatives, 2nd ed.): the speed series
    sqrt<gamma'(t+h), gamma'(t+h)> is integrated to s(h), reverted to h(s)
    and composed into gamma(t + h(s))."""
    K = len(jet) - 1
    fact = np.cumprod([1.0] + list(range(1, K + 1)))
    c = np.array([np.asarray(g, dtype=float) for g in jet]) / fact[:, None]
    d = c[1:] * np.arange(1, K + 1)[:, None]  # gamma'(t+h), degree K-1
    q = [sum(float(d[i] @ d[m - i]) for i in range(m + 1)) for m in range(K)]
    v = np.zeros(K)  # speed series: v*v = q
    v[0] = math.sqrt(q[0])
    for m in range(1, K):
        v[m] = (q[m] - v[1:m] @ v[m - 1:0:-1]) / (2.0 * v[0])
    a = np.concatenate([[0.0], v / np.arange(1, K + 1)])  # s(h)
    h = np.zeros(K + 1)
    h[1] = 1.0 / a[1]
    target = np.zeros(K + 1)
    target[1] = 1.0
    for _ in range(K - 1):  # each pass fixes one more coefficient of h(s)
        h -= (_compose(a, h) - target) / a[1]
    return list(_compose(c, h) * fact[:, None])


def arc_length_reparametrize(curve: CurveSpec, n: int = 64) -> AnalyticCurve:
    """Unit-speed reparametrization sigma on (0, L) built by panelwise
    Gauss-Legendre quadrature of ||gamma'|| plus Newton inversion.

    Requires a finite domain and n >= 16 panels; raises
    SingularParametrization when ||gamma'|| < 1e-12 anywhere on the panel
    node grid.  Jets of sigma come from the curve's own jets by
    _unit_speed_jet, so sigma supports the same jet orders as the curve.
    """
    if n < 16:
        raise ValueError("need n >= 16 quadrature panels")
    if not curve.domain.is_finite():
        raise DomainError("arc-length reparametrization needs a finite domain")
    lo, hi = float(curve.domain.lo), float(curve.domain.hi)
    bounds = np.linspace(lo, hi, n + 1)

    probe = 0.5 * (bounds[:-1] + bounds[1:])
    speeds = np.linalg.norm(curve.derivative_array(probe, 1), axis=-1)
    if np.min(speeds) < 1e-12:
        t_bad = float(probe[int(np.argmin(speeds))])
        raise SingularParametrization(
            f"||gamma'|| = {np.min(speeds):.3e} at t = {t_bad}")

    cumulative = np.zeros(n + 1)
    for i in range(n):
        cumulative[i + 1] = cumulative[i] + _gl_integrate_speed(
            curve, bounds[i], bounds[i + 1])
    total = float(cumulative[-1])

    def arc_length_at(t: float) -> float:
        i = int(np.clip(np.searchsorted(bounds, t) - 1, 0, n - 1))
        return float(cumulative[i]) + _gl_integrate_speed(curve, float(bounds[i]), t)

    eps = 1e-13 * max(1.0, total)

    def invert(s: float) -> float:
        t = float(np.interp(s, cumulative, bounds))
        t = min(max(t, lo + 1e-15 * (hi - lo)), hi - 1e-15 * (hi - lo))
        for _ in range(80):
            err = arc_length_at(t) - s
            if abs(err) <= eps:
                break
            v = float(np.linalg.norm(curve.derivative_jet(t, 1)[1]))
            t = min(max(t - err / v, lo + 1e-15 * (hi - lo)),
                    hi - 1e-15 * (hi - lo))
        return t

    def evaluator(s: float, order: int):
        jet = curve.derivative_jet(invert(s), max(order, 1))
        return _unit_speed_jet(jet)[:order + 1]

    sigma = AnalyticCurve(curve.dimension, evaluator, Interval(0.0, total),
                          max_jet_order=getattr(curve, "max_jet_order", None),
                          label="arc-length")
    sigma.total_length = total
    sigma.parameter_of_arc_length = invert
    return sigma


# -- simplicity checking --------------------------------------------------


@dataclass
class ConditionResult:
    index: int
    name: str
    passed: bool
    witness: Optional[tuple] = None
    detail: str = ""


@dataclass
class SimplicityReport:
    """Outcome of the five sampled regularity conditions.

    A PASS is sampling evidence, not a proof; a FAIL with witness is
    conclusive up to the tolerance used.
    """

    conditions: list
    grid_size: int
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failures(self) -> list:
        return [c for c in self.conditions if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "grid_size": self.grid_size,
            "tol": self.tol,
            "conditions": [
                {"index": c.index, "name": c.name, "passed": c.passed,
                 "witness": None if c.witness is None else [repr(w) for w in c.witness],
                 "detail": c.detail}
                for c in self.conditions
            ],
        }


def check_simplicity(curve: CurveSpec, quantity, n: int = 256,
                     tol: float = 1e-9) -> SimplicityReport:
    """Sampled verification of the five simple-pair conditions.

    1. gamma injective with nonvanishing gamma' on the grid;
    2. gamma'' not identically zero (fails iff ||gamma''|| < tol everywhere);
    3. distance-polynomial axioms: symmetry, vanishing iff equal parameters;
    4. injectivity of t -> (D(gamma(t), p), D(gamma(t), q)) for sampled
       base pairs (p, q);
    5. submersion: the (alpha, beta)-gradient of D(gamma(alpha), gamma(beta))
       has norm > tol at all off-diagonal grid pairs.
    """
    if n < 32:
        raise ValueError("need grid size n >= 32")
    ts = curve.domain.uniform_grid(n)
    P = curve.evaluate_array(ts)
    V = curve.derivative_array(ts, 1)
    conditions = []

    # 1: injectivity + nonvanishing first derivative
    dist = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1)
    iu = np.triu_indices(n, k=1)
    pair_d = dist[iu]
    speeds = np.linalg.norm(V, axis=-1)
    witness = None
    detail = ""
    ok = True
    if float(np.min(speeds)) <= tol:
        i = int(np.argmin(speeds))
        ok, witness = False, (float(ts[i]),)
        detail = f"||gamma'({ts[i]:.6g})|| = {speeds[i]:.3e}"
    elif pair_d.size and float(np.min(pair_d)) <= tol:
        k = int(np.argmin(pair_d))
        i, j = int(iu[0][k]), int(iu[1][k])
        ok, witness = False, (float(ts[i]), float(ts[j]))
        detail = f"gamma({ts[i]:.6g}) ~ gamma({ts[j]:.6g}) within {pair_d[k]:.3e}"
    conditions.append(ConditionResult(1, "injective immersion", ok, witness, detail))

    # 2: gamma'' does not vanish identically
    acc = curve.derivative_array(ts, 2)
    acc_norms = np.linalg.norm(acc, axis=-1)
    ok = bool(np.max(acc_norms) >= tol)
    conditions.append(ConditionResult(
        2, "second derivative not identically zero", ok,
        None if ok else ("gamma'' ~ 0 on grid",),
        f"max ||gamma''|| = {float(np.max(acc_norms)):.3e}"))

    # 3: distance-polynomial axioms on grid pairs; u and w serve condition 5
    Dij, u, w = pairings(quantity, P[:, None, :], V[:, None, :],
                         P[None, :, :], V[None, :, :])
    sym_gap = np.abs(Dij - Dij.T)
    scale = np.maximum(1.0, np.abs(Dij))
    ok = True
    witness = None
    detail = ""
    if float(np.max(sym_gap / scale)) > tol:
        i, j = np.unravel_index(int(np.argmax(sym_gap / scale)), sym_gap.shape)
        ok, witness = False, (float(ts[i]), float(ts[j]))
        detail = f"symmetry gap {sym_gap[i, j]:.3e}"
    elif float(np.max(np.abs(np.diag(Dij)))) > tol:
        i = int(np.argmax(np.abs(np.diag(Dij))))
        ok, witness = False, (float(ts[i]),)
        detail = f"D(p,p) = {Dij[i, i]:.3e} != 0"
    else:
        off = np.abs(Dij[iu])
        if off.size and float(np.min(off)) <= tol:
            k = int(np.argmin(off))
            i, j = int(iu[0][k]), int(iu[1][k])
            ok, witness = False, (float(ts[i]), float(ts[j]))
            detail = f"D vanishes off-diagonal: {Dij[i, j]:.3e}"
    conditions.append(ConditionResult(3, "distance-polynomial axioms", ok,
                                      witness, detail))

    # 4: two-value map injectivity for sampled base pairs
    fracs = [(0.15, 0.85), (0.3, 0.6), (0.45, 0.95), (0.05, 0.5), (0.25, 0.75)]
    ok = True
    witness = None
    detail = ""
    for fa, fb in fracs:
        ia, ib = int(fa * (n - 1)), int(fb * (n - 1))
        if ia == ib:
            continue
        two = np.stack([Dij[:, ia], Dij[:, ib]], axis=-1)
        gap = np.linalg.norm(two[:, None, :] - two[None, :, :], axis=-1)
        gap_scale = np.maximum(1.0, np.abs(two).max())
        g = gap[iu] / gap_scale
        if g.size and float(np.min(g)) <= tol:
            k = int(np.argmin(g))
            i, j = int(iu[0][k]), int(iu[1][k])
            ok = False
            witness = (float(ts[ia]), float(ts[ib]), float(ts[i]), float(ts[j]))
            detail = (f"(D(.,a),D(.,b)) collides at t={ts[i]:.6g}, t={ts[j]:.6g}")
            break
    conditions.append(ConditionResult(4, "two-value map injective", ok,
                                      witness, detail))

    # 5: submersion off the diagonal
    gnorm = np.hypot(u, w)
    np.fill_diagonal(gnorm, np.inf)
    ok = bool(np.min(gnorm) > tol)
    witness = None
    detail = f"min gradient norm = {float(np.min(gnorm)):.3e}"
    if not ok:
        i, j = np.unravel_index(int(np.argmin(gnorm)), gnorm.shape)
        witness = (float(ts[i]), float(ts[j]))
    conditions.append(ConditionResult(5, "submersion off diagonal", ok,
                                      witness, detail))

    return SimplicityReport(conditions=conditions, grid_size=n, tol=tol)


# -- builtins and JSON ----------------------------------------------------

_BUILTIN_RE = re.compile(r"^([a-z_]+)(?:\(([^)]*)\))?$")


def builtin_curve(name: str) -> CurveSpec:
    """Named curves: line, unit_circle, parabola, circular_helix(c),
    rect_hyperbola, rational_circle, ellipse(a,b)."""
    m = _BUILTIN_RE.match(name.strip())
    if not m:
        raise ValueError(f"bad builtin curve name {name!r}")
    base, args = m.group(1), m.group(2)
    params = [float(x) for x in args.split(",")] if args else []
    if base == "line":
        return RationalCurve(
            [RationalFunction.from_coeffs([0, 1]), RationalFunction.from_coeffs([0])],
            Interval(-1000, 1000))
    if base == "unit_circle":
        return HelixCurve([1.0], [1.0], [], 2, Interval(-math.pi, math.pi))
    if base == "parabola":
        return RationalCurve(
            [RationalFunction.from_coeffs([0, 1]),
             RationalFunction.from_coeffs([0, 0, 1])],
            Interval(0, 1))
    if base == "circular_helix":
        c = params[0] if params else 0.5
        return HelixCurve([1.0], [1.0], [c], 3, Interval(-1000.0, 1000.0))
    if base == "rect_hyperbola":
        return RationalCurve(
            [RationalFunction.from_coeffs([0, 1]),
             RationalFunction.from_coeffs([1], [0, 1])],
            Interval(0, 4096))
    if base == "rational_circle":
        return RationalCurve(
            [RationalFunction.from_coeffs([1, 0, -1], [1, 0, 1]),
             RationalFunction.from_coeffs([0, 2], [1, 0, 1])],
            Interval(-100, 100))
    if base == "ellipse":
        a = params[0] if params else 2.0
        b = params[1] if len(params) > 1 else 1.0
        return trig_ellipse(a, b)
    raise ValueError(f"unknown builtin curve {base!r}")


def trig_ellipse(a: float, b: float,
                 domain: Interval = Interval(-math.pi, math.pi)) -> AnalyticCurve:
    """(a cos t, b sin t) with closed-form jets of every order."""

    def evaluator(t, order):
        out = []
        for j in range(order + 1):
            ph = t + j * math.pi / 2
            out.append(np.array([a * math.cos(ph), b * math.sin(ph)]))
        return out

    return AnalyticCurve(2, evaluator, domain, max_jet_order=None,
                         label=f"ellipse({a},{b})")


def _rf_from_json(doc: dict) -> RationalFunction:
    num = [as_fraction(c) for c in doc["num"]]
    den = [as_fraction(c) for c in doc.get("den", [1])]
    return RationalFunction(Poly(num), Poly(den))


def curve_from_json(doc: dict) -> CurveSpec:
    """Parse {"kind": "rational" | "helix" | "builtin", ...}.

    Rational coefficients are "p/q" strings, ascending order; the domain is
    a [lo, hi] pair accepting "p/q", numbers, or "-inf"/"inf".
    """
    kind = doc.get("kind")
    if kind == "builtin":
        return builtin_curve(doc["name"])
    dom = doc.get("domain")
    interval = (Interval(_endpoint_from_json(dom[0]), _endpoint_from_json(dom[1]))
                if dom else None)
    if kind == "rational":
        coords = [_rf_from_json(c) for c in doc["coords"]]
        return RationalCurve(coords, interval or Interval(-1, 1))
    if kind == "helix":
        return HelixCurve(
            radii=[float(as_fraction(x)) for x in doc.get("radii", [])],
            frequencies=[float(as_fraction(x)) for x in doc.get("frequencies", [])],
            drift=[float(as_fraction(x)) for x in doc.get("drift", [])],
            dimension=doc.get("dimension"),
            domain=interval or Interval(-1000.0, 1000.0))
    raise ValueError(f"unknown curve kind {kind!r}")


def curve_to_json(curve: CurveSpec) -> dict:
    dom = [str(curve.domain.lo) if curve.domain.lo != NEG_INF else "-inf",
           str(curve.domain.hi) if curve.domain.hi != POS_INF else "inf"]
    if isinstance(curve, RationalCurve):
        return {"kind": "rational", "domain": dom,
                "coords": [{"num": [str(c) for c in rf.num.coeffs],
                            "den": [str(c) for c in rf.den.coeffs]}
                           for rf in curve.coords]}
    if isinstance(curve, HelixCurve):
        return {"kind": "helix", "radii": list(curve.radii),
                "frequencies": list(curve.frequencies),
                "drift": list(curve.drift), "dimension": curve.dimension,
                "domain": dom}
    raise ValueError("only rational and helix curves serialize to JSON")
