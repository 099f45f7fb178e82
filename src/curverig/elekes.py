"""Elekes curves t -> (D(gamma(t), p), D(gamma(t), q)) and their analysis.

For rational base curves with rational data the two components (A, B)
are cached as univariate rational functions, and every exact stage runs
in one cached elimination frame per curve: (A, B - A) when the reduced
B - A is non-constant and of lower degree than B (for squared distance
it has the degree of gamma, half B's), else (A, B).  In that frame the
curve is implicitized as a Sylvester resultant, sheared back to the
implicit equation G of (A, B), and its rational inverse comes from the
first subresultant.  Two such curves' intersections are counted exactly,
by isolating the real roots of one curve's implicit equation along the
other and mapping each back through the inverse (see _exact_count);
where the inverse is undefined at a root in both orders the count is a
proven upper bound.  On other data (the helix, float parameters) the
count is a numeric estimate from grid seeds and Newton refinement,
neither a lower nor an upper bound.
An ElekesFamily owns what the curves of one point set share: one D
evaluation per base point; through the swap (X, Y) -> (Y, X) one
resultant for a curve and its mirror (q, p), and one exact count for two
mirrored pairs of curves; and the D table of the incidence check, which
tests every implicit equation whether or not the scan ran first.
A Newton seed leaves the loop at a fixed point (an iterate bitwise equal to
the one before), which every later step would return: no result changes.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations
from typing import Optional

import numpy as np

from .bipoly import (BiPoly, compose, first_subresultant, shear,
                     square_free_part, sylvester_resultant)
from .counting import ParamPointSet
from .curves import CurveSpec, RationalCurve, is_exact_data
from .errors import DegenerateParametrization
from .parallel import parallel_chunked
from .quantity import (PinnedAreaSquared, QuantitySpec, SquaredEuclidean,
                       pairings, quantity_degree)
from .rational import (RationalFunction, _add, _gcd, as_fraction,
                       real_roots, root_float, root_sign, vanishes_at)


def implicitize_rational(x: RationalFunction, y: RationalFunction) -> BiPoly:
    """The irreducible implicit equation G(X, Y) of t -> (x(t), y(t)).

    One integer pipeline: the Sylvester matrix of g1(t) X - f1(t) and
    g2(t) Y - f2(t) is built from the coordinates' RationalFunction.rows
    in Z[Z] under X -> Z, Y -> Z^s, and its Bareiss determinant decoded
    into the resultant c G^k (sylvester_resultant), k the
    parametrization's index; G is its exact k-th root, taken in Z[Z] and
    decoded once (square_free_part), normalized.
    Raises DegenerateParametrization when both coordinates are constant.
    Otherwise G is never constant: the resultant is nonzero (a common
    factor of g1 X - f1 and g2 Y - f2 would be free of X and Y, so divide
    the coprime f1 and g1) and vanishes at every point of the curve.
    """
    if x.is_constant() and y.is_constant():
        raise DegenerateParametrization("both coordinates are constant")
    return square_free_part(sylvester_resultant(x, y))


def implicit_to_dict(G: BiPoly) -> dict:
    """Report form of an implicit polynomial: its total degree and its
    integer coefficients as [i, j, "c"] rows, sorted by (i, j)."""
    return {"degree": G.total_degree(),
            "coeffs": [[i, j, str(c)] for (i, j), c in sorted(G.terms.items())]}


class ElekesCurve:
    """Plane curve traced by t -> (D(gamma(t), gamma(a)), D(gamma(t), gamma(b))).

    A curve of an ElekesFamily keeps its legs and implicit in the family's
    dicts and holds its partner (ElekesFamily.mirror), not the family, so a
    dropped family is freed at once; a lone curve keeps its own."""

    def __init__(self, curve: CurveSpec, quantity: QuantitySpec,
                 p_param, q_param, family: Optional[ElekesFamily] = None):
        if p_param == q_param:
            raise ValueError("Elekes curve needs two distinct base parameters")
        curve.domain.require(p_param)
        curve.domain.require(q_param)
        self.curve, self.quantity = curve, quantity
        self.p_param, self.q_param = p_param, q_param
        # caches of components(), base_points(), frame(), frame_implicit()
        # and inverse(); base parameter -> leg, and pair -> implicit()
        self._components = self._base_points = self._frame = None
        self._frame_implicit = self._inverse = None
        self._legs = {} if family is None else family.legs
        self._implicits = {} if family is None else family.implicits
        self._partner = None if family is None else family.mirror(self)

    def __repr__(self):
        return f"ElekesCurve(p={self.p_param}, q={self.q_param})"

    def pair(self) -> tuple:
        return (self.p_param, self.q_param)

    def is_exactable(self) -> bool:
        return is_exact_data(self.curve, self.pair(), self.quantity)

    def components(self) -> tuple[RationalFunction, RationalFunction]:
        """Cached rational components (A(t), B(t)) = (L_p, L_q); exact path
        only.  The leg L_p(t) = D(gamma(t), gamma(p)) depends on its base
        parameter alone, so the curves of one ElekesFamily share its dict
        of legs and evaluate D once per base point, not twice per curve."""
        if self._components is None:
            if not self.is_exactable():
                raise DegenerateParametrization(
                    "rational components need a rational curve and exact data")
            for t in self.pair():
                if t not in self._legs:
                    L = self.quantity.eval(self.curve.coords, self.curve.evaluate(t))
                    if not isinstance(L, RationalFunction):
                        raise DegenerateParametrization("D does not depend on gamma(t)")
                    self._legs[t] = L
            self._components = (self._legs[self.p_param], self._legs[self.q_param])
        return self._components

    def frame(self) -> tuple:
        """Cached elimination frame (x, y, sheared): (A, B - A, True) when
        the reduced B - A is non-constant and of lower degree than B, else
        (A, B, False).  The shear (X, Y) -> (X, Y - X) is a bijection of
        the plane taking the curve (A, B) to (x, y), so the implicit
        equation, the inverse and the intersections of either are those
        of the other under it."""
        if self._frame is None:
            A, B = self.components()
            C = B - A
            self._frame = (A, C, True) if 0 < C.degree < B.degree else (A, B, False)
        return self._frame

    def frame_implicit(self) -> BiPoly:
        """Cached implicit equation G' of the frame curve (x, y):
        implicitize_rational on the frame, or on a mirrored curve (see
        implicit()) G(X, Y + X) normalized on a sheared frame, else G."""
        if self._frame_implicit is None:
            if self._partner is not None:
                G = self.implicit()
                self._frame_implicit = shear(G, 1).normalized() if self.frame()[2] else G
            else:
                self._frame_implicit = implicitize_rational(*self.frame()[:2])
        return self._frame_implicit

    def implicit(self) -> BiPoly:
        """Cached implicit equation G of (A, B).

        Computed, it is G'(X, Y - X) normalized on a sheared frame, else
        G'.  G'(x, y) = 0 iff G'(A, B - A) = 0, and the shear is invertible
        and unimodular, so G'(X, Y - X) is irreducible, vanishes on (A, B)
        and is the normalized G up to sign (Sendra, Winkler and Perez-Diaz,
        *Rational Algebraic Curves*, 2008, ch. 4).

        A mirrored curve xi_qp, q > p, of an ElekesFamily derives it from
        its partner xi_pq: (L_q, L_p) is (L_p, L_q) under the swap
        (X, Y) -> (Y, X), an invertible linear map, so G_pq(Y, X) is
        irreducible and vanishes on xi_qp.  The normalized irreducible
        implicit equation is unique, so G_pq(Y, X) normalized is G_qp."""
        G = self._implicits.get(self.pair())
        if G is None:
            if self._partner is not None:
                G = BiPoly({(j, i): c for (i, j), c in
                            self._partner.implicit().terms.items()}).normalized()
            else:
                G = self.frame_implicit()
                G = shear(G, -1).normalized() if self.frame()[2] else G
            self._implicits[self.pair()] = G
        return G

    def inverse(self) -> tuple[BiPoly, BiPoly]:
        """Cached (sigma1, sigma0) of first_subresultant on the frame
        curve (x, y): at a point (x, y) of it where sigma1 != 0,
        t = -sigma0 / sigma1 is its only parameter.  The shear is a
        bijection, so on a sheared frame -sigma0 / sigma1 at (X, Y - X)
        is the inverse of (A, B) at (X, Y)."""
        if self._inverse is None:
            self._inverse = first_subresultant(*self.frame()[:2])
        return self._inverse

    def in_frame(self, sheared: bool) -> tuple:
        """(A, B - A) if sheared else (A, B): the components in the frame
        of a polynomial composed with them."""
        x, y, own = self.frame()
        if own == sheared:
            return x, y
        A, B = self.components()
        return (A, B - A) if sheared else (A, B)

    def degree_bound(self) -> int:
        """deg D * deg gamma; deg D * 2 when gamma has no algebraic degree."""
        dg = self.curve.degree if self.curve.degree else 2
        return quantity_degree(self.quantity) * dg

    def base_points(self) -> np.ndarray:
        """gamma(p) and gamma(q), evaluated once, rounded to float and
        stacked as a (2, 1, d) array that broadcasts against a batch."""
        if self._base_points is None:
            self._base_points = np.array(
                [[[float(c) for c in self.curve.evaluate(t)]] for t in self.pair()])
        return self._base_points

    def eval_batch(self, ts: np.ndarray) -> np.ndarray:
        """xi over a float parameter array, shape (len(ts), 2)."""
        X = self.curve.evaluate_array(np.asarray(ts, dtype=float))
        return self.quantity.eval_batch(X, self.base_points()).T

    def tangent_batch(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(xi(t), xi'(t)) over a float array, each shape (len(ts), 2), with
        xi'(t) = gamma'(t) . D_X(gamma(t), p_or_q); xi is eval_batch's.  A
        rational curve's jet keeps jet_array's coordinate-major layout, which
        pairings runs faster on, except past two coordinates, whose sums
        round in memory order: those take derivative_array's C order."""
        if isinstance(self.curve, RationalCurve):
            X, V = self.curve.jet_array(ts, 1)
            if X.shape[-1] > 2:
                X, V = np.ascontiguousarray(X), np.ascontiguousarray(V)
        else:
            X, V = self.curve.evaluate_array(ts), self.curve.derivative_array(ts, 1)
        D, T, _ = pairings(self.quantity, X, V, self.base_points(), None)
        return D.T, T.T


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
    count_method: str = "newton"

    @property
    def count(self) -> int:
        return len(self.points)


def _merge_points(pts: np.ndarray, radius: float) -> list:
    """Greedy merge of image points, shape (m, 2), in lexicographic (x, y)
    order: a point is kept iff no earlier kept point lies within `radius`
    of it.  Returns the kept points as (x, y) float tuples."""
    rest = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    kept = []
    while len(rest):
        a, b = rest[0]
        kept.append((float(a), float(b)))
        rest = rest[1:]
        rest = rest[(rest[:, 0] - a) ** 2 + (rest[:, 1] - b) ** 2 > radius ** 2]
    return kept


_NEWTON_STEPS = 40


def _newton(e1: ElekesCurve, e2: ElekesCurve, t: np.ndarray,
            s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, s) after _NEWTON_STEPS damped Newton steps on xi1(t) = xi2(s)
    from every seed (t[i], s[i]), each step clipped to a tenth of the wider
    domain and each iterate to the closed domains.

    The step is a pure function of (t, s), so a seed whose iterate equals
    the one before it bitwise is at a fixed point: every later step returns
    it, and so would the full loop.  The seed leaves the loop there, so only
    seeds still moving are evaluated.
    """
    lo1, hi1 = float(e1.curve.domain.lo), float(e1.curve.domain.hi)
    lo2, hi2 = float(e2.curve.domain.lo), float(e2.curve.domain.hi)
    max_step = 0.1 * max(hi1 - lo1, hi2 - lo2)
    t, s = np.array(t, dtype=float), np.array(s, dtype=float)
    active, ta, sa = np.arange(len(t)), t, s  # the seeds that still move
    for _ in range(_NEWTON_STEPS):
        (xi1, J1), (xi2, J2) = e1.tangent_batch(ta), e2.tangent_batch(sa)
        F = xi1 - xi2
        det = -J1[:, 0] * J2[:, 1] + J1[:, 1] * J2[:, 0]
        ok = np.abs(det) > 1e-300
        safe = np.where(ok, det, 1.0)
        dt = np.where(ok, (-J2[:, 1] * F[:, 0] + J2[:, 0] * F[:, 1]) / safe, 0.0)
        ds = np.where(ok, (-J1[:, 1] * F[:, 0] + J1[:, 0] * F[:, 1]) / safe, 0.0)
        step = np.maximum(np.abs(dt), np.abs(ds))
        clip = np.minimum(1.0, max_step / np.maximum(step, 1e-300))
        tn, sn = np.clip(ta - clip * dt, lo1, hi1), np.clip(sa - clip * ds, lo2, hi2)
        # bitwise: -0.0 and 0.0 differ, a NaN equals itself
        moved = ((tn.view(np.int64) != ta.view(np.int64))
                 | (sn.view(np.int64) != sa.view(np.int64)))
        t[active], s[active] = tn, sn
        active, ta, sa = active[moved], tn[moved], sn[moved]
        if not len(active):
            break
    return t, s


def intersect_elekes_pair(e1: ElekesCurve, e2: ElekesCurve, n: int = 64,
                          tol: float = 1e-5) -> IntersectionReport:
    """The intersection points of xi1 and xi2 on their open domains.

    same_algebraic_curve short-circuits both paths, with count_method
    "same" and no points.  On exact data the
    count is exact (_exact_count, in either order), or else the smaller of
    the two orders' proven upper bounds.  Otherwise it
    is a numeric estimate from an n x n Newton seed grid (_newton_count).
    """
    if e1.pair() == e2.pair() and e1.curve is e2.curve:
        raise ValueError("intersection needs two distinct Elekes curves")
    same, method = same_algebraic_curve(e1, e2)
    if same:
        return IntersectionReport([], True, method, count_method="same")
    if method != "exact":
        return _newton_count(e1, e2, method, n, tol)
    rep = _exact_count(e1, e2)
    if rep.count_method == "upper":
        # the swapped count sees the same intersections: its exact count,
        # or else the smaller of the two bounds
        rep = min(rep, _exact_count(e2, e1),
                  key=lambda r: (r.count_method == "upper", r.count))
    return rep


def _endpoint_row(S0: list, S1: list, x) -> list:
    """The numerator of sigma0 + x sigma1 over x's denominator for a
    finite endpoint x, and x's sign times sigma1 for x = +-inf."""
    if x in (-math.inf, math.inf):
        return [c if x > 0 else -c for c in S1]
    a, b = as_fraction(x).as_integer_ratio()
    return _add([b * c for c in S0], [a * c for c in S1])


def _exact_count(e1: ElekesCurve, e2: ElekesCurve) -> IntersectionReport:
    """Count the points xi2(s) = xi1(t), s and t in the open domains, of
    two exact Elekes curves that are not one algebraic curve.

    Each polynomial of a curve is composed with xi2's components in that
    curve's frame (ElekesCurve.frame): xi1's G' and (sigma1, sigma0) with
    xi2.in_frame(xi1's), xi2's own sigma1 with xi2's frame.  On a sheared
    xi1, G'(A2, B2 - A2) = +-G1(A2, B2) as rational functions, so their
    numerators differ by a constant and powers of xi2's denominators,
    which have no zeros in the open domain: the roots there are the same.
    The s are the real roots in xi2's domain of N(s), that numerator,
    isolated by real_roots.  xi1's inverse t = -sigma0 / sigma1 at the
    point xi2(s) is its only parameter when sigma1 != 0 there, so the root
    counts iff t lies in xi1's domain:
    (t - lo) (hi - t) = -(sigma0 + lo sigma1)(sigma0 + hi sigma1) / sigma1^2
    > 0, read from the signs at s of those numerators, composed with xi2
    over one common denominator; S0 + lo S1 and S0 + hi S1 share that one
    factor, so the product of their signs is the same in either frame.
    Two roots map to one point only where xi2's own sigma1 vanishes.  If
    xi1's sigma1 or xi2's own vanishes at some root, the report gives the
    number of roots, a proven upper bound, with count_method "upper".
    points are the float images xi2(s) of the counted roots (of every root
    for "upper").
    """
    x2, y2 = e2.in_frame(e1.frame()[2])
    G, (s1, s0), own = e1.frame_implicit(), e1.inverse(), e2.inverse()[0]
    N = compose(G, x2, y2, G.degree_x(), G.degree_y())
    roots = real_roots(N, e2.curve.domain.lo, e2.curve.domain.hi)
    m, k = max(s1.degree_x(), s0.degree_x()), max(s1.degree_y(), s0.degree_y())
    S1, S0 = compose(s1, x2, y2, m, k), compose(s0, x2, y2, m, k)
    node = compose(own, *e2.frame()[:2], own.degree_x(), own.degree_y())
    below, above = (_endpoint_row(S0, S1, x)
                    for x in (e1.curve.domain.lo, e1.curve.domain.hi))
    g_node, g1, g_lo, g_hi = (_gcd(N, h) for h in (node, S1, below, above))
    counted, method = [], "exact"
    for root in roots:
        if vanishes_at(node, root, g_node) or vanishes_at(S1, root, g1):
            counted, method = roots, "upper"
            break
        lo_sign, root = root_sign(below, root, g_lo)
        hi_sign, root = root_sign(above, root, g_hi)
        if lo_sign * hi_sign < 0:
            counted.append(root)
    s = np.array([root_float(root) for root in counted])
    points = [(float(a), float(b)) for a, b in e2.eval_batch(s)]
    return IntersectionReport(points, False, "exact", count_method=method)


def _newton_count(e1: ElekesCurve, e2: ElekesCurve, method: str, n: int = 64,
                  tol: float = 1e-5) -> IntersectionReport:
    """Solve xi1(t) = xi2(s) from an n x n seed grid with Newton refinement.

    Each seed takes at most 40 Newton steps.  It leaves the loop at a fixed
    point, once an iterate equals the one before it bitwise, where the full
    40 steps would end too (see _newton); a seed in a cycle takes all 40.
    Only machine-converged solutions are kept.  Their image points are
    merged greedily in lexicographic order (a point is dropped when an
    earlier kept point lies within tol * scale).  The count is a numeric
    estimate, neither a lower nor an upper bound: a tangential intersection
    can survive the merge as two points, a root no seed converges to is
    dropped, and a shared arc reads as many points.
    """
    t0 = e1.curve.domain.uniform_grid(n)
    s0 = e2.curve.domain.uniform_grid(n)
    t, s = _newton(e1, e2, *[a.ravel() for a in np.meshgrid(t0, s0)])
    lo1, hi1 = float(e1.curve.domain.lo), float(e1.curve.domain.hi)
    lo2, hi2 = float(e2.curve.domain.lo), float(e2.curve.domain.hi)
    scale = max(1.0, float(np.max(np.abs(e1.eval_batch(t0)))),
                float(np.max(np.abs(e2.eval_batch(s0)))))

    xi1 = e1.eval_batch(t)
    resid = np.linalg.norm(xi1 - e2.eval_batch(s), axis=-1)
    inside = ((t > lo1) & (t < hi1) & (s > lo2) & (s < hi2))
    good = inside & (resid <= 1e-12 * scale)
    n_conv = int(np.count_nonzero(good))

    img_tol = max(tol * scale, 1e-12 * scale)
    return IntersectionReport(points=_merge_points(xi1[good], img_tol),
                              same_algebraic_curve=False,
                              detection_method=method, n_seeds=len(t),
                              n_converged=n_conv,
                              n_unconverged=len(t) - n_conv)


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


class ElekesFamily:
    """The Elekes curves xi_ab of every ordered pair (a, b) of distinct
    parameters of a point set, a-major in `curves`, and the work they
    share, built lazily: the legs L_a (ElekesCurve.components), so D is
    evaluated once per point; the implicits G_ab, where xi_ba = swap o
    xi_ab takes G_ba from G_ab for a < b (mirror, ElekesCurve.implicit),
    so n points need n(n - 1) / 2 resultants; the D table of the incidence
    check (distances); and the scan's mirrored pairs (intersect)."""

    def __init__(self, pset: ParamPointSet, q: QuantitySpec):
        self.pset, self.quantity = pset, q
        self.exact = is_exact_data(pset.curve, pset.params, q)
        self.legs: dict = {}
        self.implicits: dict = {}
        self._distances: Optional[dict] = None
        self._counted: dict = {}  # exact data: {pair, pair} of two curves -> result
        self.curves: dict = {}
        for a, b in permutations(pset.params, 2):  # a-major: xi_ab before xi_ba
            self.curves[a, b] = ElekesCurve(pset.curve, q, a, b, self)

    def mirror(self, e: ElekesCurve) -> Optional[ElekesCurve]:
        """xi_ab for a curve xi_ba of the family with a < b, else None."""
        b, a = e.pair()
        return self.curves[a, b] if a < b else None

    def distances(self) -> dict:
        """{(r, i): D(gamma(p_r), gamma(p_i))} for r != i, evaluated once."""
        if self._distances is None:
            x = [self.pset.curve.evaluate(t) for t in self.pset.params]
            self._distances = {(r, i): self.quantity.eval(x[r], x[i])
                               for r, i in permutations(range(len(x)), 2)}
        return self._distances

    def intersect(self, e1: ElekesCurve, e2: ElekesCurve, n: int,
                  tol: float) -> tuple:
        """(same, count, count_method) of intersect_elekes_pair(e1, e2), on
        exact data reused from the mirrored pair {xi_ba, xi_dc} of
        {xi_ab, xi_cd} if that was counted "exact" or found on one curve.
        The swap (X, Y) -> (Y, X) maps xi_ab(t) to xi_ba(t), so it maps the
        points xi_ab(t) = xi_cd(s) one to one onto the points
        xi_ba(t) = xi_dc(s), and G_ab = G_cd iff G_ba = G_dc.  An "upper"
        bound depends on the order and frame it was found in, and a
        fingerprint or Newton result is numeric: those are counted afresh."""
        found = self._counted.get(frozenset((e1.pair()[::-1], e2.pair()[::-1])))
        if found is None:
            rep = intersect_elekes_pair(e1, e2, n=n, tol=tol)
            found = rep.same_algebraic_curve, rep.count, rep.count_method
            if self.exact and found[2] in ("exact", "same"):
                self._counted[frozenset((e1.pair(), e2.pair()))] = found
        return found


def _rounding_bound(q: QuantitySpec, points) -> float:
    """2^-40 W S^m >= |fl D(x', y) - fl D(x, y)| when each coordinate of x'
    is within 4 ulp of x's; m = deg D, S >= 1 the largest |coordinate| of
    the points or apex, and W S^m >= D~, D on |coordinates| with each
    subtraction made an addition.  Each side is within gamma_n D~ of its
    exact value, n the longest chain of operations in a term (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3), and to
    first order the exact values differ by at most 8 m u D~, u = 2^-53: for
    n <= 2^11 and m <= 2^9, below 2^13 u = 2^-40."""
    z = [abs(float(c)) for x in points for c in (*x, *getattr(q, "apex", ()))]
    w = (4 * len(points[0]) if isinstance(q, SquaredEuclidean) else 64
         if isinstance(q, PinnedAreaSquared) else sum(abs(c) for _, c in q.terms))
    return 2.0 ** -40 * float(w) * max(1.0, *z) ** quantity_degree(q)


def verify_incidence_invariant(family: ElekesFamily) -> IncidenceReport:
    """Check xi_pq(r) = (D(r, p), D(r, q)) for every ordered pair and every
    third point r, and count the distinct product points on each Elekes
    curve.  On exact data xi_pq(r) comes from its symbolic components, so a
    wrong component fails; each component object is evaluated once per r,
    as a family's curves share their legs.  Each (i, j, r) also fails
    unless the family's G_pq, computed here if not yet cached, has
    G_pq(D(r, p), D(r, q)) = 0, which the exact intersection counts rely
    on.  With D(r, p) = a / b, D(r, q) = u / w and m the family's largest
    degree in X or Y, b^m w^m G_pq(a / b, u / w) is the integer sum over
    G_pq's terms c X^k Y^h of c a^k b^(m - k) u^h w^(m - h); the powers are
    tabled once per (r, p), as D(r, p) is the X value of every curve based
    at p.  On other data (helix, float parameters) xi_pq(r) comes from one
    eval_batch at the third points, the Newton count's float path, and fails
    unless within _rounding_bound of the D table: both sides run the same
    float operations on the same base points, and their third points differ
    only by the rounding of sin, cos and pow in libm and numpy (or of float
    Horner, left to the bound's margin, on exact points and a float apex)."""
    params = family.pset.params
    n = len(params)
    if n < 3:
        raise ValueError("incidence check needs at least 3 points")
    D = family.distances()
    G = {pair: e.implicit() for pair, e in family.curves.items()} if family.exact else {}
    m = max((max(g.degree_x(), g.degree_y()) for g in G.values()), default=0)
    powers = {}
    for key, v in D.items() if G else ():
        a, b = v.as_integer_ratio()
        powers[key] = [a ** k * b ** (m - k) for k in range(m + 1)]
    tol = None if family.exact else _rounding_bound(
        family.quantity, [family.pset.curve.evaluate(t) for t in params])
    values = {}  # id(c) -> (c, {r: c(params[r])}); holding c keeps its id

    def value(c, r):  # one evaluation per component object and r
        at = values.setdefault(id(c), (c, {}))[1]
        if r not in at:
            at[r] = c(params[r])
        return at[r]

    failures, incident = [], {}
    for i, j in permutations(range(n), 2):
        e = family.curves[params[i], params[j]]
        terms = G[e.pair()].terms.items() if G else ()
        others = [r for r in range(n) if r not in (i, j)]
        if family.exact:
            via = [tuple(value(c, r) for c in e.components()) for r in others]
        else:
            via = map(tuple, e.eval_batch([float(params[r]) for r in others]).tolist())
        for r, via_curve in zip(others, via):
            direct = (D[r, i], D[r, j])
            xs, ys = powers.get((r, i)), powers.get((r, j))
            # not <=: a NaN fails
            if (via_curve != direct if tol is None else not all(
                    abs(a - b) <= tol for a, b in zip(via_curve, direct))) or \
                    terms and sum(c * xs[k] * ys[h] for (k, h), c in terms):
                failures.append((i, j, r, via_curve, direct))
        incident[i, j] = len({(D[r, i], D[r, j]) for r in others})
    return IncidenceReport(checked=n * (n - 1) * (n - 2), failures=failures,
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
    count_methods: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"pairs_checked": self.pairs_checked,
                "max_pairwise_intersections": self.max_pairwise_intersections,
                "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
                "duplicate_curve_classes":
                    [[list(map(repr, p)) for p in cls]
                     for cls in self.duplicate_curve_classes],
                "class_implicits": [implicit_to_dict(g) for g in self.class_implicits],
                "n_curves": self.n_curves, "n_classes": self.n_classes,
                "detection_method": self.detection_method,
                "count_methods": dict(sorted(self.count_methods.items()))}


def _unrank_pair(k: int, n: int) -> tuple[int, int]:
    """The k-th pair of itertools.combinations(range(n), 2), without
    building the list."""
    i = n - 2 - (math.isqrt(4 * n * (n - 1) - 8 * k - 7) - 1) // 2
    return i, k + i + 1 - n * (n - 1) // 2 + (n - i) * (n - i - 1) // 2


def admissibility_scan(family: ElekesFamily, sample_pairs: int, n: int = 64,
                       tol: float = 1e-5, seed: int = 0) -> AdmissibilityReport:
    """Empirical admissibility of an Elekes family.

    Groups curves sharing one algebraic curve (exact implicit equality when
    available, else a flagged fingerprint over the sampled pairs), then
    counts the intersections of `sample_pairs` sampled unordered pairs of
    curves from distinct classes (ElekesFamily.intersect, which reuses a
    mirrored pair's exact result) and histograms the counts;
    count_methods tallies how each count was found.
    """
    curves = list(family.curves.values())
    if family.exact:
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

    def worker(a, b):
        out = []
        for k in chosen[a:b]:
            e1, e2 = (curves[i] for i in _unrank_pair(k, len(curves)))
            out.append((e1.pair(), e2.pair(), *family.intersect(e1, e2, n, tol)))
        return out

    results = parallel_chunked(worker, len(chosen), chunk_size=8)
    histogram = Counter(count for _, _, same, count, _ in results if not same)
    count_methods = Counter(how for _, _, same, _, how in results if not same)
    merged = [(a, b) for a, b, same, _, _ in results if same]

    if not family.exact and merged:
        # join the classes of fingerprint-coincident sampled pairs
        label = {c.pair(): c.pair() for c in curves}
        for a, b in merged:
            la, lb = label[a], label[b]
            label = {k: lb if v == la else v for k, v in label.items()}
        groups: dict = {}
        for c in curves:
            groups.setdefault(label[c.pair()], []).append(c.pair())
        classes = list(groups.values())

    dup = [sorted(cls) for cls in classes if len(cls) > 1]
    return AdmissibilityReport(
        pairs_checked=take, max_pairwise_intersections=max(histogram, default=0),
        histogram=histogram, duplicate_curve_classes=dup,
        n_curves=len(curves), n_classes=len(classes), detection_method=method,
        class_implicits=dup_implicits, count_methods=count_methods)
