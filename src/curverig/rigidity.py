"""Frameworks on curves, infinitesimal flexibility, and the rigidity
function H whose constancy in the probe parameter characterizes
infinitesimally flexible triangles.

Tangent vectors along a curve reduce to one scalar per vertex (the
coefficient along gamma'), so infinitesimal flexibility is the kernel of a
small |E| x V constraint matrix, computed both by SVD and, on rational
data, by exact elimination over Fraction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .curves import CurveSpec, is_exact_data
from .errors import SingularH
from .parallel import parallel_chunked
from .quantity import QuantitySpec, _index, check_dimension, pairing, pairings


@dataclass(frozen=True)
class Framework:
    """A graph drawn with distinct vertices embedded on one curve."""

    vertex_count: int
    edges: tuple
    params: tuple
    curve: CurveSpec
    quantity: QuantitySpec

    def __post_init__(self):
        edges = []
        seen = set()
        for u, w in self.edges:
            u, w = _index(u, "vertex"), _index(w, "vertex")
            if u == w:
                raise ValueError(f"self-loop at vertex {u}")
            if max(u, w) >= self.vertex_count:
                raise ValueError(f"edge ({u},{w}) out of range")
            key = (min(u, w), max(u, w))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            edges.append(key)
        object.__setattr__(self, "edges", tuple(edges))
        if len(self.params) != self.vertex_count:
            raise ValueError("need one parameter per vertex")
        if len(set(self.params)) != self.vertex_count:
            raise ValueError("vertex parameters must be pairwise distinct")
        for t in self.params:
            self.curve.domain.require(t)
        object.__setattr__(self, "params", tuple(self.params))

    def is_exact(self) -> bool:
        return is_exact_data(self.curve, self.params, self.quantity)


def triangle(curve, quantity, a, b, c) -> Framework:
    return Framework(3, ((0, 1), (0, 2), (1, 2)), (a, b, c), curve, quantity)


def complete_framework(curve, quantity, params) -> Framework:
    n = len(params)
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return Framework(n, edges, tuple(params), curve, quantity)


def _float_jet(curve, t):
    """(gamma(t), gamma'(t)) as float arrays."""
    return [np.asarray(v, float) for v in curve.derivative_jet(t, 1)]


def flexibility_matrix(fw: Framework, exact: Optional[bool] = None):
    """|E| x V constraint matrix whose kernel is the infinitesimal motions.

    Row for edge (u, w): gamma'(a_u) . D_X at column u and
    gamma'(a_w) . D_Y at column w, both evaluated on (gamma(a_u), gamma(a_w)).
    Returns nested Fractions on the exact path, a float ndarray otherwise.
    """
    if exact is None:
        exact = fw.is_exact()
    jets = [fw.curve.derivative_jet(t, 1) if exact else _float_jet(fw.curve, t)
            for t in fw.params]
    M = [[Fraction(0) if exact else 0.0] * fw.vertex_count for _ in fw.edges]
    for r, (u, w) in enumerate(fw.edges):
        M[r][u], M[r][w] = pairing(fw.quantity, *jets[u], *jets[w])
    return M if exact else np.array(M, dtype=float)


def _exact_rank_and_kernel(M: list) -> tuple[int, list]:
    """Row reduction over Fraction; returns (rank, kernel basis vectors)."""
    rows = [list(r) for r in M]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        kernel.append(tuple(v))
    return len(pivots), kernel


@dataclass
class FlexibilityResult:
    n_edges: int
    n_vertices: int
    numerical_nullity: int
    singular_values: list
    tol: float
    exact_nullity: Optional[int] = None
    exact_kernel: Optional[list] = None

    @property
    def nullity(self) -> int:
        return self.exact_nullity if self.exact_nullity is not None \
            else self.numerical_nullity

    @property
    def flexible(self) -> bool:
        return self.nullity >= 1

    def to_dict(self) -> dict:
        return {"n_edges": self.n_edges, "n_vertices": self.n_vertices,
                "numerical_nullity": self.numerical_nullity,
                "exact_nullity": self.exact_nullity,
                "nullity": self.nullity, "flexible": self.flexible,
                "singular_values": self.singular_values, "tol": self.tol}


def infinitesimal_nullity(fw: Framework, tol: float = 1e-9) -> FlexibilityResult:
    """Kernel dimension of the flexibility matrix.

    The float path thresholds singular values at tol * sigma_max; the exact
    path (rational curve, rational parameters, rational quantity) row-reduces
    over Fraction and also returns a kernel basis.  The two paths must agree.
    """
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    Mf = flexibility_matrix(fw, exact=False)
    if Mf.size:
        s = np.linalg.svd(Mf, compute_uv=False)
        smax = float(s[0]) if s.size else 0.0
        rank = int(np.count_nonzero(s > tol * smax)) if smax > 0 else 0
        svals = [float(x) for x in s]
    else:
        rank, svals = 0, []
    result = FlexibilityResult(
        n_edges=len(fw.edges), n_vertices=fw.vertex_count,
        numerical_nullity=fw.vertex_count - rank,
        singular_values=svals, tol=tol)
    if fw.is_exact():
        Me = flexibility_matrix(fw, exact=True)
        erank, kernel = _exact_rank_and_kernel(Me)
        result.exact_nullity = fw.vertex_count - erank
        result.exact_kernel = kernel
        if result.exact_nullity != result.numerical_nullity:
            raise ValueError(
                f"exact nullity {result.exact_nullity} != numerical "
                f"{result.numerical_nullity}; adjust tol={tol}")
    return result


# -- the rigidity function H -------------------------------------------------


def h_removable_value(curve, quantity, alpha, beta) -> float:
    """Limit of H at tau in {alpha, beta}.

    For a distance polynomial the two vanishing pairings approach equal
    magnitudes with opposite signs, so the limit carries an extra minus sign
    relative to the bare ratio of the surviving factors.
    """
    den, num = pairing(quantity, *_float_jet(curve, alpha),
                       *_float_jet(curve, beta))
    if abs(den) < 1e-300:
        raise SingularH("removable value undefined: base pairing vanishes")
    return -num / den

SINGULAR_EPS = 1e-14
NEAR_EPS = 1e-7


def eval_H(curve: CurveSpec, quantity: QuantitySpec, alpha, beta, tau) -> float:
    """Rigidity function H_{alpha,beta}(tau).

    Ratio of the edge-gradient pairings
    (gamma'(beta) . D_Y(gamma(tau), gamma(beta)))
    (gamma'(tau) . D_X(gamma(tau), gamma(alpha))) over
    (gamma'(alpha) . D_Y(gamma(tau), gamma(alpha)))
    (gamma'(tau) . D_X(gamma(tau), gamma(beta))).
    At tau within NEAR_EPS of alpha or beta the removable-singularity value
    is used, blended linearly with the raw ratio; a denominator factor below
    SINGULAR_EPS elsewhere raises SingularH (simplicity violation).
    """
    if alpha == beta:
        raise ValueError("H needs two distinct base parameters")
    for t in (alpha, beta, tau):
        curve.domain.require(t)
    a, b, t = float(alpha), float(beta), float(tau)
    if t == a or t == b:
        return h_removable_value(curve, quantity, alpha, beta)
    gap = min(abs(t - a), abs(t - b))
    gt = _float_jet(curve, tau)
    num2, den1 = pairing(quantity, *gt, *_float_jet(curve, alpha))
    den2, num1 = pairing(quantity, *gt, *_float_jet(curve, beta))
    if gap < NEAR_EPS:
        rem = h_removable_value(curve, quantity, alpha, beta)
        if abs(den1) < 1e-300 or abs(den2) < 1e-300:
            return rem
        w = gap / NEAR_EPS
        return (1.0 - w) * rem + w * (num1 * num2) / (den1 * den2)
    if min(abs(den1), abs(den2)) < SINGULAR_EPS:
        raise SingularH(
            f"denominator factor ~{min(abs(den1), abs(den2)):.3e} at "
            f"tau={tau} (alpha={alpha}, beta={beta})")
    return (num1 * num2) / (den1 * den2)


# -- T-degeneracy scanning ---------------------------------------------------


@dataclass
class DegeneracyReport:
    """Max relative variation of H over the scan.

    A candidate verdict (variation below tol) is sampling evidence; a
    non-degeneracy verdict carries a conclusive witness tuple
    (alpha, beta, tau_at_min, tau_at_max) up to the tolerance.
    """

    is_degenerate_candidate: bool
    max_H_variation: float
    tol: float
    witness: Optional[tuple] = None
    pairs_scanned: int = 0
    tau_grid_size: int = 0
    observed_sign_changes: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


_FACTOR_MASK_REL = 1e-4  # keeps per-node H error ~1e-12, far under scan tols


def _h_over_grid(curve, quantity, alpha: float, beta: float, taus: np.ndarray):
    """Vectorized H over a tau grid with cancellation masking.

    Each of the four gradient pairings is masked where it is tiny relative
    to its own grid maximum: there the ratio is a 0/0 cancellation
    (removable or antipodal) whose float error would swamp the variation
    measurement.  H is continuous across those nodes, so dropping them does
    not change the verdict.
    """
    G = curve.evaluate_array(taus)
    V = curve.derivative_array(taus, 1)
    _, num2, den1 = pairings(quantity, G, V, *_float_jet(curve, alpha))
    _, den2, num1 = pairings(quantity, G, V, *_float_jet(curve, beta))
    factors = [num1, num2, den1, den2]
    span = curve.domain.span()
    valid = (np.abs(taus - alpha) > 1e-6 * span) \
        & (np.abs(taus - beta) > 1e-6 * span)
    for f in factors:
        fmax = max(float(np.max(np.abs(f))), 1e-300)
        valid &= np.abs(f) > _FACTOR_MASK_REL * fmax
    num = factors[0] * factors[1]
    den = factors[2] * factors[3]
    return num, den, valid


def scan_T_degeneracy(curve: CurveSpec, quantity: QuantitySpec,
                      m: int = 16, n: int = 256, tol: float = 1e-8) -> DegeneracyReport:
    """Max relative variation of H over m base pairs and an n-node
    Chebyshev tau grid; candidate-degenerate iff the max variation < tol."""
    if m < 8:
        raise ValueError("need at least m = 8 base pairs")
    if n < 64:
        raise ValueError("need at least n = 64 tau nodes")
    check_dimension(quantity, curve.dimension)
    a_grid = curve.domain.chebyshev_grid(m)
    b_grid = curve.domain.chebyshev_grid(m + 1)
    pairs = []
    for i in range(m):
        a = float(a_grid[i])
        b = float(b_grid[(2 * i + (m + 1) // 3) % (m + 1)])
        if a != b:
            pairs.append((a, b))
    taus = curve.domain.chebyshev_grid(n)

    def worker(lo, hi):
        out = []
        for a, b in pairs[lo:hi]:
            num, den, valid = _h_over_grid(curve, quantity, a, b, taus)
            if int(np.count_nonzero(valid)) < max(8, n // 8):
                continue
            H = num[valid] / den[valid]
            tv = taus[valid]
            hmax, hmin = float(np.max(H)), float(np.min(H))
            scale = max(abs(hmax), abs(hmin), 1e-300)
            variation = (hmax - hmin) / scale
            t_lo = float(tv[int(np.argmin(H))])
            t_hi = float(tv[int(np.argmax(H))])
            signs = np.sign(np.diff(H))
            changes = int(np.count_nonzero(np.diff(signs[signs != 0]) != 0))
            out.append((variation, (a, b, t_lo, t_hi), changes))
        return out

    results = parallel_chunked(worker, len(pairs), chunk_size=2)
    if not results:
        return DegeneracyReport(True, 0.0, tol, None, 0, n, 0)
    best = max(range(len(results)), key=lambda i: results[i][0])
    variation, witness, changes = results[best]
    degenerate = variation < tol
    return DegeneracyReport(
        is_degenerate_candidate=degenerate,
        max_H_variation=variation, tol=tol,
        witness=None if degenerate else witness,
        pairs_scanned=len(pairs), tau_grid_size=n,
        observed_sign_changes=changes)
