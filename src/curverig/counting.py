"""Point-set generation on curves and distinct-value counting.

Counts are taken over unordered off-diagonal pairs; the trivial value
D(p, p) = 0 is excluded so that counts match the distance-counting
convention (including it would shift every count by exactly one).
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .curves import _BLOCK, CurveSpec, HelixCurve, is_exact_data
from .errors import (DomainError, ExactnessUnavailable, InsufficientSamples,
                     SchemeMismatch)
from .quantity import (GeneralPolynomial, QuantitySpec, SquaredEuclidean,
                       check_dimension)
from .rational import as_fraction, is_exact


@dataclass(frozen=True)
class ParamPointSet:
    """A finite set of distinct parameters on one curve, kept sorted."""

    curve: CurveSpec
    params: tuple
    label: str = ""

    def __post_init__(self):
        ps = tuple(self.params)
        if any(not (a < b) for a, b in zip(ps, ps[1:])):
            raise ValueError("parameters must be strictly increasing")
        for t in ps:
            self.curve.domain.require(t)
        object.__setattr__(self, "params", ps)

    def __len__(self) -> int:
        return len(self.params)

    def points_array(self) -> np.ndarray:
        return self.curve.evaluate_array(np.array([float(t) for t in self.params]))


# -- generation schemes ----------------------------------------------------


@dataclass(frozen=True)
class ArithmeticProgression:
    start: object
    step: object
    n: int


@dataclass(frozen=True)
class GeometricProgression:
    start: object
    ratio: object
    n: int


@dataclass(frozen=True)
class UniformRandom:
    seed: int
    n: int


@dataclass(frozen=True)
class EquallySpacedAngle:
    n: int


Scheme = Union[ArithmeticProgression, GeometricProgression,
               UniformRandom, EquallySpacedAngle]

_RANDOM_DENOM = 2 ** 32  # random rationals keep the exact pipeline available


def generate_point_set(curve: CurveSpec, scheme: Scheme) -> ParamPointSet:
    """Generate N distinct in-domain parameters according to the scheme."""
    if scheme.n < 2:
        raise ValueError("schemes need N >= 2 points")
    dom = curve.domain
    # rand and an exact progression with a nonzero step are strictly
    # monotone, so distinct, and lie in the (convex) domain iff both ends do
    monotone = isinstance(scheme, UniformRandom)
    if isinstance(scheme, ArithmeticProgression):
        start, step = parse_param(scheme.start), parse_param(scheme.step)
        monotone = (isinstance(start, Fraction) and isinstance(step, Fraction)
                    and step != 0)
        if monotone:  # start + i step = (a d + i c b) / (b d), a/b + i c/d
            a, b = start.numerator, start.denominator
            c, d = step.numerator, step.denominator
            params = [Fraction(a * d + i * c * b, b * d) for i in range(scheme.n)]
        else:
            params = [start + i * step for i in range(scheme.n)]
        label = f"arith({scheme.start},{scheme.step},{scheme.n})"
    elif isinstance(scheme, GeometricProgression):
        start, ratio = parse_param(scheme.start), parse_param(scheme.ratio)
        params = [start * ratio ** i for i in range(scheme.n)]
        label = f"geom({scheme.start},{scheme.ratio},{scheme.n})"
    elif isinstance(scheme, UniformRandom):
        if scheme.n >= _RANDOM_DENOM:  # the draws below could never finish
            raise ValueError(f"rand draws N distinct numerators k/2^32, so N "
                             f"<= {_RANDOM_DENOM - 1}; got N = {scheme.n}")
        if not dom.is_finite():
            raise DomainError("UniformRandom needs a finite domain")
        rng = random.Random(scheme.seed)
        lo = as_fraction(dom.lo) if not is_exact(dom.lo) else dom.lo
        hi = as_fraction(dom.hi) if not is_exact(dom.hi) else dom.hi
        # k -> lo + (hi - lo) k / 2^32 = (a + w k) / den is strictly
        # increasing: distinct sorted draws give the distinct sorted
        # parameters, and the first and last lie in the domain iff all do
        ks = set()
        while len(ks) < scheme.n:
            ks.add(rng.randrange(1, _RANDOM_DENOM))
        den = lo.denominator * hi.denominator * _RANDOM_DENOM
        a = lo.numerator * hi.denominator * _RANDOM_DENOM
        w = hi.numerator * lo.denominator - lo.numerator * hi.denominator
        params = tuple(Fraction(a + w * k, den) for k in sorted(ks))
        label = f"rand(seed={scheme.seed},{scheme.n})"
    elif isinstance(scheme, EquallySpacedAngle):
        if not (isinstance(curve, HelixCurve) and curve.k == 1 and curve.l == 0):
            raise SchemeMismatch(
                "EquallySpacedAngle applies only to circles (helix k=1, l=0)")
        lo = float(curve.domain.lo)
        width = 2 * np.pi / abs(curve.frequencies[0])
        if curve.domain.span() < width:
            raise DomainError("circle domain shorter than one full period")
        # half-step offset keeps every node strictly inside the open domain
        params = [lo + width * (2 * j + 1) / (2 * scheme.n)
                  for j in range(scheme.n)]
        label = f"angles({scheme.n})"
    else:
        raise TypeError(f"unknown scheme {scheme!r}")

    if not (monotone and dom.contains(params[0]) and dom.contains(params[-1])):
        for t in params:  # the first parameter to leave, in generation order
            if not dom.contains(t):
                raise DomainError(
                    f"scheme parameter {t} leaves domain ({dom.lo}, {dom.hi})")
    if monotone:
        params = tuple(params if params[0] < params[-1] else params[::-1])
    else:
        params = tuple(sorted(params))
        if any(not (a < b) for a, b in zip(params, params[1:])):
            raise ValueError("scheme generated duplicate parameters")
    pset = object.__new__(ParamPointSet)  # checked above: no second check
    pset.__dict__.update(curve=curve, params=params, label=label)
    return pset


def parse_scheme(text: str) -> Scheme:
    """Parse CLI scheme strings: arith:start:step:N, geom:start:ratio:N,
    rand:seed:N, angles:N."""
    parts = text.split(":")
    kind = parts[0]
    if kind == "arith" and len(parts) == 4:
        return ArithmeticProgression(parse_param(parts[1]), parse_param(parts[2]),
                                     int(parts[3]))
    if kind == "geom" and len(parts) == 4:
        return GeometricProgression(parse_param(parts[1]), parse_param(parts[2]),
                                    int(parts[3]))
    if kind == "rand" and len(parts) == 3:
        return UniformRandom(int(parts[1]), int(parts[2]))
    if kind == "angles" and len(parts) == 2:
        return EquallySpacedAngle(int(parts[1]))
    raise ValueError(f"bad scheme string {text!r}")


def parse_param(v):
    """A parameter as the exact pipelines want it: ints, Fractions and
    strings that parse as a Fraction ("1/7", "0.25") become Fractions,
    other strings floats; floats stay as they are.  Anything else (None,
    a bool, a list) raises ValueError."""
    if isinstance(v, float):
        return v
    if not (isinstance(v, str) or is_exact(v)):
        raise ValueError(f"bad parameter {v!r}: need a number or a string")
    try:
        return as_fraction(v)
    except ValueError:
        return float(v)


# -- distinct-value counting -----------------------------------------------


@dataclass(frozen=True)
class Exact:
    pass


@dataclass(frozen=True)
class Tolerance:
    rel_eps: float

    def __post_init__(self):
        if not self.rel_eps > 0:
            raise ValueError("Tolerance rel_eps must be > 0")


CountMode = Union[Exact, Tolerance]

_ABS_FLOOR = 1e-300  # absolute dedup floor under the relative-gap rule


@dataclass
class CountResult:
    """The number of distinct values of D on a point set, and their min
    and max: exact Fractions in exact mode, floats in tolerance mode, None
    when the set has no pair."""

    count: int
    n_points: int
    n_pairs: int
    mode: str
    value_min: object = None
    value_max: object = None

    def to_dict(self) -> dict:
        doc = {"count": self.count, "n_points": self.n_points,
               "n_pairs": self.n_pairs, "mode": self.mode}
        if self.value_min is not None:
            doc["value_min"] = _report_number(self.value_min)
            doc["value_max"] = _report_number(self.value_max)
        return doc


def _report_number(v):
    """float(v); an exact value beyond the float range as its exact string."""
    try:
        return float(v)
    except OverflowError:
        return str(v)


# -- exact counting by modular fingerprints ---------------------------------


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the bases 2, 3, 5 and 7 decide every
    n < 3,215,031,751."""
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes below 2^31, largest first: a product of two residues
    fits in uint64, and so do two residues packed as r0 * p1 + r1."""
    return filter(_is_prime, range(2 ** 31 - 1, 1, -1))


def _integer_points(curve, params) -> tuple:
    """(N, delta): the points x_i = N[i] / delta[i] coordinatewise, each
    over one denominator delta[i] > 0, the lcm of its coordinates' Horner
    denominators (RationalFunction.ratio)."""
    coords = [rf.ratio for rf in curve.coords]
    N, delta = [], []
    for t in params:
        nd = [f(t) for f in coords]
        m = math.lcm(*(d for _, d in nd))
        N.append([n * (m // d) for n, d in nd])
        delta.append(m)
    return N, delta


def _separated(q: QuantitySpec, N: list, delta: list) -> tuple:
    """Integer factor rows (A, alpha), (B, beta) of D on the points
    N[i] / delta[i]: D(x_i, x_j) = sum_t A[t][i] B[t][j] / (alpha[i] beta[j])
    with alpha, beta > 0, one list of ints over the points per term t."""
    if isinstance(q, SquaredEuclidean):
        # sum_k (x_k - y_k)^2 = |x|^2 + |y|^2 + sum_k x_k (-2 y_k), over delta^2
        sq = [m * m for m in delta]
        norms = [sum(x * x for x in p) for p in N]
        cols = [list(c) for c in zip(*([x * m for x in p] for p, m in zip(N, delta)))]
        return ([norms, sq] + cols, sq,
                [sq, norms] + [[-2 * x for x in c] for c in cols], sq)
    if isinstance(q, GeneralPolynomial):
        # c x^e y^f = (C x^e delta_x^(da - |e|)) (y^f delta_y^(db - |f|))
        # / (L delta_x^da delta_y^db), with C = L c and L the coefficients' lcm
        d = q.dimension
        lcm = math.lcm(*(c.denominator for _, c in q.terms))
        da = max((sum(e[:d]) for e, _ in q.terms), default=0)
        db = max((sum(e[d:]) for e, _ in q.terms), default=0)
        A = [[c.numerator * (lcm // c.denominator) * math.prod(map(pow, p, e[:d]))
              * m ** (da - sum(e[:d])) for p, m in zip(N, delta)] for e, c in q.terms]
        B = [[math.prod(map(pow, p, e[d:])) * m ** (db - sum(e[d:]))
              for p, m in zip(N, delta)] for e, _ in q.terms]
        return A, [lcm * m ** da for m in delta], B, [m ** db for m in delta]
    # pinned area about the apex v = V / s: (u0 w1 - u1 w0)^2 with
    # u = x - v = (N s - V delta) / (s delta), w likewise
    s = math.lcm(*(Fraction(v).denominator for v in q.apex))
    V0, V1 = (int(v * s) for v in q.apex)
    u0 = [x * s - V0 * m for (x, _), m in zip(N, delta)]
    u1 = [y * s - V1 * m for (_, y), m in zip(N, delta)]
    s0, s1 = [x * x for x in u0], [y * y for y in u1]
    mix = [x * y for x, y in zip(u0, u1)]
    den = [(s * m) ** 2 for m in delta]
    return [s0, s1, mix], den, [s1, s0, [-2 * c for c in mix]], den


def _height_bound(A: list, alpha: list, B: list, beta: list) -> int:
    """H with |S1 m2 - S2 m1| <= H for any two pair values S1/m1, S2/m2.

    A pair value is S / m with S = sum_t A[t][i] B[t][j] and
    m = alpha[i] beta[j] > 0.  |S| <= V = sum_t max |A_t| max |B_t| and
    0 < m <= M = max alpha * max beta, so |S1 m2 - S2 m1| <= |S1| m2 +
    |S2| m1 <= 2 V M."""
    V = sum(max(map(abs, x)) * max(map(abs, y)) for x, y in zip(A, B))
    return 2 * V * max(alpha) * max(beta)


def _powmod(x: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.ones_like(x)
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _fingerprints(A: list, alpha: list, B: list, beta: list):
    """(p, A mod p / alpha, B mod p / beta) for the usable primes, largest
    first, each residue row a uint64 array over the points.  A prime is
    usable when it divides no alpha[i] and no beta[j]: every pair value
    S / m then has the residue S m^-1 mod p, and reduction mod p is a ring
    homomorphism on the values involved."""
    n = len(alpha)
    nums = [v for row in A + B for v in row]
    dens = alpha + beta
    for p in _primes():
        den = np.array([d % p for d in dens], dtype=np.uint64)
        if not den.all():
            continue
        inv = _powmod(den, p - 2, p).reshape(2, 1, n)
        num = np.array([x % p for x in nums], dtype=np.uint64)
        r = num.reshape(2, len(A), n) * inv % p
        yield p, r[0], r[1]


def _pair_residues(ra, rb, I, J, p: int) -> np.ndarray:
    """D mod p at the pairs (I[k], J[k])."""
    acc = np.zeros(len(I), dtype=np.uint64)
    for t, (x, y) in enumerate(zip(ra, rb), 1):
        prod = np.take(x, I)
        prod *= np.take(y, J)
        acc += prod
        if t % 4 == 0:  # p + 4 (p - 1)^2 < 2^64: reduce after every fourth
            acc %= p
    acc %= p
    return acc


def _count_exact(A, alpha, B, beta, I, J) -> int:
    """The number of distinct values of D over the pairs (I, J).

    Equal values have equal residues mod every usable prime, so differing
    residues prove two values distinct, and a class of equal residues
    never splits equal values.  The first key packs the residues of two
    primes; a class of two or more pairs takes further primes, on its
    members only, until the product of the primes used passes the height
    bound: residues equal mod primes whose product exceeds |S1 m2 - S2 m1|
    make that difference 0.  The source holds about 10^8 primes, far more
    than any height bound that fits in memory needs."""
    bound = _height_bound(A, alpha, B, beta)
    prints = _fingerprints(A, alpha, B, beta)
    (p0, *r0), (p1, *r1) = next(prints), next(prints)
    key = _pair_residues(*r0, I, J, p0)
    key *= p1
    key += _pair_residues(*r1, I, J, p1)
    modulus = p0 * p1
    sk = np.sort(key)
    dup = sk[1:] == sk[:-1]
    count = len(key) - int(np.count_nonzero(dup))
    if count == len(key) or modulus > bound:
        return count
    shared = np.unique(sk[1:][dup])  # the keys of two or more pairs
    del sk, dup
    pos = np.minimum(np.searchsorted(shared, key), len(shared) - 1)
    members = np.flatnonzero(shared[pos] == key)
    del pos
    singles = count - len(shared)
    I, J = I[members], J[members]
    cls = np.searchsorted(shared, key[members]).astype(np.uint64)
    while modulus <= bound:
        nxt = next(prints, None)
        if nxt is None:
            raise ArithmeticError("too few primes to pass the height bound")
        p, ra, rb = nxt
        cls = cls * p + _pair_residues(ra, rb, I, J, p)
        cls = np.unique(cls, return_inverse=True)[1].astype(np.uint64)
        modulus *= p
    return singles + int(cls.max()) + 1


_UNIT_ROUNDOFF = 2.0 ** -53


def _disjoint(lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the closed intervals [lo[k], hi[k]] are pairwise disjoint.
    Sorts lo and hi, each in place.

    With both sorted, they are disjoint iff lo[k + 1] > hi[k] for every k.
    If: take two that overlap, a and b with lo_a <= lo_b <= hi_a, let
    x = lo_b and r = #{lo <= x} >= 2.  The condition gives
    hi[r - 2] < lo[r - 1] <= x, so #{hi < x} >= r - 1: of the r intervals
    that start at or below x, at most one reaches x, yet a and b both do.
    Only if: disjoint intervals sorted by lo are also sorted by hi, and
    each ends before the next starts.  The comparison is strict because
    closed intervals that touch may share their one common value."""
    lo.sort()
    hi.sort()
    return bool(np.all(lo[1:] > hi[:-1]))


def _exact_extremes(A, alpha, B, beta, I, J) -> tuple:
    """(min, max, distinct) of D over the pairs (I, J): the min and max
    exact, and distinct True when the values are proven pairwise distinct.

    The factor values a = A[t][i] / alpha[i] and b = B[t][j] / beta[j]
    round once each (int true division is correctly rounded, so fl(a) is
    float(Fraction(a))).  The float value f = sum_t fl(a) fl(b) of a pair
    is within e = gamma_(T+2) * sum_t |fl(a) fl(b)| of D (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.1), doubled here to cover the
    rounding of that sum and of f -/+ e, plus an absolute part for
    underflow: a factor that rounds into the subnormal range is off by up
    to half the smallest subnormal s, and that error is multiplied by its
    partner factor, so each pair adds s (sum_t |fl(a)| + |fl(b)| + 2T).
    Only pairs whose interval [f - e, f + e] can hold the min or the max
    are evaluated exactly, as one Fraction each, or every pair when a
    float is not finite.  The values are distinct when the intervals are
    pairwise disjoint (_disjoint); one pair is distinct by itself, and
    an interval that is not finite proves nothing."""
    keep = np.ones(len(I), dtype=bool)
    distinct = len(I) == 1
    try:
        af = np.array([[x / m for x, m in zip(row, alpha)] for row in A])
        bf = np.array([[y / m for y, m in zip(row, beta)] for row in B])
    except OverflowError:  # a factor value beyond the float range
        af = None
    if af is not None:
        f, size = np.zeros(len(I)), np.zeros(len(I))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for x, y in zip(af, bf):
                prod = np.take(x, I)
                prod *= np.take(y, J)
                f += prod
                size += np.abs(prod, out=prod)
            n = len(A) + 2
            size *= 2 * n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)
            s = np.finfo(float).smallest_subnormal
            size += np.take(s * (np.abs(af).sum(0) + len(A)), I)
            size += np.take(s * (np.abs(bf).sum(0) + len(A)), J)
        if np.isfinite(size).all():
            hi = f + size
            lo = np.subtract(f, size, out=f)
            del size  # the in-place sorts below add no O(n^2) array
            keep = (lo <= hi.min()) | (hi >= lo.max())
            distinct = _disjoint(lo, hi)
    vals = [Fraction(sum(x[i] * y[j] for x, y in zip(A, B)), alpha[i] * beta[j])
            for i, j in zip(I[keep].tolist(), J[keep].tolist())]
    return min(vals), max(vals), distinct


def count_distinct_values(pset: ParamPointSet, q: QuantitySpec,
                          mode: CountMode = Tolerance(1e-9)) -> CountResult:
    """|{D(p, r) : p != r in P}| with exact or tolerance deduplication.

    Exact mode needs a rational curve, rational parameters and a
    rational-coefficient quantity.  It runs on integers: each point is
    integer numerators over one positive denominator (_integer_points),
    and D is written in separated form with integer factor rows,
    D(x_i, x_j) = sum_t A_t[i] B_t[j] / (alpha_i beta_j), computed once
    per point (_separated).  A float pass encloses every pair value in an
    interval with a proven error bound (_exact_extremes).  It gives the
    min and max: only the pairs where the bound leaves a doubt become
    Fractions.  When no two intervals meet, it also proves every value
    distinct, and the count is n_pairs.  Otherwise every pair value is
    reduced mod primes p < 2^31 in uint64 numpy arithmetic: differing
    residues prove two values distinct, and residues equal mod primes
    whose product passes a height bound prove them equal (_count_exact).
    Tolerance mode sorts all pair values and merges runs whose relative
    gap is below rel_eps (scale-free; adversarial near-collisions can
    over- or under-merge).  It takes the gaps in blocks of _BLOCK, so its
    working set is the n(n-1)/2 sorted values plus O(_BLOCK).
    """
    n = len(pset)
    n_pairs = n * (n - 1) // 2
    check_dimension(q, pset.curve.dimension)
    if isinstance(mode, Exact):
        if not is_exact_data(pset.curve, pset.params, q):
            raise ExactnessUnavailable(
                "Exact counting needs rational curve, params and quantity")
        if n_pairs == 0:
            return CountResult(0, n, 0, "exact")
        rows = _separated(q, *_integer_points(pset.curve, pset.params))
        I, J = np.triu_indices(n, 1)
        lo, hi, distinct = _exact_extremes(*rows, I, J)
        count = n_pairs if distinct else _count_exact(*rows, I, J)
        return CountResult(count=count, n_points=n, n_pairs=n_pairs,
                           mode="exact", value_min=lo, value_max=hi)

    if n_pairs == 0:
        return CountResult(0, n, 0, "tolerance")
    P, vals, k = pset.points_array(), np.empty(n_pairs), 0
    for i in range(n - 1):
        vals[k:k + n - 1 - i] = q.eval_batch(P[i], P[i + 1:])
        k += n - 1 - i
    vals.sort()
    # a run ends where the gap exceeds rel_eps * max(|ends|) + _ABS_FLOOR;
    # the gaps go in blocks of _BLOCK, and value_max is vals[last], the
    # first value of the last run
    count, last = 1, 0
    for s in range(0, n_pairs - 1, _BLOCK):
        e = min(s + _BLOCK, n_pairs - 1)
        lo, hi = vals[s:e], vals[s + 1:e + 1]
        # lo <= hi, so max(|lo|, |hi|) is max(-lo, hi)
        scale = np.negative(lo)
        np.maximum(scale, hi, out=scale)
        scale *= mode.rel_eps
        scale += _ABS_FLOOR
        boundary = np.subtract(hi, lo) > scale
        if boundary.any():
            count += int(np.count_nonzero(boundary))
            last = e - int(np.argmax(boundary[::-1]))
    return CountResult(count=count, n_points=n, n_pairs=n_pairs,
                       mode=f"tolerance({mode.rel_eps:g})",
                       value_min=vals[0], value_max=vals[last])


# -- growth-exponent fitting ------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log(count) against log(N)."""

    samples: tuple
    slope: float
    intercept: float
    r_squared: float

    def to_dict(self) -> dict:
        return asdict(self)


def fit_exponent(runs: Sequence) -> ExponentFit:
    """runs: (ParamPointSet | N, count) pairs with strictly increasing N."""
    samples = []
    for item, count in runs:
        n = len(item) if isinstance(item, ParamPointSet) else int(item)
        samples.append((n, int(count)))
    if len(samples) < 3:
        raise InsufficientSamples("need at least 3 (N, count) samples")
    ns = [s[0] for s in samples]
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise InsufficientSamples("sample sizes N must be strictly increasing")
    x = np.log([float(s[0]) for s in samples])
    y = np.log([float(s[1]) for s in samples])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return ExponentFit(samples=tuple(samples), slope=float(slope),
                       intercept=float(intercept), r_squared=r2)


# -- incidence-implied lower bound ------------------------------------------


def elekes_lower_bound(num_points: int, num_curves: int,
                       incidence_k: float = 1.0) -> float:
    """Smallest distinct-value count consistent with the incidence bound.

    The curve family contributes at least (NP - 2) * NXi incidences with the
    Delta x Delta product grid, while the incidence bound caps them by
    K * max(NXi^(2/3) * Delta^(4/3), NXi, Delta^2) (Delta^2 = |grid|).  The
    cap grows with Delta and is K * NXi at Delta = 1, so the answer is 1.0
    when K * NXi >= (NP - 2) * NXi, and otherwise, in closed form, the
    smaller Delta at which the first or the last term reaches (NP - 2) * NXi.
    """
    if num_points < 3:
        raise ValueError("need num_points >= 3")
    if num_curves < 1:
        raise ValueError("need num_curves >= 1")
    if not incidence_k > 0:
        raise ValueError("incidence constant must be > 0")
    lhs = (num_points - 2) * float(num_curves)
    if incidence_k * num_curves >= lhs:
        return 1.0
    return min((lhs / (incidence_k * float(num_curves) ** (2 / 3))) ** 0.75,
               math.sqrt(lhs / incidence_k))
