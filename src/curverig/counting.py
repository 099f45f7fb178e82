"""Point-set generation on curves and distinct-value counting.

Counts are taken over unordered off-diagonal pairs; the trivial value
D(p, p) = 0 is excluded so that counts match the distance-counting
convention (including it would shift every count by exactly one).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .curves import CurveSpec, HelixCurve, is_exact_data
from .errors import (DomainError, ExactnessUnavailable, InsufficientSamples,
                     SchemeMismatch)
from .parallel import parallel_chunked
from .quantity import QuantitySpec
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
    if isinstance(scheme, ArithmeticProgression):
        start, step = parse_param(scheme.start), parse_param(scheme.step)
        params = [start + i * step for i in range(scheme.n)]
        label = f"arith({scheme.start},{scheme.step},{scheme.n})"
    elif isinstance(scheme, GeometricProgression):
        start, ratio = parse_param(scheme.start), parse_param(scheme.ratio)
        params = [start * ratio ** i for i in range(scheme.n)]
        label = f"geom({scheme.start},{scheme.ratio},{scheme.n})"
    elif isinstance(scheme, UniformRandom):
        dom = curve.domain
        if not dom.is_finite():
            raise DomainError("UniformRandom needs a finite domain")
        rng = random.Random(scheme.seed)
        lo = as_fraction(dom.lo) if not is_exact(dom.lo) else dom.lo
        hi = as_fraction(dom.hi) if not is_exact(dom.hi) else dom.hi
        seen = set()
        while len(seen) < scheme.n:
            k = rng.randrange(1, _RANDOM_DENOM)
            seen.add(lo + (hi - lo) * Fraction(k, _RANDOM_DENOM))
        params = sorted(seen)
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

    for t in params:
        if not curve.domain.contains(t):
            raise DomainError(
                f"scheme parameter {t} leaves domain "
                f"({curve.domain.lo}, {curve.domain.hi})")
    params = sorted(params)
    if any(not (a < b) for a, b in zip(params, params[1:])):
        raise ValueError("scheme generated duplicate parameters")
    return ParamPointSet(curve=curve, params=tuple(params), label=label)


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
    other strings floats; floats stay as they are."""
    if isinstance(v, str):
        try:
            return as_fraction(v)
        except (ValueError, ZeroDivisionError):
            return float(v)
    return as_fraction(v) if is_exact(v) else v


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
    """The distinct values of D on a point set, sorted: a list of Fractions
    in exact mode, a float array of run representatives in tolerance mode.
    Reports give their count, min and max."""

    count: int
    n_points: int
    n_pairs: int
    mode: str
    values: Sequence = field(repr=False)

    def to_dict(self) -> dict:
        doc = {"count": self.count, "n_points": self.n_points,
               "n_pairs": self.n_pairs, "mode": self.mode}
        if len(self.values):
            doc["value_min"] = float(self.values[0])
            doc["value_max"] = float(self.values[-1])
        return doc


def count_distinct_values(pset: ParamPointSet, q: QuantitySpec,
                          mode: CountMode = Tolerance(1e-9),
                          threads: int = 1) -> CountResult:
    """|{D(p, r) : p != r in P}| with exact or tolerance deduplication.

    Exact mode needs a rational curve, rational parameters and a
    rational-coefficient quantity; values are deduplicated by exact
    equality.  Tolerance mode sorts all pair values and merges runs whose
    relative gap is below rel_eps (scale-free; adversarial near-collisions
    can over- or under-merge).
    """
    n = len(pset)
    n_pairs = n * (n - 1) // 2
    if isinstance(mode, Exact):
        if not is_exact_data(pset.curve, pset.params, q):
            raise ExactnessUnavailable(
                "Exact counting needs rational curve, params and quantity")
        pts = [pset.curve.evaluate(t) for t in pset.params]

        def worker(a, b):
            vals = []
            for i in range(a, b):
                for j in range(i + 1, n):
                    vals.append(q.eval(pts[i], pts[j]))
            return vals

        values = parallel_chunked(worker, n, threads=threads, chunk_size=8)
        # dict keeps the pair order, whose sorted runs a set would scramble
        uniq = sorted(dict.fromkeys(values))
        return CountResult(count=len(uniq), n_points=n, n_pairs=n_pairs,
                           mode="exact", values=uniq)

    P = pset.points_array()

    def worker(a, b):
        out = []
        for i in range(a, b):
            if i + 1 < n:
                out.append(q.eval_batch(P[i], P[i + 1:]))
        return out

    parts = parallel_chunked(worker, n, threads=threads, chunk_size=32)
    vals = np.sort(np.concatenate(parts)) if parts else np.array([])
    if vals.size == 0:
        return CountResult(0, n, n_pairs, "tolerance", vals)
    gaps = np.diff(vals)
    scale = np.maximum(np.abs(vals[:-1]), np.abs(vals[1:]))
    boundary = gaps > (mode.rel_eps * scale + _ABS_FLOOR)
    reps = vals[np.concatenate([[True], boundary])]
    return CountResult(count=len(reps), n_points=n, n_pairs=n_pairs,
                       mode=f"tolerance({mode.rel_eps:g})", values=reps)


# -- growth-exponent fitting ------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log(count) against log(N)."""

    samples: tuple
    slope: float
    intercept: float
    r_squared: float

    def to_dict(self) -> dict:
        return {"samples": [[int(n), int(c)] for n, c in self.samples],
                "slope": self.slope, "intercept": self.intercept,
                "r_squared": self.r_squared}


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
