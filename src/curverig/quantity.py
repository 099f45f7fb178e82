"""Distance polynomials D(x, y) on pairs of ambient points.

Three kinds are supported: the squared Euclidean distance, the squared
pinned triangle area about a fixed apex (d = 2 only), and a free-form
polynomial in the 2d coordinates of (x, y).  Evaluation and gradients are
exact on rational inputs; they also take coordinates that are rational
functions of t, which is how the Elekes curves are built.  Batch variants
operate on broadcast float numpy arrays.  `pairing` and `pairings` give the
edge-gradient pairing gamma'(a) . D_X(gamma(a), gamma(b)) that the rest of
the package builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import DimensionMismatch
from .rational import RationalFunction, as_fraction, is_exact


def _json_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what} {v!r} is not a list")
    return v


def _index(v, what: str) -> int:
    """v when it is an int >= 0 and not a bool, else ValueError."""
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ValueError(f"{what} {v!r} is not an integer >= 0")
    return v


def check_dimension(q, d: int) -> None:
    """DimensionMismatch unless D takes points of dimension d."""
    if q.dimension not in (None, d):
        raise DimensionMismatch(f"expected dimension {q.dimension}, got {d}")


def _check_dim(q, x, y):
    if len(x) != len(y):
        raise DimensionMismatch(f"point dimensions differ: {len(x)} vs {len(y)}")
    check_dimension(q, len(x))


def _arithmetic(z):
    """(coefficient conversion, zero) for coordinates z: exact when every
    coordinate is an int, a Fraction or a RationalFunction, float otherwise."""
    if all(is_exact(c) or isinstance(c, RationalFunction) for c in z):
        return (lambda c: c), Fraction(0)
    return float, 0.0


@dataclass(frozen=True)
class SquaredEuclidean:
    """D(x, y) = sum_i (x_i - y_i)^2."""

    dimension: Optional[int] = None
    kind: str = field(default="sq_euclidean", init=False)

    def eval(self, x, y):
        _check_dim(self, x, y)
        return sum((a - b) * (a - b) for a, b in zip(x, y))

    def grad(self, x, y):
        _check_dim(self, x, y)
        dx = tuple(2 * (a - b) for a, b in zip(x, y))
        dy = tuple(-g for g in dx)
        return dx, dy

    def eval_batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        if X.shape[-1] >= 8:  # numpy sums 8 or more terms pairwise
            d = X - Y
            return np.sum(np.square(d, out=d), axis=-1)
        # fewer terms numpy sums left to right, as this loop does: bitwise
        # equal, without the (..., d) difference array.  Out of place,
        # since one-point inputs give numpy scalars
        c = X[..., 0] - Y[..., 0]
        out = c * c
        for k in range(1, X.shape[-1]):
            c = X[..., k] - Y[..., k]
            out = out + c * c
        return out

    def grad_batch(self, X, Y, with_y=True):
        dx = X - Y
        dx *= 2.0
        return dx, -dx if with_y else None


@dataclass(frozen=True)
class PinnedAreaSquared:
    """D(x, y) = ((x1-v1)(y2-v2) - (x2-v2)(y1-v1))^2 for a fixed apex v.

    2 D(x,y)^(1/2) is four times the area of the triangle with vertices
    x, y, v; D vanishes iff x - v and y - v are parallel.
    """

    apex: tuple
    dimension: Optional[int] = field(default=2, init=False)
    kind: str = field(default="pinned_area", init=False)

    def __post_init__(self):
        if len(self.apex) != 2:
            raise DimensionMismatch("pinned-area apex must be a 2-vector")
        object.__setattr__(self, "apex", tuple(self.apex))

    def _cross(self, x, y):
        v1, v2 = self.apex
        return (x[0] - v1) * (y[1] - v2) - (x[1] - v2) * (y[0] - v1)

    def eval(self, x, y):
        _check_dim(self, x, y)
        c = self._cross(x, y)
        return c * c

    def grad(self, x, y):
        _check_dim(self, x, y)
        v1, v2 = self.apex
        c = self._cross(x, y)
        dx = (2 * c * (y[1] - v2), -2 * c * (y[0] - v1))
        dy = (-2 * c * (x[1] - v2), 2 * c * (x[0] - v1))
        return dx, dy

    def eval_batch(self, X, Y):
        v1, v2 = float(self.apex[0]), float(self.apex[1])
        c = (X[..., 0] - v1) * (Y[..., 1] - v2) - (X[..., 1] - v2) * (Y[..., 0] - v1)
        return c * c

    def grad_batch(self, X, Y, with_y=True):
        v1, v2 = float(self.apex[0]), float(self.apex[1])
        c = (X[..., 0] - v1) * (Y[..., 1] - v2) - (X[..., 1] - v2) * (Y[..., 0] - v1)
        dx = np.stack([2 * c * (Y[..., 1] - v2), -2 * c * (Y[..., 0] - v1)], axis=-1)
        dy = (np.stack([-2 * c * (X[..., 1] - v2), 2 * c * (X[..., 0] - v1)], axis=-1)
              if with_y else None)
        return dx, dy


@dataclass(frozen=True)
class GeneralPolynomial:
    """Explicit polynomial in the 2d variables (x_1..x_d, y_1..y_d).

    terms: sequence of (exponent vector of length 2d, coefficient).  Terms
    are deduplicated (coefficients summed) and sorted by exponent vector.
    No symmetry is enforced; check_simplicity reports violations instead.
    """

    dimension: int
    terms: tuple = ()
    kind: str = field(default="poly", init=False)

    def __post_init__(self):
        merged: dict = {}
        for expo, coeff in self.terms:
            expo = tuple(_index(e, "exponent") for e in expo)
            if len(expo) != 2 * self.dimension:
                raise DimensionMismatch(
                    f"exponent vector length {len(expo)} != 2*{self.dimension}")
            merged[expo] = merged.get(expo, Fraction(0)) + as_fraction(coeff)
        object.__setattr__(
            self, "terms",
            tuple(sorted((e, c) for e, c in merged.items() if c != 0)))

    def _monomial_sum(self, z, conv, zero, k=None):
        """sum of conv(c) * z^e over the terms, or of its z_k-derivative;
        z holds the 2d coordinates, scalars or arrays alike."""
        total = zero
        for expo, coeff in self.terms:
            if k is None:
                term = conv(coeff)
            elif expo[k]:
                term = conv(coeff) * expo[k]
                expo = expo[:k] + (expo[k] - 1,) + expo[k + 1:]
            else:
                continue
            for zi, ei in zip(z, expo):
                if ei:
                    term = term * zi ** ei
            total += term
        return total

    def eval(self, x, y):
        _check_dim(self, x, y)
        z = tuple(x) + tuple(y)
        return self._monomial_sum(z, *_arithmetic(z))

    def grad(self, x, y):
        _check_dim(self, x, y)
        z = tuple(x) + tuple(y)
        conv, zero = _arithmetic(z)
        g = [self._monomial_sum(z, conv, zero, k) for k in range(len(z))]
        return tuple(g[:len(x)]), tuple(g[len(x):])

    @staticmethod
    def _columns(X, Y):
        """The 2d coordinate arrays of broadcast (X, Y), and their shape."""
        X, Y = np.broadcast_arrays(X, Y)
        return [A[..., i] for A in (X, Y) for i in range(A.shape[-1])], X.shape[:-1]

    def eval_batch(self, X, Y):
        z, shape = self._columns(X, Y)
        return self._monomial_sum(z, float, np.zeros(shape))

    def grad_batch(self, X, Y, with_y=True):
        z, shape = self._columns(X, Y)
        d = len(z) // 2
        g = np.stack([self._monomial_sum(z, float, np.zeros(shape), k)
                      for k in range(2 * d if with_y else d)], axis=-1)
        return g[..., :d], g[..., d:] if with_y else None


QuantitySpec = SquaredEuclidean | PinnedAreaSquared | GeneralPolynomial


def pairing(q: QuantitySpec, x, vx, y, vy):
    """(vx . D_X(x, y), vy . D_Y(x, y)) at one point pair; exact when the
    points and velocities are rational.  A None velocity gives None."""
    dx, dy = q.grad(x, y)
    return (None if vx is None else sum(a * b for a, b in zip(vx, dx)),
            None if vy is None else sum(a * b for a, b in zip(vy, dy)))


def pairings(q: QuantitySpec, X, VX, Y, VY):
    """(D, VX . D_X, VY . D_Y) over float arrays whose leading axes
    broadcast against each other; a None velocity gives None."""
    D = q.eval_batch(X, Y)  # before the gradients: a lower memory peak
    dx, dy = q.grad_batch(X, Y, VY is not None)
    return (D,
            None if VX is None else np.einsum("...k,...k->...", dx, VX),
            None if VY is None else np.einsum("...k,...k->...", dy, VY))


def quantity_degree(q: QuantitySpec) -> int:
    """Total degree of D as a polynomial in the 2d ambient coordinates."""
    if isinstance(q, SquaredEuclidean):
        return 2
    if isinstance(q, PinnedAreaSquared):
        return 4
    return max((sum(e) for e, _ in q.terms), default=0)


def quantity_is_rational(q: QuantitySpec) -> bool:
    """True when D has rational coefficients.  Only a pinned-area apex can
    be irrational: GeneralPolynomial keeps its coefficients as Fractions."""
    return not isinstance(q, PinnedAreaSquared) or all(is_exact(v) for v in q.apex)


def quantity_from_json(doc: dict) -> QuantitySpec:
    """Parse {"kind": "sq_euclidean" | "pinned_area" | "poly", ...}."""
    kind = doc.get("kind")
    if kind == "sq_euclidean":
        dim = doc.get("dimension")
        return SquaredEuclidean(None if dim is None else _index(dim, "dimension"))
    if kind == "pinned_area":
        return PinnedAreaSquared(
            apex=tuple(as_fraction(v) for v in _json_list(doc["apex"], "apex")))
    if kind == "poly":
        terms = [_json_list(t, "term") for t in _json_list(doc["terms"], "terms")]
        return GeneralPolynomial(_index(doc["dimension"], "dimension"), tuple(
            (tuple(_json_list(e, "exponents")), as_fraction(c)) for e, c in terms))
    raise ValueError(f"unknown quantity kind {kind!r}")


def quantity_to_json(q: QuantitySpec) -> dict:
    if isinstance(q, SquaredEuclidean):
        doc = {"kind": "sq_euclidean"}
        if q.dimension is not None:
            doc["dimension"] = q.dimension
        return doc
    if isinstance(q, PinnedAreaSquared):
        return {"kind": "pinned_area", "apex": [str(v) for v in q.apex]}
    return {"kind": "poly", "dimension": q.dimension,
            "terms": [[list(e), str(c)] for e, c in q.terms]}
