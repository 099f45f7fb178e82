"""Exact univariate polynomials and rational functions over Q, on integers.

One core on ascending int lists (no trailing zeros, [] for zero): _prem,
the primitive remainder sequence _gcd and the exact quotient _quo reduce
rational functions and build Sturm chains, and _det takes Bareiss
determinants (bipoly's resultants).  Poly and RationalFunction are
immutable and exact-only: they evaluate at int or Fraction arguments, else
raise TypeError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from typing import Iterable, Sequence, Union

from .errors import PoleError

Scalar = Union[int, Fraction, float]

NEG_INF = float("-inf")
POS_INF = float("inf")


def is_exact(x) -> bool:
    """True for int/Fraction scalars (the exact-arithmetic carriers)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _require_exact(t):
    if not is_exact(t):
        raise TypeError(f"exact evaluation needs an int or Fraction, "
                        f"not {type(t).__name__}")


def as_fraction(x) -> Fraction:
    """An int, a Fraction, a "p/q" string or a finite float (at its binary
    value) as a Fraction; ValueError for anything else."""
    try:
        if isinstance(x, (int, Fraction, str, float)) and not isinstance(x, bool):
            return Fraction(x)
    except (ZeroDivisionError, OverflowError):  # "1/0", +-inf
        pass
    raise ValueError(f"cannot convert {x!r} to Fraction")


# -- integer polynomial core ---------------------------------------------


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b) -> list:
    return _trim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def _mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)  # [] when a or b is


def _diff(a) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def _primitive(a) -> list:
    """a over its positive content."""
    c = math.gcd(*a) or 1
    return [x // c for x in a]


def _prem(a, b) -> list:
    """Pseudo-remainder of a by nonzero b scaled by a power of |lc(b)|: a
    positive multiple of the remainder, so a Sturm chain keeps its signs."""
    r, lc, m = list(a), b[-1], abs(b[-1])
    while len(r) >= len(b):
        f, k = r[-1] * m // lc, len(r) - len(b)  # lc(r) sign(lc(b))
        r = [m * c for c in r]
        for i, c in enumerate(b):
            r[k + i] -= f * c
        _trim(r)
    return r


def _gcd(a, b) -> list:
    """gcd over Z, primitive and up to sign ([] when both are zero), by the
    primitive remainder sequence."""
    while len(b) > 1:
        a, b = b, _primitive(_prem(a, b))
    return [1] if b else _primitive(a)


def _quo(a, b) -> list:
    """Quotient a / b of integer polynomials that b divides over Z."""
    a, n = list(a), len(b) - 1
    q = [0] * (len(a) - n)
    for k in reversed(range(len(q))):
        q[k] = a[k + n] // b[-1]
        for i, c in enumerate(b):
            a[k + i] -= q[k] * c
    return q


def _det(M) -> list:
    """Determinant of a square matrix of integer polynomials ([] if it is
    singular) by fraction-free Bareiss elimination: each new entry is a
    minor, so its division by the previous pivot is exact (Bareiss, *Math.
    Comp.* 22, 1968).  The pivot is the first nonzero entry at or below
    the diagonal; a row swap flips the sign."""
    M, sign, prev = [list(row) for row in M], 1, [1]
    for k in range(len(M) - 1):
        p = next((r for r in range(k, len(M)) if M[r][k]), None)
        if p is None:
            return []
        M[k], M[p], sign = M[p], M[k], sign if p == k else -sign
        a = M[k][k]
        for row in M[k + 1:]:
            b = [-c for c in row[k]]
            for j in range(k + 1, len(M)):
                row[j] = _quo(_add(_mul(a, row[j]), _mul(b, M[k][j])), prev)
        prev = a
    det = M[-1][-1] if M else [1]
    return det if sign > 0 else [-c for c in det]


class Poly:
    """Dense univariate polynomial over Q: integer coefficients ints
    (ascending, no trailing zeros) over one positive integer denom, in
    lowest terms, so equal polynomials have equal fields."""

    __slots__ = ("ints", "denom")

    def __init__(self, coeffs: Iterable[Scalar], denom: int = 1):
        """The polynomial sum(coeffs[i] t^i) / denom; coefficients convert
        by as_fraction (floats exactly)."""
        cs = list(coeffs)
        if not all(type(c) is int for c in cs):
            fs = [as_fraction(c) for c in cs]
            m = math.lcm(*(f.denominator for f in fs))
            cs, denom = [f.numerator * (m // f.denominator) for f in fs], denom * m
        g = math.gcd(denom, *_trim(cs))
        self.ints = tuple(c // g for c in cs)
        self.denom = denom // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending."""
        return tuple(Fraction(c, self.denom) for c in self.ints)

    @property
    def degree(self) -> int:
        """Degree, with deg 0 for the zero polynomial by convention here."""
        return max(len(self.ints) - 1, 0)

    def is_zero(self) -> bool:
        return not self.ints

    def is_constant(self) -> bool:
        return len(self.ints) <= 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and (self.ints, self.denom) == (other.ints, other.denom)

    def __hash__(self) -> int:
        return hash((self.ints, self.denom))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(_add([c * other.denom for c in self.ints],
                         [c * self.denom for c in other.ints]),
                    self.denom * other.denom)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(_mul(self.ints, other.ints), self.denom * other.denom)

    def derivative(self) -> "Poly":
        return Poly(_diff(self.ints), self.denom)

    def __call__(self, t) -> Fraction:
        """Exact value at an int or Fraction t = a/b, by homogeneous integer
        Horner: sum ints_i a^i b^(n-i) over denom b^n."""
        _require_exact(t)
        a, b = t.numerator, t.denominator
        acc, bk = 0, 1
        for c in reversed(self.ints):
            acc = acc * a + c * bk
            bk *= b
        return Fraction(acc * b, self.denom * bk)

    def float_coeffs(self) -> tuple[float, ...]:
        """The coefficients rounded to float, ascending: c / denom rounds
        as float(Fraction) does."""
        return tuple(c / self.denom for c in self.ints)


P_ONE = Poly([1])


def _rf(num: list, den: list) -> "RationalFunction":
    """num/den (int lists, den nonzero) in its canonical rows: the gcd
    cancelled, the joint content divided out and lc(den) made positive."""
    g = _gcd(num, den)
    num, den = _quo(num, g), _quo(den, g)
    c = math.gcd(*num, *den) * (1 if den[-1] > 0 else -1)
    rf = object.__new__(RationalFunction)
    rf.rows = tuple(zip_longest(*([x // c for x in cs] for cs in (num, den)),
                                 fillvalue=0))[::-1]
    return rf


def _parts(x) -> tuple[list, list]:
    """(num, den) int lists of a RationalFunction, an int or a Fraction."""
    if isinstance(x, RationalFunction):
        num, den = zip(*x.rows[::-1])
        return _trim(list(num)), _trim(list(den))
    return [x.numerator] if x else [], [x.denominator]


class RationalFunction:
    """Reduced ratio of two polynomials over Q, stored as integer rows:
    the (num_i, den_i) pairs, highest degree first, of coprime integer num
    and den padded to one length, content-free together, with lc(den) > 0.
    num and den are Poly views with den monic.  Exact evaluation at t = a/b
    is homogeneous integer Horner over the rows, sum c_i a^i b^(n-i) for
    each of num and den, and their ratio is the value.
    """

    __slots__ = ("rows",)

    def __init__(self, num: Poly, den: Poly = P_ONE):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.rows = _rf([c * den.denom for c in num.ints],
                        [c * num.denom for c in den.ints]).rows

    @classmethod
    def from_coeffs(cls, num: Sequence[Scalar], den: Sequence[Scalar] = (1,)) -> "RationalFunction":
        return cls(Poly(num), Poly(den))

    @property
    def num(self) -> Poly:
        num, den = _parts(self)
        return Poly(num, den[-1])

    @property
    def den(self) -> Poly:
        den = _parts(self)[1]
        return Poly(den, den[-1])

    @property
    def degree(self) -> int:
        """max(deg num, deg den): the paper-facing degree of a coordinate."""
        return len(self.rows) - 1

    def is_constant(self) -> bool:
        return len(self.rows) == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalFunction) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __add__(self, other) -> "RationalFunction":
        (n1, d1), (n2, d2) = _parts(self), _parts(other)
        return _rf(_add(_mul(n1, d2), _mul(n2, d1)), _mul(d1, d2))

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return self * -1

    def __sub__(self, other) -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other) -> "RationalFunction":
        (n1, d1), (n2, d2) = _parts(self), _parts(other)
        return _rf(_mul(n1, n2), _mul(d1, d2))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RationalFunction":
        """Non-negative integer powers."""
        if k < 0:
            raise ValueError("negative power of a rational function")
        return _rf(*(reduce(_mul, [p] * k, [1]) for p in _parts(self)))

    def derivative(self) -> "RationalFunction":
        n, d = _parts(self)
        return _rf(_add(_mul(_diff(n), d), [-c for c in _mul(n, _diff(d))]),
                   _mul(d, d))

    def __call__(self, t) -> Fraction:
        """Exact value at an int or Fraction t; PoleError at a root of den."""
        _require_exact(t)
        a, b = t.numerator, t.denominator
        num = den = 0
        bk = 1  # b^(n-i) at coefficient i
        for cn, cd in self.rows:
            num = num * a + cn * bk
            den = den * a + cd * bk
            bk *= b
        if den == 0:
            raise PoleError(f"denominator vanishes at t={t}")
        return Fraction(num, den)


# -- real-root certification (Sturm) ------------------------------------


def _sign_variations(chain: list[Poly], x) -> int:
    """Sign changes along a chain of nonzero Polys at x, a Fraction or +-inf."""
    if x in (NEG_INF, POS_INF):
        vals = [p.ints[-1] * (-1 if x < 0 else 1) ** p.degree for p in chain]
    else:
        vals = [p(x) for p in chain]
    signs = [v > 0 for v in vals if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_real_roots(p: Poly, lo, hi) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    Endpoints may be +-inf; a finite endpoint is taken at its exact value,
    a float at its binary value.  Multiple roots count once: the chain is
    that of the square-free part f = p / gcd(p, p') over Z, f, f', then
    negated primitive pseudo-remainders, positive multiples of Sturm's.
    """
    lo, hi = (x if x in (NEG_INF, POS_INF) else as_fraction(x) for x in (lo, hi))
    if p.is_zero():
        raise ValueError("zero polynomial vanishes everywhere")
    if p.is_constant():
        return 0
    f = _quo(p.ints, _gcd(p.ints, _diff(p.ints)))
    chain = [f, _diff(f)]
    while chain[-1]:
        chain.append([-c for c in _primitive(_prem(chain[-2], chain[-1]))])
    chain = [Poly(c) for c in chain[:-1]]
    n = _sign_variations(chain, lo) - _sign_variations(chain, hi)
    # Sturm counts roots in (lo, hi]; drop hi if it is a root.
    if hi not in (NEG_INF, POS_INF) and chain[0](hi) == 0:
        n -= 1
    return n
