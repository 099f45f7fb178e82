"""Exact univariate polynomials and rational functions over Q, on integers.

One core on ascending int lists (no trailing zeros, [] for zero): _gcd
(the heuristic GCDHEU, checked by exact division, with the primitive
remainder sequence _prem as its fallback) and the checked quotient _quo
reduce rational functions; _det and _minors take Bareiss determinants
(bipoly's resultants and subresultants); real_roots isolates real roots
by Descartes' rule of signs with bisection, and vanishes_at and root_sign
read a polynomial's sign at such a root.
Poly and RationalFunction are immutable and exact-only: they evaluate at
int or Fraction arguments, else raise TypeError.
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
    positive multiple of the remainder."""
    r, lc, m = list(a), b[-1], abs(b[-1])
    while len(r) >= len(b):
        f, k = r[-1] * m // lc, len(r) - len(b)  # lc(r) sign(lc(b))
        r = [m * c for c in r]
        for i, c in enumerate(b):
            r[k + i] -= f * c
        _trim(r)
    return r


def _heuristic_gcd(a, b):
    """gcd of primitive nonconstant a and b by GCDHEU (Char, Geddes and
    Gonnet, *J. Symbolic Comput.* 7, 1989), or None after six failed xi.

    The integer gcd of a(xi) and b(xi), read as balanced xi-adic digits,
    is a polynomial h; with xi >= 2 min(|a|, |b|) + 2 (max-norms), h's
    primitive part is the gcd iff it divides both a and b, so only that
    exact division accepts it.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(6):
        h, digits = math.gcd(_at(a, xi), _at(b, xi)), []
        while h:
            d = h % xi
            d -= xi if 2 * d > xi else 0
            digits.append(d)
            h = (h - d) // xi
        h = _primitive(digits)
        if _quo(a, h) is not None and _quo(b, h) is not None:
            return h
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _gcd(a, b) -> list:
    """gcd over Z, primitive and up to sign ([] when both are zero): by
    _heuristic_gcd, else by the primitive remainder sequence."""
    if len(a) > 1 and len(b) > 1:
        a, b = _primitive(a), _primitive(b)
        h = _heuristic_gcd(a, b)
        if h is not None:
            return h
    while len(b) > 1:
        a, b = b, _primitive(_prem(a, b))
    return [1] if b else _primitive(a)


def _quo(a, b):
    """Quotient a / b of integer polynomials (b nonzero), or None when b
    does not divide a over Z."""
    a, n = list(a), len(b) - 1
    q = [0] * max(len(a) - n, 0)
    for k in reversed(range(len(q))):
        q[k] = a[k + n] // b[-1]
        for i, c in enumerate(b):
            a[k + i] -= q[k] * c
    return None if any(a) else q  # a holds the remainder, and any rounding


def _at(a, x):
    """a(x) by Horner's scheme: exact at an int x, rounded at a float."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _det(M) -> list:
    """Determinant of a square matrix of integer polynomials ([] if it is
    singular), by _minors."""
    return _minors(M)[0] if M else [1]


def _minors(M) -> list:
    """For an r x c matrix of integer polynomials, r <= c, the c - r + 1
    determinants of its first r - 1 columns bordered by each later column,
    by fraction-free Bareiss elimination: each new entry is a minor, so
    its division by the previous pivot is exact (Bareiss, *Math. Comp.*
    22, 1968).  The pivot is the first nonzero entry at or below the
    diagonal; a row swap flips the sign.  All are [] if those r - 1
    columns are dependent."""
    M, sign, prev, r = [list(row) for row in M], 1, [1], len(M)
    for k in range(r - 1):
        p = next((i for i in range(k, r) if M[i][k]), None)
        if p is None:
            return [[]] * (len(M[0]) - r + 1)
        M[k], M[p], sign = M[p], M[k], sign if p == k else -sign
        a = M[k][k]
        for row in M[k + 1:]:
            b = [-c for c in row[k]]
            for j in range(k + 1, len(row)):
                row[j] = _quo(_add(_mul(a, row[j]), _mul(b, M[k][j])), prev)
        prev = a
    return [e if sign > 0 else [-c for c in e] for e in M[-1][r - 1:]]


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

    def ratio(self, t) -> tuple:
        """(num, den), two ints with num / den the value at an int or
        Fraction t = a/b: the homogeneous Horner sums, unreduced, den of
        either sign.  PoleError at a root of den."""
        a, b = t.numerator, t.denominator
        num = den = 0
        bk = 1  # b^(n-i) at coefficient i
        for cn, cd in self.rows:
            num = num * a + cn * bk
            den = den * a + cd * bk
            bk *= b
        if den == 0:
            raise PoleError(f"denominator vanishes at t={t}")
        return num, den

    def __call__(self, t) -> Fraction:
        """Exact value at an int or Fraction t; PoleError at a root of den."""
        _require_exact(t)
        return Fraction(*self.ratio(t))


# -- real-root isolation (Descartes) -------------------------------------


def _shift(a, h: int) -> list:
    """a(x + h) for an integer h, by Horner's scheme."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += h * a[j + 1]
    return a


def _sign(a, x: Fraction) -> int:
    """Sign of a(x), by homogeneous integer Horner."""
    n, d, acc, dk = x.numerator, x.denominator, 0, 1
    for c in reversed(a):
        acc, dk = acc * n + c * dk, dk * d
    return (acc > 0) - (acc < 0)


def _variations(a, lo: Fraction, hi: Fraction) -> int:
    """Sign variations of (1 + y)^n a((lo + hi y) / (1 + y)): by Descartes'
    rule an upper bound on the roots of a in (lo, hi), exact when 0 or 1."""
    d = math.lcm(lo.denominator, hi.denominator)
    u, v = int(lo * d), int(hi * d)
    b = _shift([c * d ** (len(a) - 1 - i) for i, c in enumerate(a)], u)
    b = _shift([c * (v - u) ** i for i, c in enumerate(b)][::-1], 1)
    signs = [c > 0 for c in b if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def real_roots(p, lo, hi) -> list:
    """Isolating intervals of the distinct real roots of an int list p in
    the open interval (lo, hi), ascending.

    Endpoints may be +-inf; a finite endpoint is taken at its exact value,
    a float at its binary value.  The roots are those of the square-free
    part f = p / gcd(p, p'), with a root at a finite endpoint divided out
    and infinite endpoints replaced by Cauchy's bound.  Descartes' rule of
    signs with bisection (Collins and Akritas, SYMSAC 1976) splits (lo, hi)
    until each piece has 0 or 1 sign variations.  A root is (l, r, g): g
    divides f, has exactly that one root in (l, r), a simple one, and is
    nonzero at l and r; a bisection point that is a root is (m, m, None),
    and g drops its factor in both halves.
    """
    lo, hi = (x if x in (NEG_INF, POS_INF) else as_fraction(x) for x in (lo, hi))
    if not p:
        raise ValueError("zero polynomial vanishes everywhere")
    f = _quo(p, _gcd(p, _diff(p)))
    bound = Fraction(1 + max(map(abs, f)) // abs(f[-1]) + 1)
    lo, hi = max(lo, -bound), min(hi, bound)
    for x in (lo, hi):
        if len(f) > 1 and not _sign(f, x):
            f = _quo(f, [-x.numerator, x.denominator])
    out, todo = [], [(lo, hi, f)] if lo < hi and len(f) > 1 else []
    while todo:
        l, r, g = todo.pop()
        v = _variations(g, l, r)
        if v == 1:
            out.append((l, r, g))
        elif v > 1:
            m = (l + r) / 2
            if not _sign(g, m):
                out.append((m, m, None))
                g = _quo(g, [-m.numerator, m.denominator])
            todo += [(m, r, g), (l, m, g)]
    return sorted(out, key=lambda root: root[0])


def vanishes_at(a, root: tuple, g) -> bool:
    """Whether a is zero at a root (l, r, f) of real_roots, with g =
    gcd(a, p) for the p whose roots real_roots isolated: a root of g in
    (l, r) can only be that root."""
    l, r, f = root
    if f is None:
        return not _sign(a, l)
    return len(g) > 1 and bool(real_roots(g, l, r))


def root_sign(a, root: tuple, g) -> tuple[int, tuple]:
    """(sign of a at a root (l, r, f) of real_roots, the root refined),
    with g as for vanishes_at.  A nonzero sign comes from bisecting (l, r)
    by the sign of f until a has no root in it, by Descartes' rule, and
    is that at the midpoint."""
    if vanishes_at(a, root, g):
        return 0, root
    l, r, f = root
    if f is None:
        return _sign(a, l), root
    sl = _sign(f, l)
    while _variations(a, l, r):
        m = (l + r) / 2
        sm = _sign(f, m)
        if not sm:
            return _sign(a, m), (m, m, None)
        l, r = (m, r) if sm == sl else (l, m)
    return _sign(a, (l + r) / 2), (l, r, f)


def root_float(root: tuple) -> float:
    """A float near a root (l, r, f) of real_roots, for display: Newton's
    method on f's coefficients scaled to floats, safeguarded by bisection
    of [l, r] on the float sign of f."""
    l, r, f = root
    if f is None:
        return float(l)
    top = max(map(abs, f))
    c = [v / top for v in f]
    dc = [i * v for i, v in enumerate(c)][1:]
    a, b, up = float(l), float(r), _sign(f, l) < 0
    x = (a + b) / 2
    for _ in range(100):
        fx, dx = _at(c, x), _at(dc, x)
        if not fx:
            break
        a, b = (x, b) if (fx < 0) == up else (a, x)
        nx = x - fx / dx if dx else x
        nx = nx if a < nx < b else (a + b) / 2
        if nx == x:
            break
        x = nx
    return x


def count_real_roots(p: Poly, lo, hi) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi),
    from real_roots."""
    return len(real_roots(list(p.ints), lo, hi))
