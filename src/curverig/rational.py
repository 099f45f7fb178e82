"""Exact univariate polynomials and rational functions over Fraction.

Coefficients are stored in ascending order.  The module is exact-only:
Poly and RationalFunction evaluate at int or Fraction arguments and raise
TypeError otherwise; a rational curve evaluates floats through its jet
matrix (RationalCurve.jet_array).  Both are immutable value types.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

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
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot convert non-finite float {x!r} to Fraction")
        return Fraction(x)  # exact binary value
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


class Poly:
    """Dense univariate polynomial with exact Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = [as_fraction(c) if not isinstance(c, Fraction) else c for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with deg 0 for the zero polynomial by convention here."""
        return max(len(self.coeffs) - 1, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly([])
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.coeffs
        while len(rem) >= len(d) and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(d):
                break
            k = len(rem) - len(d)
            f = rem[-1] / d[-1]
            q[k] = f
            for i, c in enumerate(d):
                rem[k + i] -= f * c
            rem.pop()
        return Poly(q), Poly(rem)

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    # -- evaluation -------------------------------------------------------

    def __call__(self, t) -> Fraction:
        """Exact Horner evaluation at an int or Fraction t."""
        _require_exact(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def float_coeffs(self) -> tuple[float, ...]:
        """The coefficients rounded to float, ascending."""
        return tuple(float(c) for c in self.coeffs)


P_ONE = Poly([1])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm over Fraction."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    lead = a.leading()
    return Poly([c / lead for c in a.coeffs])


class RationalFunction:
    """Reduced ratio of two Polys; denominator kept monic.

    Exact evaluation at t = a/b is homogeneous integer Horner: num and den
    padded to one degree n, with integer coefficients over their common
    lcm, give sum c_i a^i b^(n-i) each, and their ratio is the value.
    """

    __slots__ = ("num", "den", "_horner")

    def __init__(self, num: Poly, den: Poly = P_ONE, _reduced: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            g = poly_gcd(num, den)
            if not g.is_zero() and g.degree > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
            lead = den.leading()
            if lead != 1:
                num = Poly([c / lead for c in num.coeffs])
                den = Poly([c / lead for c in den.coeffs])
        self.num = num
        self.den = den
        self._horner = None  # integer (num, den) coefficient pairs, built on use

    @classmethod
    def from_coeffs(cls, num: Sequence[Scalar], den: Sequence[Scalar] = (1,)) -> "RationalFunction":
        return cls(Poly(num), Poly(den))

    @property
    def degree(self) -> int:
        """max(deg num, deg den): the paper-facing degree of a coordinate."""
        return max(self.num.degree, self.den.degree)

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __add__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            # gcd(num + c den, den) = gcd(num, den) = 1: still reduced
            return RationalFunction(self.num + self.den * other, self.den,
                                    _reduced=True)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, _reduced=True)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num * other, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RationalFunction":
        """Non-negative integer powers; num^k / den^k stays reduced."""
        if k < 0:
            raise ValueError("negative power of a rational function")
        num, den = P_ONE, P_ONE
        for _ in range(k):
            num, den = num * self.num, den * self.den
        return RationalFunction(num, den, _reduced=True)

    def derivative(self) -> "RationalFunction":
        n, d = self.num, self.den
        return RationalFunction(n.derivative() * d - n * d.derivative(), d * d)

    def _integer_rows(self) -> tuple:
        """(num_i, den_i) integer coefficient pairs, highest degree first:
        both polynomials padded to one length and scaled by one lcm."""
        if self._horner is None:
            nc, dc = self.num.coeffs, self.den.coeffs
            m = max(len(nc), len(dc))
            scale = math.lcm(*(c.denominator for c in nc + dc))
            rows = [(int(c * scale) for c in cs + (0,) * (m - len(cs)))
                    for cs in (nc, dc)]
            self._horner = tuple(zip(*rows))[::-1]
        return self._horner

    def __call__(self, t) -> Fraction:
        """Exact value at an int or Fraction t; PoleError at a root of den."""
        from .errors import PoleError
        _require_exact(t)
        a, b = t.numerator, t.denominator
        num = den = 0
        bk = 1  # b^(n-i) at coefficient i
        for cn, cd in self._integer_rows():
            num = num * a + cn * bk
            den = den * a + cd * bk
            bk *= b
        if den == 0:
            raise PoleError(f"denominator vanishes at t={t}")
        return Fraction(num, den)


# -- real-root certification (Sturm) ------------------------------------


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        _, r = chain[-2].divmod(chain[-1])
        chain.append(-r)
    chain.pop()
    return chain


def _sign_at(p: Poly, x) -> int:
    if x == NEG_INF:
        if p.is_zero():
            return 0
        s = 1 if p.leading() > 0 else -1
        return s if p.degree % 2 == 0 else -s
    if x == POS_INF:
        if p.is_zero():
            return 0
        return 1 if p.leading() > 0 else -1
    v = p(x)
    return (v > 0) - (v < 0)


def _sign_variations(chain: list[Poly], x) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: Poly, lo, hi) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    Endpoints may be +-inf; a finite endpoint is taken at its exact value,
    a float at its binary value.  Uses a Sturm chain on the square-free
    part, so multiple roots are counted once.
    """
    lo, hi = (x if x in (NEG_INF, POS_INF) else as_fraction(x) for x in (lo, hi))
    if p.is_zero():
        raise ValueError("zero polynomial vanishes everywhere")
    if p.is_constant():
        return 0
    g = poly_gcd(p, p.derivative())
    if g.degree > 0:
        p, _ = p.divmod(g)
    chain = _sturm_chain(p)
    n = _sign_variations(chain, lo) - _sign_variations(chain, hi)
    # Sturm counts roots in (lo, hi]; drop hi if it is a root.
    if hi not in (NEG_INF, POS_INF) and p(hi) == 0:
        n -= 1
    return n
