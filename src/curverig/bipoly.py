"""Bivariate integer polynomials: Bareiss resultants and exact power roots.

Used to implicitize rational plane parametrizations: the Sylvester
resultant eliminating the parameter, by exact fraction-free elimination
over big integers, is c G^k, and the implicit equation G is its exact k-th
root.  Terms are kept in a dict {(deg_x, deg_y): int}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce


class BiPoly:
    """Polynomial in Z[X, Y] as {(i, j): coeff} with nonzero int coeffs."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: int(v) for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls({})

    @classmethod
    def const(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i: int, j: int, c: int = 1) -> "BiPoly":
        return cls({(i, j): c})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.terms)

    def degree_x(self) -> int:
        return max((i for i, _ in self.terms), default=0)

    def degree_y(self) -> int:
        return max((j for _, j in self.terms), default=0)

    def total_degree(self) -> int:
        return max((i + j for i, j in self.terms), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if self.is_zero():
            return "BiPoly(0)"
        bits = []
        for (i, j), c in sorted(self.terms.items(),
                                key=lambda kv: (-(kv[0][0] + kv[0][1]),
                                                -kv[0][0], -kv[0][1])):
            mono = "".join([f"X^{i}" if i > 1 else ("X" if i else ""),
                            f"Y^{j}" if j > 1 else ("Y" if j else "")])
            bits.append(f"{c}{'*' if mono else ''}{mono}")
        return "BiPoly(" + " + ".join(bits) + ")"

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return BiPoly(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, int):
            return BiPoly({k: v * other for k, v in self.terms.items()})
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def lex_leading(self) -> tuple:
        """(exponent pair, coeff) maximal in lex order with X > Y."""
        k = max(self.terms)
        return k, self.terms[k]

    def exact_div(self, other: "BiPoly") -> "BiPoly":
        """Quotient self / other, which must be exact in Z[X, Y]."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if other.is_constant():
            c = other.terms.get((0, 0), 0)
            out = {}
            for k, v in self.terms.items():
                q, r = divmod(v, c)
                if r:
                    raise ArithmeticError("inexact constant division")
                out[k] = q
            return BiPoly(out)
        rem = dict(self.terms)
        quo: dict = {}
        (bi, bj), bc = other.lex_leading()
        while rem:
            k = max(rem)
            i, j = k[0] - bi, k[1] - bj
            if i < 0 or j < 0:
                raise ArithmeticError("inexact polynomial division")
            q, r = divmod(rem[k], bc)
            if r:
                raise ArithmeticError("inexact polynomial division")
            quo[(i, j)] = quo.get((i, j), 0) + q
            for (oi, oj), oc in other.terms.items():
                kk = (oi + i, oj + j)
                nv = rem.get(kk, 0) - q * oc
                if nv:
                    rem[kk] = nv
                else:
                    rem.pop(kk, None)
        return BiPoly(quo)

    def content(self) -> int:
        return math.gcd(*[abs(c) for c in self.terms.values()]) if self.terms else 0

    def graded_leading_sign(self) -> int:
        if self.is_zero():
            return 0
        k = max(self.terms, key=lambda ij: (ij[0] + ij[1], ij[0], ij[1]))
        return 1 if self.terms[k] > 0 else -1

    def normalized(self) -> "BiPoly":
        """Primitive with positive graded-lex leading coefficient."""
        if self.is_zero():
            return self
        c = self.content() * self.graded_leading_sign()
        return BiPoly({k: v // c for k, v in self.terms.items()})

    def eval_exact(self, x, y) -> Fraction:
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * Fraction(x) ** i * Fraction(y) ** j
        return total


# -- resultants -------------------------------------------------------------


def bareiss_determinant(M: list) -> BiPoly:
    """Fraction-free determinant of a square BiPoly matrix."""
    n = len(M)
    if n == 0:
        return BiPoly.const(1)
    M = [row[:] for row in M]
    sign = 1
    prev = BiPoly.const(1)
    for k in range(n - 1):
        if M[k][k].is_zero():
            for r in range(k + 1, n):
                if not M[r][k].is_zero():
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return BiPoly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[k][k] * M[i][j] - M[i][k] * M[k][j]).exact_div(prev)
            M[i][k] = BiPoly.zero()
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return det if sign == 1 else -det


def _true_degree(coeffs: list) -> int:
    d = len(coeffs) - 1
    while d > 0 and coeffs[d].is_zero():
        d -= 1
    return d


def sylvester_resultant(p_coeffs: list, q_coeffs: list) -> BiPoly:
    """Res_t of two polynomials in t with BiPoly coefficients (ascending)."""
    n1 = _true_degree(p_coeffs)
    n2 = _true_degree(q_coeffs)
    p = p_coeffs[:n1 + 1]
    q = q_coeffs[:n2 + 1]
    if n1 == 0 and n2 == 0:
        raise ValueError("resultant of two constants is undefined here")
    size = n1 + n2
    M = [[BiPoly.zero() for _ in range(size)] for _ in range(size)]
    for r in range(n2):
        for k in range(n1 + 1):
            M[r][r + k] = p[n1 - k]
    for r in range(n1):
        for k in range(n2 + 1):
            M[n2 + r][r + k] = q[n2 - k]
    return bareiss_determinant(M)


# -- implicit equation as an exact power root ---------------------------------


def _iroot(n: int, k: int):
    """The integer k-th root of n if n is a k-th power, else None."""
    if n < 0:
        r = None if k % 2 == 0 else _iroot(-n, k)
        return None if r is None else -r
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)        # above the root: Newton descends
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x ** k == n else None
        x = y


def _power_root(R: BiPoly, k: int):
    """H with H^k == R, found term by term in lex order (X > Y), or None.

    If H^k = R, R's first and last terms in lex order are the k-th powers
    of H's, and the leading term of R - (H's leading terms)^k is
    k lt(H)^(k-1) times H's next term, so each term is forced.  Only an
    exact H^k == R accepts H.
    """
    (i0, j0), c0 = R.lex_leading()
    low, c_low = min(R.terms.items())       # lex-last term: H's last, ^k
    c = _iroot(c0, k)
    if any(e % k for e in (i0, j0) + low) or None in (c, _iroot(c_low, k)):
        return None
    top_y = R.degree_y() // k
    H = BiPoly.monomial(i0 // k, j0 // k, c)
    di, dj, dc = (k - 1) * (i0 // k), (k - 1) * (j0 // k), k * c ** (k - 1)
    while True:
        rem = R - reduce(BiPoly.__mul__, [H] * k)
        if rem.is_zero():
            return H
        (a, b), r = rem.lex_leading()
        q, m = divmod(r, dc)
        if a < di or b < dj or b - dj > top_y or m:
            return None
        H = H + BiPoly.monomial(a - di, b - dj, q)


def square_free_part(G: BiPoly) -> BiPoly:
    """The irreducible factor of G = c P^k, normalized (1 for a constant G).

    Every implicitization resultant has this form: Res_t(g1 X - f1,
    g2 Y - f2) of a reduced parametrization is c P^k, with P the
    irreducible implicit equation and k the index of the parametrization
    (Sendra, Winkler and Perez-Diaz, *Rational Algebraic Curves*,
    Springer 2008, ch. 4).  Normalized, R = +-P^k0, and R = P^k0 when k0
    is even (the graded leading coefficient of P^k0 is then positive), so
    R has the k0-th root +-P, and k0 divides g = gcd(deg_X R, deg_Y R).
    If H^k = R, unique factorization in Z[X, Y] makes H = +-P^(k0/k), so k
    divides k0.  Hence the largest divisor k > 1 of g with an exact k-th
    root is k0, and that root is +-P; with none, k0 = 1 and P = R.
    """
    R = G.normalized()
    g = math.gcd(R.degree_x(), R.degree_y())
    roots = (_power_root(R, k) for k in range(g, 1, -1) if g % k == 0)
    return next((H.normalized() for H in roots if H is not None), R)
