"""Bivariate integer polynomials: Bareiss resultants, gcd, square-free part.

Used to implicitize rational plane parametrizations as the Sylvester
resultant eliminating the parameter, with exact fraction-free elimination
over big integers.  Terms are kept in a dict {(deg_x, deg_y): int}.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rational import _diff, _gcd, _trim


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

    def derivative_x(self) -> "BiPoly":
        return BiPoly({(i - 1, j): c * i for (i, j), c in self.terms.items() if i})

    def derivative_y(self) -> "BiPoly":
        return BiPoly({(i, j - 1): c * j for (i, j), c in self.terms.items() if j})

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


# -- gcd and square-free part ------------------------------------------------
# Primitive PRS in one main variable v (index 0 for X, 1 for Y); the
# coefficients of the powers of v are BiPolys free of v.


def _coeffs(P: BiPoly, v: int) -> dict:
    """P as {k: terms of the coefficient of v^k}, each free of v."""
    out: dict = {}
    for e, c in P.terms.items():
        out.setdefault(e[v], {})[(0, e[1]) if v == 0 else (e[0], 0)] = c
    return out


def _lead(P: BiPoly, v: int) -> tuple[int, BiPoly]:
    """(deg_v P, coefficient of v^deg) of a nonzero P."""
    cs = _coeffs(P, v)
    d = max(cs)
    return d, BiPoly(cs[d])


def _content(P: BiPoly, v: int) -> BiPoly:
    """gcd of the v-coefficients of a nonzero P, integer content included."""
    g = BiPoly.zero()
    for terms in _coeffs(P, v).values():
        g = gcd_bipoly(g, BiPoly(terms))
        if g.is_constant():
            break
    return g * P.content()


def _pseudo_rem(R: BiPoly, B: BiPoly, v: int) -> BiPoly:
    """prem_v(R, B) up to a power of lc(B); each step cancels R's lead."""
    dB, lcB = _lead(B, v)
    while not R.is_zero():
        dR, lead = _lead(R, v)
        if dR < dB:
            break
        shift = BiPoly.monomial(dR - dB, 0) if v == 0 else BiPoly.monomial(0, dR - dB)
        R = R * lcB - B * (lead * shift)
    return R


def gcd_bipoly(A: BiPoly, B: BiPoly) -> BiPoly:
    """gcd in Z[X, Y] via primitive PRS, normalized.

    The main variable is X when either input contains X, else Y; contents
    are gcds of coefficients in the other variable, found by recursion.
    """
    if A.is_zero():
        return B.normalized()
    if B.is_zero():
        return A.normalized()
    if A.is_constant() or B.is_constant():
        return BiPoly.const(1)
    v = 0 if A.degree_x() or B.degree_x() else 1
    ca, cb = _content(A, v), _content(B, v)
    cont = gcd_bipoly(ca, cb)
    a, b = A.exact_div(ca), B.exact_div(cb)
    while not b.is_zero():
        r = _pseudo_rem(a, b, v)
        a, b = b, (r if r.is_zero() else r.exact_div(_content(r, v)))
    return (a * cont).normalized()


def _square_free_in(G: BiPoly, v: int) -> bool:
    """Whether, for some x in 0..3, G with its other variable set to x
    keeps G's degree n in v (v = 0 for X) and is prime to its derivative."""
    n = max(e[v] for e in G.terms)
    for x in range(4):
        a = [0] * (n + 1)
        for e, c in G.terms.items():
            a[e[v]] += c * x ** e[1 - v]
        if len(_trim(a)) == n + 1 and len(_gcd(a, _diff(a))) == 1:
            return True
    return False


def square_free_part(G: BiPoly) -> BiPoly:
    """Product of the distinct irreducible factors of G, normalized.

    A univariate certificate settles square-free G without bivariate gcds.
    Normalized G is primitive, so a repeated factor P, G = P^2 Q, has
    positive degree in X, say (Y is alike).  If g = G(X, a) keeps G's
    X-degree, h = P(X, a) keeps P's (lc_X(P)^2 divides lc_X(G)), and h
    divides g and g' = h (2 h' Q(X, a) + h Q'(X, a)).  So a constant
    gcd(g, g') over Q for some a, and one for Y, proves G square-free.
    """
    if G.is_zero():
        return G
    G = G.normalized()
    if G.is_constant():
        return BiPoly.const(1)
    if _square_free_in(G, 0) and _square_free_in(G, 1):
        return G
    g = gcd_bipoly(G, G.derivative_x())
    g = gcd_bipoly(g, G.derivative_y())
    if g.is_constant():
        return G
    return G.exact_div(g).normalized()
