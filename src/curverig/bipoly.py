"""Bivariate integer polynomials: Bareiss resultants, gcd, square-free part.

Used to implicitize rational plane parametrizations as the Sylvester
resultant eliminating the parameter, with exact fraction-free elimination
over big integers.  Terms are kept in a dict {(deg_x, deg_y): int}.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


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

    def eval_batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        total = np.zeros(np.broadcast(X, Y).shape)
        for (i, j), c in self.terms.items():
            total += float(c) * X ** i * Y ** j
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
    if n1 == 0:
        out = BiPoly.const(1)
        for _ in range(n2):
            out = out * p[0]
        return out
    if n2 == 0:
        out = BiPoly.const(1)
        for _ in range(n1):
            out = out * q[0]
        return out
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
# X is the main variable; coefficients live in Z[Y] as ascending int tuples.


def _u_trim(a: list) -> tuple:
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _u_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _u_trim(out)


def _u_sub(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _u_trim(out)


def _u_content(a) -> int:
    return math.gcd(*[abs(x) for x in a]) if a else 0


def _u_primitive(a):
    c = _u_content(a)
    if c <= 1:
        return tuple(a)
    return tuple(x // c for x in a)


def _u_exact_div(a, b):
    """Exact division in Z[Y]; raises on inexact input."""
    if not b:
        raise ZeroDivisionError
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(_u_trim(list(a))) >= len(b):
        a = list(_u_trim(list(a)))
        k = len(a) - len(b)
        f, r = divmod(a[-1], b[-1])
        if r:
            raise ArithmeticError("inexact univariate division")
        q[k] = f
        for i, y in enumerate(b):
            a[k + i] -= f * y
    if _u_trim(list(a)):
        raise ArithmeticError("inexact univariate division")
    return _u_trim(q)


def _u_pseudo_rem(a, b):
    """prem(a, b) in Z[Y] up to a power of lc(b); exact integer steps."""
    r = list(a)
    lc = b[-1]
    while True:
        r = list(_u_trim(r))
        if len(r) < len(b):
            return tuple(r)
        k = len(r) - len(b)
        lead = r[-1]
        r = [x * lc for x in r]
        for i, y in enumerate(b):
            r[k + i] -= lead * y


def _u_gcd(a, b):
    """Primitive PRS gcd in Z[Y], positive leading coefficient."""
    a, b = _u_primitive(a), _u_primitive(b)
    if not a:
        g = b
    elif not b:
        g = a
    else:
        if len(a) < len(b):
            a, b = b, a
        while b:
            r = _u_pseudo_rem(a, b)
            a, b = b, _u_primitive(r)
        g = _u_primitive(a)
    if g and g[-1] < 0:
        g = tuple(-x for x in g)
    return g


def _to_x_poly(p: BiPoly) -> dict:
    out: dict = {}
    for (i, j), c in p.terms.items():
        col = out.setdefault(i, {})
        col[j] = c
    return {i: _u_trim([col.get(j, 0) for j in range(max(col) + 1)])
            for i, col in out.items()}


def _from_x_poly(xp: dict) -> BiPoly:
    terms = {}
    for i, coeffs in xp.items():
        for j, c in enumerate(coeffs):
            if c:
                terms[(i, j)] = c
    return BiPoly(terms)


def _x_degree(xp: dict) -> int:
    live = [i for i, c in xp.items() if c]
    return max(live) if live else -1


def _x_content(xp: dict):
    g = ()
    for c in xp.values():
        if c:
            g = _u_gcd(g, c)
    return g


def _x_map(xp: dict, f) -> dict:
    return {i: f(c) for i, c in xp.items() if f(c)}


def _x_pseudo_rem(A: dict, B: dict) -> dict:
    """prem(A, B) with X main variable; leading terms cancel exactly."""
    dB = _x_degree(B)
    lcB = B[dB]
    R = dict(A)
    while (dR := _x_degree(R)) >= dB:
        lead = R[dR]
        R = {i: _u_mul(c, lcB) for i, c in R.items()}
        for i, c in B.items():
            k = i + dR - dB
            R[k] = _u_sub(R.get(k, ()), _u_mul(c, lead))
        R = {i: c for i, c in R.items() if c and i < dR}
    return R


def gcd_bipoly(A: BiPoly, B: BiPoly) -> BiPoly:
    """gcd in Z[X, Y] via primitive PRS (X main variable), normalized."""
    if A.is_zero():
        return B.normalized()
    if B.is_zero():
        return A.normalized()
    a, b = _to_x_poly(A), _to_x_poly(B)
    ca, cb = _x_content(a), _x_content(b)
    cont = _u_gcd(ca, cb)
    a = _x_map(a, lambda c: _u_exact_div(c, ca))
    b = _x_map(b, lambda c: _u_exact_div(c, cb))
    if _x_degree(a) < _x_degree(b):
        a, b = b, a
    while _x_degree(b) >= 0:
        r = _x_pseudo_rem(a, b)
        rc = _x_content(r)
        a, b = b, (_x_map(r, lambda c: _u_exact_div(c, rc)) if rc else {})
    out = _from_x_poly(a) * _from_x_poly({0: cont})
    return out.normalized()


def square_free_part(G: BiPoly) -> BiPoly:
    """Product of the distinct irreducible factors of G, normalized."""
    if G.is_zero():
        return G
    G = G.normalized()
    if G.is_constant():
        return BiPoly.const(1)
    g = gcd_bipoly(G, G.derivative_x())
    g = gcd_bipoly(g, G.derivative_y())
    if g.is_constant():
        return G
    return G.exact_div(g).normalized()
