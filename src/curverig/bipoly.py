"""Bivariate integer polynomials: Sylvester resultants and exact power roots.

Used to implicitize rational plane parametrizations: the Sylvester
resultant eliminating the parameter, a Bareiss determinant on rational's
integer core, is c G^k, and the implicit equation G is its exact k-th
root.  Terms are kept in a dict {(deg_x, deg_y): int}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from .rational import _det


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

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BiPoly(out)

    def lex_leading(self) -> tuple:
        """(exponent pair, coeff) maximal in lex order with X > Y."""
        k = max(self.terms)
        return k, self.terms[k]

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


def sylvester_resultant(p_coeffs: list, q_coeffs: list) -> BiPoly:
    """Res_t of two polynomials in t with BiPoly coefficients (ascending).

    A Bareiss determinant (rational._det) in Z[Z] under the Kronecker
    substitution X -> Z, Y -> Z^s (von zur Gathen and Gerhard, *Modern
    Computer Algebra*, 8.4), s = 1 + n2 dx(p) + n1 dx(q) for the t-degrees
    n1, n2 and the largest coefficient X-degrees dx.  Each Bareiss entry is
    +- a Sylvester minor, of X-degree at most the sum of its rows', so below
    s.  The substitution, a ring map, is thus injective on every entry, each
    exact division by the previous pivot maps to an exact division in Z[Z],
    and Z^k decodes to X^(k mod s) Y^(k div s).
    """
    p, q = list(p_coeffs), list(q_coeffs)
    for cs in (p, q):
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
    n1, n2 = len(p) - 1, len(q) - 1
    if n1 == 0 and n2 == 0:
        raise ValueError("resultant of two constants is undefined here")
    s = 1 + n2 * max(c.degree_x() for c in p) + n1 * max(c.degree_x() for c in q)

    def enc(c):
        z = [0] * (1 + max((i + s * j for i, j in c.terms), default=-1))
        for (i, j), v in c.terms.items():
            z[i + s * j] = v
        return z

    P, Q = [enc(c) for c in reversed(p)], [enc(c) for c in reversed(q)]
    M = [[[]] * r + P + [[]] * (n2 - 1 - r) for r in range(n2)] + \
        [[[]] * r + Q + [[]] * (n1 - 1 - r) for r in range(n1)]
    return BiPoly({(k % s, k // s): c for k, c in enumerate(_det(M))})


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
