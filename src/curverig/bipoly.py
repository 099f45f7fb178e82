"""Implicit equations of rational plane curves on the integer core.

t -> (f1/g1, f2/g2) is implicitized in Z[Z] under the Kronecker
substitution X -> Z, Y -> Z^s: sylvester_resultant builds the Sylvester
matrix of g1 X - f1 and g2 Y - f2 straight from the coordinates' integer
rows, takes its Bareiss determinant (rational._det) and decodes it once
into R = c G^k; square_free_part takes the exact k-th root G of R, again
as one int list, decoded once.  BiPoly only holds such a result, as a dict
{(deg_x, deg_y): int}; it has no arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from .rational import RationalFunction, _add, _det, _mul, _trim


class BiPoly:
    """Polynomial in Z[X, Y] as {(i, j): coeff} with nonzero int coeffs."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: int(v) for k, v in (terms or {}).items() if v != 0}

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
        if not self.terms:
            return "BiPoly(0)"
        bits = []
        for (i, j), c in sorted(self.terms.items(),
                                key=lambda kv: (-(kv[0][0] + kv[0][1]),
                                                -kv[0][0], -kv[0][1])):
            mono = "".join([f"X^{i}" if i > 1 else ("X" if i else ""),
                            f"Y^{j}" if j > 1 else ("Y" if j else "")])
            bits.append(f"{c}{'*' if mono else ''}{mono}")
        return "BiPoly(" + " + ".join(bits) + ")"

    def content(self) -> int:
        return math.gcd(*[abs(c) for c in self.terms.values()]) if self.terms else 0

    def graded_leading_sign(self) -> int:
        if not self.terms:
            return 0
        k = max(self.terms, key=lambda ij: (ij[0] + ij[1], ij[0], ij[1]))
        return 1 if self.terms[k] > 0 else -1

    def normalized(self) -> "BiPoly":
        """Primitive with positive graded-lex leading coefficient."""
        if not self.terms:
            return self
        c = self.content() * self.graded_leading_sign()
        return BiPoly({k: v // c for k, v in self.terms.items()})

    def eval_exact(self, x, y) -> Fraction:
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * Fraction(x) ** i * Fraction(y) ** j
        return total


def _decode(z: list, s: int) -> BiPoly:
    """The BiPoly whose Kronecker image, X^i Y^j -> Z^(i + s j), is z, for
    X-degrees below s: Z^e decodes to X^(e mod s) Y^(e div s)."""
    return BiPoly({(e % s, e // s): c for e, c in enumerate(z)})


# -- resultants -------------------------------------------------------------


def sylvester_resultant(x: RationalFunction, y: RationalFunction) -> BiPoly:
    """Res_t(g1(t) X - f1(t), g2(t) Y - f2(t)) for x = f1/g1, y = f2/g2.

    The Sylvester matrix is built straight from the coordinates' integer
    rows (highest degree first) under the Kronecker substitution X -> Z,
    Y -> Z^s (von zur Gathen and Gerhard, *Modern Computer Algebra*, 8.4),
    s = len(y.rows): a row (f, g) of x is the entry g Z - f, one of y
    g Z^s - f.  Its determinant is a Bareiss determinant in Z[Z]
    (rational._det).  Only the n2 = deg_t y rows holding x's entries
    involve X, each linearly, so every Bareiss entry, +- a Sylvester minor,
    has X-degree at most n2 < s.  The substitution, a ring map, is thus
    injective on every entry, each exact division by the previous pivot
    maps to an exact division in Z[Z], and Z^e decodes to X^(e mod s)
    Y^(e div s).  Raises ValueError when both coordinates are constant.
    """
    n1, n2 = len(x.rows) - 1, len(y.rows) - 1
    if n1 == 0 and n2 == 0:
        raise ValueError("resultant of two constants is undefined here")
    s = n2 + 1
    P = [_trim([-f, g]) for f, g in x.rows]
    Q = [_trim([-f] + [0] * (s - 1) + [g]) for f, g in y.rows]
    M = [[[]] * r + P + [[]] * (n2 - 1 - r) for r in range(n2)] + \
        [[[]] * r + Q + [[]] * (n1 - 1 - r) for r in range(n1)]
    return _decode(_det(M), s)


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


def _power_root(r: list, k: int):
    """h in Z[Z] with h^k == r (nonzero, ascending), term by term from the
    top, or None.

    If h^k = r, r's top and lowest terms are the k-th powers of h's, and
    the top term of r - (h's top terms)^k is k lt(h)^(k-1) times h's next
    term, so each term is forced and its exponent falls.  Only an exact
    h^k == r accepts h.
    """
    low = next(e for e, c in enumerate(r) if c)
    c = _iroot(r[-1], k)
    if (len(r) - 1) % k or low % k or None in (c, _iroot(r[low], k)):
        return None
    d = (len(r) - 1) // k
    h, shift, lead = [0] * d + [c], (k - 1) * d, k * c ** (k - 1)
    while True:
        rem = _add(r, [-v for v in reduce(_mul, [h] * k)])
        if not rem:
            return h
        e = len(rem) - 1 - shift            # the exponent of h's next term
        q, m = divmod(rem[-1], lead)
        if m or e < low // k:
            return None
        h[e] = q


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

    The roots are taken in Z[Z]: r is R under X -> Z, Y -> Z^s with
    s = deg_X R + 1, which is injective on polynomials of X-degree below s.
    A root H in Z[X, Y] maps to a root h = enc(H) of r, and the k-th root
    of r with a given leading coefficient is unique, so the root _power_root
    finds is +-enc(H), decoding to +-H; the same k and +-P are found.  A
    root h of r that has no bivariate counterpart is caught on decoding:
    H = dec(h) is accepted only if k deg_X H <= deg_X R.  Then H^k and R
    both have X-degree below s, and enc(H^k) = h^k = r = enc(R) gives
    H^k = R.
    """
    R = G.normalized()
    dx, s = R.degree_x(), R.degree_x() + 1
    g = math.gcd(dx, R.degree_y())
    r = [0] * (1 + max((i + s * j for i, j in R.terms), default=-1))
    for (i, j), c in R.terms.items():
        r[i + s * j] = c
    for k in (k for k in range(g, 1, -1) if g % k == 0):
        h = _power_root(r, k)
        H = None if h is None else _decode(h, s)
        if H is not None and k * H.degree_x() <= dx:
            return H.normalized()
    return R
