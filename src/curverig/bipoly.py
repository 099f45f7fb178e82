"""Implicit equations of rational plane curves on the integer core.

t -> (f1/g1, f2/g2) is implicitized in Z[Z] under the Kronecker
substitution X -> Z, Y -> Z^s: sylvester_resultant builds the Sylvester
matrix of g1 X - f1 and g2 Y - f2 straight from the coordinates' integer
rows, takes its Bareiss determinant (rational._det) and decodes it once
into R = c G^k; square_free_part takes the exact k-th root G of R, again
as one int list, decoded once.  first_subresultant gives the curve's
rational inverse from the same rows, and compose substitutes a rational
curve into a result.  An Elekes curve (A, B) is eliminated in the frame
(A, B - A) where that lowers the degree (elekes.ElekesCurve.frame):
shear(G', -1) maps the implicit equation G'(X, Y) found there to
G'(X, Y - X), that of (A, B), and shear(G, 1) maps G back.  BiPoly only
holds such a result, as a dict {(deg_x, deg_y): int}; it has no
arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from .rational import RationalFunction, _add, _det, _minors, _mul, _parts, _trim


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
        """G(x, y) at ints or Fractions x = a/b, y = c/d, as one integer
        sum of coeff a^i b^(m - i) c^j d^(n - j) over b^m d^n, m and n the
        degrees in X and Y."""
        (a, b), (c, d) = (Fraction(v).as_integer_ratio() for v in (x, y))
        m, n = self.degree_x(), self.degree_y()
        xs = [a ** i * b ** (m - i) for i in range(m + 1)]
        ys = [c ** j * d ** (n - j) for j in range(n + 1)]
        return Fraction(sum(v * xs[i] * ys[j] for (i, j), v in self.terms.items()),
                        b ** m * d ** n)


def _decode(z: list, s: int) -> BiPoly:
    """The BiPoly whose Kronecker image, X^i Y^j -> Z^(i + s j), is z, for
    X-degrees below s: Z^e decodes to X^(e mod s) Y^(e div s)."""
    return BiPoly({(e % s, e // s): c for e, c in enumerate(z)})


# -- resultants -------------------------------------------------------------


def _kronecker_rows(x: RationalFunction, y: RationalFunction) -> tuple:
    """(P, Q, s): the coefficients of g1 X - f1 and g2 Y - f2 in t,
    highest degree first, as Z[Z] entries under X -> Z, Y -> Z^s, with
    s = len(y.rows): a row (f, g) of x is g Z - f, one of y g Z^s - f."""
    s = len(y.rows)
    return ([_trim([-f, g]) for f, g in x.rows],
            [_trim([-f] + [0] * (s - 1) + [g]) for f, g in y.rows], s)


def _sylvester_matrix(P: list, Q: list, j: int) -> list:
    """The j-th subresultant matrix of the polynomials with coefficient
    rows P and Q (degrees n1 = len(P) - 1 and n2): n2 - j shifted copies
    of P over n1 - j of Q, n1 + n2 - j columns; j = 0 is Sylvester's."""
    w = len(P) + len(Q) - 2 - j
    return [[[]] * r + P + [[]] * (w - len(P) - r) for r in range(len(Q) - 1 - j)] + \
        [[[]] * r + Q + [[]] * (w - len(Q) - r) for r in range(len(P) - 1 - j)]


def sylvester_resultant(x: RationalFunction, y: RationalFunction) -> BiPoly:
    """Res_t(g1(t) X - f1(t), g2(t) Y - f2(t)) for x = f1/g1, y = f2/g2.

    The Sylvester matrix is built straight from the coordinates' integer
    rows under the Kronecker substitution X -> Z, Y -> Z^s (von zur Gathen
    and Gerhard, *Modern Computer Algebra*, 8.4; _kronecker_rows).  Its
    determinant is a Bareiss determinant in Z[Z] (rational._det).  Only
    the n2 = deg_t y rows holding x's entries involve X, each linearly, so
    every Bareiss entry, +- a Sylvester minor, has X-degree at most
    n2 < s.  The substitution, a ring map, is thus injective on every
    entry, each exact division by the previous pivot maps to an exact
    division in Z[Z], and Z^e decodes to X^(e mod s) Y^(e div s).  Raises
    ValueError when both coordinates are constant.
    """
    if len(x.rows) == len(y.rows) == 1:
        raise ValueError("resultant of two constants is undefined here")
    P, Q, s = _kronecker_rows(x, y)
    return _decode(_det(_sylvester_matrix(P, Q, 0)), s)


def first_subresultant(x: RationalFunction, y: RationalFunction) -> tuple:
    """(sigma1, sigma0): the first subresultant sigma1 t + sigma0 in t of
    g1 X - f1 and g2 Y - f2, the rational inverse t = -sigma0 / sigma1 of
    the curve t -> (x, y).

    sigma1 t + sigma0 = U (g1 X - f1) + V (g2 Y - f2) identically, so
    every t the curve maps to a point (X, Y) gives sigma1 t + sigma0 = 0
    there.  Read as binary forms of the formal degrees, two forms with
    two or more common roots have S_1 = 0, and with one, S_1 is their
    gcd; so at a point of the curve where sigma1 != 0 the parameter is
    unique, t = -sigma0 / sigma1, and maps to the point (Collins, *J. ACM*
    14, 1967; Rouillier, *AAECC* 9, 1999).  The two coefficients are
    Bareiss minors of _sylvester_matrix(P, Q, 1) on sylvester_resultant's
    Kronecker rows, with the same degree bound.  With a degree-1
    coordinate they are lc^k times that coordinate's own row; with a
    constant coordinate both are 0: there is no rational inverse to use.
    """
    P, Q, s = _kronecker_rows(x, y)
    if min(len(P), len(Q)) < 2:
        return BiPoly(), BiPoly()
    sigma1, sigma0 = _minors(_sylvester_matrix(P, Q, 1) or [P])
    return _decode(sigma1, s), _decode(sigma0, s)


def compose(G: BiPoly, x: RationalFunction, y: RationalFunction,
            m: int, n: int) -> list:
    """The numerator of G(x(s), y(s)) over den(x)^m den(y)^n, for m and n
    at least G's degrees in X and Y, as an int list: the sum of
    coeff num(x)^i den(x)^(m - i) num(y)^j den(y)^(n - j)."""
    (a, b), (c, d) = _parts(x), _parts(y)
    xs, ys = _homogeneous_powers(a, b, m), _homogeneous_powers(c, d, n)
    rows: dict = {}
    for (i, j), v in G.terms.items():
        rows[j] = _add(rows.get(j, []), [v * e for e in xs[i]])
    return reduce(_add, (_mul(r, ys[j]) for j, r in rows.items()), [])


def shear(G: BiPoly, k: int) -> BiPoly:
    """G(X, Y + kX), term by term from c X^i (Y + kX)^j = sum over m of
    c C(j, m) (kX)^(j - m) X^i Y^m.  For an integer k the substitution is
    unimodular, undone by shear(., -k), so the content is G's; only the
    graded leading sign can change."""
    terms: dict = {}
    for (i, j), c in G.terms.items():
        for m in range(j + 1):
            key = (i + j - m, m)
            terms[key] = terms.get(key, 0) + k ** (j - m) * math.comb(j, m) * c
    return BiPoly(terms)


def _homogeneous_powers(a: list, b: list, m: int) -> list:
    """[a^i b^(m - i) for i in 0..m] for int lists a and b."""
    up, down = [[1]], [[1]]
    for _ in range(m):
        up.append(_mul(up[-1], a))
        down.append(_mul(down[-1], b))
    return [_mul(u, v) for u, v in zip(up, reversed(down))]


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
