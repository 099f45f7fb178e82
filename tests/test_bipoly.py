import random
from fractions import Fraction

import pytest

from curverig import (Interval, RationalCurve, RationalFunction,
                      SquaredEuclidean)
from curverig import bipoly
from curverig.bipoly import (BiPoly, bareiss_determinant, gcd_bipoly,
                             square_free_part, sylvester_resultant)
from curverig.elekes import ElekesCurve

X = BiPoly.monomial(1, 0)
Y = BiPoly.monomial(0, 1)
ONE = BiPoly.const(1)


def C(c):
    return BiPoly.const(c)


def test_arithmetic_and_eval():
    p = X * X + Y * C(-1)          # X^2 - Y
    assert p.eval_exact(3, 9) == 0
    assert p.eval_exact(2, 1) == 3
    assert p.degree_x() == 2 and p.degree_y() == 1 and p.total_degree() == 2
    q = (X + Y) * (X - Y)
    assert q == X * X - Y * Y


def test_exact_div_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        a = BiPoly({(rng.randrange(3), rng.randrange(3)):
                    rng.randrange(-9, 10) for _ in range(4)})
        b = BiPoly({(rng.randrange(3), rng.randrange(3)):
                    rng.randrange(-9, 10) for _ in range(3)})
        if a.is_zero() or b.is_zero():
            continue
        prod = a * b
        assert prod.exact_div(b) == a


def test_exact_div_rejects_inexact():
    with pytest.raises(ArithmeticError):
        (X * X + ONE).exact_div(X + ONE)


def _fraction_det(m):
    m = [[Fraction(c) for c in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def test_bareiss_matches_fraction_elimination():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(2, 6)
        raw = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        M = [[C(c) for c in row] for row in raw]
        got = bareiss_determinant(M)
        want = _fraction_det(raw)
        assert got.eval_exact(0, 0) == want


def test_bareiss_with_polynomial_entries():
    # det [[X, 1], [1, Y]] = XY - 1
    M = [[X, ONE], [ONE, Y]]
    assert bareiss_determinant(M) == X * Y - ONE


def test_sylvester_resultant_univariate_oracle():
    # Res_t(t^2 - 1, t - 2) = q-leading^2 * p(2) = 3; encode constants
    p = [C(-1), C(0), C(1)]
    q = [C(-2), C(1)]
    assert sylvester_resultant(p, q).eval_exact(0, 0) == 3
    # Res_t(a t + b, c t + d) = ad - bc up to sign: use (t - X), (t - Y)
    p2 = [X * C(-1), ONE]
    q2 = [Y * C(-1), ONE]
    res = sylvester_resultant(p2, q2)
    assert res in (Y - X, X - Y) or res == Y * C(-1) + X


def test_sylvester_degenerate_cases():
    with pytest.raises(ValueError):
        sylvester_resultant([C(2)], [C(3)])
    # constant p: Res = p^(deg q); constant q: Res = q^(deg p)
    assert sylvester_resultant([C(2)], [C(1), C(0), C(1)]) == C(4)
    assert sylvester_resultant([C(1), C(0), C(1)], [C(2)]) == C(4)


def test_gcd_bipoly():
    a = (X + Y) * (X - Y)
    b = (X + Y) * (X + ONE)
    g = gcd_bipoly(a, b)
    assert g == (X + Y).normalized()
    assert gcd_bipoly(a, BiPoly.zero()) == a.normalized()
    # coprime
    assert gcd_bipoly(X, Y).is_constant()


def test_gcd_bipoly_content_factors():
    a = (X * X + ONE) * C(6)
    b = (X * X + ONE) * C(4)
    g = gcd_bipoly(a, b)
    # primitive normalization keeps the polynomial factor, drops content
    assert g == (X * X + ONE)


def test_square_free_part():
    sq = (Y - X * X)
    assert square_free_part(sq * sq) == sq.normalized()
    assert square_free_part(X * X * Y) == (X * Y).normalized()
    assert square_free_part((X + Y) * (X + Y) * (X - Y)) == \
        ((X + Y) * (X - Y)).normalized()
    # already square-free stays put
    g = X * X + Y * Y - ONE
    assert square_free_part(g) == g.normalized()


def test_square_free_certificate_needs_the_full_degree():
    # at Y = 1, P = (Y - 1) X + 1 loses its X-degree: P^2 becomes the
    # constant 1 and P^2 (X + Y) becomes X + 1, neither with a repeated
    # factor, and neither may certify its square
    P = (Y - ONE) * X + ONE
    assert square_free_part(P * P) == P.normalized()
    assert square_free_part(P * P * (X + Y)) == (P * (X + Y)).normalized()


@pytest.mark.parametrize("var", ["X", "Y"])
def test_square_free_certificate_tests_both_variables(var):
    # (V^2 + 1)^2 (X + Y): the square involves V only, so only the test
    # in V can see it
    V = X if var == "X" else Y
    sq = V * V + ONE
    assert square_free_part(sq * sq * (X + Y)) == (sq * (X + Y)).normalized()


def test_square_free_certificate_matches_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def no_gcd(A, B):
        raise AssertionError("the modular certificate should settle this")

    # certified at Y = 1 and X = 2 (Y = 0 and X = 0, 1 are not)
    G = (X + Y) * (X - Y + ONE) * (X * Y - C(2)) * C(-3)
    want = _from_sympy(sympy.sqf_part(_to_sympy(G, x, y)), x, y)
    monkeypatch.setattr(bipoly, "gcd_bipoly", no_gcd)
    assert square_free_part(G) == want


def test_normalized_sign_and_content():
    p = C(-2) * (Y - X * X)      # -2Y + 2X^2 -> leading X^2 positive
    n = p.normalized()
    assert n.content() == 1
    assert n.graded_leading_sign() == 1
    assert n == X * X - Y


# -- sympy oracle -------------------------------------------------------------


def _from_sympy(expr, x, y) -> BiPoly:
    return BiPoly({k: int(c) for k, c in
                   expr.as_poly(x, y).as_dict().items()}).normalized()


def _to_sympy(p: BiPoly, x, y):
    return sum(c * x ** i * y ** j for (i, j), c in p.terms.items())


def _random_factor(rng, deg):
    while True:
        f = BiPoly({(rng.randrange(deg + 1), rng.randrange(deg + 1)):
                    rng.randrange(-6, 7) for _ in range(3)})
        if not f.is_constant():
            return f


def test_gcd_and_square_free_match_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    rng = random.Random(11)
    for _ in range(30):
        f, g, h = (_random_factor(rng, 2) for _ in range(3))
        shared = f * C(rng.randrange(1, 13))
        A = shared * g * g * C(rng.randrange(1, 13))   # repeated factor
        B = shared * h * C(rng.randrange(-12, 13) or 1)
        sA, sB = _to_sympy(A, x, y), _to_sympy(B, x, y)
        assert gcd_bipoly(A, B) == _from_sympy(sympy.gcd(sA, sB), x, y)
        assert square_free_part(A) == _from_sympy(sympy.sqf_part(sA), x, y)
        assert square_free_part(A * B) == \
            _from_sympy(sympy.sqf_part(sA * sB), x, y)


def test_cubic_implicitization_matches_sympy_resultant():
    sympy = pytest.importorskip("sympy")
    x, y, t = sympy.symbols("x y t")
    RF = RationalFunction.from_coeffs
    cubic = RationalCurve([RF([0, 1]), RF([0, -1, 0, 1])], Interval(-2, 2))
    rng = random.Random(5)
    for _ in range(3):
        a, b = (Fraction(rng.randrange(-2 ** 33, 2 ** 33), 2 ** 32)
                for _ in range(2))
        e = ElekesCurve(cubic, SquaredEuclidean(), a, b)
        polys = []
        for var, rf in zip((x, y), e.components()):
            num, den = zip(*rf.rows[::-1])  # ascending
            polys.append(sum(c * t ** k for k, c in enumerate(den)) * var
                         - sum(c * t ** k for k, c in enumerate(num)))
        want = sympy.sqf_part(sympy.resultant(*polys, t))
        assert e.implicit() == _from_sympy(want, x, y)
