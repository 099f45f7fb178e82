import random
from fractions import Fraction

import pytest

from curverig import (Interval, RationalCurve, RationalFunction,
                      SquaredEuclidean)
from curverig.bipoly import BiPoly, square_free_part, sylvester_resultant
from curverig.elekes import ElekesCurve, implicitize_rational
from curverig.rational import _det

X = BiPoly.monomial(1, 0)
Y = BiPoly.monomial(0, 1)
ONE = BiPoly.const(1)


def C(c):
    return BiPoly.const(c)


def power(p, k):
    out = ONE
    for _ in range(k):
        out = out * p
    return out


def test_arithmetic_and_eval():
    p = X * X + Y * C(-1)          # X^2 - Y
    assert p.eval_exact(3, 9) == 0
    assert p.eval_exact(2, 1) == 3
    assert p.degree_x() == 2 and p.degree_y() == 1 and p.total_degree() == 2
    q = (X + Y) * (X - Y)
    assert q == X * X - Y * Y


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
        want = _fraction_det(raw)
        assert _det([[[c] if c else [] for c in row] for row in raw]) == \
            ([int(want)] if want else [])


def test_bareiss_with_polynomial_entries():
    # det [[t, 1], [1, t]] = t^2 - 1
    assert _det([[[0, 1], [1]], [[1], [0, 1]]]) == [-1, 0, 1]


def test_bareiss_swaps_a_zero_pivot_and_flips_the_sign():
    # det [[0, 1, 0], [t, 0, 0], [0, 0, 1]] = -t: the (0, 0) pivot is zero
    M = [[[], [1], []], [[0, 1], [], []], [[], [], [1]]]
    assert _det(M) == [0, -1]
    # a later zero pivot: det [[1, 1, 0], [1, 1, t], [0, 1, 1]] = -t
    M = [[[1], [1], []], [[1], [1], [0, 1]], [[], [1], [1]]]
    assert _det(M) == [0, -1]


def test_bareiss_singular_matrix_is_zero():
    # a zero column, and rows dependent over Q[t]: row 2 = t * row 1
    assert _det([[[], [1]], [[], [0, 1]]]) == []
    assert _det([[[1], [2, 1], [3]], [[0, 1], [0, 2, 1], [0, 3]],
                 [[5], [], [1]]]) == []


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


def _random_bipoly(rng):
    return BiPoly({(rng.randrange(3), rng.randrange(3)): rng.randrange(-5, 6)
                   for _ in range(rng.randrange(1, 4))})


def test_sylvester_resultant_matches_sympy():
    # X- and Y-degrees up to 2 in every coefficient, so the Kronecker
    # stride s matters; a zero leading coefficient is trimmed, and a side
    # may be a constant in t
    sympy = pytest.importorskip("sympy")
    x, y, t = sympy.symbols("x y t")

    def expr(cs):
        return sum(c * x ** i * y ** j * t ** k
                   for k, b in enumerate(cs) for (i, j), c in b.terms.items())

    rng = random.Random(11)
    shapes = [(3, 2), (2, 3), (4, 2), (1, 3), (3, 1)]
    for trial in range(60):
        n1, n2 = shapes[trial % len(shapes)]
        p = [_random_bipoly(rng) for _ in range(n1)]
        q = [_random_bipoly(rng) for _ in range(n2)]
        if trial % 3 == 0:
            p.append(BiPoly.zero())
        if sympy.Poly(expr(p), t).degree() < 1 and sympy.Poly(expr(q), t).degree() < 1:
            continue
        want = sympy.Poly(sympy.resultant(expr(p), expr(q), t), x, y)
        assert sylvester_resultant(p, q) == BiPoly(
            {k: int(c) for k, c in want.as_dict().items()})


def test_square_free_part():
    sq = (Y - X * X)
    assert square_free_part(sq * sq) == sq.normalized()
    # already square-free stays put
    g = X * X + Y * Y - ONE
    assert square_free_part(g) == g.normalized()
    assert square_free_part(C(-6)) == ONE
    assert square_free_part(BiPoly.zero()).is_zero()


# Irreducible in Z[X, Y]: Y^2 - X and the last have degree 1 in X or Y with
# coprime coefficients; the circle has no linear factor over C.
_IRREDUCIBLE = {
    "lex-lead-negative": Y * Y - X,
    "circle": X * X + Y * Y - ONE,
    "2000-bit": X * Y * C(2 ** 2000 + 1) - X * X * C(3 ** 1300) + C(5),
}


@pytest.mark.parametrize("name", _IRREDUCIBLE)
@pytest.mark.parametrize("c", [1, -1, 8, -8, 12, -12])
def test_square_free_part_is_the_exact_power_root(name, c):
    H = _IRREDUCIBLE[name]
    for k in range(1, 5):
        assert square_free_part(C(c) * power(H, k)) == H.normalized()


@pytest.mark.parametrize("var", ["X", "Y"])
def test_square_free_certificate_tests_both_variables(var):
    # (V^2 + 1)^k involves V only, so its degree in the other variable is 0
    # and the power root has to be read off the degree in V
    V = X if var == "X" else Y
    sq = V * V + ONE
    assert square_free_part(power(sq, 2)) == sq
    assert square_free_part(power(sq, 3) * C(-5)) == sq


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


def test_implicitize_improper_parametrizations_matches_sympy():
    # a proper curve composed with inner maps of degree 2 or 3 has index
    # k = their product, and Res_t = c G^k
    sympy = pytest.importorskip("sympy")
    t, x, y = sympy.symbols("t x y")
    u2, v2, u3 = (t ** 2 + 1) / (t - 1), t ** 2 + t, (t ** 3 - 2) / (t + 1)
    generic = ((2 * t ** 2 - 3) / (t + 4), (t ** 3 + t) / (t + 4))
    circle = ((1 - t ** 2) / (1 + t ** 2), 2 * t / (1 + t ** 2))
    cases = [(generic, [u2], 2), (generic, [u3], 3), (generic, [u2, v2], 4),
             (circle, [u3], 3), ((t, t ** 3 - t), [u2], 2),
             ((t, t ** 2), [u3, v2], 6)]
    for coords, inners, k in cases:
        for inner in inners:
            coords = [c.subs(t, inner) for c in coords]
        rfs, polys = [], []
        for var, c in zip((x, y), coords):
            num, den = sympy.fraction(sympy.cancel(c))
            rfs.append(RationalFunction.from_coeffs(
                *([Fraction(str(a)) for a in sympy.Poly(p, t).all_coeffs()[::-1]]
                  for p in (num, den))))
            polys.append(sympy.expand(den * var - num))
        res = sympy.resultant(*polys, t)
        assert [m for _, m in sympy.sqf_list(res)[1]] == [k]
        assert implicitize_rational(*rfs) == _from_sympy(sympy.sqf_part(res), x, y)


def test_implicitize_constant_coordinate():
    RF = RationalFunction.from_coeffs
    assert implicitize_rational(RF([2]), RF([0, 0, 1])) == X - C(2)
    assert implicitize_rational(RF([0, 1, 1]), RF([-3], [2])) == \
        (Y * C(2) + C(3)).normalized()
