import random
from fractions import Fraction

import pytest

from curverig import (Interval, RationalCurve, RationalFunction,
                      SquaredEuclidean)
from curverig.bipoly import (BiPoly, _power_root, square_free_part,
                             sylvester_resultant)
from curverig.elekes import ElekesCurve, implicitize_rational
from curverig.rational import _det

RF = RationalFunction.from_coeffs


def _bp(text: str) -> BiPoly:
    """The BiPoly of a polynomial in X and Y written as sympy text."""
    sympy = pytest.importorskip("sympy")
    return BiPoly({k: int(c) for k, c in sympy.Poly(
        sympy.sympify(text), *sympy.symbols("X Y")).as_dict().items()})


def test_eval_and_degrees():
    p = BiPoly({(2, 0): 1, (0, 1): -1, (1, 1): 0})     # X^2 - Y
    assert p.terms == {(2, 0): 1, (0, 1): -1}
    assert p.eval_exact(3, 9) == 0
    assert p.eval_exact(2, 1) == 3
    assert p.eval_exact(Fraction(1, 2), 0) == Fraction(1, 4)
    assert p.degree_x() == 2 and p.degree_y() == 1 and p.total_degree() == 2
    assert p == BiPoly({(0, 1): -1, (2, 0): 1}) and hash(p) == hash(
        BiPoly({(0, 1): -1, (2, 0): 1}))
    assert repr(p) == "BiPoly(1*X^2 + -1*Y)"
    assert BiPoly({(0, 0): 0}) == BiPoly() and repr(BiPoly()) == "BiPoly(0)"


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
    # x = t, y = t^2: Res_t(X - t, Y - t^2) = +-(X^2 - Y), a 3 x 3 matrix
    res = sylvester_resultant(RF([0, 1]), RF([0, 0, 1]))
    assert res in (BiPoly({(2, 0): 1, (0, 1): -1}),
                   BiPoly({(2, 0): -1, (0, 1): 1}))
    # x = t, y = 1/t: Res_t(X - t, t Y - 1) = +-(XY - 1)
    res = sylvester_resultant(RF([0, 1]), RF([1], [0, 1]))
    assert res.normalized() == BiPoly({(1, 1): 1, (0, 0): -1})
    assert res.eval_exact(Fraction(2, 3), Fraction(3, 2)) == 0


def test_sylvester_degenerate_cases():
    with pytest.raises(ValueError):
        sylvester_resultant(RF([2]), RF([3], [7]))
    # a constant side c: Res_t(X - c, q) = (X - c)^(deg_t q), and alike in Y
    assert sylvester_resultant(RF([2]), RF([1, 0, 1])) == \
        BiPoly({(2, 0): 1, (1, 0): -4, (0, 0): 4})
    assert sylvester_resultant(RF([1, 0, 1]), RF([2])) == \
        BiPoly({(0, 2): 1, (0, 1): -4, (0, 0): 4})


def test_sylvester_resultant_matches_sympy():
    # random coordinate rows against sympy's Sylvester determinant of
    # g1 X - f1 and g2 Y - f2, which is +- sympy's resultant (that sign
    # differs from the determinant's on some draws).  The draws include a
    # constant side, denominators with zero coefficients and a top row with
    # g = 0 (deg num > deg den), and the stride s = len(y.rows) varies
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.subresultants_qq_zz import sylvester
    x, y, t = sympy.symbols("x y t")

    def draw():
        num = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 5))]
        den = [rng.choice([0, 0, 1, -2, 3]) for _ in range(rng.randrange(1, 4))]
        den[-1] = den[-1] or 1
        return RF(num, den)

    def side(rf, var):
        return sum((g * var - f) * t ** k for k, (f, g) in enumerate(rf.rows[::-1]))

    rng = random.Random(11)
    seen = {"constant side": 0, "zero den coefficient": 0, "top g = 0": 0}
    for _ in range(80):
        a, b = draw(), draw()
        if a.is_constant() and b.is_constant():
            continue
        rows = a.rows + b.rows
        seen["constant side"] += a.is_constant() or b.is_constant()
        seen["zero den coefficient"] += any(g == 0 for _, g in rows)
        seen["top g = 0"] += a.rows[0][1] == 0 or b.rows[0][1] == 0
        p, q = side(a, x), side(b, y)
        det = DomainMatrix.from_Matrix(sylvester(p, q, t)).det().as_expr()
        assert sympy.expand(sympy.resultant(p, q, t) ** 2 - det ** 2) == 0
        assert sylvester_resultant(a, b) == BiPoly(
            {k: int(c) for k, c in sympy.Poly(det, x, y).as_dict().items()})
    assert min(seen.values()) >= 5, seen


def test_square_free_part():
    sq = _bp("Y - X**2")
    assert square_free_part(_bp("(Y - X**2)**2")) == sq.normalized()
    # already square-free stays put
    g = _bp("X**2 + Y**2 - 1")
    assert square_free_part(g) == g.normalized()
    assert square_free_part(BiPoly({(0, 0): -6})) == BiPoly({(0, 0): 1})
    assert square_free_part(BiPoly()) == BiPoly()


def test_kronecker_root_that_does_not_decode_is_rejected():
    # Under X -> Z, Y -> Z^3 (s = deg_X R + 1), R below encodes to
    # (Z^3 + Z^2 + Z + 1)^2, but that root decodes to H = Y + X^2 + X + 1,
    # and H^2 has X-degree 4 > deg_X R = 2: H^2 != R, and R is kept
    R = _bp("Y**2 + 2*X**2*Y + 3*X*Y + 4*Y + 3*X**2 + 2*X + 1")
    assert R == R.normalized() and R.degree_x() == 2
    assert _power_root([1, 2, 3, 4, 3, 2, 1], 2) == [1, 1, 1, 1]
    assert _bp("(Y + X**2 + X + 1)**2") != R
    assert square_free_part(R) == R
    # -2X^2Y + 3X^2 - XY + Y^2 + 2X + 1 encodes to (Z^3 - Z^2 - Z - 1)^2,
    # whose root decodes to Y - X^2 - X - 1; normalized, R encodes to
    # minus a square and has no square root in Z[Z] at all
    R = _bp("-2*X**2*Y + 3*X**2 - X*Y + Y**2 + 2*X + 1")
    assert _power_root([1, 2, 3, 0, -1, -2, 1], 2) == [-1, -1, -1, 1]
    assert square_free_part(R) == R.normalized()


# Irreducible in Z[X, Y]: Y^2 - X and the last have degree 1 in X or Y with
# coprime coefficients; the circle has no linear factor over C.
_IRREDUCIBLE = {
    "lex-lead-negative": "Y**2 - X",
    "circle": "X**2 + Y**2 - 1",
    "2000-bit": f"{2 ** 2000 + 1}*X*Y - {3 ** 1300}*X**2 + 5",
}


@pytest.mark.parametrize("name", _IRREDUCIBLE)
@pytest.mark.parametrize("c", [1, -1, 8, -8, 12, -12])
def test_square_free_part_is_the_exact_power_root(name, c):
    H = _IRREDUCIBLE[name]
    for k in range(1, 5):
        assert square_free_part(_bp(f"{c}*({H})**{k}")) == _bp(H).normalized()


@pytest.mark.parametrize("var", ["X", "Y"])
def test_square_free_certificate_tests_both_variables(var):
    # (V^2 + 1)^k involves V only, so its degree in the other variable is 0
    # and the power root has to be read off the degree in V
    sq = _bp(f"{var}**2 + 1")
    assert square_free_part(_bp(f"({var}**2 + 1)**2")) == sq
    assert square_free_part(_bp(f"-5*({var}**2 + 1)**3")) == sq


def test_normalized_sign_and_content():
    p = BiPoly({(0, 1): -2, (2, 0): 2}).normalized()   # -2(Y - X^2)
    assert p.content() == 1
    assert p.graded_leading_sign() == 1
    assert p == BiPoly({(2, 0): 1, (0, 1): -1})


# -- sympy oracle -------------------------------------------------------------


def _from_sympy(expr, x, y) -> BiPoly:
    return BiPoly({k: int(c) for k, c in
                   expr.as_poly(x, y).as_dict().items()}).normalized()


def test_cubic_implicitization_matches_sympy_resultant():
    sympy = pytest.importorskip("sympy")
    x, y, t = sympy.symbols("x y t")
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
    assert implicitize_rational(RF([2]), RF([0, 0, 1])) == \
        BiPoly({(1, 0): 1, (0, 0): -2})
    assert implicitize_rational(RF([0, 1, 1]), RF([-3], [2])) == \
        BiPoly({(0, 1): 2, (0, 0): 3})
