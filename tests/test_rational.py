import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curverig import (PoleError, Poly, RationalFunction, builtin_curve,
                      count_real_roots)
import curverig.rational as rational_module
from curverig.rational import (_gcd, _heuristic_gcd, _mul, _primitive,
                               real_roots, root_sign, vanishes_at)
from conftest import deadline, polyval_array

F = Fraction


def test_poly_arithmetic():
    p = Poly([1, 2, 3])          # 1 + 2t + 3t^2
    q = Poly([0, 1])             # t
    assert (p * q).coeffs == (F(0), F(1), F(2), F(3))
    assert (p + q).coeffs == (F(1), F(3), F(3))
    assert p(F(2)) == 17
    assert p.derivative().coeffs == (F(2), F(6))


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
nonzero_polys = st.lists(fractions, min_size=1, max_size=4).filter(any)


def _sympy_monic(sympy, t, expr):
    """Ascending Fraction coefficients of cancel(expr), den made monic."""
    num, den = (sympy.Poly(e, t, domain="QQ") for e in sympy.fraction(sympy.cancel(expr)))
    lc = den.LC()
    return tuple(tuple(F(int(c.p), int(c.q)) for c in (p.all_coeffs()[::-1] if p else []))
                 for p in (num.quo_ground(lc), den.quo_ground(lc)))


def _lcm_rows(num, den):
    """Reference rows of monic-den Fraction coefficients: num and den padded
    to one length, scaled by the lcm of all denominators, highest degree
    first."""
    m = max(len(num), len(den))
    scale = math.lcm(*(c.denominator for c in num + den))
    return tuple(zip(*[[int(c * scale) for c in cs + (F(0),) * (m - len(cs))]
                       for cs in (num, den)]))[::-1]


def _expr(sympy, t, p):
    return sum(sympy.Rational(c.numerator, c.denominator) * t ** i
               for i, c in enumerate(p.coeffs))


def _check_against_sympy(rf, expr):
    sympy = pytest.importorskip("sympy")
    num, den = _sympy_monic(sympy, sympy.Symbol("t"), expr)
    assert (rf.num.coeffs, rf.den.coeffs) == (num, den)
    assert rf.rows == _lcm_rows(num, den)


@given(st.lists(fractions, max_size=4), nonzero_polys, nonzero_polys)
@settings(max_examples=80, deadline=None)
def test_rational_function_matches_sympy_cancel(a, b, c):
    # num/den share the factor c: reduction must cancel it
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    num, den = Poly(a) * Poly(c), Poly(b) * Poly(c)
    _check_against_sympy(RationalFunction(num, den),
                         _expr(sympy, t, num) / _expr(sympy, t, den))


@given(st.lists(fractions, max_size=3), nonzero_polys,
       st.lists(fractions, max_size=3), nonzero_polys, fractions)
@settings(max_examples=60, deadline=None)
def test_rational_function_arithmetic_matches_sympy(a, b, c, d, k):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    f, g = RationalFunction.from_coeffs(a, b), RationalFunction.from_coeffs(c, d)
    ef = _expr(sympy, t, Poly(a)) / _expr(sympy, t, Poly(b))
    eg = _expr(sympy, t, Poly(c)) / _expr(sympy, t, Poly(d))
    ek = sympy.Rational(k.numerator, k.denominator)
    for rf, expr in [(f + g, ef + eg), (f - g, ef - eg), (f * g, ef * eg),
                     (f + k, ef + ek), (k * f, ek * ef), (-f, -ef),
                     (f ** 3, ef ** 3), (f.derivative(), sympy.diff(ef, t))]:
        _check_against_sympy(rf, expr)


def test_rational_function_reduces():
    # (t^2 - 1) / (t - 1) reduces to t + 1
    rf = RationalFunction(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert rf.num.coeffs == (F(1), F(1))
    assert rf.den.coeffs == (F(1),)
    assert rf.degree == 1


def test_rational_function_derivative_exact():
    rf = RationalFunction.from_coeffs([1], [0, 1])  # 1/t
    d = rf.derivative()
    assert d(F(2)) == F(-1, 4)
    # quotient rule evaluated on the fly must agree exactly
    t = F(3, 7)
    n, dd = rf.num, rf.den
    onthefly = (n.derivative()(t) * dd(t) - n(t) * dd.derivative()(t)) / dd(t) ** 2
    assert d(t) == onthefly


def test_pole_error():
    rf = RationalFunction.from_coeffs([1], [0, 1])
    with pytest.raises(PoleError):
        rf(F(0))


@pytest.mark.parametrize("name", ["line", "parabola", "rect_hyperbola",
                                  "rational_circle"])
def test_integer_horner_matches_fraction_horner(name):
    # the homogeneous integer Horner of __call__ against Poly's Fraction
    # Horner on num and den, on every coordinate and two derivatives
    curve = builtin_curve(name)
    rng = random.Random(name)
    rfs = list(curve.coords)
    for _ in range(2):
        rfs += [rf.derivative() for rf in rfs[-curve.dimension:]]
    for _ in range(20):
        t = F(rng.randrange(-10 ** 12, 10 ** 12), rng.randrange(1, 10 ** 9))
        for rf in rfs:
            v = rf(t)
            assert type(v) is Fraction
            assert v == rf.num(t) / rf.den(t)
    assert rfs[0](7) == rfs[0].num(F(7)) / rfs[0].den(F(7))


def test_pole_error_at_rational_root():
    # den (3t - 2)(t + 5/4) with coefficient denominators 3 and 4
    den = Poly([-2, 3]) * Poly([F(5, 4), 1])
    rf = RationalFunction(Poly([1, 0, 1]), den)
    for root in (F(2, 3), F(-5, 4)):
        with pytest.raises(PoleError):
            rf(root)
    assert rf(F(1, 2)) == F(5, 4) / den(F(1, 2))


@pytest.mark.parametrize("coeffs,lo,hi,expected", [
    ([-2, 0, 1], 0, 2, 1),        # t^2 - 2 has one root in (0, 2)
    ([-2, 0, 1], -2, 2, 2),
    ([1, 0, 1], float("-inf"), float("inf"), 0),   # 1 + t^2
    ([0, 1], -1, 1, 1),           # t
    ([0, 1], Fraction(1, 2), 1, 0),
    ([0, 0, 1], -1, 1, 1),        # t^2, double root counted once
    ([-6, 11, -6, 1], 0, 4, 3),   # (t-1)(t-2)(t-3)
    ([2, 0, -1], 0, 2, 1),        # negative leading coefficients
    ([6, -11, 6, -1], 0, 4, 3),
])
def test_sturm_root_counts(coeffs, lo, hi, expected):
    assert count_real_roots(Poly(coeffs), lo, hi) == expected


def test_sturm_open_interval_excludes_endpoint_roots():
    p = Poly([-1, 0, 1])  # roots at +-1
    assert count_real_roots(p, -1, 1) == 0
    assert count_real_roots(p, -2, 1) == 1


def test_sturm_float_endpoints_are_taken_exactly():
    # 0.3333333333333333 lies below 1/3, so the root of 3t - 1 is inside
    p = Poly([-1, 3])
    assert float(F(1, 3)) < F(1, 3)
    assert count_real_roots(p, 0.3333333333333333, 1) == 1
    # hi = 0.1 lies above 1/10 and 0.7 below 7/10: the root of 10t - 1 is
    # inside (0, 0.1), and the root of 10t - 7 is outside (0, 0.7)
    assert F(0.1) > F(1, 10) and F(0.7) < F(7, 10)
    assert count_real_roots(Poly([-1, 10]), 0, 0.1) == 1
    assert count_real_roots(Poly([-7, 10]), 0, 0.7) == 0
    assert count_real_roots(Poly([-7, 10]), 0.7, 1) == 1


endpoints = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6),
                      st.floats(-4, 4), st.sampled_from([float("-inf"), float("inf")]))


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3), st.integers(1, 3)),
                min_size=1, max_size=4),
       st.sampled_from([[-3], [-1], [2], [1, 0, 1], [-2, 0, 1], [-1, 1, 1]]),
       endpoints, endpoints)
@settings(max_examples=150, deadline=None)
def test_sturm_counts_match_sympy(factors, lead, lo, hi):
    # lead * prod (b t - r)^m: repeated factors, negative leading
    # coefficients, roots that may sit on the endpoints; a quadratic lead
    # adds no real roots or two irrational ones
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    lo, hi = sorted([lo, hi])
    if lo == hi:
        return
    p = Poly(lead)
    for r, b, m in factors:
        for _ in range(m):
            p = p * Poly([-r, b])
    sp = sympy.Poly(_expr(sympy, t, p), t)
    bound = [None if x in (float("-inf"), float("inf")) else sympy.Rational(F(x))
             for x in (lo, hi)]
    want = sp.count_roots(*bound) - sum(1 for x in bound
                                        if x is not None and sp.eval(x) == 0)
    with deadline(10):
        assert count_real_roots(p, lo, hi) == want


def _bits(a):
    return a.view(np.int64)


@pytest.mark.parametrize("name", ["line", "parabola", "rect_hyperbola",
                                  "rational_circle"])
def test_float_points_and_jets_come_from_the_jet_matrix(name):
    # a float point or jet equals, bit for bit, per-coordinate polyval of
    # the float coefficients, the evaluation the jet matrix reproduces
    curve = builtin_curve(name)
    lo, hi = float(curve.domain.lo), float(curve.domain.hi)
    ts = [lo + (hi - lo) * f for f in (1e-9, 0.1, 1.0 / 3, 0.5, 0.7, 1 - 1e-9)]
    ts += [t for t in (-2.5, 0.1, 7.0, -1e-7, 1e3) if lo < t < hi]
    for t in ts:
        want = [polyval_array(curve, np.array([t]), k)[0] for k in range(3)]
        assert np.array_equal(_bits(curve.evaluate(t)), _bits(want[0]))
        for order in range(3):
            jet = curve.derivative_jet(t, order)
            assert len(jet) == order + 1
            for got, w in zip(jet, want):
                assert got.shape == (curve.dimension,)
                assert np.array_equal(_bits(got), _bits(w))


def test_poly_and_rational_function_are_exact_only():
    p, rf = Poly([1, 2, 3]), RationalFunction.from_coeffs([1], [1, 0, 1])
    for f in (p, rf):
        for t in (0.5, 2.0, np.float64(0.5), np.array([0.5])):
            with pytest.raises(TypeError):
                f(t)
        assert type(f(F(1, 2))) is Fraction and type(f(2)) is Fraction


# -- the exact core: GCDHEU and Descartes isolation on big coefficients -------


def _product(factors) -> list:
    """prod (b t - r)^m as an ascending int list."""
    out = [1]
    for r, b, m in factors:
        for _ in range(m):
            out = _mul(out, [-r, b])
    return out


def _to_sympy(sympy, t, ints):
    return sympy.Poly(list(reversed(ints)) or [0], t, domain="ZZ")


def _up_to_sign(a, b) -> bool:
    return a == b or a == [-c for c in b]


big_linear = st.tuples(st.integers(-2 ** 400, 2 ** 400), st.integers(1, 2 ** 400),
                       st.integers(1, 3))


@given(st.lists(big_linear, min_size=1, max_size=3),
       st.lists(big_linear, max_size=2), st.lists(big_linear, max_size=2),
       st.sampled_from([[1], [1, 0, 1], [-3, 0, 7], [5, -1, 0, 2]]))
@settings(max_examples=60, deadline=None)
def test_gcd_matches_sympy_on_big_repeated_factors(common, only_a, only_b, extra):
    # a and b share `common` (repeated factors included), each has its own
    # factors, and a also an extra factor: coefficients of thousands of bits
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    a = _mul(_mul(_product(common), _product(only_a)), extra)
    b = _product(common + only_b)
    want = _to_sympy(sympy, t, a).gcd(_to_sympy(sympy, t, b)).primitive()[1]
    got = _gcd(a, b)
    assert _up_to_sign(got, [int(c) for c in reversed(want.all_coeffs())])
    assert _up_to_sign(_gcd(b, a), got)


def test_gcd_heuristic_rejects_a_false_first_candidate():
    # xi = 4: t - 1 and t + 2 take 3 and 6 there, whose gcd 3 reads back as
    # t - 1; it divides t - 1 but not t + 2, so the division check rejects
    # it and the next xi (10: 9 and 12, gcd 3, the constant 1) is right
    assert _heuristic_gcd([-1, 1], [2, 1]) == [1]
    assert _gcd([-1, 1], [2, 1]) == [1]


@pytest.mark.parametrize("a, b", [
    ([-1, 1], [2, 1]),
    (_product([(1, 3, 2), (-2, 5, 1)]), _product([(1, 3, 1), (7, 2, 2)])),
    (_product([(2 ** 300 + 1, 3, 3)]), _product([(2 ** 300 + 1, 3, 2), (5, 1, 1)])),
    ([2, 0, 2], [4, 4]),
])
def test_gcd_remainder_sequence_fallback_matches_sympy(a, b, monkeypatch):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    want = _to_sympy(sympy, t, a).gcd(_to_sympy(sympy, t, b)).primitive()[1]
    monkeypatch.setattr(rational_module, "_heuristic_gcd", lambda a, b: None)
    assert _up_to_sign(_gcd(a, b), [int(c) for c in reversed(want.all_coeffs())])


@given(st.lists(big_linear, min_size=1, max_size=4),
       st.sampled_from([[-1], [1, 0, 1], [-2, 0, 1], [-1, 1, 1]]),
       st.sampled_from(["root", "inf", "int"]), st.sampled_from(["root", "inf", "int"]))
@settings(max_examples=60, deadline=None)
def test_root_counts_match_sympy_on_big_coefficients(factors, lead, lo_kind, hi_kind):
    # repeated factors with 400-bit roots r/b (coefficients of thousands of
    # bits); an endpoint of kind "root" sits on a root, which the open
    # interval excludes
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    p = _mul(lead, _product(factors))
    roots = sorted(Fraction(r, b) for r, b, _ in factors)
    lo = {"root": roots[0], "inf": float("-inf"), "int": math.floor(roots[0]) - 1}[lo_kind]
    hi = {"root": roots[-1], "inf": float("inf"), "int": math.ceil(roots[-1]) + 1}[hi_kind]
    if not lo < hi:
        return
    sp = _to_sympy(sympy, t, p)
    bound = [None if x in (float("-inf"), float("inf")) else sympy.Rational(x)
             for x in (lo, hi)]
    want = sp.count_roots(*bound) - sum(1 for x in bound
                                        if x is not None and sp.eval(x) == 0)
    with deadline(10):
        got = real_roots(p, lo, hi)
    assert len(got) == want == count_real_roots(Poly(p), lo, hi)
    for l, r, f in got:   # isolating: an exact root, or a sign change of f
        assert lo <= l <= r <= hi
        assert f is None if l == r else _sign_at(f, l) * _sign_at(f, r) < 0
    assert [l for l, _, _ in got] == sorted(l for l, _, _ in got)


def _sign_at(f, x):
    v = Poly(f)(Fraction(x))
    return (v > 0) - (v < 0)


@pytest.mark.parametrize("p, a", [
    # (t^2 - 2)(3t - 1)(t - 1/2) against t^2 - 1/9 (zero at 1/3, the
    # others of both signs), against t - 1/2 (zero at a bisection point)
    (_mul([-2, 0, 1], _product([(1, 3, 1), (1, 2, 1)])), [-1, 0, 9]),
    (_mul([-2, 0, 1], _product([(1, 3, 1), (1, 2, 1)])), [-1, 2]),
    # a root of a polynomial with repeated factors, and a near miss
    (_product([(7, 5, 2), (-3, 4, 3)]), [-1401, 1000]),
    (_mul([-2, 0, 1], [-5, 0, 1]), _mul([-3, 0, 1], [-5, 0, 1])),
])
def test_root_signs_match_sympy(p, a):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    sp, sa = _to_sympy(sympy, t, p), _to_sympy(sympy, t, a)
    want = [int(sympy.sign(sa.as_expr().subs(t, r).expand()))
            for r in sympy.Poly(sympy.sqf_part(sp.as_expr()), t).real_roots()
            if -10 < r < 10]
    g = _gcd(p, a)
    got = []
    with deadline(10):
        for root in real_roots(p, -10, 10):
            sign, refined = root_sign(a, root, g)
            assert vanishes_at(a, root, g) == (sign == 0)
            assert vanishes_at(a, refined, g) == (sign == 0)
            got.append(sign)
    assert got == want
