import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curverig import (DomainError, HelixCurve, Interval, PoleError,
                      RationalCurve, RationalFunction, SquaredEuclidean,
                      arc_length_reparametrize, builtin_curve, check_simplicity,
                      curve_from_json, curve_to_json, derivative_jet, evaluate,
                      PinnedAreaSquared, SingularParametrization)
from conftest import (make_circular_helix, make_line, make_parabola,
                      make_rational_circle, make_unit_circle)

F = Fraction
RF = RationalFunction.from_coeffs


def test_evaluate_trivial_examples():
    par = make_parabola(-10, 10)
    assert evaluate(par, F(3)) == (3, 9)
    helix = HelixCurve([1.0], [1.0], [1.0], 3)
    assert np.allclose(evaluate(helix, 0.0), [1, 0, 0])
    circ = make_rational_circle()
    assert evaluate(circ, F(1)) == (0, 1)


def test_jet_trivial_examples():
    par = make_parabola(-10, 10)
    assert derivative_jet(par, F(1), 2) == [(1, 1), (1, 2), (0, 2)]
    circ = make_unit_circle()
    jet = derivative_jet(circ, 0.0, 1)
    assert np.allclose(jet[0], [1, 0]) and np.allclose(jet[1], [0, 1])
    hyp = RationalCurve([RF([0, 1]), RF([1], [0, 1])], Interval(1, 10))
    assert derivative_jet(hyp, F(2), 1) == [(2, F(1, 2)), (1, F(-1, 4))]


def test_domain_errors():
    par = make_parabola(0, 1)
    with pytest.raises(DomainError):
        evaluate(par, F(0))     # open interval excludes endpoints
    with pytest.raises(DomainError):
        evaluate(par, F(2))


def test_denominator_pole_rejected_at_construction():
    with pytest.raises(PoleError):
        RationalCurve([RF([0, 1]), RF([1], [0, 1])], Interval(-1, 1))
    # fine when the domain avoids the pole
    RationalCurve([RF([0, 1]), RF([1], [0, 1])], Interval(0, 1))


def test_reduction_happens_at_construction():
    rf = RationalFunction(
        num=RF([0, 1]).num * RF([1, 1]).num,
        den=RF([1, 1]).num)  # t(t+1)/(t+1)
    assert rf.degree == 1
    assert rf(F(4)) == 4


def test_exact_jets_match_quotient_rule():
    # two independent evaluation paths must agree exactly on rationals
    curve = RationalCurve([RF([1, 2, 3], [2, 0, 1]), RF([0, 0, 1], [1, 1])],
                          Interval(0, 5))
    rng = random.Random(1)
    for _ in range(25):
        t = F(rng.randrange(1, 400), 97)
        jet = curve.derivative_jet(t, 1)
        for j, rf in enumerate(curve.coords):
            n, d = rf.num, rf.den
            onthefly = (n.derivative()(t) * d(t) - n(t) * d.derivative()(t)) \
                / d(t) ** 2
            assert jet[1][j] == onthefly


@pytest.mark.parametrize("curve", [
    make_parabola(0, 1), make_unit_circle(), make_circular_helix(),
    make_rational_circle(-3, 3)])
def test_first_derivative_fd_convergence(curve):
    # central difference + Richardson: observed order should be ~4
    lo, hi = float(curve.domain.lo), float(curve.domain.hi)
    t = lo + 0.4 * (hi - lo)
    exact = np.asarray(curve.derivative_jet(t, 1)[1], dtype=float)

    def fd(h):
        p = np.asarray(curve.evaluate(t + h), dtype=float)
        m = np.asarray(curve.evaluate(t - h), dtype=float)
        p2 = np.asarray(curve.evaluate(t + h / 2), dtype=float)
        m2 = np.asarray(curve.evaluate(t - h / 2), dtype=float)
        a = (p - m) / (2 * h)
        b = (p2 - m2) / h
        return (4 * b - a) / 3

    h0 = 1e-2
    e1 = np.linalg.norm(fd(h0) - exact)
    e2 = np.linalg.norm(fd(h0 / 2) - exact)
    # at least ~3rd order observed, unless already at rounding level
    assert e2 < max(e1 / 8, 1e-12)


def test_helix_jets_closed_form():
    helix = make_circular_helix(0.5)
    t = 0.7
    jet = helix.derivative_jet(t, 3)
    assert np.allclose(jet[1], [-math.sin(t), math.cos(t), 0.5])
    assert np.allclose(jet[2], [-math.cos(t), -math.sin(t), 0.0])
    assert np.allclose(jet[3], [math.sin(t), -math.cos(t), 0.0])


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-2, 2))
@settings(max_examples=100, deadline=None)
def test_helix_distances_translation_invariant(x, y, shift):
    helix = HelixCurve([1.0, 0.5], [1.0, 2.0], [0.25], 6,
                       Interval(-100.0, 100.0))
    a = np.linalg.norm(helix.evaluate(x) - helix.evaluate(y))
    b = np.linalg.norm(helix.evaluate(x + shift) - helix.evaluate(y + shift))
    assert abs(a - b) <= 1e-12 * max(1.0, a)


def test_helix_validation():
    with pytest.raises(ValueError):
        HelixCurve([], [], [], 2)          # (k, l) == (0, 0)
    with pytest.raises(ValueError):
        HelixCurve([1.0], [0.0], [], 2)    # zero frequency
    with pytest.raises(ValueError):
        HelixCurve([-1.0], [1.0], [], 2)   # nonpositive radius
    with pytest.raises(ValueError):
        HelixCurve([1.0], [1.0], [1.0], 2)  # dimension < 2k + l


# -- arc length ---------------------------------------------------------------


def test_arc_length_circle_and_line():
    arc = HelixCurve([1.0], [1.0], [], 2, Interval(0.0, math.pi))
    sig = arc_length_reparametrize(arc, 32)
    assert abs(sig.total_length - math.pi) < 1e-10
    line = make_line(0, 2)
    sig2 = arc_length_reparametrize(line, 16)
    assert abs(sig2.total_length - 2) < 1e-12
    assert np.allclose(sig2.evaluator(0.7, 0)[0], [0.7, 0.0], atol=1e-12)


def test_arc_length_parabola_quadrature_oracle():
    # independent oracle: closed form of int_0^1 sqrt(1+4t^2) dt
    oracle = math.sqrt(5) / 2 + math.asinh(2) / 4
    sig = arc_length_reparametrize(make_parabola(0, 1), 64)
    assert abs(sig.total_length - oracle) < 1e-8


def test_arc_length_unit_speed_on_fresh_grid():
    rng = random.Random(9)
    for curve in (make_parabola(0, 1), make_circular_helix(0.5, 0.0, 5.0)):
        sig = arc_length_reparametrize(curve, 48)
        L = sig.total_length
        for _ in range(12):
            s = rng.uniform(0.05 * L, 0.95 * L)
            h = 1e-6 * max(1.0, L)
            d = (sig.evaluator(s + h, 0)[0] - sig.evaluator(s - h, 0)[0]) / (2 * h)
            assert abs(np.linalg.norm(d) - 1) <= 1e-6


def test_arc_length_rejects_singular_parametrization():
    # gamma(t) = (t^3, 0) has gamma'(0) = 0
    bad = RationalCurve([RF([0, 0, 0, 1]), RF([0])], Interval(-1, 1))
    with pytest.raises(SingularParametrization):
        arc_length_reparametrize(bad, 17)


def test_arc_length_requires_small_grid_rejected():
    with pytest.raises(ValueError):
        arc_length_reparametrize(make_parabola(0, 1), 8)


def test_analytic_curve_jet_order_contract():
    from curverig import AnalyticCurve, JetOrderError

    def evaluator(t, order):
        return [np.array([t, t * t]), np.array([1.0, 2 * t]),
                np.array([0.0, 2.0])][:order + 1]

    par = AnalyticCurve(2, evaluator, Interval(0.0, 1.0), max_jet_order=2)
    par.derivative_jet(0.5, 2)  # supported
    with pytest.raises(JetOrderError):
        par.derivative_jet(0.5, 3)
    # the arc-length curve inherits the contract
    sig = arc_length_reparametrize(par, 16)
    sig.derivative_jet(0.5, 2)
    with pytest.raises(JetOrderError):
        sig.derivative_jet(0.5, 3)


# -- simplicity ----------------------------------------------------------------


def test_line_fails_second_derivative_condition(sq):
    rep = check_simplicity(make_line(), sq, n=64)
    assert not rep.passed
    cond2 = next(c for c in rep.conditions if c.index == 2)
    assert not cond2.passed
    assert cond2.witness is not None
    # every other condition holds on a line
    assert all(c.passed for c in rep.conditions if c.index != 2)


def test_parabola_passes_all_conditions(sq):
    rep = check_simplicity(make_parabola(0, 1), sq, n=256)
    assert rep.passed
    assert [c.index for c in rep.conditions] == [1, 2, 3, 4, 5]


def test_parabola_pinned_area_away_from_origin():
    rep = check_simplicity(make_parabola(F(1, 10), 1),
                           PinnedAreaSquared(apex=(0, 0)), n=256)
    assert rep.passed


def test_simplicity_catches_non_injective():
    # full circle traversed twice
    circ = HelixCurve([1.0], [1.0], [], 2, Interval(0.0, 4 * math.pi))
    rep = check_simplicity(circ, SquaredEuclidean(), n=128)
    cond1 = next(c for c in rep.conditions if c.index == 1)
    assert not cond1.passed


def test_simplicity_report_dict(sq):
    rep = check_simplicity(make_parabola(0, 1), sq, n=64)
    doc = rep.to_dict()
    assert doc["passed"] is True and len(doc["conditions"]) == 5


def test_simplicity_grid_minimum(sq):
    with pytest.raises(ValueError):
        check_simplicity(make_parabola(0, 1), sq, n=16)


# -- JSON ----------------------------------------------------------------------


def test_curve_json_roundtrip():
    curves = [make_parabola(0, 1), make_rational_circle(),
              make_circular_helix(0.5)]
    for c in curves:
        c2 = curve_from_json(curve_to_json(c))
        assert type(c2) is type(c)
        t = 0.5
        assert np.allclose(np.asarray(c2.evaluate(t), float),
                           np.asarray(c.evaluate(t), float))


def test_builtin_names():
    for name in ("line", "unit_circle", "parabola", "circular_helix(0.5)",
                 "rect_hyperbola", "rational_circle", "ellipse(2,1)"):
        c = builtin_curve(name)
        lo, hi = float(c.domain.lo), float(c.domain.hi)
        mid = 0.5 * (lo + hi) if math.isfinite(lo) and math.isfinite(hi) else 1.0
        assert len(np.asarray(c.evaluate(mid), float)) == c.dimension
    with pytest.raises(ValueError):
        builtin_curve("moebius")


def test_curve_json_rational_strings():
    doc = {"kind": "rational", "domain": ["0", "1"],
           "coords": [{"num": ["0", "1"], "den": ["1"]},
                      {"num": ["0", "0", "1/2"], "den": ["1"]}]}
    c = curve_from_json(doc)
    assert c.evaluate(F(1, 2)) == (F(1, 2), F(1, 8))


def test_infinite_domain_endpoints():
    doc = {"kind": "rational", "domain": ["0", "inf"],
           "coords": [{"num": ["0", "1"], "den": ["1"]},
                      {"num": ["1"], "den": ["0", "1"]}]}
    c = curve_from_json(doc)
    assert c.evaluate(F(2)) == (2, F(1, 2))
    with pytest.raises(DomainError):
        c.domain.uniform_grid(8)
