import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curverig import (AnalyticCurve, DomainError, GeneralPolynomial,
                      HelixCurve, Interval, PoleError, RationalCurve,
                      RationalFunction, SimplicityReport, SquaredEuclidean,
                      arc_length_reparametrize, builtin_curve, check_simplicity,
                      curve_from_json, curve_to_json, pairings, trig_ellipse,
                      PinnedAreaSquared, SingularParametrization)
from curverig import curves
from curverig.curves import ConditionResult
from conftest import (make_circular_helix, make_cubic, make_line, make_parabola,
                      make_rational_circle, make_unit_circle)

F = Fraction
RF = RationalFunction.from_coeffs


def test_evaluate_trivial_examples():
    par = make_parabola(-10, 10)
    assert par.evaluate(F(3)) == (3, 9)
    helix = HelixCurve([1.0], [1.0], [1.0], 3)
    assert np.allclose(helix.evaluate(0.0), [1, 0, 0])
    circ = make_rational_circle()
    assert circ.evaluate(F(1)) == (0, 1)


def test_jet_trivial_examples():
    par = make_parabola(-10, 10)
    assert par.derivative_jet(F(1), 2) == [(1, 1), (1, 2), (0, 2)]
    circ = make_unit_circle()
    jet = circ.derivative_jet(0.0, 1)
    assert np.allclose(jet[0], [1, 0]) and np.allclose(jet[1], [0, 1])
    hyp = RationalCurve([RF([0, 1]), RF([1], [0, 1])], Interval(1, 10))
    assert hyp.derivative_jet(F(2), 1) == [(2, F(1, 2)), (1, F(-1, 4))]


def test_domain_errors():
    par = make_parabola(0, 1)
    with pytest.raises(DomainError):
        par.evaluate(F(0))     # open interval excludes endpoints
    with pytest.raises(DomainError):
        par.evaluate(F(2))


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


def _dense_check_simplicity(curve, quantity, n, tol=1e-9):
    """check_simplicity on whole n x n (x d) arrays: the reference that the
    row-block pass must equal report for report."""
    ts = curve.domain.uniform_grid(n)
    P = curve.evaluate_array(ts)
    V = curve.derivative_array(ts, 1)
    conditions = []
    dist = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1)
    iu = np.triu_indices(n, k=1)
    pair_d = dist[iu]
    speeds = np.linalg.norm(V, axis=-1)
    ok, witness, detail = True, None, ""
    if float(np.min(speeds)) <= tol:
        i = int(np.argmin(speeds))
        ok, witness = False, (float(ts[i]),)
        detail = f"||gamma'({ts[i]:.6g})|| = {speeds[i]:.3e}"
    elif float(np.min(pair_d)) <= tol:
        k = int(np.argmin(pair_d))
        i, j = int(iu[0][k]), int(iu[1][k])
        ok, witness = False, (float(ts[i]), float(ts[j]))
        detail = f"gamma({ts[i]:.6g}) ~ gamma({ts[j]:.6g}) within {pair_d[k]:.3e}"
    conditions.append(ConditionResult(1, "injective immersion", ok, witness, detail))
    acc_norms = np.linalg.norm(curve.derivative_array(ts, 2), axis=-1)
    ok = bool(np.max(acc_norms) >= tol)
    conditions.append(ConditionResult(
        2, "second derivative not identically zero", ok,
        None if ok else ("gamma'' ~ 0 on grid",),
        f"max ||gamma''|| = {float(np.max(acc_norms)):.3e}"))
    Dij, u, w = pairings(quantity, P[:, None, :], V[:, None, :],
                         P[None, :, :], V[None, :, :])
    sym_gap = np.abs(Dij - Dij.T)
    scale = np.maximum(1.0, np.abs(Dij))
    ok, witness, detail = True, None, ""
    if float(np.max(sym_gap / scale)) > tol:
        i, j = np.unravel_index(int(np.argmax(sym_gap / scale)), sym_gap.shape)
        ok, witness = False, (float(ts[i]), float(ts[j]))
        detail = f"symmetry gap {sym_gap[i, j]:.3e}"
    elif float(np.max(np.abs(np.diag(Dij)))) > tol:
        i = int(np.argmax(np.abs(np.diag(Dij))))
        ok, witness = False, (float(ts[i]),)
        detail = f"D(p,p) = {Dij[i, i]:.3e} != 0"
    else:
        off = np.abs(Dij[iu])
        if float(np.min(off)) <= tol:
            k = int(np.argmin(off))
            i, j = int(iu[0][k]), int(iu[1][k])
            ok, witness = False, (float(ts[i]), float(ts[j]))
            detail = f"D vanishes off-diagonal: {Dij[i, j]:.3e}"
    conditions.append(ConditionResult(3, "distance-polynomial axioms", ok,
                                      witness, detail))
    ok, witness, detail = True, None, ""
    for fa, fb in [(0.15, 0.85), (0.3, 0.6), (0.45, 0.95), (0.05, 0.5), (0.25, 0.75)]:
        ia, ib = int(fa * (n - 1)), int(fb * (n - 1))
        two = np.stack([Dij[:, ia], Dij[:, ib]], axis=-1)
        gap = np.linalg.norm(two[:, None, :] - two[None, :, :], axis=-1)
        g = gap[iu] / np.maximum(1.0, np.abs(two).max())
        if float(np.min(g)) <= tol:
            k = int(np.argmin(g))
            i, j = int(iu[0][k]), int(iu[1][k])
            ok = False
            witness = (float(ts[ia]), float(ts[ib]), float(ts[i]), float(ts[j]))
            detail = f"(D(.,a),D(.,b)) collides at t={ts[i]:.6g}, t={ts[j]:.6g}"
            break
    conditions.append(ConditionResult(4, "two-value map injective", ok,
                                      witness, detail))
    gnorm = np.hypot(u, w)
    np.fill_diagonal(gnorm, np.inf)
    ok = bool(np.min(gnorm) > tol)
    witness = None
    if not ok:
        i, j = np.unravel_index(int(np.argmin(gnorm)), gnorm.shape)
        witness = (float(ts[i]), float(ts[j]))
    conditions.append(ConditionResult(5, "submersion off diagonal", ok, witness,
                                      f"min gradient norm = {float(np.min(gnorm)):.3e}"))
    return SimplicityReport(conditions=conditions, grid_size=n, tol=tol)


_SIMPLICITY_CURVES = {
    "parabola": make_parabola(0, 1),
    "sheared-parabola": RationalCurve([RF([0, 1]), RF([0, 1, 1])], Interval(-1, 2)),
    "line": make_line(),
    "helix": make_circular_helix(0.5),
    "rational-circle": make_rational_circle(),
    "unit-circle": make_unit_circle(),
    "ellipse": trig_ellipse(2.0, 1.0),
    # the condition-1 pair branch: every point is met twice
    "double-circle": HelixCurve([1.0], [1.0], [], 2, Interval(0.0, 4 * math.pi)),
    "cusp": RationalCurve([RF([0, 0, 1]), RF([0, 0, 0, 1])], Interval(-1, 1)),
    "rect-hyperbola": builtin_curve("rect_hyperbola"),
}
_SIMPLICITY_QUANTITIES = [
    SquaredEuclidean(), PinnedAreaSquared(apex=(F(1, 3), F(-1, 2))),
    PinnedAreaSquared(apex=(0, 0)),
    GeneralPolynomial(2, (((2, 0, 0, 0), 1), ((0, 0, 2, 0), 1), ((1, 0, 1, 0), -2),
                          ((0, 3, 0, 0), 1), ((0, 0, 0, 3), -1), ((0, 1, 0, 1), F(1, 2)))),
]


@pytest.mark.parametrize("name", _SIMPLICITY_CURVES)
def test_row_blocks_match_the_dense_reference(name, monkeypatch):
    curve, n = _SIMPLICITY_CURVES[name], 64
    for q in _SIMPLICITY_QUANTITIES:
        if q.dimension not in (None, curve.dimension):
            continue
        want = _dense_check_simplicity(curve, q, n).to_dict()
        # one row, 7 rows (which do not divide 64), and every row at once
        for budget in (1, 7 * n, n * n):
            monkeypatch.setattr(curves, "_BLOCK", budget)
            assert check_simplicity(curve, q, n).to_dict() == want


def test_simplicity_failures_across_the_reference_matrix():
    # the matrix above fails each condition somewhere, and condition 3 by
    # symmetry and off the diagonal; a shifted square fails it on the diagonal
    failed = [c for curve in _SIMPLICITY_CURVES.values()
              for q in _SIMPLICITY_QUANTITIES if q.dimension in (None, curve.dimension)
              for c in check_simplicity(curve, q, 64).failures()]
    assert {c.index for c in failed} == {1, 2, 3, 4, 5}
    cond3 = [c.detail for c in failed if c.index == 3]
    assert any(d.startswith("symmetry gap") for d in cond3)
    assert any(d.startswith("D vanishes off-diagonal") for d in cond3)
    shifted = GeneralPolynomial(2, (((2, 0, 0, 0), 1), ((0, 0, 2, 0), 1),
                                    ((1, 0, 1, 0), -2), ((0, 0, 0, 0), F(1, 10**6))))
    rep = check_simplicity(make_parabola(0, 1), shifted, 64)
    assert rep.conditions[2].detail == "D(p,p) = 1.000e-06 != 0"
    assert rep.to_dict() == _dense_check_simplicity(
        make_parabola(0, 1), shifted, 64).to_dict()


def _parabola_with_x(x, nodes):
    """(t, t^2) on (0, 1), with the x coordinate set to x at the 64-point
    grid's nodes."""
    ts = {float(Interval(0.0, 1.0).uniform_grid(64)[k]) for k in nodes}

    def evaluator(t, order):
        jet = [np.array([t, t * t]), np.array([1.0, 2 * t]), np.array([0.0, 2.0])]
        if t in ts:
            jet[0] = np.array([x, t * t])
        return jet[:order + 1]

    return AnalyticCurve(2, evaluator, Interval(0.0, 1.0))


@pytest.mark.parametrize("x, nodes", [
    (math.nan, (5,)), (math.nan, (0, 40)), (math.nan, (63,)),
    # two infinite points: the first NaN, inf - inf at pair (10, 20), lies
    # in a later row block than the first finite gradient norm
    (math.inf, (10, 20))], ids=str)
def test_row_blocks_let_nan_win_as_the_dense_reference(x, nodes, monkeypatch):
    curve = _parabola_with_x(x, nodes)
    with np.errstate(invalid="ignore"):
        for q in _SIMPLICITY_QUANTITIES:
            want = _dense_check_simplicity(curve, q, 64).to_dict()
            for budget in (1, 7 * 64, 64 * 64):
                monkeypatch.setattr(curves, "_BLOCK", budget)
                got = check_simplicity(curve, q, 64).to_dict()
                assert got == want
                assert got["conditions"][4]["detail"] == "min gradient norm = nan"


def _parabola_moved(node, point):
    """(t, t^2) on (0, 10), with the 64-point grid's node `node` moved to
    `point`."""
    t_node = float(Interval(0.0, 10.0).uniform_grid(64)[node])

    def evaluator(t, order):
        jet = [np.array([t, t * t]), np.array([1.0, 2 * t]), np.array([0.0, 2.0])]
        if t == t_node:
            jet[0] = np.asarray(point, dtype=float)
        return jet[:order + 1]

    return AnalyticCurve(2, evaluator, Interval(0.0, 10.0))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_condition_4_scales_each_base_pair_by_its_own_values(sq, m):
    # node j is moved to the mirror image of node i across the line through
    # base pair m's points, then along that line until the two-value gap of
    # (i, j) is tol sqrt(s_0 s_m), s_k = max(1, max |D(., a_k)|, |D(., b_k)|)
    # the gap scale of base pair k.  So the gap fails on base pair m's own
    # scale iff s_m > s_0, and base pair 0's scale gives the other verdict
    n, tol, i, j = 64, 1e-9, 40, 10
    ts = Interval(0.0, 10.0).uniform_grid(n)
    P = np.stack([ts, ts * ts], axis=-1)
    bases = [(int(fa * (n - 1)), int(fb * (n - 1))) for fa, fb in
             [(0.15, 0.85), (0.3, 0.6), (0.45, 0.95), (0.05, 0.5), (0.25, 0.75)]]
    (ia, ib) = bases[m]
    a, b = P[ia], P[ib]
    d = (b - a) / np.linalg.norm(b - a)
    P[j] = 2 * (a + (P[i] - a) @ d * d) - P[i]

    def two(X, k):
        return np.stack([sq.eval_batch(X, P[c]) for c in bases[k]], axis=-1)

    s = [max(1.0, float(np.abs(two(P, k)).max())) for k in (0, m)]
    assert abs(s[1] / s[0] - 1) > 0.03
    probe = np.linalg.norm(two(P[i], m) - two(P[j] + 1e-3 * d, m)) / 1e-3
    curve = _parabola_moved(j, P[j] + tol * math.sqrt(s[0] * s[1]) / probe * d)
    rep = check_simplicity(curve, sq, n, tol)
    assert rep.to_dict() == _dense_check_simplicity(curve, sq, n, tol).to_dict()
    if s[1] > s[0]:
        assert [c.index for c in rep.failures()] == [4]
        assert rep.conditions[3].witness == tuple(float(ts[k]) for k in (ia, ib, j, i))
    else:
        assert rep.passed


def test_check_simplicity_memory_is_bounded_by_the_block(sq):
    # the dense arrays peaked at 496 MiB here; row blocks keep a few MiB
    curve = make_circular_helix(0.5)
    tracemalloc.start()
    try:
        rep = check_simplicity(curve, sq, n=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 64 * 2 ** 20


# -- single-point float jets -------------------------------------------------

_SCALAR_JET_CURVES = {
    **{name: builtin_curve(name) for name in
       ("line", "parabola", "rect_hyperbola", "rational_circle")},
    "cubic": make_cubic(-2, 2),
    "fractional": RationalCurve(
        [RF([F(1, 3), F(-2, 7), F(5, 11)], [F(5, 2), 0, F(1, 9)]),
         RF([F(1, 5), 0, F(3, 4)], [F(7, 3), F(1, 6)])], Interval(-10, 10)),
    "helix-drift": HelixCurve([1.5], [0.7], [0.3, -1.2], 5),
    "helix-two-frequencies": HelixCurve([1.0, 0.5], [1.0, math.sqrt(2)]),
}


def _bits(rows):
    return np.asarray(rows, dtype=float).view(np.int64)


def _assert_float_jet_bitwise(curve, t):
    ts = np.array([t])
    with np.errstate(all="ignore"):
        want = [curve.derivative_array(ts, k)[0] for k in range(5)]
        for order in range(5):
            got = curve.float_jet(t, order)
            assert len(got) == order + 1
            assert all(type(x) is float for row in got for x in row)
            assert np.array_equal(_bits(got), _bits(want[:order + 1]))
            if isinstance(curve, RationalCurve):
                jet = curve.jet_array(ts, order)[:, 0]
                assert np.array_equal(_bits(got), _bits(jet))
            arrays = curve.derivative_jet(t, order)
            assert all(a.shape == (curve.dimension,) and a.dtype == float
                       for a in arrays)
            assert np.array_equal(_bits(arrays), _bits(got))
        assert np.array_equal(_bits(curve.evaluate(t)), _bits(want[0]))


@pytest.mark.parametrize("name", list(_SCALAR_JET_CURVES))
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_float_jet_is_bitwise_the_array_evaluation(name, data):
    # the scalar jet runs the array paths' operations on Python floats; on
    # the helix this also pins math.cos/math.sin against numpy's bits
    curve = _SCALAR_JET_CURVES[name]
    lo, hi = float(curve.domain.lo), float(curve.domain.hi)
    t = data.draw(st.floats(lo, hi, exclude_min=True, exclude_max=True))
    _assert_float_jet_bitwise(curve, t)


def test_float_jet_where_a_denominator_underflows():
    # 24 / t^5 at t = 1e-70: t^5 is 0.0 in floats, and the scalar jet gives
    # numpy's inf like jet_array instead of raising ZeroDivisionError
    curve = builtin_curve("rect_hyperbola")
    with np.errstate(divide="ignore"):
        assert curve.float_jet(1e-70, 4)[4][1] == math.inf
    _assert_float_jet_bitwise(curve, 1e-70)


def _json_domain(lo, hi):
    return curve_from_json({"kind": "rational", "domain": [lo, hi],
                            "coords": [{"num": ["0", "1"]}]}).domain


@pytest.mark.parametrize("interval", [
    _json_domain("-16/5", "1/3"),              # both round down
    Interval(-(10 ** 30 + 1), 10 ** 30 + 1),   # lo rounds down, hi up
    _json_domain("16/5", "7"),                 # lo rounds up, hi is exact
    Interval(10 ** 30 + 1, 10 ** 31 + 1),      # lo rounds up, hi down
], ids=["thirds", "huge", "lo-up", "huge-positive"])
def test_interval_contains_is_exact_at_unrepresentable_endpoints(interval):
    lo, hi = interval.lo, interval.hi
    ts = []
    for e in (lo, hi):
        f = float(e)
        near = [math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf)]
        ts += near + [np.float64(x) for x in near]
        ts += [math.floor(e), math.ceil(e), e, e - F(1, 10 ** 40), e + F(1, 10 ** 40)]
    for t in ts:
        assert interval.contains(t) == (lo < F(t) < hi), (t, type(t))
    assert not interval.contains(math.nan)


def test_interval_contains_floats_inside_endpoints_past_the_float_range():
    interval = Interval(-(10 ** 400), F(10 ** 400, 3))
    for t in (-math.inf, -1e308, 0.0, 1e308, math.inf):
        assert interval.contains(t) == math.isfinite(t)


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


@pytest.mark.parametrize("dim", [4.5, 4.0, "4", True])
def test_curve_json_rejects_a_helix_dimension_that_is_not_an_int(dim):
    doc = {"kind": "helix", "radii": [1.0], "frequencies": [1.0],
           "dimension": dim}
    with pytest.raises(ValueError, match="not an integer"):
        curve_from_json(doc)
    assert curve_from_json({**doc, "dimension": 4}).dimension == 4


def test_infinite_domain_endpoints():
    doc = {"kind": "rational", "domain": ["0", "inf"],
           "coords": [{"num": ["0", "1"], "den": ["1"]},
                      {"num": ["1"], "den": ["0", "1"]}]}
    c = curve_from_json(doc)
    assert c.evaluate(F(2)) == (2, F(1, 2))
    with pytest.raises(DomainError):
        c.domain.uniform_grid(8)
