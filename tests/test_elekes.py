import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from curverig import (BiPoly, DegenerateParametrization, ElekesCurve,
                      GeneralPolynomial, ParamPointSet, PinnedAreaSquared,
                      RationalFunction, SquaredEuclidean, admissibility_scan,
                      implicit_to_dict, implicitize_rational,
                      intersect_elekes_pair, same_algebraic_curve,
                      verify_incidence_invariant)
from curverig.elekes import _unrank_pair
from conftest import (make_parabola, make_rational_circle, make_rect_hyperbola,
                      make_unit_circle, rational_rotation_circle_params)

F = Fraction
RF = RationalFunction.from_coeffs

X = BiPoly.monomial(1, 0)
Y = BiPoly.monomial(0, 1)
ONE = BiPoly.const(1)


# -- implicitization -----------------------------------------------------------


def test_implicitize_parabola_hand_oracle():
    # 3x3 Sylvester determinant by hand: X^2 - Y up to normalization
    G = implicitize_rational(RF([0, 1]), RF([0, 0, 1]))
    assert G == X * X - Y


def test_implicitize_hyperbola_hand_oracle():
    # 2x2 resultant by hand: XY - 1 up to normalization
    G = implicitize_rational(RF([0, 1]), RF([1], [0, 1]))
    assert G == X * Y - ONE


def _exact_nullspace(rows):
    """Tiny Fraction row reduction; returns kernel basis of the row space."""
    rows = [list(map(Fraction, r)) for r in rows]
    ncols = len(rows[0])
    pivots, r = [], 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][free]
        basis.append(v)
    return basis


def test_implicitize_circle_sampling_oracle():
    # independent oracle: exact nullspace of the degree-2 monomial matrix
    # evaluated at sampled curve points recovers X^2 + Y^2 - 1
    x, y = RF([1, 0, -1], [1, 0, 1]), RF([0, 2], [1, 0, 1])
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    rows = []
    for k in range(1, 11):
        t = F(k, 3)
        xv, yv = x(t), y(t)
        rows.append([xv ** i * yv ** j for i, j in monos])
    basis = _exact_nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    lead = v[3]
    oracle = BiPoly({m: int(c / lead) for m, c in zip(monos, v) if c != 0})
    G = implicitize_rational(x, y)
    assert G == oracle.normalized()
    assert G == X * X + Y * Y - ONE


def test_implicitize_soundness_random_rational_curves():
    rng = random.Random(12345)
    built = 0
    attempts = 0
    while built < 10 and attempts < 60:
        attempts += 1
        deg = rng.randrange(1, 5)

        def rand_poly(d):
            cs = [rng.randrange(-5, 6) for _ in range(d + 1)]
            if all(c == 0 for c in cs):
                cs[-1] = 1
            return cs

        x = RationalFunction.from_coeffs(rand_poly(deg),
                                         rand_poly(rng.randrange(0, deg + 1)))
        y = RationalFunction.from_coeffs(rand_poly(rng.randrange(1, deg + 1)),
                                         rand_poly(rng.randrange(0, deg + 1)))
        if x.is_constant() and y.is_constant():
            continue
        try:
            G = implicitize_rational(x, y)
        except DegenerateParametrization:
            continue
        built += 1
        m = max(x.degree, y.degree)
        assert G.degree_x() <= m and G.degree_y() <= m
        checked = 0
        k = 0
        while checked < 200:
            k += 1
            t = F(rng.randrange(-2000, 2000), rng.randrange(1, 500))
            if x.den(t) == 0 or y.den(t) == 0:
                continue
            assert G.eval_exact(x(t), y(t)) == 0
            checked += 1
    assert built == 10


def test_implicitize_rejects_double_constant():
    with pytest.raises(DegenerateParametrization):
        implicitize_rational(RF([1]), RF([2]))


def test_implicit_poly_serialization_roundtrip():
    # the rational circle: X^2 + Y^2 - 1, rows sorted by (i, j)
    G = implicitize_rational(RF([1, 0, -1], [1, 0, 1]), RF([0, 2], [1, 0, 1]))
    assert implicit_to_dict(G) == {
        "degree": 2, "coeffs": [[0, 0, "-1"], [0, 2, "1"], [2, 0, "1"]]}


# -- Elekes curve evaluation -----------------------------------------------------


def test_elekes_eval_trivial_triple(sq):
    par = make_parabola(-1, 3)
    e = ElekesCurve(par, sq, F(0), F(1))
    assert e.eval(F(0)) == (0, 2)
    assert e.eval(F(1)) == (2, 0)
    assert e.eval(F(2)) == (20, 10)


# Each D written out by hand, independently of curverig.quantity
_V1, _V2 = F(1, 3), F(-2, 5)
_COMPONENT_CASES = {
    "sq_euclidean": (SquaredEuclidean(), lambda x, y:
                     (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2),
    "pinned_area": (PinnedAreaSquared(apex=(_V1, _V2)), lambda x, y:
                    ((x[0] - _V1) * (y[1] - _V2) - (x[1] - _V2) * (y[0] - _V1)) ** 2),
    # asymmetric: x1^2 - 2 x1 y2 + 3 x2 y1^2 - 5/2 x1 x2 y2 + 7 y2
    "poly": (GeneralPolynomial(2, (((2, 0, 0, 0), 1), ((1, 0, 0, 1), -2),
                                   ((0, 1, 2, 0), 3), ((1, 1, 0, 1), F(-5, 2)),
                                   ((0, 0, 0, 1), 7))), lambda x, y:
             x[0] ** 2 - 2 * x[0] * y[1] + 3 * x[1] * y[0] ** 2
             - F(5, 2) * x[0] * x[1] * y[1] + 7 * y[1]),
}


@pytest.mark.parametrize("kind", sorted(_COMPONENT_CASES))
@pytest.mark.parametrize("make_curve", [make_parabola, make_rational_circle],
                         ids=["parabola", "rational_circle"])
def test_elekes_components_cache_matches_direct(make_curve, kind):
    curve = make_curve()
    q, D = _COMPONENT_CASES[kind]
    e = ElekesCurve(curve, q, F(1, 3), F(5, 7))
    A, B = e.components()
    assert e.components() is e.components()
    P, Q = curve.evaluate(F(1, 3)), curve.evaluate(F(5, 7))
    rng = random.Random(8)
    for _ in range(30):
        t = F(rng.randrange(1, 100), 101)
        x = curve.evaluate(t)
        assert (A(t), B(t)) == (D(x, P), D(x, Q))


def test_components_need_D_to_depend_on_gamma_t():
    q = GeneralPolynomial(2, (((0, 0, 1, 0), 1),))  # D(x, y) = y1
    e = ElekesCurve(make_parabola(), q, F(1, 3), F(5, 7))
    with pytest.raises(DegenerateParametrization):
        e.components()


def test_elekes_swap_symmetry_exact(sq):
    par = make_parabola(-1, 3)
    e = ElekesCurve(par, sq, F(0), F(1))
    es = ElekesCurve(par, sq, F(1), F(0))
    for k in range(-3, 10):
        t = F(k, 4)
        a, b = e.eval(t)
        assert es.eval(t) == (b, a)


def test_elekes_first_coordinate_zero_locus(sq):
    par = make_parabola(0, 1)
    p, q_ = F(1, 3), F(2, 3)
    e = ElekesCurve(par, sq, p, q_)
    zeros = [t for k in range(1, 64)
             if (t := F(k, 64)) and e.eval(t)[0] == 0]
    assert zeros == []          # grid avoids p itself
    assert e.eval(p)[0] == 0    # and vanishes exactly at p


def test_elekes_batch_matches_scalar(sq):
    par = make_parabola(0, 1)
    e = ElekesCurve(par, sq, F(1, 4), F(3, 4))
    ts = np.linspace(0.05, 0.95, 17)
    batch = e.eval_batch(ts)
    for i, t in enumerate(ts):
        assert np.allclose(batch[i], np.asarray(e.eval(float(t)), float))
    # tangent against finite differences; its xi is eval_batch's, bitwise
    xi, tan = e.tangent_batch(ts)
    assert np.array_equal(xi, batch)
    h = 1e-6
    fd = (e.eval_batch(ts + h) - e.eval_batch(ts - h)) / (2 * h)
    assert np.allclose(tan, fd, atol=1e-6)


# -- intersections ----------------------------------------------------------------


def test_swap_pair_intersections(sq):
    par = make_parabola(0, 1)
    e1 = ElekesCurve(par, sq, F(1, 7), F(5, 7))
    e2 = ElekesCurve(par, sq, F(5, 7), F(1, 7))
    rep = intersect_elekes_pair(e1, e2, n=64)
    assert not rep.same_algebraic_curve
    assert 1 <= rep.count <= 16
    # images are coordinate swaps, so some intersection sits on X = Y
    assert any(abs(x - y) < 1e-6 for x, y in rep.points)


def test_same_pair_rejected(sq):
    par = make_parabola(0, 1)
    e = ElekesCurve(par, sq, F(1, 7), F(5, 7))
    with pytest.raises(ValueError):
        intersect_elekes_pair(e, e)


def test_same_curve_detection_exact_on_circle_orbit(sq):
    circ = make_rational_circle()
    ts = rational_rotation_circle_params(4)
    # equal angular gaps -> identical algebraic Elekes curves
    e1 = ElekesCurve(circ, sq, ts[0], ts[1])
    e2 = ElekesCurve(circ, sq, ts[1], ts[2])
    same, method = same_algebraic_curve(e1, e2)
    assert same and method == "exact"
    rep = intersect_elekes_pair(e1, e2)
    assert rep.same_algebraic_curve and rep.count == 0
    # different gaps -> different curves
    e3 = ElekesCurve(circ, sq, ts[0], ts[2])
    same, _ = same_algebraic_curve(e1, e3)
    assert not same


def test_circle_swapped_pair_is_same_algebraic_curve(sq):
    # circle images are symmetric in the two coordinates, so reversing
    # (p, q) keeps the implicit polynomial; on the parabola it does not
    circ = make_rational_circle()
    ts = rational_rotation_circle_params(4)
    e1 = ElekesCurve(circ, sq, ts[0], ts[1])
    e2 = ElekesCurve(circ, sq, ts[1], ts[0])
    assert e1.implicit() == e2.implicit()
    par = make_parabola(0, 1)
    p1 = ElekesCurve(par, sq, F(1, 7), F(5, 7))
    p2 = ElekesCurve(par, sq, F(5, 7), F(1, 7))
    assert p1.implicit() != p2.implicit()


def test_same_curve_detection_fingerprint_on_trig_circle(sq):
    circ = make_unit_circle()
    e1 = ElekesCurve(circ, sq, 0.2, 1.0)
    e2 = ElekesCurve(circ, sq, 0.7, 1.5)   # same angular gap 0.8
    same, method = same_algebraic_curve(e1, e2)
    assert same and method == "fingerprint"
    e3 = ElekesCurve(circ, sq, 0.2, 1.7)
    same, _ = same_algebraic_curve(e1, e3)
    assert not same


def test_generic_parabola_pair_respects_bezout(sq):
    par = make_parabola(0, 1)
    pts = [F(1, 11), F(3, 11), F(7, 11), F(9, 11)]
    e1 = ElekesCurve(par, sq, pts[0], pts[1])
    e2 = ElekesCurve(par, sq, pts[2], pts[3])
    rep = intersect_elekes_pair(e1, e2, n=64)
    assert not rep.same_algebraic_curve
    assert rep.count <= (2 * 2) ** 2


# -- incidence invariant ------------------------------------------------------------


def test_incidence_invariant_parabola(sq):
    par = make_parabola(0, 1)
    pset = ParamPointSet(par, tuple(F(k, 7) for k in range(1, 6)))
    rep = verify_incidence_invariant(pset, sq)
    assert rep.checked == 5 * 4 * 3
    assert rep.failures == []
    assert rep.min_incident == rep.max_incident == 3


def test_incidence_invariant_hyperbola_pinned_area():
    hyp = make_rect_hyperbola(F(1, 100), 64)
    q = PinnedAreaSquared(apex=(0, 0))
    pset = ParamPointSet(hyp, (F(1, 2), F(1), F(2), F(3)))
    rep = verify_incidence_invariant(pset, q)
    assert rep.failures == []
    assert rep.min_incident == rep.max_incident == 2


def test_incidence_invariant_three_points_circle(sq):
    circ = make_rational_circle()
    pset = ParamPointSet(circ, (F(0), F(1, 2), F(2)))
    rep = verify_incidence_invariant(pset, sq)
    assert rep.failures == []
    assert rep.min_incident == rep.max_incident == 1  # |P| - 2


@pytest.mark.parametrize("make_curve", [make_parabola, make_rational_circle],
                         ids=["parabola", "rational_circle"])
def test_incidence_invariant_catches_wrong_component(sq, make_curve, monkeypatch):
    # xi_pq comes from the symbolic components, D(r, p) from the points:
    # shifting A by 1 must fail every one of the 5 * 4 * 3 checks
    components = ElekesCurve.components

    def shifted(self):
        A, B = components(self)
        return A + 1, B

    monkeypatch.setattr(ElekesCurve, "components", shifted)
    pset = ParamPointSet(make_curve(), tuple(F(k, 7) for k in range(1, 6)))
    rep = verify_incidence_invariant(pset, sq)
    assert rep.checked == len(rep.failures) == 60


# -- admissibility -------------------------------------------------------------------


def test_admissibility_empty_sample(sq):
    par = make_parabola(0, 1)
    pset = ParamPointSet(par, tuple(F(k, 9) for k in range(1, 5)))
    rep = admissibility_scan(pset, sq, sample_pairs=0)
    assert rep.pairs_checked == 0 and rep.histogram == {}
    assert rep.max_pairwise_intersections == 0


def test_admissibility_parabola_no_duplicates(sq):
    par = make_parabola(0, 1)
    rng = random.Random(3)
    params = tuple(sorted(F(rng.randrange(1, 997), 997) for _ in range(8)))
    pset = ParamPointSet(par, params)
    rep = admissibility_scan(pset, sq, sample_pairs=40, n=48, seed=1)
    assert rep.detection_method == "exact"
    assert rep.duplicate_curve_classes == []
    assert rep.n_classes == 8 * 7
    assert rep.max_pairwise_intersections <= 16
    assert sum(rep.histogram.values()) <= 40


def test_admissibility_circle_orbit_has_duplicates(sq):
    circ = make_rational_circle()
    pset = ParamPointSet(circ, rational_rotation_circle_params(8))
    rep = admissibility_scan(pset, sq, sample_pairs=30, n=48, seed=2)
    assert rep.detection_method == "exact"
    assert rep.duplicate_curve_classes            # collapse happens
    assert all(len(cls) > 1 for cls in rep.duplicate_curve_classes)
    assert rep.n_classes < rep.n_curves


def test_unrank_pair_matches_combinations():
    for n in range(2, 41):
        assert [_unrank_pair(k, n) for k in range(n * (n - 1) // 2)] \
            == list(combinations(range(n), 2))
