import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from curverig import (BiPoly, DegenerateParametrization, ElekesCurve,
                      ElekesFamily, GeneralPolynomial, HelixCurve, ParamPointSet,
                      PinnedAreaSquared, RationalFunction, SquaredEuclidean,
                      admissibility_scan, generate_point_set, implicit_to_dict,
                      implicitize_rational, intersect_elekes_pair, parse_scheme,
                      same_algebraic_curve, verify_incidence_invariant)
import curverig.elekes as elekes_module
from curverig.bipoly import compose, shear
from curverig.rational import RationalFunction, real_roots
from curverig.curves import Interval, RationalCurve, builtin_curve, trig_ellipse
from curverig.elekes import (IntersectionReport, _merge_points, _newton,
                             _newton_count, _unrank_pair)
from curverig.quantity import pairings
from conftest import (deadline, make_circular_helix, make_parabola,
                      make_rational_circle, make_rect_hyperbola, make_unit_circle,
                      polyval_array, rational_rotation_circle_params)

F = Fraction
RF = RationalFunction.from_coeffs

PARABOLA = BiPoly({(2, 0): 1, (0, 1): -1})             # X^2 - Y
HYPERBOLA = BiPoly({(1, 1): 1, (0, 0): -1})            # XY - 1
CIRCLE = BiPoly({(2, 0): 1, (0, 2): 1, (0, 0): -1})    # X^2 + Y^2 - 1


# -- implicitization -----------------------------------------------------------


def test_implicitize_parabola_hand_oracle():
    # 3x3 Sylvester determinant by hand: X^2 - Y up to normalization
    G = implicitize_rational(RF([0, 1]), RF([0, 0, 1]))
    assert G == PARABOLA


def test_implicitize_hyperbola_hand_oracle():
    # 2x2 resultant by hand: XY - 1 up to normalization
    G = implicitize_rational(RF([0, 1]), RF([1], [0, 1]))
    assert G == HYPERBOLA


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
    assert G == CIRCLE


# The implicit equations of 63 fixed Elekes curves, hashed: a change to the
# resultant or the power root that alters any coefficient fails here.
_GOLDEN_CURVES = {
    "line": builtin_curve("line"),
    "parabola": builtin_curve("parabola"),
    "rect_hyperbola": builtin_curve("rect_hyperbola"),
    "rational_circle": builtin_curve("rational_circle"),
    "cubic": RationalCurve([RF([0, 1]), RF([0, -1, 0, 1])], Interval(-2, 2)),
    "sheared_parabola": RationalCurve([RF([0, 1, 1]), RF([0, 0, 1])],
                                      Interval(0, 1)),
    "fractional": RationalCurve([RF([F(1, 3), 2], [F(5, 2), 1]),
                                 RF([F(-1, 2), 0, F(3, 4)], [1, F(1, 7), 1])],
                                Interval(0, 4)),
}
_GOLDEN_QUANTITIES = {
    "sq": SquaredEuclidean(),
    "pinned": PinnedAreaSquared(apex=(F(1, 2), F(-1, 5))),
    "poly": GeneralPolynomial(2, (((2, 0, 0, 0), 1), ((1, 0, 0, 1), -2),
                                  ((0, 0, 0, 2), 1), ((0, 1, 1, 0), F(3, 2)))),
}
_GOLDEN_SHA256 = "c79be3985ba40d97d63f0ee9d33b94c5dbb241374cf4a9c762ae02a50dcfacc4"


def test_implicit_equations_match_their_golden_hash():
    doc = {f"{cn}/{qn}/{p}/{r}": implicit_to_dict(ElekesCurve(c, q, p, r).implicit())
           for cn, c in _GOLDEN_CURVES.items()
           for qn, q in _GOLDEN_QUANTITIES.items()
           for p, r in [(F(1, 3), F(2, 3)), (F(1, 7), F(5, 6)), (F(3, 4), F(1, 5))]}
    assert len(doc) == 63
    assert max(d["degree"] for d in doc.values()) >= 6
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == _GOLDEN_SHA256


def _golden_elekes_curves():
    for cn, c in _GOLDEN_CURVES.items():
        for qn, q in _GOLDEN_QUANTITIES.items():
            for p, r in [(F(1, 3), F(2, 3)), (F(1, 7), F(5, 6)), (F(3, 4), F(1, 5))]:
                yield f"{cn}/{qn}/{p}/{r}", ElekesCurve(c, q, p, r)


def test_sheared_frame_gives_the_plain_implicit():
    # implicit() in the frame (A, B - A), sheared back and normalized, is
    # the implicit equation of (A, B) computed directly; on one golden
    # curve the shear flips the graded leading sign
    frames, flipped = {True: 0, False: 0}, 0
    for name, e in _golden_elekes_curves():
        x, y, sheared = e.frame()
        frames[sheared] += 1
        assert e.implicit() == implicitize_rational(*e.components()), name
        if sheared:
            assert (x, y) == (e.components()[0], e.components()[1] - x)
            assert y.degree < e.components()[1].degree
            flipped += shear(e.frame_implicit(), -1) != e.implicit()
    assert frames == {True: 36, False: 27} and flipped == 1


def test_shear_substitutes_y_plus_k_x():
    # X^2 - Y -> X^2 - (Y - X); XY^2 -> X (Y - X)^2, X (Y + X)^2, X (Y + 2X)^2
    assert shear(PARABOLA, -1) == BiPoly({(2, 0): 1, (0, 1): -1, (1, 0): 1})
    assert shear(BiPoly({(1, 2): 1}), -1) == BiPoly({(1, 2): 1, (2, 1): -2, (3, 0): 1})
    assert shear(BiPoly({(1, 2): 1}), 1) == BiPoly({(1, 2): 1, (2, 1): 2, (3, 0): 1})
    assert shear(BiPoly({(1, 2): 1}), 2) == BiPoly({(1, 2): 1, (2, 1): 4, (3, 0): 4})
    for name, e in _golden_elekes_curves():
        G = e.implicit()
        assert shear(shear(G, 1), -1) == G, name


def test_sheared_inverse_recovers_the_parameter():
    # on a sheared frame, -sigma0 / sigma1 at (A(t), B(t) - A(t)) is t
    checked = 0
    for name, e in _golden_elekes_curves():
        x, y, sheared = e.frame()
        if not sheared:
            continue
        s1, s0 = e.inverse()
        lo, hi = e.curve.domain.lo, e.curve.domain.hi
        for t in (lo + (hi - lo) * F(k, 11) for k in (1, 4, 6, 9)):
            den = s1.eval_exact(x(t), y(t))
            assert den, (name, t)
            assert -s0.eval_exact(x(t), y(t)) / den == t, (name, t)
            checked += 1
    assert checked == 36 * 4


def test_rational_circle_takes_the_plain_frame(sq):
    # B - A = -2 <gamma(t), gamma(q) - gamma(p)> keeps B's degree 2
    e = ElekesCurve(make_rational_circle(), sq, F(1, 3), F(2, 3))
    A, B = e.components()
    assert (B - A).degree == B.degree == 2
    assert e.frame() == (A, B, False)
    assert e.implicit() == e.frame_implicit() == implicitize_rational(A, B)


def test_nodal_cubic_with_equal_base_points_takes_the_plain_frame(sq):
    # gamma(-1) = gamma(1) = 0 on (t^2 - 1, t^3 - t): A = B, B - A = 0,
    # and xi is the line X = Y
    nodal = RationalCurve([RF([-1, 0, 1]), RF([0, -1, 0, 1])], Interval(-2, 2))
    e = ElekesCurve(nodal, sq, F(-1), F(1))
    A, B = e.components()
    assert A == B and (B - A).is_constant()
    assert e.frame() == (A, B, False)
    assert e.implicit() == BiPoly({(1, 0): 1, (0, 1): -1})


def test_one_resultant_and_one_root_per_implicit(sq, monkeypatch):
    calls = {"sylvester_resultant": 0, "square_free_part": 0}

    def counted(name):
        f = getattr(elekes_module, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(elekes_module, name, counted(name))
    curves = [ElekesCurve(make_parabola(0, 1), sq, F(1, 3), F(2, 3)),
              ElekesCurve(make_rational_circle(), sq, F(1, 3), F(2, 3))]
    assert [e.frame()[2] for e in curves] == [True, False]
    for k, e in enumerate(curves, start=1):
        e.implicit()
        e.implicit()
        assert calls == {"sylvester_resultant": k, "square_free_part": k}


def _family_of_two(curve, q, p, r):
    """A two-point family and its two mirrored curves: (lo, hi) eliminated,
    (hi, lo) derived through the swap."""
    family = ElekesFamily(ParamPointSet(curve, tuple(sorted((p, r)))), q)
    return family, *family.curves.values()


def test_mirrored_implicits_match_their_own_elimination(sq):
    # both orders of every golden pair, the nodal cubic's line X = Y, and a
    # rational circle pair: the implicit and the frame implicit of each
    # curve are those implicitize_rational finds on it
    nodal = RationalCurve([RF([-1, 0, 1]), RF([0, -1, 0, 1])], Interval(-2, 2))
    cases = [(c, q, p, r) for c in _GOLDEN_CURVES.values()
             for q in _GOLDEN_QUANTITIES.values()
             for p, r in [(F(1, 3), F(2, 3)), (F(1, 7), F(5, 6)), (F(3, 4), F(1, 5))]]
    cases += [(nodal, sq, F(-1), F(1)), (make_rational_circle(), sq, F(1, 3), F(2, 3))]
    frames = {True: 0, False: 0}
    for c, q, p, r in cases:
        family, computed, mirrored = _family_of_two(c, q, p, r)
        assert family.mirror(computed) is None and family.mirror(mirrored) is computed
        frames[mirrored.frame()[2]] += 1
        for e in (mirrored, computed):
            assert e.frame_implicit() == implicitize_rational(*e.frame()[:2]), e
            assert e.implicit() == implicitize_rational(*e.components()), e
    assert frames == {True: 36, False: 29}


def test_family_evaluates_d_once_per_point_and_half_the_resultants(sq, monkeypatch):
    # n legs and n(n - 1) / 2 resultants for the n(n - 1) curves of a
    # family, across implicits, frame implicits and a scan of every pair
    calls = {"eval": 0, "sylvester_resultant": 0}
    real_eval, real_resultant = SquaredEuclidean.eval, elekes_module.sylvester_resultant

    def counted_eval(self, *args):
        calls["eval"] += 1
        return real_eval(self, *args)

    def counted_resultant(*args):
        calls["sylvester_resultant"] += 1
        return real_resultant(*args)

    monkeypatch.setattr(SquaredEuclidean, "eval", counted_eval)
    monkeypatch.setattr(elekes_module, "sylvester_resultant", counted_resultant)
    for curve, n in [(make_parabola(0, 1), 5), (make_rational_circle(), 4), (_cubic(), 4)]:
        calls.update(eval=0, sylvester_resultant=0)
        pset = ParamPointSet(curve, tuple(F(k, 7) for k in range(1, n + 1)))
        family = ElekesFamily(pset, sq)
        curves = list(family.curves.values())
        for e in curves:
            e.implicit()
            e.frame_implicit()
        assert curves[0].components()[0] is curves[1].components()[0]
        assert calls == {"eval": n, "sylvester_resultant": n * (n - 1) // 2}
        admissibility_scan(family, sample_pairs=10 ** 4)
        assert calls == {"eval": n, "sylvester_resultant": n * (n - 1) // 2}


def test_helix_family_builds_no_components(sq):
    helix = make_circular_helix(0.5)
    pset = ParamPointSet(helix, (-613.25, -17.5, 2.0, 401.75))
    family = ElekesFamily(pset, sq)
    admissibility_scan(family, sample_pairs=4, n=16)
    verify_incidence_invariant(family)
    # the legs and implicits of a family's curves live in the family's dicts
    assert family.legs == {} and family.implicits == {}


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


def _at(e, t):
    """xi(t) on exact data, from the cached components."""
    return tuple(c(t) for c in e.components())


def test_elekes_eval_trivial_triple(sq):
    par = make_parabola(-1, 3)
    e = ElekesCurve(par, sq, F(0), F(1))
    assert _at(e, F(0)) == (0, 2)
    assert _at(e, F(1)) == (2, 0)
    assert _at(e, F(2)) == (20, 10)
    assert e.eval_batch(np.array([0.0, 1.0, 2.0])).tolist() == [[0, 2], [2, 0], [20, 10]]


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
        a, b = _at(e, t)
        assert _at(es, t) == (b, a)


def test_elekes_first_coordinate_zero_locus(sq):
    par = make_parabola(0, 1)
    p, q_ = F(1, 3), F(2, 3)
    e = ElekesCurve(par, sq, p, q_)
    A = e.components()[0]
    zeros = [t for k in range(1, 64) if (t := F(k, 64)) and A(t) == 0]
    assert zeros == []          # grid avoids p itself
    assert A(p) == 0            # and vanishes exactly at p


def test_elekes_batch_matches_scalar(sq):
    par = make_parabola(0, 1)
    e = ElekesCurve(par, sq, F(1, 4), F(3, 4))
    ts = np.linspace(0.05, 0.95, 17)
    batch = e.eval_batch(ts)
    for i, t in enumerate(ts):  # the components at the float t, exactly
        assert np.allclose(batch[i], np.asarray(_at(e, F(t)), float))
    # tangent against finite differences; its xi is eval_batch's, bitwise
    xi, tan = e.tangent_batch(ts)
    assert np.array_equal(xi, batch)
    h = 1e-6
    fd = (e.eval_batch(ts + h) - e.eval_batch(ts - h)) / (2 * h)
    assert np.allclose(tan, fd, atol=1e-6)


def _bits(a):
    return a.view(np.int64)


def _jet_curve(name):
    if name == "cubic":
        return _cubic()
    if name == "space_curve":  # (t, t^2, t^3 / (1 + t^2)): three coordinates
        return RationalCurve([RF([0, 1]), RF([0, 0, 1]), RF([0, 0, 0, 1], [1, 0, 1])],
                             Interval(-2, 2))
    return builtin_curve(name)


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name in ["line", "parabola", "rect_hyperbola", "rational_circle",
                              "cubic"] for kind in sorted(_COMPONENT_CASES)]
    + [("space_curve", "sq_euclidean")])
def test_jet_batches_match_polyval_bitwise(name, kind):
    curve = _jet_curve(name)
    q = _COMPONENT_CASES[kind][0]
    lo, hi = float(curve.domain.lo), float(curve.domain.hi)
    e = ElekesCurve(curve, q, F(lo + 0.3 * (hi - lo)).limit_denominator(64),
                    F(lo + 0.7 * (hi - lo)).limit_denominator(64))
    bases = [np.array([float(c) for c in curve.evaluate(b)]) for b in e.pair()]
    rng = np.random.default_rng(11)
    grid = np.concatenate([curve.domain.uniform_grid(64), rng.uniform(lo, hi, 200)])
    for ts in (grid, grid[:3]):
        for order in range(3):
            assert np.array_equal(_bits(curve.derivative_array(ts, order)),
                                  _bits(polyval_array(curve, ts, order)))
        X, V = polyval_array(curve, ts, 0), polyval_array(curve, ts, 1)
        D, T = zip(*(pairings(q, X, V, b, None)[:2] for b in bases))
        xi, tan = e.tangent_batch(ts)
        assert np.array_equal(_bits(xi), _bits(np.stack(D, axis=-1)))
        assert np.array_equal(_bits(tan), _bits(np.stack(T, axis=-1)))
        assert np.array_equal(_bits(e.eval_batch(ts)), _bits(np.stack(D, axis=-1)))


def test_step_of_two_distances_takes_each_curves_own(sq):
    # one curve, two D: each side of a Newton step, one tangent_batch per
    # curve, keeps its own D, bit for bit its pairings on polyval's points
    par = make_parabola(0, 1)
    e1 = ElekesCurve(par, sq, F(1, 7), F(3, 7))
    e2 = ElekesCurve(par, PinnedAreaSquared(apex=(0, 0)), F(2, 7), F(5, 7))
    ts, ss = np.linspace(0.05, 0.95, 40), np.linspace(0.9, 0.1, 40)
    for e, us in ((e1, ts), (e2, ss)):
        X, V = polyval_array(par, us, 0), polyval_array(par, us, 1)
        bases = [np.array([float(c) for c in par.evaluate(b)]) for b in e.pair()]
        D, T = zip(*(pairings(e.quantity, X, V, b, None)[:2] for b in bases))
        for got, want in zip(e.tangent_batch(us), (D, T)):
            assert np.array_equal(_bits(got), _bits(np.stack(want, axis=-1)))


def test_helix_step_matches_reference_bitwise(sq):
    # three coordinates: sums of three terms round in memory order
    helix = make_circular_helix(0.5)
    e1 = ElekesCurve(helix, sq, -613.25, 2.0)
    e2 = ElekesCurve(helix, sq, -17.5, 401.75)
    rng = np.random.default_rng(3)
    ts, ss = rng.uniform(-1000, 1000, (2, 2000))
    for e, us in ((e1, ts), (e2, ss)):
        for got, want in zip(e.tangent_batch(us), _tangent_reference(e, us)):
            assert np.array_equal(_bits(got), _bits(want))


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
    # no Newton ran: the report says so
    assert (rep.same_algebraic_curve, rep.count, rep.count_method) == (True, 0, "same")
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
    rep = intersect_elekes_pair(e1, e2)
    assert (rep.detection_method, rep.count_method) == ("fingerprint", "same")
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


# -- exact counts against an independent oracle ----------------------------------


def _sympy_components(coords, D, p, q):
    """(A, B) of the Elekes curve t -> (D(g(t), g(p)), D(g(t), g(q))) as
    sympy expressions in t, for coords sympy expressions in t."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    at = [[c.subs(t, sympy.Rational(v)) for c in coords] for v in (p, q)]
    return tuple(sympy.cancel(D(coords, b)) for b in at)


def _sq(x, y):
    return sum((a - b) ** 2 for a, b in zip(x, y))


def _oracle_count(c1, c2) -> int:
    """|xi1(I1) & xi2(I2)| from sympy and mpmath alone, for c = (A, B, lo,
    hi) with A, B sympy rational functions of t and I = (lo, hi) rational.

    The real roots s in I2 of the square-free part of Res_t(num(A1(t) -
    A2(s)), num(B1(t) - B2(s))) are isolated and refined by sympy.  At
    each, xi2(s) is a common point iff num(A1(t) - A2(s)) has a real root
    t in I1, found by mpmath at 60 digits, with B1(t) = B2(s); equal
    points count once."""
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    t, s = sympy.symbols("t s")
    (A1, B1, lo1, hi1), (A2, B2, lo2, hi2) = c1, c2
    A2, B2 = A2.subs(t, s), B2.subs(t, s)
    res = sympy.resultant(sympy.numer(sympy.together(A1 - A2)),
                          sympy.numer(sympy.together(B1 - B2)), t)
    sqf = sympy.Poly(sympy.sqf_part(res), s)
    a1, b1 = (sympy.lambdify(t, e, "mpmath") for e in (A1, B1))
    a2, b2 = (sympy.lambdify(s, e, "mpmath") for e in (A2, B2))
    num, den = (sympy.Poly(e, t) for e in sympy.fraction(sympy.together(A1)))
    points = []
    with mpmath.workdps(60):
        mp = lambda v: mpmath.mpf(sympy.Rational(v).p) / sympy.Rational(v).q
        eps, lo1, hi1 = mpmath.mpf(10) ** -25, mp(F(lo1)), mp(F(hi1))
        for (l, r), _ in sqf.intervals():
            if l != r:
                if r <= lo2 or l >= hi2:
                    continue
                l, r = sqf.refine_root(l, r, eps=sympy.Rational(1, 10 ** 45))
                assert lo2 < l and r < hi2, "a root sits too close to an endpoint"
            elif not lo2 < l < hi2:
                continue
            X, Y = a2(mp((l + r) / 2)), b2(mp((l + r) / 2))
            ns, ds = ([mp(c) for c in p.all_coeffs()] for p in (num, den))
            width = max(len(ns), len(ds))
            poly = [n - X * d for n, d in zip([0] * (width - len(ns)) + ns,
                                              [0] * (width - len(ds)) + ds)]
            while abs(poly[0]) < eps:
                poly = poly[1:]
            ts = [mpmath.re(z) for z in mpmath.polyroots(poly, maxsteps=400,
                                                          extraprec=400)
                  if abs(mpmath.im(z)) < eps]
            hit = any(lo1 < tz < hi1 and abs(a1(tz) - X) + abs(b1(tz) - Y)
                      < eps * (1 + abs(X) + abs(Y)) for tz in ts)
            if hit and not any(abs(X - u) + abs(Y - v) < eps for u, v in points):
                points.append((X, Y))
    return len(points)


def _parabola_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    return [t, t ** 2]


@pytest.mark.parametrize("p, q", [
    (F(4, 7), F(5, 7)),                          # the README example
    (F(486, 997), F(595, 997)),                  # criterion 11
    (F(595, 997), F(641, 997)),
    (F(3840086223, 2 ** 32), F(968905725, 2 ** 30)),   # elekes seed 1401
], ids=["readme", "c11-486-595", "c11-595-641", "seed1401"])
def test_mirrored_parabola_pairs_meet_three_times(sq, p, q):
    # xi_pq and xi_qp touch at (0, D(p, q)) and (D(p, q), 0), where Newton
    # kept two points each (5, or 17 above Bezout's 16); with the crossing
    # on X = Y they meet 3 times
    par = make_parabola(0, 1)
    e1, e2 = ElekesCurve(par, sq, p, q), ElekesCurve(par, sq, q, p)
    coords = _parabola_sympy()
    want = _oracle_count((*_sympy_components(coords, _sq, p, q), 0, 1),
                         (*_sympy_components(coords, _sq, q, p), 0, 1))
    assert want == 3
    with deadline(30):
        for a, b in ((e1, e2), (e2, e1)):
            rep = intersect_elekes_pair(a, b)
            assert (rep.count, rep.count_method) == (3, "exact")
            assert (rep.n_seeds, rep.n_converged) == (0, 0)
            assert sum(abs(x - y) < 1e-9 for x, y in rep.points) == 1


def _oracle_pairs():
    """Seeded pairs on the parabola, the rational circle and the cubic
    (t, t^3 - t): a generic pair and a mirrored one of each, with each
    curve's domain and sympy coordinates."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    cases = [("parabola", make_parabola(0, 1), [t, t ** 2]),
             ("rational_circle", make_rational_circle(),
              [(1 - t ** 2) / (1 + t ** 2), 2 * t / (1 + t ** 2)]),
             ("cubic", _cubic(), [t, t ** 3 - t])]
    rng = random.Random(21)
    for name, curve, coords in cases:
        lo, hi = curve.domain.lo, curve.domain.hi
        draw = [lo + (hi - lo) * F(rng.randrange(1, 97), 97) for _ in range(6)]
        yield name, curve, coords, (draw[0], draw[1]), (draw[2], draw[3])
        yield name, curve, coords, (draw[4], draw[5]), (draw[5], draw[4])


def test_exact_counts_match_the_oracle_both_ways(sq):
    checked = 0
    for name, curve, coords, (p1, q1), (p2, q2) in _oracle_pairs():
        e1, e2 = ElekesCurve(curve, sq, p1, q1), ElekesCurve(curve, sq, p2, q2)
        lo, hi = curve.domain.lo, curve.domain.hi
        with deadline(60):
            reps = [intersect_elekes_pair(e1, e2), intersect_elekes_pair(e2, e1)]
        if reps[0].same_algebraic_curve:   # mirrored circle pairs
            assert name == "rational_circle" and reps[1].same_algebraic_curve
            continue
        want = _oracle_count((*_sympy_components(coords, _sq, p1, q1), lo, hi),
                             (*_sympy_components(coords, _sq, p2, q2), lo, hi))
        for rep in reps:
            assert (rep.count, rep.count_method) == (want, "exact"), name
            assert rep.count <= (2 * curve.degree) ** 2
        checked += 1
    assert checked == 5


def test_a_root_with_its_parameter_outside_the_domain_is_not_counted(sq):
    # N has 2 roots s in (0, 1), but xi1 reaches one of those points only
    # at a t outside (0, 1): 1 point
    par = make_parabola(0, 1)
    e1 = ElekesCurve(par, sq, F(1, 7), F(2, 7))
    e2 = ElekesCurve(par, sq, F(3, 7), F(6, 7))
    G, (A2, B2) = e1.implicit(), e2.components()
    assert len(real_roots(compose(G, A2, B2, G.degree_x(), G.degree_y()), 0, 1)) == 2
    coords = _parabola_sympy()
    want = _oracle_count((*_sympy_components(coords, _sq, F(1, 7), F(2, 7)), 0, 1),
                         (*_sympy_components(coords, _sq, F(3, 7), F(6, 7)), 0, 1))
    with deadline(30):
        assert intersect_elekes_pair(e1, e2).count == want == 1


def test_a_node_on_the_other_curve_gives_the_proven_bound():
    # (t^2 - 1, t^3 - t) passes through the origin at t = -1 and t = 1, so
    # each of its Elekes curves xi2 has a node P = xi2(1) = xi2(-1); the
    # line xi1(t) = (t, t + 35/8) (D = x1 + y1 on the X axis) crosses it
    # there and once more, 2 points in all.  Counted on xi2 the two roots
    # s = +-1 share one point, xi2's own sigma1 vanishes there, and the
    # bound is 3; counted on the line, xi2's sigma1 vanishes at P again,
    # and the bound is 2.  Neither order is exact, so both report the
    # smaller proven bound, 2
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    nodal = RationalCurve([RF([-1, 0, 1]), RF([0, -1, 0, 1])], Interval(-2, 2))
    line = RationalCurve([RF([0, 1]), RF([0])], Interval(-10, 10))
    plus = GeneralPolynomial(2, (((1, 0, 0, 0), 1), ((0, 0, 1, 0), 1)))
    e2 = ElekesCurve(nodal, SquaredEuclidean(), F(1, 2), F(3, 2))
    e1 = ElekesCurve(line, plus, 0, F(35, 8))
    assert _at(e2, F(1)) == _at(e2, F(-1)) == (F(45, 64), F(325, 64))
    assert _at(e1, F(45, 64)) == _at(e2, F(1))
    want = _oracle_count((t, t + F(35, 8), -10, 10),
                         (*_sympy_components([t ** 2 - 1, t ** 3 - t], _sq,
                                             F(1, 2), F(3, 2)), -2, 2))
    assert want == 2
    with deadline(30):
        assert [(r.count, r.count_method) for r in (intersect_elekes_pair(e1, e2),
                                                    intersect_elekes_pair(e2, e1))] \
            == [(2, "upper"), (2, "upper")]
        assert [(r.count, r.count_method) for r in (elekes_module._exact_count(e1, e2),
                                                    elekes_module._exact_count(e2, e1))] \
            == [(3, "upper"), (2, "upper")]


# -- the intersector against its previous, unpruned form ------------------------


def _merge_reference(pts, radius):
    """The image-point merge as the intersector wrote it before
    _merge_points: a Python loop over the sorted tuples."""
    dedup = []
    for x, y in sorted(map(tuple, pts)):
        if all((x - a) ** 2 + (y - b) ** 2 > radius ** 2 for a, b in dedup):
            dedup.append((float(x), float(y)))
    return dedup


def test_merge_points_matches_reference_on_clustered_clouds():
    rng = np.random.default_rng(10)
    for k in range(200):
        centres = rng.uniform(-5, 5, size=(rng.integers(1, 6), 2))
        pts = centres[rng.integers(0, len(centres), size=rng.integers(1, 40))]
        if k % 2:
            # small integer lattice: exact ties in x and distances of exactly
            # the radius
            pts, radius = np.round(pts / 2), 2.0
        else:
            radius = 0.3
            pts = pts + rng.normal(scale=radius, size=pts.shape)
        assert _merge_points(pts, radius) == _merge_reference(pts, radius)


def test_merge_points_small_cases():
    a, b, c = (0.0, 0.0), (0.6, 0.0), (1.2, 0.0)
    # greedy, not transitive: b falls to a, and c stays since a is 1.2 away
    assert _merge_points(np.array([c, b, a]), 1.0) == [a, c]
    dup = np.array([(1.0, 2.0), (3.0, -1.0), (1.0, 2.0), (3.0, -1.0)])
    assert _merge_points(dup, 1e-9) == [(1.0, 2.0), (3.0, -1.0)]
    # ties in x: ordered by y; a point exactly `radius` away merges
    ties = np.array([(0.0, 2.0), (0.0, 0.0), (0.0, 1.0), (0.0, 3.5)])
    assert _merge_points(ties, 1.0) == [(0.0, 0.0), (0.0, 2.0), (0.0, 3.5)]
    assert _merge_points(np.empty((0, 2)), 1.0) == []
    for pts in (np.array([c, b, a]), dup, ties):
        assert _merge_points(pts, 1.0) == _merge_reference(pts, 1.0)


def _tangent_reference(e, ts):
    """(xi, xi') over ts, each shape (len(ts), 2), without ElekesCurve's
    batches or jet_array: gamma and gamma' by np.polyval on each
    coordinate (a helix by its own arrays), then D and gamma' . D_X of the
    squared distance as pairings computed them before its row layout."""
    if isinstance(e.curve, RationalCurve):
        X, V = polyval_array(e.curve, ts, 0), polyval_array(e.curve, ts, 1)
    else:
        X, V = e.curve.evaluate_array(ts), e.curve.derivative_array(ts, 1)
    d = X - np.array([[[float(c) for c in e.curve.evaluate(b)]] for b in e.pair()])
    return np.sum(d * d, axis=-1).T, np.einsum("...k,...k->...", 2.0 * d, V).T


def _newton_reference(e1, e2, t, s):
    """The Newton loop of intersect_elekes_pair before the active set and
    the cycle exit: every seed takes all 40 steps.  Returns the iterates
    0..40 as (t, s) pairs."""
    assert isinstance(e1.quantity, SquaredEuclidean)
    lo1, hi1 = float(e1.curve.domain.lo), float(e1.curve.domain.hi)
    lo2, hi2 = float(e2.curve.domain.lo), float(e2.curve.domain.hi)
    path = [(t, s)]
    for _ in range(40):
        xi1, J1 = _tangent_reference(e1, t)
        xi2, J2 = _tangent_reference(e2, s)
        F = xi1 - xi2
        det = -J1[:, 0] * J2[:, 1] + J1[:, 1] * J2[:, 0]
        ok = np.abs(det) > 1e-300
        safe = np.where(ok, det, 1.0)
        dt = np.where(ok, (-J2[:, 1] * F[:, 0] + J2[:, 0] * F[:, 1]) / safe, 0.0)
        ds = np.where(ok, (-J1[:, 1] * F[:, 0] + J1[:, 0] * F[:, 1]) / safe, 0.0)
        step = np.maximum(np.abs(dt), np.abs(ds))
        clip = np.minimum(1.0, 0.1 * max(hi1 - lo1, hi2 - lo2)
                          / np.maximum(step, 1e-300))
        t = np.clip(t - clip * dt, lo1, hi1)
        s = np.clip(s - clip * ds, lo2, hi2)
        path.append((t, s))
    return path


def _intersect_reference(e1, e2, n=64, tol=1e-5):
    """intersect_elekes_pair before the active set: every seed takes all 40
    Newton steps."""
    same, method = same_algebraic_curve(e1, e2)
    if same:
        return IntersectionReport([], True, method)
    t0 = e1.curve.domain.uniform_grid(n)
    s0 = e2.curve.domain.uniform_grid(n)
    T, S = [a.ravel() for a in np.meshgrid(t0, s0)]
    lo1, hi1 = float(e1.curve.domain.lo), float(e1.curve.domain.hi)
    lo2, hi2 = float(e2.curve.domain.lo), float(e2.curve.domain.hi)
    scale = max(1.0, float(np.max(np.abs(e1.eval_batch(t0)))),
                float(np.max(np.abs(e2.eval_batch(s0)))))
    t, s = _newton_reference(e1, e2, T, S)[-1]
    F = _tangent_reference(e1, t)[0] - _tangent_reference(e2, s)[0]
    resid = np.linalg.norm(F, axis=-1)
    inside = ((t > lo1) & (t < hi1) & (s > lo2) & (s < hi2))
    good = inside & (resid <= 1e-12 * scale)
    n_conv = int(np.count_nonzero(good))
    pts = _tangent_reference(e1, t[good])[0]
    img_tol = max(tol * scale, 1e-12 * scale)
    return IntersectionReport(_merge_reference(pts, img_tol), False, method,
                              len(T), n_conv, len(T) - n_conv)


def _cubic():
    """(t, t^3 - t) on (-2, 2)."""
    return RationalCurve([RF([0, 1]), RF([0, -1, 0, 1])], Interval(-2, 2))


def _newton_pair(e1, e2, verdict):
    """intersect_elekes_pair with the Newton count on every data, exact
    data included: the routine the helix and float data still use, given
    the pair's same_algebraic_curve verdict."""
    same, method = verdict
    return IntersectionReport([], True, method, count_method="same") if same else \
        _newton_count(e1, e2, method)


def _count_evaluations(monkeypatch) -> list:
    """Count the seeds each Newton step evaluates: one tangent_batch call
    per curve and step."""
    evaluated = []
    tangent_batch = ElekesCurve.tangent_batch

    def counting(self, ts):
        evaluated.append(len(ts))
        return tangent_batch(self, ts)

    monkeypatch.setattr(ElekesCurve, "tangent_batch", counting)
    return evaluated


@pytest.mark.parametrize("make_curve, params, n_pairs", [
    (make_parabola, [F(1, 7), F(2, 7), F(3, 7), F(4, 7), F(5, 7)], 6),
    (make_rational_circle, [F(-24, 7), F(-41, 38), 0, F(1, 2), F(11, 2)], 4),
    (_cubic, [F(-3, 2), F(-1, 3), F(2, 5), F(7, 4)], 3),
    (lambda: make_circular_helix(0.5), [-613.25, -17.5, 2.0, 401.75], 2),
], ids=["parabola", "rational_circle", "cubic", "helix"])
def test_active_set_newton_matches_full_iteration(sq, make_curve, params,
                                                  n_pairs, monkeypatch):
    family = ElekesFamily(ParamPointSet(make_curve(), tuple(params)), sq)
    curves = list(family.curves.values())
    rng = random.Random(5)
    pairs = rng.sample(list(combinations(curves, 2)), n_pairs)
    expected = [_intersect_reference(e1, e2) for e1, e2 in pairs]
    # the fingerprint's own tangent_batch calls run before the count
    verdicts = [same_algebraic_curve(e1, e2) for e1, e2 in pairs]

    evaluated = _count_evaluations(monkeypatch)
    got = [_newton_pair(e1, e2, v) for (e1, e2), v in zip(pairs, verdicts)]
    assert any(rep.count for rep in expected)
    for rep, ref in zip(got, expected):
        assert rep.points == ref.points
        assert (rep.n_converged, rep.n_unconverged) == \
            (ref.n_converged, ref.n_unconverged)
    # every seed is evaluated on both curves at least once
    n_seeds = sum(2 * rep.n_seeds for rep in got)
    assert n_seeds <= sum(evaluated)
    if make_curve is make_parabola:
        # the full iteration evaluates 40 x n_seeds seeds on each curve
        assert sum(evaluated) < 0.6 * 40 * n_seeds


def test_cycle_exit_matches_full_iteration(sq, monkeypatch):
    # a parabola pair whose 16 x 16 seed grid has seeds in 2-cycles
    par = make_parabola(0, 1)
    e1 = ElekesCurve(par, sq, F(1, 7), F(2, 7))
    e2 = ElekesCurve(par, sq, F(1, 7), F(3, 7))
    grid = par.domain.uniform_grid(16)
    T, S = [a.ravel() for a in np.meshgrid(grid, grid)]
    path = [(_bits(t), _bits(s)) for t, s in _newton_reference(e1, e2, T, S)]

    def same(i, k, j):  # iterates k and j of seed i, bitwise
        return path[k][0][i] == path[j][0][i] and path[k][1][i] == path[j][1][i]

    # each seed's first fixed step: the k whose iterate equals iterate k - 1
    exits = [next((k for k in range(1, 41) if same(i, k, k - 1)), 40)
             for i in range(len(T))]
    # seeds still in a 2-cycle after 40 steps never reach a fixed point
    cycling = [i for i in range(len(T)) if same(i, 40, 38) and not same(i, 40, 39)]
    assert cycling and all(exits[i] == 40 for i in cycling)
    assert min(exits) < 40

    evaluated = _count_evaluations(monkeypatch)
    t, s = _newton(e1, e2, T, S)
    assert np.array_equal(_bits(t), path[-1][0])
    assert np.array_equal(_bits(s), path[-1][1])
    # a seed is evaluated on both curves at each step up to its exit
    assert sum(evaluated) == 2 * sum(exits)


# -- incidence invariant ------------------------------------------------------------


def test_incidence_invariant_parabola(sq):
    par = make_parabola(0, 1)
    pset = ParamPointSet(par, tuple(F(k, 7) for k in range(1, 6)))
    rep = verify_incidence_invariant(ElekesFamily(pset, sq))
    assert rep.checked == 5 * 4 * 3
    assert rep.failures == []
    assert rep.min_incident == rep.max_incident == 3


def test_incidence_invariant_evaluates_each_leg_once_per_point(sq, monkeypatch):
    # the curves based at p share the leg L_p, so a check with every leg,
    # D value and implicit cached makes 5 * 4 component evaluations, one per
    # (r, p), not 2 per curve and third point, 5 * 4 * 3 * 2
    pset = ParamPointSet(make_parabola(0, 1), tuple(F(k, 7) for k in range(1, 6)))
    family = ElekesFamily(pset, sq)
    assert verify_incidence_invariant(family).failures == []
    calls = []
    call = RationalFunction.__call__
    monkeypatch.setattr(RationalFunction, "__call__",
                        lambda self, t: calls.append(t) or call(self, t))
    assert verify_incidence_invariant(family).failures == []
    assert len(calls) == 5 * 4


def test_incidence_invariant_hyperbola_pinned_area():
    hyp = make_rect_hyperbola(F(1, 100), 64)
    q = PinnedAreaSquared(apex=(0, 0))
    pset = ParamPointSet(hyp, (F(1, 2), F(1), F(2), F(3)))
    rep = verify_incidence_invariant(ElekesFamily(pset, q))
    assert rep.failures == []
    assert rep.min_incident == rep.max_incident == 2


def test_incidence_invariant_three_points_circle(sq):
    circ = make_rational_circle()
    pset = ParamPointSet(circ, (F(0), F(1, 2), F(2)))
    rep = verify_incidence_invariant(ElekesFamily(pset, sq))
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
    rep = verify_incidence_invariant(ElekesFamily(pset, sq))
    assert rep.checked == len(rep.failures) == 60


def _off_by_one(G):
    """G with one coefficient changed by 1."""
    key = min(G.terms)
    return BiPoly({**G.terms, key: G.terms[key] + 1})


@pytest.mark.parametrize("make_curve", [make_parabola, make_rational_circle],
                         ids=["parabola", "rational_circle"])
def test_incidence_invariant_catches_a_wrong_implicit(sq, make_curve):
    # G_pq(D(r, p), D(r, q)) = 0 for each r and every family implicit, all
    # cached here by admissibility_scan: one coefficient of one cached
    # implicit changed by 1 fails its 3 checks and no other
    pset = ParamPointSet(make_curve(), tuple(F(k, 7) for k in range(1, 6)))
    family = ElekesFamily(pset, sq)
    admissibility_scan(family, sample_pairs=0)
    assert len(family.implicits) == 20
    rep = verify_incidence_invariant(family)
    assert (rep.checked, rep.failures) == (60, [])
    pair = pset.params[1], pset.params[2]
    family.implicits[pair] = _off_by_one(family.implicits[pair])
    rep = verify_incidence_invariant(family)
    assert rep.checked == 60 and rep.to_dict()["n_failures"] == 3
    assert {f[:2] for f in rep.failures} == {(1, 2)}


@pytest.mark.parametrize("make_curve", [make_parabola, make_rational_circle],
                         ids=["parabola", "rational_circle"])
def test_incidence_invariant_catches_a_wrong_implicit_without_a_scan(sq, make_curve):
    # the check tests every implicit whatever ran before it: a wrong G_12
    # in a fresh family fails its 3 checks, and the 3 of its mirror G_21,
    # which the family derives from it through the swap
    pset = ParamPointSet(make_curve(), tuple(F(k, 7) for k in range(1, 6)))
    family = ElekesFamily(pset, sq)
    e = family.curves[pset.params[1], pset.params[2]]
    family.implicits[e.pair()] = _off_by_one(ElekesCurve(e.curve, sq, *e.pair()).implicit())
    rep = verify_incidence_invariant(family)
    assert rep.checked == 60 and rep.to_dict()["n_failures"] == 6
    assert {f[:2] for f in rep.failures} == {(1, 2), (2, 1)}
    assert len(family.implicits) == 20


def _float_family(name, sq):
    """A family on data that is not exact: the incidence check's float side."""
    poly = GeneralPolynomial(2, (((2, 0, 0, 0), 1), ((1, 0, 0, 1), -2),
                                 ((0, 1, 2, 0), 3), ((0, 0, 0, 1), F(7, 2))))
    curve, params, q = {
        "helix": (make_circular_helix(0.5), (-613.25, -17.5, 2.0, 401.75, 733.3), sq),
        "helix_rational": (make_circular_helix(0.5), "rand:1006:5", sq),
        "circle": (make_unit_circle(), (-2.5, -1.0, 0.25, 1.5, 3.0), sq),
        "two_frequency": (HelixCurve([1.0, 0.5], [1.0, 2.5], [0.3], 5, Interval(-50, 50)),
                          (-31.5, -4.25, 0.5, 12.0, 44.75), sq),
        "ellipse": (trig_ellipse(2.0, 1.0), (-2.0, -0.5, 0.75, 2.5), sq),
        "parabola_pinned_area": (make_parabola(), (0.1, 0.3, 0.55, 0.9),
                                 PinnedAreaSquared(apex=(F(1, 3), F(-2, 5)))),
        "parabola_poly": (make_parabola(), (0.1, 0.3, 0.55, 0.9), poly),
    }[name]
    pset = generate_point_set(curve, parse_scheme(params)) if isinstance(params, str) \
        else ParamPointSet(curve, params)
    return ElekesFamily(pset, q)


@pytest.mark.parametrize("name", ["helix", "helix_rational", "circle", "two_frequency",
                                  "ellipse", "parabola_pinned_area", "parabola_poly"])
def test_incidence_invariant_on_float_data(sq, name):
    # eval_batch at the third points against the D table, within the bound
    family = _float_family(name, sq)
    assert not family.exact
    n = len(family.pset.params)
    rep = verify_incidence_invariant(family)
    assert (rep.checked, rep.failures) == (n * (n - 1) * (n - 2), [])
    assert rep.min_incident == rep.max_incident == n - 2
    assert family.legs == {} and family.implicits == {}


_BASE_POINTS, _EVAL_BATCH = ElekesCurve.base_points, ElekesCurve.eval_batch
_FLOAT_MUTATIONS = {
    "base_points_swapped": ("base_points", lambda self: _BASE_POINTS(self)[::-1]),
    "base_point_p_for_q": ("base_points", lambda self: _BASE_POINTS(self)[[0, 0]]),
    "base_points_float32": ("base_points", lambda self:
                            _BASE_POINTS(self).astype(np.float32).astype(float)),
    "eval_batch_shifted": ("eval_batch", lambda self, ts:
                           _EVAL_BATCH(self, np.asarray(ts) + 1e-7)),
    "eval_batch_columns_swapped": ("eval_batch", lambda self, ts:
                                   _EVAL_BATCH(self, ts)[:, ::-1]),
    "eval_batch_nan": ("eval_batch", lambda self, ts:
                       np.where(np.arange(len(ts))[:, None] == 0, np.nan,
                                _EVAL_BATCH(self, ts))),
}


@pytest.mark.parametrize("mutation", sorted(_FLOAT_MUTATIONS))
@pytest.mark.parametrize("name", ["helix", "helix_rational"])
def test_incidence_invariant_catches_float_mutations(sq, name, mutation, monkeypatch):
    # on a helix both sides are float: a wrong base point or a wrong float
    # evaluation of xi fails checks that the unmutated family passes
    attr, mutant = _FLOAT_MUTATIONS[mutation]
    monkeypatch.setattr(ElekesCurve, attr, mutant)
    rep = verify_incidence_invariant(_float_family(name, sq))
    assert rep.failures
    # one NaN row fails one check per curve; float32 keeps coordinates that
    # fit it, such as the drift of a quarter-integer parameter; the coarse
    # mutations fail every check
    if mutation == "eval_batch_nan":
        assert len(rep.failures) == 5 * 4
    elif mutation != "base_points_float32":
        assert len(rep.failures) == rep.checked


# -- admissibility -------------------------------------------------------------------


def test_admissibility_empty_sample(sq):
    par = make_parabola(0, 1)
    pset = ParamPointSet(par, tuple(F(k, 9) for k in range(1, 5)))
    rep = admissibility_scan(ElekesFamily(pset, sq), sample_pairs=0)
    assert rep.pairs_checked == 0 and rep.histogram == {}
    assert rep.max_pairwise_intersections == 0


def test_admissibility_parabola_no_duplicates(sq):
    par = make_parabola(0, 1)
    rng = random.Random(3)
    params = tuple(sorted(F(rng.randrange(1, 997), 997) for _ in range(8)))
    pset = ParamPointSet(par, params)
    rep = admissibility_scan(ElekesFamily(pset, sq), sample_pairs=40, n=48, seed=1)
    assert rep.detection_method == "exact"
    assert rep.duplicate_curve_classes == []
    assert rep.n_classes == 8 * 7
    assert rep.max_pairwise_intersections <= 16
    assert sum(rep.histogram.values()) <= 40


def test_admissibility_circle_orbit_has_duplicates(sq):
    circ = make_rational_circle()
    pset = ParamPointSet(circ, rational_rotation_circle_params(8))
    rep = admissibility_scan(ElekesFamily(pset, sq), sample_pairs=30, n=48, seed=2)
    assert rep.detection_method == "exact"
    assert rep.duplicate_curve_classes            # collapse happens
    assert all(len(cls) > 1 for cls in rep.duplicate_curve_classes)
    assert rep.n_classes < rep.n_curves


def test_exact_pairs_never_reach_newton(sq, monkeypatch):
    # the README set: all 190 pairs of its 20 curves counted exactly
    def refuse(*args):
        raise AssertionError("Newton ran on exact data")

    monkeypatch.setattr(elekes_module, "_newton", refuse)
    pset = ParamPointSet(make_parabola(0, 1), tuple(F(k, 7) for k in range(1, 6)))
    rep = admissibility_scan(ElekesFamily(pset, sq), sample_pairs=200)
    assert rep.count_methods == {"exact": 190}
    assert rep.histogram == {1: 16, 2: 164, 3: 10}


def _scan_recording(pset, q, monkeypatch, **kwargs):
    """admissibility_scan with every visited pair and every counted pair
    recorded: (report, visited [(e1, e2)], counted {(pair1, pair2): report})."""
    visited, counted = [], {}
    family = ElekesFamily(pset, q)
    curves = list(family.curves.values())
    unrank, intersect = elekes_module._unrank_pair, elekes_module.intersect_elekes_pair

    def visiting(k, n):
        i, j = unrank(k, n)
        visited.append((curves[i], curves[j]))
        return i, j

    def counting(e1, e2, **kw):
        rep = intersect(e1, e2, **kw)
        counted[e1.pair(), e2.pair()] = rep
        return rep

    monkeypatch.setattr(elekes_module, "_unrank_pair", visiting)
    monkeypatch.setattr(elekes_module, "intersect_elekes_pair", counting)
    rep = admissibility_scan(family, **kwargs)
    monkeypatch.undo()
    return rep, visited, counted


def _outcome(rep):
    return rep.same_algebraic_curve, rep.count, rep.count_method


_REUSE_SETS = {
    "readme": (make_parabola(0, 1), tuple(F(k, 7) for k in range(1, 6))),
    "parabola": (make_parabola(0, 1), "rand:4:5"),
    "rational_circle": (make_rational_circle(), "rand:5:5"),
    "circle_orbit": (make_rational_circle(), rational_rotation_circle_params(4)),
    "cubic": (_cubic(), "rand:6:4"),
    "nodal_cubic": (RationalCurve([RF([-1, 0, 1]), RF([0, -1, 0, 1])], Interval(-2, 2)),
                    (F(-1, 2), F(1, 3), F(1, 2))),
}


@pytest.mark.parametrize("name", sorted(_REUSE_SETS))
def test_mirrored_pairs_reuse_only_exact_counts_and_same_verdicts(sq, name, monkeypatch):
    # every pair of the family is sampled; a pair whose mirror was counted
    # "exact" or found on one curve reuses that result, which is what a
    # fresh count of the pair itself gives; every other pair is counted
    curve, points = _REUSE_SETS[name]
    pset = generate_point_set(curve, parse_scheme(points)) if isinstance(points, str) \
        else ParamPointSet(curve, points)
    rep, visited, counted = _scan_recording(pset, sq, monkeypatch, sample_pairs=10 ** 4)
    n = len(pset.params) * (len(pset.params) - 1)
    assert len(visited) == rep.pairs_checked == n * (n - 1) // 2
    position = {(e1.pair(), e2.pair()): k for k, (e1, e2) in enumerate(visited)}
    methods, reused = {}, {}
    for e1, e2 in visited:
        key = (e1.pair(), e2.pair())
        mirror = next(m for m in [(e1.pair()[::-1], e2.pair()[::-1]),
                                  (e2.pair()[::-1], e1.pair()[::-1])] if m in position)
        first = counted[mirror] if position[mirror] < position[key] else None
        if first is not None and first.count_method in ("exact", "same"):
            assert key not in counted
            reused[first.count_method] = reused.get(first.count_method, 0) + 1
            own = intersect_elekes_pair(e1, e2)
            assert _outcome(own) == _outcome(first), key
        else:
            own = counted[key]
        methods[own.count_method] = methods.get(own.count_method, 0) + 1
    assert {m: c for m, c in methods.items() if m != "same"} == rep.count_methods
    assert reused.get("exact")
    if name == "readme":
        assert (len(counted), reused) == (100, {"exact": 90})
    if name == "circle_orbit":
        assert reused.get("same")
    if name == "nodal_cubic":
        assert methods["upper"] == 2


def test_helix_scan_never_reuses(sq, monkeypatch):
    pset = ParamPointSet(make_circular_helix(0.5), (-613.25, -17.5, 2.0, 401.75))
    rep, visited, counted = _scan_recording(pset, sq, monkeypatch,
                                            sample_pairs=10 ** 4, n=12)
    assert len(visited) == len(counted) == rep.pairs_checked == 66
    assert rep.detection_method == "fingerprint"


def test_unrank_pair_matches_combinations():
    for n in range(2, 41):
        assert [_unrank_pair(k, n) for k in range(n * (n - 1) // 2)] \
            == list(combinations(range(n), 2))
