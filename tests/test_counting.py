import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from curverig import (ArithmeticProgression, DimensionMismatch, DomainError,
                      EquallySpacedAngle, Exact, ExactnessUnavailable,
                      GeneralPolynomial, GeometricProgression,
                      InsufficientSamples, ParamPointSet, PinnedAreaSquared,
                      SchemeMismatch, SquaredEuclidean, Tolerance,
                      UniformRandom, count_distinct_values,
                      elekes_lower_bound, fit_exponent, generate_point_set,
                      is_exact_data, parse_scheme)
from curverig.counting import _scaled_pairs
from conftest import (make_circular_helix, make_line, make_parabola,
                      make_rational_circle, make_rect_hyperbola,
                      make_unit_circle)

F = Fraction


def test_arithmetic_progression_on_line(sq):
    pset = generate_point_set(make_line(), ArithmeticProgression(0, 1, 5))
    assert pset.params == (0, 1, 2, 3, 4)


def test_geometric_progression_on_hyperbola():
    pset = generate_point_set(make_rect_hyperbola(),
                              GeometricProgression(1, 2, 4))
    assert pset.params == (1, 2, 4, 8)


def test_uniform_random_reproducible(sq):
    par = make_parabola(0, 1)
    a = generate_point_set(par, UniformRandom(seed=42, n=3))
    b = generate_point_set(par, UniformRandom(seed=42, n=3))
    assert a.params == b.params
    assert len(a.params) == 3
    assert all(0 < t < 1 for t in a.params)
    # bounded-denominator rationals keep exact mode
    assert is_exact_data(a.curve, a.params, sq)


def test_progression_leaving_domain_errors():
    par = make_parabola(0, 1)
    with pytest.raises(DomainError):
        generate_point_set(par, ArithmeticProgression(F(1, 2), F(1, 2), 3))


def test_equally_spaced_angle_only_on_circles():
    with pytest.raises(SchemeMismatch):
        generate_point_set(make_parabola(0, 1), EquallySpacedAngle(6))
    with pytest.raises(SchemeMismatch):
        generate_point_set(make_circular_helix(), EquallySpacedAngle(6))
    pset = generate_point_set(make_unit_circle(), EquallySpacedAngle(6))
    assert len(pset.params) == 6


def test_parse_scheme():
    assert parse_scheme("arith:0:0.3:512") == ArithmeticProgression(0, F(3, 10), 512)
    assert parse_scheme("geom:1:2:4") == GeometricProgression(1, 2, 4)
    assert parse_scheme("rand:7:12") == UniformRandom(7, 12)
    assert parse_scheme("angles:6") == EquallySpacedAngle(6)
    with pytest.raises(ValueError):
        parse_scheme("spiral:1:2")


# -- counting -------------------------------------------------------------------


def test_line_integer_points_count(sq):
    pset = generate_point_set(make_line(), ArithmeticProgression(0, 1, 10))
    res = count_distinct_values(pset, sq, Exact())
    assert res.count == 9  # |x - y| in 1..9
    assert res.values == [k * k for k in range(1, 10)]


_ORACLE_QUANTITIES = {
    "sq_euclidean": SquaredEuclidean(),
    "pinned_origin": PinnedAreaSquared(apex=(0, 0)),
    "pinned_offset": PinnedAreaSquared(apex=(F(1, 3), F(-2, 5))),
    # x1*y1 + x2^2/2 - 3*y2 + 1/7: not homogeneous, not symmetric
    "poly": GeneralPolynomial(2, (((1, 0, 1, 0), 1), ((0, 2, 0, 0), F(1, 2)),
                                  ((0, 0, 0, 1), -3), ((0, 0, 0, 0), F(1, 7)))),
}
_ORACLE_SETS = {
    "parabola": (make_parabola(0, 1), UniformRandom(seed=21, n=20)),
    "rational_circle": (make_rational_circle(), UniformRandom(seed=22, n=16)),
    "rect_hyperbola": (make_rect_hyperbola(), UniformRandom(seed=23, n=16)),
    # many collisions: D depends on the parameter difference only
    "line": (make_line(), ArithmeticProgression(F(-40, 7), F(1, 7), 24)),
}


@pytest.mark.parametrize("qname", sorted(_ORACLE_QUANTITIES))
@pytest.mark.parametrize("sname", sorted(_ORACLE_SETS))
def test_exact_count_matches_brute_force(sname, qname):
    curve, scheme = _ORACLE_SETS[sname]
    q = _ORACLE_QUANTITIES[qname]
    pset = generate_point_set(curve, scheme)
    pts = [curve.evaluate(t) for t in pset.params]
    oracle = sorted(set(q.eval(x, y) for x, y in combinations(pts, 2)))
    res = count_distinct_values(pset, q, Exact())
    assert res.count == len(oracle)
    assert res.values == oracle


def test_exact_values_ordered_within_float_ties(sq):
    # 1 and (1 + 2^-60)^2 = 1 + 2^-59 + 2^-120 round to the same float, so
    # only the exact order inside runs of equal floats sorts them
    eps = F(1, 2 ** 60)
    pset = ParamPointSet(make_line(), (F(0), 1 + eps, 2 + eps))
    want = [F(1), (1 + eps) ** 2, (2 + eps) ** 2]
    assert float(want[0]) == float(want[1])
    res = count_distinct_values(pset, sq, Exact())
    assert res.count == 3
    assert res.values == want
    # a run of nine distinct values that all round to 1.0: 1 and
    # (1 + k eps)^2, k = 1..8, so no fixed pick of order passes by luck
    params = (F(0), F(1)) + tuple(1 + k * eps for k in range(1, 9))
    pts = [(t, 0) for t in params]
    oracle = sorted({sq.eval(x, y) for x, y in combinations(pts, 2)})
    assert sum(float(v) == 1.0 for v in oracle) == 9
    res = count_distinct_values(ParamPointSet(make_line(), params), sq, Exact())
    assert res.values == oracle


def test_exact_values_beyond_float_range():
    # x1^120 + y1^120 at 997..999 exceeds 1e308: ordered without floats
    q = GeneralPolynomial(2, (((120, 0, 0, 0), 1), ((0, 0, 120, 0), 1)))
    pset = ParamPointSet(make_line(), (997, 998, 999))
    res = count_distinct_values(pset, q, Exact())
    want = sorted(a ** 120 + b ** 120 for a, b in combinations(pset.params, 2))
    assert res.count == 3
    assert res.values == want


def test_pairs_scaled_to_lcm_of_denominators():
    # denominators 6 and 10 meet at m = lcm = 30, not at the product 60
    ((X, Y, a, b, m),) = _scaled_pairs([((1, 5), 6), ((3, 7), 10)])
    assert (a, b, m) == (5, 3, 30)
    assert (X, Y) == ((1, 5), (3, 7))


def test_exact_count_checks_dimension():
    pset = generate_point_set(make_parabola(0, 1), UniformRandom(seed=3, n=4))
    with pytest.raises(DimensionMismatch):
        count_distinct_values(pset, SquaredEuclidean(dimension=3), Exact())


def test_tolerance_result_values(sq):
    pset = generate_point_set(make_parabola(0, 1), UniformRandom(seed=5, n=40))
    res = count_distinct_values(pset, sq, Tolerance(1e-9))
    assert res.count == len(res.values) == 40 * 39 // 2
    assert np.all(np.diff(res.values) > 0)
    doc = res.to_dict()
    assert doc["value_min"] == res.values[0]
    assert doc["value_max"] == res.values[-1]


def test_circle_equally_spaced_counts(sq):
    # brute-force oracle with angle arithmetic, frozen: floor(N/2)
    circ = make_unit_circle()
    for n in (6, 10, 17):
        pset = generate_point_set(circ, EquallySpacedAngle(n))
        res = count_distinct_values(pset, sq, Tolerance(1e-9))
        oracle = len({round(4 * math.sin(math.pi * k / n) ** 2, 9)
                      for k in range(1, n)})
        assert res.count == oracle == n // 2


def test_helix_arithmetic_progression_count(sq):
    helix = make_circular_helix(0.5)
    pset = generate_point_set(helix, ArithmeticProgression(0.0, 0.3, 5))
    res = count_distinct_values(pset, sq, Tolerance(1e-9))
    assert res.count == 4  # distances depend only on |x - y|


def test_exact_mode_requires_rational_data(sq):
    helix = make_circular_helix()
    pset = generate_point_set(helix, ArithmeticProgression(0.0, 0.25, 4))
    with pytest.raises(ExactnessUnavailable):
        count_distinct_values(pset, sq, Exact())


def test_exact_matches_tolerance_on_random_instances(sq):
    curves = [make_parabola(0, 1), make_rational_circle(),
              make_rect_hyperbola(F(1, 100), 64)]
    rng = random.Random(2024)
    for i in range(20):
        curve = curves[i % len(curves)]
        n = rng.randrange(8, 65)
        pset = generate_point_set(curve, UniformRandom(seed=1000 + i, n=n))
        exact = count_distinct_values(pset, sq, Exact())
        tol = count_distinct_values(pset, sq, Tolerance(1e-12))
        assert exact.count == tol.count, (i, curve, n)


def test_count_monotone_in_points(sq):
    par = make_parabola(0, 1)
    rng = random.Random(5)
    params = sorted(F(rng.randrange(1, 997), 997) for _ in range(12))
    base = ParamPointSet(par, tuple(params[:-1]))
    bigger = ParamPointSet(par, tuple(params))
    c0 = count_distinct_values(base, sq, Exact()).count
    c1 = count_distinct_values(bigger, sq, Exact()).count
    assert c1 >= c0


def test_count_upper_bound_and_degeneracy_floor(sq):
    # plane curves: count >= (N-1)/(2 * deg) and <= N(N-1)/2
    cases = [(make_parabola(0, 1), UniformRandom(3, 24)),
             (make_rational_circle(), UniformRandom(4, 24)),
             (make_rect_hyperbola(F(1, 100), 64), UniformRandom(5, 24))]
    for curve, scheme in cases:
        pset = generate_point_set(curve, scheme)
        n = len(pset)
        res = count_distinct_values(pset, sq, Exact())
        assert res.count <= n * (n - 1) // 2
        assert res.count >= (n - 1) / (2 * curve.degree)


def test_hyperbola_geometric_progression_few_pinned_areas():
    # geometric progressions on (t, 1/t) determine few distinct areas about
    # the center: the cross product depends only on the parameter ratio
    from curverig import PinnedAreaSquared
    hyp = make_rect_hyperbola(F(1, 100), 4096)
    pset = generate_point_set(hyp, GeometricProgression(1, F(3, 2), 16))
    res = count_distinct_values(pset, PinnedAreaSquared(apex=(0, 0)), Exact())
    assert res.count <= 15


def test_helix_linear_growth(sq):
    helix = make_circular_helix(0.5)
    for n in (16, 32, 64):
        pset = generate_point_set(helix, ArithmeticProgression(0.0, 0.3, n))
        res = count_distinct_values(pset, sq, Tolerance(1e-9))
        assert res.count <= n - 1


# -- exponent fits ----------------------------------------------------------------


def test_fit_exponent_exact_power_laws():
    fit = fit_exponent([(10, 100), (100, 10000), (1000, 1000000)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    fit = fit_exponent([(10, 10), (100, 100), (1000, 1000)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_validation():
    with pytest.raises(InsufficientSamples):
        fit_exponent([(10, 100), (100, 10000)])
    with pytest.raises(InsufficientSamples):
        fit_exponent([(10, 1), (10, 2), (20, 3)])


def test_fit_exponent_accepts_point_sets(sq):
    line = make_line()
    runs = []
    for n in (8, 16, 32):
        pset = generate_point_set(line, ArithmeticProgression(0, 1, n))
        runs.append((pset, count_distinct_values(pset, sq, Exact()).count))
    fit = fit_exponent(runs)
    assert fit.samples == ((8, 7), (16, 15), (32, 31))
    assert fit.slope == pytest.approx(1.07, abs=0.05)


# -- incidence-implied bound -------------------------------------------------------


@pytest.mark.parametrize("np_, nxi, k", [
    (100, 10 ** 4, 1.0),    # README example: regime a, about 311
    (100, 10, 1.0),         # regime b: Delta^2 reaches first
    (10 ** 6, 10 ** 9, 3.0),
    (50, 7, 2.5),
    (12, 100, 10.0),        # K * NXi >= (NP - 2) * NXi: the 1.0 branch
], ids=["readme", "square_term", "large", "small", "at_one"])
def test_elekes_lower_bound_reference_value(np_, nxi, k):
    # oracle: 1.0 when the cap at Delta = 1 already holds, else the min of
    # the two regime solutions of the incidence inequality
    lhs = (np_ - 2) * nxi
    regime_a = (lhs / (k * nxi ** (2 / 3))) ** 0.75
    regime_b = math.sqrt(lhs / k)
    want = 1.0 if k * nxi >= lhs else min(regime_a, regime_b)
    got = elekes_lower_bound(np_, nxi, incidence_k=k)
    assert got == pytest.approx(want, rel=1e-12)
    if np_ == 100 and nxi == 10 ** 4:
        assert abs(got - 316) <= 0.05 * 316


def test_elekes_lower_bound_degenerate_cases():
    assert elekes_lower_bound(100, 10 ** 4, incidence_k=1e12) == 1.0
    assert elekes_lower_bound(3, 1) == 1.0


def test_elekes_lower_bound_validation():
    with pytest.raises(ValueError):
        elekes_lower_bound(2, 10)
    with pytest.raises(ValueError):
        elekes_lower_bound(10, 0)
    with pytest.raises(ValueError):
        elekes_lower_bound(10, 10, incidence_k=0.0)


def test_point_set_validation(sq):
    par = make_parabola(0, 1)
    with pytest.raises(ValueError):
        ParamPointSet(par, (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        ParamPointSet(par, (F(2, 3), F(1, 3)))
    with pytest.raises(DomainError):
        ParamPointSet(par, (F(1, 3), F(3, 2)))
