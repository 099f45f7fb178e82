import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from curverig import (ArithmeticProgression, DimensionMismatch, DomainError,
                      EquallySpacedAngle, Exact, ExactnessUnavailable,
                      GeneralPolynomial, GeometricProgression,
                      InsufficientSamples, Interval, ParamPointSet,
                      PinnedAreaSquared, RationalCurve, RationalFunction,
                      SchemeMismatch, SquaredEuclidean, Tolerance,
                      UniformRandom, count_distinct_values,
                      elekes_lower_bound, fit_exponent, generate_point_set,
                      is_exact_data, parse_scheme)
from curverig import counting
from conftest import (make_circular_helix, make_line, make_parabola,
                      make_rational_circle, make_rect_hyperbola,
                      make_unit_circle)

F = Fraction
RF = RationalFunction.from_coeffs


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


@pytest.mark.parametrize("curve", [
    make_parabola(0, 1), make_circular_helix(0.4),
    make_rational_circle(F(-16, 5), F(7, 3))], ids=["0-1", "float", "negative"])
def test_uniform_random_matches_the_fraction_reference(curve):
    # the parameters are lo + (hi - lo) k / 2^32 over the sorted distinct
    # draws k, whatever the endpoints: rational, float, of either sign
    rng, ks = random.Random(17), set()
    while len(ks) < 200:
        ks.add(rng.randrange(1, 2 ** 32))
    lo, hi = (F(v) for v in (curve.domain.lo, curve.domain.hi))
    want = tuple(lo + (hi - lo) * F(k, 2 ** 32) for k in sorted(ks))
    assert generate_point_set(curve, UniformRandom(seed=17, n=200)).params == want


def test_progression_leaving_domain_errors():
    par = make_parabola(0, 1)
    with pytest.raises(DomainError,
                       match=r"^scheme parameter 1 leaves domain \(0, 1\)$"):
        generate_point_set(par, ArithmeticProgression(F(1, 2), F(1, 2), 3))
    # the domain is checked before the order, in generation order
    with pytest.raises(DomainError, match=r"^scheme parameter 5 leaves domain"):
        generate_point_set(par, ArithmeticProgression(5, 0, 3))


def test_progression_with_duplicates_errors():
    par = make_parabola(0, 1)
    for scheme in (ArithmeticProgression(F(1, 2), 0, 3),
                   GeometricProgression(F(1, 2), 1, 2),
                   GeometricProgression(F(1, 2), -1, 3)):
        with pytest.raises(ValueError,
                           match="^scheme generated duplicate parameters$"):
            generate_point_set(make_line(), scheme)
    # a generated set is the set its own checks would build
    pset = generate_point_set(par, UniformRandom(seed=9, n=20))
    assert pset == ParamPointSet(par, pset.params, pset.label)
    assert pset.label == "rand(seed=9,20)"


def test_exact_progressions_match_fraction_arithmetic():
    # the integer build start + i step = (a d + i c b) / (b d), ascending,
    # against Fraction arithmetic and a sort
    rng = random.Random(30)
    line = make_line(-10 ** 6, 10 ** 6)
    for k in range(50):
        start = F(rng.randrange(-5000, 5000), rng.randrange(1, 60))
        step = F(rng.randrange(1, 400), rng.randrange(1, 60)) * rng.choice((1, -1))
        if k % 2:  # int inputs
            start, step = int(start), int(step) or rng.choice((1, -1))
        n = rng.randrange(2, 80)
        pset = generate_point_set(line, ArithmeticProgression(start, step, n))
        want = tuple(sorted(F(start) + i * F(step) for i in range(n)))
        assert pset.params == want, (start, step, n)
        assert all(type(t) is F for t in pset.params)
        assert pset == ParamPointSet(line, want, pset.label)


def test_float_progressions_stay_float():
    pset = generate_point_set(make_line(), ArithmeticProgression(0.5, F(-1, 4), 3))
    assert pset.params == (0.0, 0.25, 0.5)
    assert all(type(t) is float for t in pset.params)


def test_descending_progression_leaving_domain_names_the_first_generated():
    par = make_parabola(0, 1)
    with pytest.raises(DomainError,
                       match=r"^scheme parameter 0 leaves domain \(0, 1\)$"):
        generate_point_set(par, ArithmeticProgression(F(1, 2), F(-1, 4), 3))
    # every parameter leaves: the first generated is named, not the least
    with pytest.raises(DomainError,
                       match=r"^scheme parameter 2 leaves domain \(0, 1\)$"):
        generate_point_set(par, ArithmeticProgression(2, -1, 3))


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


def _oracle(pset, q):
    """Every pair value, by Fraction evaluation and a set."""
    pts = [pset.curve.evaluate(t) for t in pset.params]
    return {q.eval(x, y) for x, y in combinations(pts, 2)}


def _assert_matches_oracle(res, oracle):
    assert res.count == len(oracle)
    assert res.value_min == min(oracle)
    assert res.value_max == max(oracle)
    assert all(isinstance(v, Fraction) for v in (res.value_min, res.value_max))


def test_line_integer_points_count(sq):
    pset = generate_point_set(make_line(), ArithmeticProgression(0, 1, 10))
    res = count_distinct_values(pset, sq, Exact())
    assert res.count == 9  # |x - y| in 1..9
    assert (res.value_min, res.value_max) == (1, 81)
    _assert_matches_oracle(res, _oracle(pset, sq))


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
    _assert_matches_oracle(count_distinct_values(pset, q, Exact()),
                           _oracle(pset, q))


_SMALL_PRIMES = (47, 43, 41, 37, 31, 29, 23, 19, 17, 13, 11, 7, 5, 3, 2)


def _small_primes_first(monkeypatch, head=_SMALL_PRIMES):
    """Make the prime source yield `head` first, then the real primes."""
    primes = counting._primes
    monkeypatch.setattr(counting, "_primes",
                        lambda: itertools.chain(head, primes()))


def test_prime_source_walks_down_from_2_31():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    top = 2 ** 31 - 1
    assert all(counting._is_prime(n) == trial(n)
               for n in list(range(2000)) + list(range(top - 2000, top + 1)))
    head = list(itertools.islice(counting._primes(), 3))
    assert head == [top, 2147483629, 2147483587]


@pytest.mark.parametrize("qname", sorted(_ORACLE_QUANTITIES))
@pytest.mark.parametrize("sname", sorted(_ORACLE_SETS))
def test_exact_count_with_forced_collisions(sname, qname, monkeypatch):
    # 47 * 43 = 2021 keys for up to 190 pairs: distinct values collide, so
    # the count rests on the refinement by the further primes
    _small_primes_first(monkeypatch)
    curve, scheme = _ORACLE_SETS[sname]
    q = _ORACLE_QUANTITIES[qname]
    pset = generate_point_set(curve, scheme)
    _assert_matches_oracle(count_distinct_values(pset, q, Exact()),
                           _oracle(pset, q))


def test_height_bound_stops_refinement_only_when_proven(sq, monkeypatch):
    # denominators 97 give a height bound near 2^63, above the product of
    # the primes below 50 (about 2^59): all of them and then 2^31 - 1 are
    # used; a bound that let the refinement stop early would merge the
    # distinct values that collide mod 47 * 43
    rng = random.Random(13)
    params = tuple(sorted(F(k, 97) for k in rng.sample(range(-970, 970), 20)))
    pset = ParamPointSet(make_line(), params)
    oracle = _oracle(pset, sq)
    assert len(oracle) > 150
    _small_primes_first(monkeypatch)
    _assert_matches_oracle(count_distinct_values(pset, sq, Exact()), oracle)
    # a source that runs dry below the bound is an error, not a guess
    monkeypatch.setattr(counting, "_primes", lambda: iter(_SMALL_PRIMES))
    with pytest.raises(ArithmeticError):
        count_distinct_values(pset, sq, Exact())


@pytest.mark.parametrize("first", [2 ** 31 - 1, 7])
def test_primes_dividing_a_denominator_are_skipped(sq, first, monkeypatch):
    # the first prime divides every point denominator, so its residues
    # are undefined; it must not count towards the height bound either
    if first == 7:
        _small_primes_first(monkeypatch, (7,) + _SMALL_PRIMES)
    params = tuple(F(k, first) for k in range(-12, 12))
    pset = ParamPointSet(make_line(), params)
    _assert_matches_oracle(count_distinct_values(pset, sq, Exact()),
                           _oracle(pset, sq))
    q = _ORACLE_QUANTITIES["poly"]
    _assert_matches_oracle(count_distinct_values(pset, q, Exact()),
                           _oracle(pset, q))


# (t, 1/(t - 5)) on (0, 1): the Horner denominator a - 5b of the second
# coordinate is negative at every parameter a/b
_NEGATIVE_DENOMINATOR = RationalCurve([RF([0, 1]), RF([1], [-5, 1])],
                                      Interval(0, 1))
_ROW_CURVES = {
    "parabola": make_parabola(0, 1),
    "rational_circle": make_rational_circle(),
    "rect_hyperbola": make_rect_hyperbola(),
    "negative_denominator": _NEGATIVE_DENOMINATOR,
}
_ROW_QUANTITIES = dict(_ORACLE_QUANTITIES, **{
    # odd degree in x, so a negative point denominator would give alpha < 0
    "poly_odd": GeneralPolynomial(2, (((3, 0, 0, 1), F(-5, 6)),
                                      ((1, 1, 1, 1), F(2, 9)), ((0, 0, 2, 0), 4))),
})


def _rows(cname, qname, n=9, seed=31):
    curve, q = _ROW_CURVES[cname], _ROW_QUANTITIES[qname]
    pset = generate_point_set(curve, UniformRandom(seed=seed, n=n))
    pts = [curve.evaluate(t) for t in pset.params]
    return pset, q, pts, counting._separated(
        q, *counting._integer_points(curve, pset.params))


@pytest.mark.parametrize("qname", sorted(_ROW_QUANTITIES))
@pytest.mark.parametrize("cname", sorted(_ROW_CURVES))
def test_integer_rows_give_every_pair_value(cname, qname):
    pset, q, pts, (A, alpha, B, beta) = _rows(cname, qname)
    N, delta = counting._integer_points(pset.curve, pset.params)
    assert all(m > 0 for m in delta)
    assert all(tuple(F(x, m) for x in row) == p
               for row, m, p in zip(N, delta, pts))
    assert all(m > 0 for m in alpha + beta)
    assert all(type(v) is int for row in A + B + [alpha, beta] for v in row)
    for i, j in itertools.product(range(len(pts)), repeat=2):
        value = F(sum(a[i] * b[j] for a, b in zip(A, B)), alpha[i] * beta[j])
        assert value == q.eval(pts[i], pts[j]), (i, j)


@pytest.mark.parametrize("qname", sorted(_ROW_QUANTITIES))
@pytest.mark.parametrize("cname", sorted(_ROW_CURVES))
def test_height_bound_covers_every_cross_difference(cname, qname):
    # S1 m2 - S2 m1 over every two pair values S / m, brute force
    _, _, pts, rows = _rows(cname, qname, n=7)
    A, alpha, B, beta = rows
    values = [(sum(a[i] * b[j] for a, b in zip(A, B)), alpha[i] * beta[j])
              for i, j in combinations(range(len(pts)), 2)]
    worst = max(abs(s1 * m2 - s2 * m1)
                for (s1, m1), (s2, m2) in combinations(values, 2))
    assert 0 < worst <= counting._height_bound(*rows)


@pytest.mark.parametrize("qname", sorted(_ROW_QUANTITIES))
def test_exact_count_on_a_negative_denominator(qname, monkeypatch):
    _small_primes_first(monkeypatch)
    q = _ROW_QUANTITIES[qname]
    pset = generate_point_set(_NEGATIVE_DENOMINATOR, UniformRandom(seed=41, n=20))
    _assert_matches_oracle(count_distinct_values(pset, q, Exact()),
                           _oracle(pset, q))


def test_fingerprints_skip_a_prime_dividing_one_denominator(sq, monkeypatch):
    # one point of 1/7 among integers: 7 divides that point's alpha only
    monkeypatch.setattr(counting, "_primes", lambda: iter((7, 47, 43)))
    pset = ParamPointSet(make_line(), (F(-3), F(1, 7), F(2), F(5)))
    rows = counting._separated(
        sq, *counting._integer_points(pset.curve, pset.params))
    assert [p for p, _, _ in counting._fingerprints(*rows)] == [47, 43]


def _pairwise_disjoint(lo, hi):
    return all(h1 < l2 or h2 < l1
               for (l1, h1), (l2, h2) in combinations(zip(lo, hi), 2))


@pytest.mark.parametrize("lo, hi, want", [
    ([2, 0, 5], [3, 1, 6], True),        # disjoint, not in order
    ([0, 1], [10, 2], False),            # nested
    ([0, 0], [1, 2], False),             # equal lo
    ([0, 1], [1, 2], False),             # touching at one endpoint
    ([1, 1], [1, 1], False),             # one point twice
    ([4], [5], True),                    # one interval
], ids=["disjoint", "nested", "equal_lo", "touching", "equal_points", "one"])
def test_disjoint_intervals(lo, hi, want):
    assert _pairwise_disjoint(lo, hi) == want
    assert counting._disjoint(np.array(lo, float), np.array(hi, float)) is want


def test_disjoint_intervals_brute_force():
    rng = random.Random(5)
    for _ in range(500):
        k = rng.randrange(1, 7)
        lo = [rng.randrange(0, 30) for _ in range(k)]
        hi = [x + rng.randrange(0, 4) for x in lo]
        want = _pairwise_disjoint(lo, hi)
        assert counting._disjoint(np.array(lo, float), np.array(hi, float)) is want


def _spy_count_exact(monkeypatch) -> list:
    """Record every call of counting._count_exact."""
    calls, count_exact = [], counting._count_exact

    def spy(*args):
        calls.append(len(args[-1]))
        return count_exact(*args)

    monkeypatch.setattr(counting, "_count_exact", spy)
    return calls


@pytest.mark.parametrize("curve, scheme", [
    (make_parabola(0, 1), UniformRandom(seed=7, n=512)),
    (make_rational_circle(), UniformRandom(seed=3, n=128)),
], ids=["parabola", "rational_circle"])
def test_distinct_values_certified_without_fingerprints(sq, curve, scheme,
                                                        monkeypatch):
    pset = generate_point_set(curve, scheme)
    rows = counting._separated(sq, *counting._integer_points(curve, pset.params))
    I, J = np.triu_indices(len(pset), 1)
    want = counting._count_exact(*rows, I, J)

    def refuse(*args):
        raise AssertionError("the certificate should have decided the count")

    monkeypatch.setattr(counting, "_fingerprints", refuse)
    res = count_distinct_values(pset, sq, Exact())
    assert res.count == want == res.n_pairs
    lo, hi, distinct = counting._exact_extremes(*rows, I, J)
    assert distinct and (res.value_min, res.value_max) == (lo, hi)


def test_colliding_values_reach_the_modular_count(sq, monkeypatch):
    calls = _spy_count_exact(monkeypatch)
    pset = generate_point_set(make_line(),
                              ArithmeticProgression(F(-300, 7), F(1, 7), 256))
    assert count_distinct_values(pset, sq, Exact()).count == 255
    assert calls == [256 * 255 // 2]


def test_non_finite_bound_reaches_the_modular_count(sq, monkeypatch):
    # |x|^2 near 1.5e308 is finite, but |x|^2 + |y|^2 and 2 x y overflow:
    # the float values are NaN and their bound infinite, which proves
    # nothing, so the 3 values of the 6 pairs take the modular count
    pset = generate_point_set(make_line(0, 10 ** 160), ArithmeticProgression(
        12 * 10 ** 153, 10 ** 152, 4))
    rows = counting._separated(
        sq, *counting._integer_points(pset.curve, pset.params))
    assert all(abs(x / m) < 1.8e308 for row in rows[0] for x, m in zip(row, rows[1]))
    calls = _spy_count_exact(monkeypatch)
    res = count_distinct_values(pset, sq, Exact())
    _assert_matches_oracle(res, _oracle(pset, sq))
    assert (res.count, calls) == (3, [6])


def test_counts_of_distinct_sets_agree_with_the_modular_count(monkeypatch):
    # the certificate settles these sets; the modular count, forced through
    # colliding small primes, must reach the same answer on its own
    _small_primes_first(monkeypatch)
    for sname in ("parabola", "rational_circle", "rect_hyperbola"):
        curve, scheme = _ORACLE_SETS[sname]
        pset = generate_point_set(curve, scheme)
        for q in _ORACLE_QUANTITIES.values():
            rows = counting._separated(
                q, *counting._integer_points(curve, pset.params))
            I, J = np.triu_indices(len(pset), 1)
            want = len(_oracle(pset, q))
            assert counting._count_exact(*rows, I, J) == want, (sname, q)
            assert count_distinct_values(pset, q, Exact()).count == want


def test_rand_beyond_its_numerators_fails_before_drawing():
    # 2^32 - 1 numerators k/2^32 exist: N = 2^32 can never be drawn
    with pytest.raises(ValueError, match="N <= 4294967295; got N = 4294967296"):
        generate_point_set(make_parabola(0, 1), UniformRandom(seed=1, n=2 ** 32))


@pytest.mark.parametrize("mode", [Exact(), Tolerance(1e-9)], ids=str)
def test_single_point_has_no_pairs(sq, mode):
    res = count_distinct_values(ParamPointSet(make_parabola(0, 1), (F(1, 3),)),
                                sq, mode)
    assert (res.count, res.n_pairs, res.value_min, res.value_max) == (0, 0, None, None)
    assert "value_min" not in res.to_dict()


def test_exact_extremes_inside_float_ties(sq, monkeypatch):
    # 1 and (1 + 2^-60)^2 = 1 + 2^-59 + 2^-120 round to the same float, so
    # only exact evaluation inside runs of equal floats finds the extremes;
    # their intervals overlap, so the modular count decides the count
    calls = _spy_count_exact(monkeypatch)
    eps = F(1, 2 ** 60)
    pset = ParamPointSet(make_line(), (F(0), 1 + eps, 2 + eps))
    want = [F(1), (1 + eps) ** 2, (2 + eps) ** 2]
    assert float(want[0]) == float(want[1])
    res = count_distinct_values(pset, sq, Exact())
    assert res.count == 3
    assert (res.value_min, res.value_max) == (want[0], want[2])
    assert res.to_dict()["value_max"] == float(want[2])
    # a run of nine distinct values that all round to 1.0: 1 and
    # (1 + k eps)^2, k = 1..8; the max and the min, (k eps)^2, both lie in
    # runs of equal floats
    params = (F(0), F(1)) + tuple(1 + k * eps for k in range(1, 9))
    pset = ParamPointSet(make_line(), params)
    oracle = _oracle(pset, sq)
    assert sum(float(v) == 1.0 for v in oracle) == 9
    _assert_matches_oracle(count_distinct_values(pset, sq, Exact()), oracle)
    assert calls == [3, 45]


@pytest.mark.parametrize("offset", [F(600, 7), F(7001, 11), F(-900, 13)])
def test_exact_min_below_float_rounding_noise(sq, offset):
    # 16 points with gaps 4/3 + (2k + 1) 2^-70: the pair values near 16/9
    # differ far below the rounding noise of their float values, so the
    # smallest float is not at the smallest value, and only the error
    # bound keeps the true minimum among the candidates
    params = tuple(offset + F(4, 3) * k + F(k * k, 2 ** 70) for k in range(16))
    pset = ParamPointSet(make_line(), params)
    res = count_distinct_values(pset, sq, Exact())
    _assert_matches_oracle(res, _oracle(pset, sq))
    assert res.value_min == (params[1] - params[0]) ** 2


def test_exact_min_of_a_factor_that_underflows():
    # x1^120 y1^100 on the line: at (1/500, 369) the factor (1/500)^120
    # rounds to 0.0 and its partner 369^100 is near 1e256, so the float
    # value 0 is off by about 6.6e-68; the true minimum, at (-1/2, 1/500),
    # is near 9.5e-307 and lies above that pair's interval unless the
    # bound counts the conversion error times the partner factor
    q = GeneralPolynomial(2, (((120, 0, 100, 0), 1),))
    pset = ParamPointSet(make_line(), (F(-1, 2), F(1, 500), F(369)))
    assert float(F(1, 500) ** 120) == 0.0
    oracle = _oracle(pset, q)
    res = count_distinct_values(pset, q, Exact())
    _assert_matches_oracle(res, oracle)
    assert res.value_min == F(-1, 2) ** 120 * F(1, 500) ** 100


def test_exact_values_beyond_float_range():
    # x1^120 + y1^120 and x1^60 y1^60 at 997..999 exceed 1e308, the first
    # in a float factor, the second only in the float product: extremes
    # found exactly and reported as exact strings
    pset = ParamPointSet(make_line(), (997, 998, 999))
    for terms in ((((120, 0, 0, 0), 1), ((0, 0, 120, 0), 1)),
                  (((60, 0, 60, 0), 1),)):
        q = GeneralPolynomial(2, terms)
        res = count_distinct_values(pset, q, Exact())
        want = sorted(q.eval((a, 0), (b, 0))
                      for a, b in combinations(pset.params, 2))
        assert res.count == 3
        assert (res.value_min, res.value_max) == (want[0], want[-1])
        doc = res.to_dict()
        assert (doc["value_min"], doc["value_max"]) == (str(want[0]), str(want[-1]))


def test_exact_count_checks_dimension():
    pset = generate_point_set(make_parabola(0, 1), UniformRandom(seed=3, n=4))
    with pytest.raises(DimensionMismatch):
        count_distinct_values(pset, SquaredEuclidean(dimension=3), Exact())


def test_tolerance_result_values(sq):
    pset = generate_point_set(make_parabola(0, 1), UniformRandom(seed=5, n=40))
    res = count_distinct_values(pset, sq, Tolerance(1e-9))
    P = pset.points_array()
    brute = sorted(sq.eval_batch(P[i], P[j])
                   for i in range(len(P)) for j in range(i + 1, len(P)))
    assert res.count == len(brute) == 40 * 39 // 2
    assert (res.value_min, res.value_max) == (brute[0], brute[-1])
    doc = res.to_dict()
    assert (doc["value_min"], doc["value_max"]) == (brute[0], brute[-1])


def test_tolerance_value_max_is_the_first_value_of_the_last_run(sq):
    # values 1e-24, 1, 4, 4 + 4e-12, 9, 9 + 6e-12: the last two runs merge,
    # and value_max is 9.0, the last run's first value, not its maximum
    pset = ParamPointSet(make_line(), (0.0, 1.0, 3.0, 3.0 + 1e-12))
    res = count_distinct_values(pset, sq, Tolerance(1e-9))
    assert res.count == 4 and res.n_pairs == 6
    assert res.value_min == 1.0001778090679956e-24
    assert res.value_max == 9.0 < (3.0 + 1e-12) ** 2
    # one pair; and a merged first run (1 and (1 + 1e-12)^2) before a
    # one-value last run
    res = count_distinct_values(ParamPointSet(make_line(), (0.5, 0.75)), sq,
                                Tolerance(1e-9))
    assert (res.count, res.value_min, res.value_max) == (1, 0.0625, 0.0625)
    res = count_distinct_values(
        ParamPointSet(make_line(), (0.0, 1.0, 2.0 + 1e-12)), sq, Tolerance(1e-3))
    assert (res.count, res.value_min, res.value_max) == (2, 1.0, 4.000000000004)


# line points 0..4: sorted values 1 1 1 1 4 4 4 9 9 16, with run boundaries
# at gaps 3, 6 and 8 of the 9 gaps between neighbours
_AP5 = ParamPointSet(make_line(), (0.0, 1.0, 2.0, 3.0, 4.0))


@pytest.mark.parametrize("block", [
    2,  # the run of 1s crosses the edge after gap 1; gap 8 is a partial block
    3,  # the boundaries at gaps 3 and 6 open a block each
    4,  # the last boundary, gap 8, is alone in the final partial block
    1, 9, 100])
def test_tolerance_merge_in_blocks(sq, block, monkeypatch):
    monkeypatch.setattr(counting, "_BLOCK", block)
    res = count_distinct_values(_AP5, sq, Tolerance(1e-9))
    assert (res.count, res.value_min, res.value_max) == (4, 1.0, 16.0)


@pytest.mark.parametrize("block", [1, 2, 100])
def test_tolerance_merge_in_blocks_without_a_boundary(sq, block, monkeypatch):
    # the three sides of an equilateral triangle: one run, value_max = vals[0]
    monkeypatch.setattr(counting, "_BLOCK", block)
    pset = generate_point_set(make_unit_circle(), EquallySpacedAngle(3))
    res = count_distinct_values(pset, sq, Tolerance(1e-9))
    P = pset.points_array()
    vals = sorted(sq.eval_batch(P[i], P[j]) for i, j in combinations(range(3), 2))
    assert len(set(vals)) > 1
    assert (res.count, res.value_min, res.value_max) == (1, vals[0], vals[0])


def test_tolerance_count_memory_is_the_sorted_values(sq):
    # N = 3000 has 4,498,500 pairs: 34.3 MiB of sorted values; the merge on
    # whole arrays peaked at 111.6 MiB
    pset = generate_point_set(make_parabola(0, 1), UniformRandom(seed=11, n=3000))
    tracemalloc.start()
    try:
        res = count_distinct_values(pset, sq, Tolerance(1e-9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_pairs == 4_498_500
    assert peak < 48 * 2 ** 20


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
    with pytest.raises(ValueError, match="^parameters must be strictly increasing$"):
        ParamPointSet(par, (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError, match="^parameters must be strictly increasing$"):
        ParamPointSet(par, (F(2, 3), F(1, 3)))
    with pytest.raises(DomainError,
                       match=r"^parameter 3/2 outside open domain \(0, 1\)$"):
        ParamPointSet(par, (F(1, 3), F(3, 2)))
