import math
import random
from fractions import Fraction

import numpy as np
import pytest

from curverig import (Framework, SingularH, SquaredEuclidean,
                      PinnedAreaSquared, complete_framework, eval_H,
                      flexibility_matrix, h_removable_value,
                      infinitesimal_nullity, scan_T_degeneracy, triangle,
                      trig_ellipse)
from conftest import (make_circular_helix, make_parabola, make_rational_circle,
                      make_unit_circle)

F = Fraction


# -- frameworks and flexibility matrices -----------------------------------------


def test_framework_validation(sq):
    par = make_parabola(0, 1)
    with pytest.raises(ValueError):
        Framework(2, ((0, 0),), (F(1, 3), F(2, 3)), par, sq)
    with pytest.raises(ValueError):
        Framework(2, ((0, 1), (1, 0)), (F(1, 3), F(2, 3)), par, sq)
    with pytest.raises(ValueError):
        Framework(2, ((0, 1),), (F(1, 3), F(1, 3)), par, sq)
    with pytest.raises(ValueError):
        Framework(2, ((0, 2),), (F(1, 3), F(2, 3)), par, sq)
    # a vertex index must be an int >= 0, not a float, bool or string
    for edge in ((0.5, 1), (True, 0), (0, -1), ("0", 1)):
        with pytest.raises(ValueError, match="vertex"):
            Framework(2, (edge,), (F(1, 3), F(2, 3)), par, sq)


def test_k11_matrix_and_nullity(sq):
    par = make_parabola(0, 1)
    fw = Framework(2, ((0, 1),), (F(1, 4), F(3, 4)), par, sq)
    M = flexibility_matrix(fw, exact=True)
    assert len(M) == 1 and len(M[0]) == 2
    assert any(x != 0 for x in M[0])  # submersion keeps a nonzero entry
    assert infinitesimal_nullity(fw).nullity == 1


def test_k21_always_flexible(sq):
    # rank of a 2x3 matrix is at most 2
    rng = random.Random(77)
    curves = [make_parabola(0, 1), make_rational_circle(),
              make_unit_circle(), make_circular_helix()]
    for i in range(30):
        curve = curves[i % len(curves)]
        lo, hi = float(curve.domain.lo), float(curve.domain.hi)
        lo, hi = max(lo, -5.0), min(hi, 5.0)
        ts = sorted(lo + (hi - lo) * rng.random() for _ in range(3))
        if min(b - a for a, b in zip(ts, ts[1:])) < 1e-3:
            continue
        fw = Framework(3, ((0, 2), (1, 2)), tuple(ts), curve, sq)
        assert infinitesimal_nullity(fw).numerical_nullity >= 1


def test_circle_triangle_rotation_field(sq):
    # unit-speed circle: the all-ones vector is an infinitesimal rotation
    circ = make_unit_circle()
    tri = triangle(circ, sq, -2 * math.pi / 3, 0.0, 2 * math.pi / 3)
    M = np.asarray(flexibility_matrix(tri, exact=False))
    assert np.allclose(M @ np.ones(3), 0.0, atol=1e-12)
    assert infinitesimal_nullity(tri).numerical_nullity == 1


def test_rational_circle_triangle_exact_nullity(sq):
    circ = make_rational_circle()
    tri = triangle(circ, sq, F(0), F(1, 2), F(2))
    res = infinitesimal_nullity(tri)
    assert res.exact_nullity == 1
    assert res.numerical_nullity == 1
    # kernel correctness: M a = 0 exactly
    M = flexibility_matrix(tri, exact=True)
    for vec in res.exact_kernel:
        for row in M:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def test_parabola_triangle_exact_rigidity(sq):
    par = make_parabola(-1, 3)
    tri = triangle(par, sq, F(0), F(1), F(2))
    res = infinitesimal_nullity(tri)
    assert res.exact_nullity == 0
    assert res.numerical_nullity == 0


def test_k4_on_rational_circle(sq):
    circ = make_rational_circle()
    fw = complete_framework(circ, sq, (F(0), F(1, 2), F(1), F(2)))
    res = infinitesimal_nullity(fw)
    assert res.exact_nullity == 1  # rotation only


def test_k4_on_trig_circle_matches_exact_path(sq):
    circ = make_unit_circle()
    fw = complete_framework(circ, sq, (0.0, 1.0, 2.0, 3.0))
    assert infinitesimal_nullity(fw).numerical_nullity == 1


def test_nullity_tol_validation(sq):
    par = make_parabola(0, 1)
    fw = Framework(2, ((0, 1),), (F(1, 4), F(3, 4)), par, sq)
    with pytest.raises(ValueError):
        infinitesimal_nullity(fw, tol=0.0)


# -- the H function ----------------------------------------------------------------


def test_H_circle_constant_one(sq):
    circ = make_unit_circle()
    assert eval_H(circ, sq, 0.3, 1.1, 2.0) == pytest.approx(1.0, abs=1e-12)
    for tau in (-2.5, -0.7, 0.9, 2.9):
        assert eval_H(circ, sq, 0.3, 1.1, tau) == pytest.approx(1.0, abs=1e-10)


def test_H_helix_constant_one(sq):
    helix = make_circular_helix(0.5)
    assert eval_H(helix, sq, 0.2, 0.9, 1.7) == pytest.approx(1.0, abs=1e-10)


def test_H_parabola_varies(sq):
    par = make_parabola(-1, 4)
    h2 = eval_H(par, sq, 0.0, 1.0, 2.0)
    h3 = eval_H(par, sq, 0.0, 1.0, 3.0)
    assert abs(h2 - h3) > 1e-3


def test_H_swap_inverse(sq):
    par = make_parabola(-1, 4)
    rng = random.Random(4)
    for _ in range(20):
        a, b, t = (rng.uniform(-0.8, 3.8) for _ in range(3))
        if min(abs(a - b), abs(t - a), abs(t - b)) < 1e-2:
            continue
        prod = eval_H(par, sq, a, b, t) * eval_H(par, sq, b, a, t)
        assert prod == pytest.approx(1.0, abs=1e-10)


def test_H_removable_value_is_the_limit(sq):
    # approach tau -> alpha and tau -> beta; the removable value must match
    par = make_parabola(-1, 4)
    a, b = 0.0, 1.0
    rem = h_removable_value(par, sq, a, b)
    assert eval_H(par, sq, a, b, a) == pytest.approx(rem, rel=1e-12)
    assert eval_H(par, sq, a, b, b) == pytest.approx(rem, rel=1e-12)
    for eps in (1e-3, 1e-5):
        assert eval_H(par, sq, a, b, a + eps) == pytest.approx(rem, rel=5e-3)
        assert eval_H(par, sq, a, b, b - eps) == pytest.approx(rem, rel=5e-3)
    circ = make_unit_circle()
    assert eval_H(circ, sq, 0.3, 1.1, 0.3) == pytest.approx(1.0, abs=1e-12)
    # blended region stays continuous
    assert eval_H(circ, sq, 0.3, 1.1, 0.3 + 1e-8) == pytest.approx(1.0, abs=1e-9)


def test_H_singular_detection(sq):
    # antipodal pairing on the circle kills one denominator factor while the
    # numerator survives only partially: simplicity violation is flagged
    circ = make_unit_circle()
    with pytest.raises(SingularH):
        eval_H(circ, sq, -2.0, 0.5, -2.0 + math.pi)


def test_H_validation(sq):
    par = make_parabola(0, 1)
    with pytest.raises(ValueError):
        eval_H(par, sq, 0.5, 0.5, 0.25)


# -- T-degeneracy scans ---------------------------------------------------------------


@pytest.mark.parametrize("curve,quantity", [
    (make_unit_circle(), SquaredEuclidean()),
    (make_circular_helix(0.5, -20.0, 20.0), SquaredEuclidean()),
    (trig_ellipse(2.0, 1.0), PinnedAreaSquared(apex=(0, 0))),
])
def test_scan_degenerate_cases(curve, quantity):
    rep = scan_T_degeneracy(curve, quantity, m=12, n=256, tol=1e-9)
    assert rep.is_degenerate_candidate
    assert rep.max_H_variation < 1e-9
    assert rep.witness is None


def test_scan_hyperbola_centered_pinned_area_degenerate():
    # the other conic family centered at the apex also flexes
    from conftest import make_rect_hyperbola
    hyp = make_rect_hyperbola(F(1, 2), 50)
    rep = scan_T_degeneracy(hyp, PinnedAreaSquared(apex=(0, 0)),
                            m=12, n=256, tol=1e-9)
    assert rep.is_degenerate_candidate
    assert rep.max_H_variation < 1e-9


@pytest.mark.parametrize("curve,quantity", [
    (make_parabola(0, 1), SquaredEuclidean()),
    (make_unit_circle(), PinnedAreaSquared(apex=(0.5, 0.2))),
])
def test_scan_non_degenerate_cases(curve, quantity):
    rep = scan_T_degeneracy(curve, quantity, m=12, n=256, tol=1e-8)
    assert not rep.is_degenerate_candidate
    assert rep.max_H_variation > 1e-3
    assert rep.witness is not None
    a, b, t_lo, t_hi = rep.witness
    assert curve.domain.contains(t_lo) and curve.domain.contains(t_hi)


def test_scan_validation(sq):
    with pytest.raises(ValueError):
        scan_T_degeneracy(make_parabola(0, 1), sq, m=4)
    with pytest.raises(ValueError):
        scan_T_degeneracy(make_parabola(0, 1), sq, n=32)


def test_degenerate_scan_implies_flexible_triangles(sq):
    # Lemma-level consistency: candidate degeneracy means every sampled
    # triangle admits an infinitesimal motion
    circ = make_unit_circle()
    rep = scan_T_degeneracy(circ, sq, m=8, n=128, tol=1e-9)
    assert rep.is_degenerate_candidate
    rng = random.Random(6)
    for _ in range(50):
        ts = sorted(rng.uniform(-3.0, 3.0) for _ in range(3))
        if min(b - a for a, b in zip(ts, ts[1:])) < 1e-2:
            continue
        tri = triangle(circ, sq, *ts)
        assert infinitesimal_nullity(tri).numerical_nullity >= 1


def test_sign_constant_interval_partition_property(sq):
    # on a non-degenerate curve, two probes inside one sign-constant
    # interval of H' pin the (2,2)-framework completely
    par = make_parabola(0, 1)
    rep = scan_T_degeneracy(par, sq, m=12, n=256, tol=1e-8)
    a, b, _, _ = rep.witness
    taus = np.linspace(0.02, 0.98, 400)
    taus = taus[(np.abs(taus - a) > 0.03) & (np.abs(taus - b) > 0.03)]
    hs = np.array([eval_H(par, sq, a, b, float(t)) for t in taus])
    dh = np.diff(hs)
    signs = np.sign(dh)
    # longest run of constant derivative sign
    best_start, best_len, start = 0, 0, 0
    for i in range(1, len(signs) + 1):
        if i == len(signs) or signs[i] != signs[start]:
            if i - start > best_len:
                best_start, best_len = start, i - start
            start = i
    run = taus[best_start:best_start + best_len + 1]
    assert len(run) > 40
    rng = random.Random(12)
    done = 0
    while done < 20:
        t1, t2 = sorted(rng.sample(range(len(run)), 2))
        tau1, tau2 = float(run[t1]), float(run[t2])
        if min(abs(tau1 - tau2), abs(tau1 - a), abs(tau2 - a),
               abs(tau1 - b), abs(tau2 - b)) < 1e-3:
            continue
        fw = Framework(4, ((0, 2), (0, 3), (1, 2), (1, 3)),
                       (a, b, tau1, tau2), par, sq)
        assert infinitesimal_nullity(fw).numerical_nullity == 0
        done += 1
