import math
from fractions import Fraction

import numpy as np
import pytest

from curverig import (AnalyticCurve, DisconnectedFramework, DomainExit,
                      Framework, HelixCurve, Interval, JetOrderError,
                      arc_length_reparametrize, builtin_curve, classify_helix,
                      curve_from_json,
                      complete_framework, derivative_norm_profile, eval_H,
                      infinitesimal_nullity, trace_framework_motion,
                      trace_triangle_motion, triangle)
from conftest import (make_circular_helix, make_parabola,
                      make_rational_circle, make_unit_circle)

F = Fraction


# -- triangle traces -------------------------------------------------------------


def test_circle_triangle_motion_flexes(sq):
    circ = make_unit_circle()
    tr = trace_triangle_motion(circ, sq, (0.0, 0.8, 1.7), 0.005, 100)
    assert tr.steps_completed == 100
    assert tr.max_drift < 1e-9
    assert not tr.aborted


def test_helix_triangle_motion_flexes(sq):
    helix = make_circular_helix(0.5)
    tr = trace_triangle_motion(helix, sq, (0.0, 0.7, 1.5), 0.005, 100)
    assert tr.max_drift < 1e-8


def test_parabola_triangle_motion_drifts(sq):
    par = make_parabola(-2, 3)
    tr = trace_triangle_motion(par, sq, (0.0, 0.5, 1.0), 0.01, 10)
    assert tr.max_drift > 1e-4


def test_newton_residuals_on_defining_edges(sq):
    # accepted steps keep every propagated constraint at the Newton tolerance
    circ = make_unit_circle()
    tr = trace_triangle_motion(circ, sq, (0.0, 0.8, 1.7), 0.01, 50)
    for (u, w), target in tr.edge_targets.items():
        if (u, w) in tr.monitored_edges:
            continue
        for k in range(len(tr.step_grid)):
            pu = np.asarray(circ.evaluate(tr.paths[u][k]), float)
            pw = np.asarray(circ.evaluate(tr.paths[w][k]), float)
            val = float(sq.eval(pu, pw))
            assert abs(val - target) <= 1e-11 * max(1.0, abs(target))


def test_drift_is_read_at_each_accepted_position(sq):
    # the monitor reuses the points of the step's solves: bitwise a fresh
    # evaluation at the accepted parameters
    par = make_parabola(-2, 3)
    tr = trace_triangle_motion(par, sq, (0.0, 0.5, 1.0), 0.01, 10)
    (u, w), = tr.monitored_edges
    target = tr.edge_targets[(u, w)]
    drift = max(abs(float(sq.eval(par.float_jet(a, 0)[0], par.float_jet(b, 0)[0]))
                    - target) / max(1.0, abs(target))
                for a, b in zip(tr.paths[u], tr.paths[w]))
    assert tr.max_drift == drift > 1e-4


_JSON_CIRCLE = {"kind": "rational", "domain": ["-16/5", "7/3"],
                "coords": [{"num": ["1", "0", "-1"], "den": ["1", "0", "1"]},
                           {"num": ["0", "2"], "den": ["1", "0", "1"]}]}


@pytest.mark.parametrize("curve, initial, delta, want", [
    (curve_from_json(_JSON_CIRCLE), (1.0, 1.8, 2.2), -0.005,
     (100, 600, 0, False, "1.8790524691780774e-13",
      "[0.49999999999999956, 0.9166666666666661, 1.0769230769230762]")),
    (builtin_curve("circular_helix(0.4)"), (0.0, 0.7, 1.5), 0.005,
     (100, 403, 0, False, "8.82738326879462e-13",
      "[0.5000000000000003, 1.2000000000000004, 2.0000000000000004]")),
    # beta reaches the domain end 1: step halvings, then an abort
    (builtin_curve("parabola"), (0.3, 0.6, 0.9), 0.002,
     (86, 584, 11, True, "0.004206354707012971",
      "[0.47200000000000014, 0.7301153796172476, 0.9989300468707836]")),
], ids=["json-circle", "helix", "parabola"])
def test_motion_traces_are_pinned_to_the_bit(sq, curve, initial, delta, want):
    # exact values: a change to any float operation of a step shows here
    tr = trace_triangle_motion(curve, sq, initial, delta, 100)
    assert (tr.steps_completed, tr.newton_iterations, tr.newton_failures,
            tr.aborted, repr(tr.max_drift), repr([p[-1] for p in tr.paths])) == want


def test_triangle_equals_k3_framework_trace(sq):
    circ = make_unit_circle()
    t1 = trace_triangle_motion(circ, sq, (0.0, 0.8, 1.7), 0.005, 50)
    fw = triangle(circ, sq, 0.0, 0.8, 1.7)
    t2 = trace_framework_motion(fw, driver=0, delta=0.005, steps=50)
    assert abs(t1.max_drift - t2.max_drift) < 1e-10
    assert t1.paths == t2.paths


def test_ode_cross_check_beta_prime_vs_H(sq):
    # on degenerate curves the traced beta(alpha) obeys beta' = 1/H
    for curve in (make_unit_circle(), make_circular_helix(0.5)):
        tr = trace_triangle_motion(curve, sq, (0.0, 0.8, 1.7), 0.005, 60)
        alphas, taus, betas = tr.paths[0], tr.paths[1], tr.paths[2]
        for k in range(5, 50, 10):
            beta_prime = (betas[k + 1] - betas[k - 1]) / (alphas[k + 1] - alphas[k - 1])
            h = eval_H(curve, sq, alphas[k], betas[k], taus[k])
            assert abs(beta_prime - 1.0 / h) < 1e-4


def test_drift_dichotomy_across_zoo(sq):
    # flexible family: circle, circular helix, flat-torus geodesic with
    # rational frequency ratio; rigid family: parabola, cubic
    flexible = [
        (make_unit_circle(), (0.0, 0.8, 1.7)),
        (make_circular_helix(0.5), (0.0, 0.7, 1.5)),
        (HelixCurve([1.0, 0.5], [1.0, 2.0], [], 4, Interval(-50.0, 50.0)),
         (0.0, 0.8, 1.7)),
    ]
    for curve, init in flexible:
        tr = trace_triangle_motion(curve, sq, init, 0.005, 100)
        assert tr.max_drift < 1e-7, (curve, tr.max_drift)
    from conftest import make_cubic
    rigid = [(make_parabola(-2, 3), (0.0, 0.5, 1.0)),
             (make_cubic(-2, 3), (0.0, 0.5, 1.0))]
    for curve, init in rigid:
        tr = trace_triangle_motion(curve, sq, init, 0.005, 100)
        assert tr.max_drift > 1e-4, (curve, tr.max_drift)


def test_smooth_flex_implies_infinitesimal_flex(sq):
    # zero-drift traces must correspond to nullity >= 1 triangles
    cases = [(make_unit_circle(), (0.0, 0.8, 1.7)),
             (make_circular_helix(0.5), (0.0, 0.7, 1.5))]
    for curve, init in cases:
        tr = trace_triangle_motion(curve, sq, init, 0.005, 50)
        assert tr.max_drift < 1e-9
        tri = triangle(curve, sq, *init)
        assert infinitesimal_nullity(tri).numerical_nullity >= 1


def test_local_uniqueness_of_constraint_follow(sq):
    # Newton lands on the same branch from nearby seeds
    from curverig.motion import _solve_edge
    circ = make_unit_circle()
    anchor = circ.float_jet(0.0, 0)[0]
    target = float(sq.eval(anchor, circ.float_jet(1.0, 0)[0]))
    for seed in (0.95, 1.0, 1.05):
        x, px, _ = _solve_edge(circ, sq, anchor, seed, target)
        assert x == pytest.approx(1.0, abs=1e-9)
        assert px == circ.float_jet(x, 0)[0]


@pytest.mark.parametrize("curve, initial, delta, want", [
    (curve_from_json(_JSON_CIRCLE), (1.0, 1.8, 2.2), -0.005, (11 / 12, 14 / 13)),
    (builtin_curve("circular_helix(0.4)"), (0.0, 0.7, 1.5), 0.005, (1.2, 2.0)),
], ids=["json-circle", "helix"])
def test_flexible_traces_end_on_the_exact_orbit(sq, curve, initial, delta, want):
    # 100 steps of an isometry land on exact end parameters: on the circle
    # the rotation taking the tan-half-angle parameter 1 to 1/2 takes 1.8 to
    # 11/12 and 2.2 to 14/13, on the helix a screw motion shifts by 1/2.
    # Seeded without the predictor, beta ends 1e-13 and 5e-13 away
    tr = trace_triangle_motion(curve, sq, initial, delta, 100)
    assert abs(tr.paths[1][-1] - want[0]) <= 1e-14
    assert abs(tr.paths[2][-1] - want[1]) <= 1e-14


@pytest.mark.parametrize("delta", [0.005, 1e-13])
def test_every_solve_takes_a_newton_update(sq, delta):
    # a step of 1e-13 leaves the old positions within the Newton tolerance,
    # and each solve still corrects them once: two iterations or more
    circ = make_unit_circle()
    tr = trace_triangle_motion(circ, sq, (0.0, 0.8, 1.7), delta, 20)
    assert (tr.steps_completed, tr.newton_failures) == (20, 0)
    assert tr.newton_iterations >= 2 * 2 * tr.steps_completed


def _cubic_line(hi: str):
    return curve_from_json({"kind": "rational", "domain": ["-1", hi],
                            "coords": [{"num": ["0", "1", "0", "1"], "den": ["1"]},
                                       {"num": ["0"], "den": ["1"]}]})


def test_predicted_seed_outside_the_domain_falls_back(sq, monkeypatch):
    # on the line (t + t^3, 0) beta's secant prediction at step 2 overshoots
    # its solution by 7.8e-6; with the domain's upper end between the two,
    # beta's solve starts from its position after step 1
    from curverig import motion
    seeds = []
    solve = motion._solve_edge

    def recording(curve, quantity, pa, seed, target):
        seeds.append(seed)
        return solve(curve, quantity, pa, seed, target)

    monkeypatch.setattr(motion, "_solve_edge", recording)
    wide = trace_triangle_motion(_cubic_line("3"), sq, (0.0, 0.5, 1.0), 0.01, 2)
    beta0, beta1, beta2 = wide.paths[2]
    assert seeds[3] == beta1 + (beta1 - beta0) / 0.01 * 0.01  # tau, beta, tau, beta
    assert beta2 < 1.004987 < seeds[3]
    seeds.clear()
    trace_triangle_motion(_cubic_line("1004987/1000000"), sq, (0.0, 0.5, 1.0),
                          0.01, 2)
    assert seeds[3] == beta1


# -- framework traces --------------------------------------------------------------


def test_k5_circle_trace(sq):
    circ = make_unit_circle()
    params = [-math.pi + (2 * j + 1) * math.pi / 5 for j in range(5)]
    fw = complete_framework(circ, sq, params)
    tr = trace_framework_motion(fw, driver=0, delta=0.01, steps=50)
    assert len(tr.monitored_edges) == 10 - 4
    assert tr.max_drift < 1e-8


def test_k4_helix_trace(sq):
    helix = make_circular_helix(0.5)
    fw = complete_framework(helix, sq, [0.0, 0.6, 1.3, 2.1])
    tr = trace_framework_motion(fw, driver=0, delta=0.005, steps=100)
    assert tr.max_drift < 1e-7


def test_disconnected_framework_rejected(sq):
    par = make_parabola(0, 1)
    fw = Framework(4, ((0, 1), (2, 3)),
                   (F(1, 5), F(2, 5), F(3, 5), F(4, 5)), par, sq)
    with pytest.raises(DisconnectedFramework):
        trace_framework_motion(fw, driver=0, delta=0.001, steps=2)


def test_domain_exit_raises(sq):
    # the driver itself walks out of the open domain
    par = make_parabola(0, 1)
    tr_fw = triangle(par, sq, 0.5, 0.3, 0.1)
    with pytest.raises(DomainExit):
        trace_framework_motion(tr_fw, driver=0, delta=0.2, steps=5)


def test_driver_index_validated(sq):
    circ = make_unit_circle()
    fw = triangle(circ, sq, 0.0, 0.8, 1.7)
    with pytest.raises(ValueError):
        trace_framework_motion(fw, driver=5)


# -- derivative-norm profiles --------------------------------------------------------


def test_helix_second_derivative_norm(sq):
    # closed-form curvature oracle: a / (a^2 + c^2) = 0.8 for c = 0.5
    helix = make_circular_helix(0.5, 0.0, 6.0)
    prof = derivative_norm_profile(helix, max_order=2, samples=20)
    assert prof.variations[0] < 1e-6           # unit speed
    assert all(abs(n - 1.0) < 1e-6 for n in prof.norms[0])
    assert prof.variations[1] < 1e-5
    assert all(abs(n - 0.8) < 1e-4 for n in prof.norms[1])
    assert prof.helix_candidate


def test_circle_curvature_one(sq):
    circ = make_unit_circle()
    prof = derivative_norm_profile(circ, max_order=3, samples=16)
    assert all(abs(n - 1.0) < 1e-5 for n in prof.norms[1])
    assert all(abs(n - 1.0) < 1e-2 for n in prof.norms[2])
    assert prof.helix_candidate


def test_parabola_curvature_varies(sq):
    par = make_parabola(0, 1)
    prof = derivative_norm_profile(par, max_order=2, samples=20)
    # curvature 2(1+4t^2)^(-3/2) spans more than 10%
    assert prof.variations[1] > 0.10
    assert not prof.helix_candidate
    lo, hi = min(prof.norms[1]), max(prof.norms[1])
    t_of = lambda t: 2.0 / (1 + 4 * t * t) ** 1.5
    assert lo == pytest.approx(t_of(0.92), rel=0.2)
    assert hi == pytest.approx(t_of(0.08), rel=0.2)


def test_profile_validation(sq):
    with pytest.raises(ValueError):
        derivative_norm_profile(make_parabola(0, 1), max_order=0)
    with pytest.raises(ValueError):
        derivative_norm_profile(make_parabola(0, 1), max_order=6)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_circle_jet_norms(order):
    # a circle of radius r has ||sigma^(k)|| = r^(1-k) at every s
    for r in (0.5, 1.0, 2.0):
        circ = HelixCurve([r], [1.0], [], 2, Interval(-3.0, 3.0))
        prof = derivative_norm_profile(circ, max_order=order, samples=9)
        for n in prof.norms[order - 1]:
            assert n == pytest.approx(r ** (1 - order), rel=1e-12)
        assert prof.helix_candidate


def test_rational_circle_jet_norms():
    # the same unit circle through the tan-half-angle parametrization
    prof = derivative_norm_profile(make_rational_circle(), max_order=5,
                                   samples=12)
    for row in prof.norms:
        assert all(n == pytest.approx(1.0, rel=1e-9) for n in row)
    assert max(prof.variations) < 1e-9


@pytest.mark.parametrize("a,c", [(1.0, 0.5), (1.5, 2.0)])
def test_helix_curvature_and_third_derivative(a, c):
    # unit-speed helix: ||sigma''|| = kappa = a/(a^2+c^2) and
    # ||sigma'''|| = kappa sqrt(kappa^2 + tau^2) with tau = c/(a^2+c^2)
    kappa, tau = a / (a * a + c * c), c / (a * a + c * c)
    helix = HelixCurve([a], [1.0], [c], 3, Interval(-6.0, 6.0))
    prof = derivative_norm_profile(helix, max_order=5, samples=10)
    assert all(n == pytest.approx(kappa, rel=1e-12) for n in prof.norms[1])
    third = kappa * math.sqrt(kappa ** 2 + tau ** 2)
    assert all(n == pytest.approx(third, rel=1e-12) for n in prof.norms[2])
    assert max(prof.variations) < 1e-9
    assert prof.helix_candidate


def test_parabola_curvature_closed_form():
    # ||sigma''(s)|| = 2 (1 + 4t^2)^(-3/2) at t = t(s)
    sigma = arc_length_reparametrize(make_parabola(0, 1))
    for s in np.linspace(0.05, 0.95, 7) * sigma.total_length:
        t = sigma.parameter_of_arc_length(float(s))
        got = float(np.linalg.norm(sigma.derivative_jet(float(s), 2)[2]))
        assert got == pytest.approx(2.0 * (1 + 4 * t * t) ** -1.5, rel=1e-12)


def test_profile_needs_curve_jets_of_max_order():
    def evaluator(t, order):
        return [np.array([math.cos(t), math.sin(t)]),
                np.array([-math.sin(t), math.cos(t)]),
                np.array([-math.cos(t), -math.sin(t)])][:order + 1]

    circ = AnalyticCurve(2, evaluator, Interval(-3.0, 3.0), max_jet_order=2)
    assert derivative_norm_profile(circ, max_order=2, samples=6).helix_candidate
    with pytest.raises(JetOrderError):
        derivative_norm_profile(circ, max_order=3, samples=6)


# -- helix classification --------------------------------------------------------------


def test_classify_circle_algebraic():
    res = classify_helix(HelixCurve([1.0], [1.0], [], 2))
    assert res.is_generalized and res.is_algebraic
    assert res.ratio_certificates == []


def test_classify_rational_ratio():
    res = classify_helix(HelixCurve([1.0, 2.0], [2.0, 3.0], [], 4))
    assert res.is_algebraic
    cert = res.ratio_certificates[0]
    assert (cert.numerator, cert.denominator) == (3, 2)


def test_classify_sqrt2_rejected():
    res = classify_helix(HelixCurve([1.0, 1.0], [1.0, math.sqrt(2)], [], 4),
                         denominator_bound=10 ** 6, tol=1e-12)
    assert not res.is_algebraic
    assert not res.ratio_certificates[0].ok


def test_classify_drift_with_rotation_rejected():
    res = classify_helix(HelixCurve([1.0], [1.0], [0.5], 3))
    assert res.is_generalized and not res.is_algebraic


def test_classify_zero_drift_vector_treated_as_torus():
    res = classify_helix(HelixCurve([1.0], [1.0], [0.0], 3))
    assert res.is_algebraic  # w = 0 means no actual drift component


def test_classify_line():
    res = classify_helix(HelixCurve([], [], [1.0, 0.0], 3))
    assert res.is_algebraic


def test_classify_validation():
    with pytest.raises(ValueError):
        classify_helix(HelixCurve([1.0], [1.0], [], 2), denominator_bound=1)


def test_structural_and_behavioral_routes_agree(sq):
    # declared helix data vs measured constant-norm profile
    torus = HelixCurve([1.0, 0.5], [1.0, 2.0], [], 4, Interval(0.0, 5.0))
    assert classify_helix(torus).is_algebraic
    prof = derivative_norm_profile(torus, max_order=3, samples=12)
    assert prof.helix_candidate
    par = make_parabola(0, 1)
    prof2 = derivative_norm_profile(par, max_order=2, samples=12)
    assert not prof2.helix_candidate
