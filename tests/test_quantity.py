import random
from fractions import Fraction

import numpy as np
import pytest

from curverig import (DimensionMismatch, GeneralPolynomial, PinnedAreaSquared,
                      SquaredEuclidean, pairing, pairings, quantity_degree,
                      quantity_from_json, quantity_to_json)

F = Fraction


def test_squared_euclidean_basics():
    q = SquaredEuclidean()
    assert q.eval((0, 0), (3, 4)) == 25
    dx, dy = q.grad((1, 0), (0, 0))
    assert dx == (2, 0) and dy == (-2, 0)


def test_pinned_area_basics():
    q = PinnedAreaSquared(apex=(0, 0))
    assert q.eval((1, 0), (0, 1)) == 1
    # parallel vectors give zero
    assert q.eval((1, 0), (2, 0)) == 0
    dx, dy = q.grad((1, 0), (0, 1))
    assert dx == (2, 0) and dy == (0, 2)


def test_pinned_area_translates_apex():
    q = PinnedAreaSquared(apex=(1, 1))
    q0 = PinnedAreaSquared(apex=(0, 0))
    x, y = (F(3), F(2)), (F(0), F(5))
    shifted = (x[0] - 1, x[1] - 1), (y[0] - 1, y[1] - 1)
    assert q.eval(x, y) == q0.eval(*shifted)


@pytest.mark.parametrize("e", [0.5, -1, True, "1"])
def test_general_polynomial_rejects_an_exponent_that_is_not_an_int(e):
    with pytest.raises(ValueError, match="exponent"):
        GeneralPolynomial(dimension=1, terms=(((e, 1), 1),))


def test_dimension_mismatch():
    q = SquaredEuclidean(dimension=2)
    with pytest.raises(DimensionMismatch):
        q.eval((1, 2, 3), (0, 0, 0))
    with pytest.raises(DimensionMismatch):
        q.eval((1, 2), (0, 0, 0))


def test_symmetry_on_random_rational_pairs():
    rng = random.Random(11)
    qs = [SquaredEuclidean(), PinnedAreaSquared(apex=(F(1, 3), F(-2, 5)))]
    for _ in range(1000):
        x = (F(rng.randrange(-99, 99), rng.randrange(1, 40)),
             F(rng.randrange(-99, 99), rng.randrange(1, 40)))
        y = (F(rng.randrange(-99, 99), rng.randrange(1, 40)),
             F(rng.randrange(-99, 99), rng.randrange(1, 40)))
        for q in qs:
            assert q.eval(x, y) == q.eval(y, x)


def _richardson_grad(q, x, y, h=1e-5):
    """Central differences with one Richardson step, per coordinate."""
    d = len(x)
    out_x, out_y = [], []

    def diff(fun, h):
        return (fun(h) - fun(-h)) / (2 * h)

    for k in range(d):
        def fx(s, k=k):
            xx = list(x)
            xx[k] += s
            return q.eval(xx, y)

        def fy_direct(s, k=k):
            yy = list(y)
            yy[k] += s
            return q.eval(x, yy)

        ax, ax2 = diff(fx, h), diff(fx, h / 2)
        ay, ay2 = diff(fy_direct, h), diff(fy_direct, h / 2)
        out_x.append((4 * ax2 - ax) / 3)
        out_y.append((4 * ay2 - ay) / 3)
    return out_x, out_y


# D(x, y) != D(y, x) and D_X != D_Y, so a swapped pairing cannot pass
ASYMMETRIC = GeneralPolynomial(dimension=2, terms=(
    ((2, 0, 0, 1), F(3)), ((0, 1, 1, 0), F(-2)), ((1, 1, 1, 1), F(1, 2))))


@pytest.mark.parametrize("q", [
    SquaredEuclidean(),
    PinnedAreaSquared(apex=(0.25, -0.5)),
    ASYMMETRIC,
])
def test_gradient_matches_finite_differences(q):
    rng = random.Random(5)
    for _ in range(100):
        x = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        y = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        gx, gy = q.grad(x, y)
        fx, fy = _richardson_grad(q, x, y)
        scale = max(1.0, max(abs(v) for v in (*gx, *gy)))
        for a, b in zip((*gx, *gy), (*fx, *fy)):
            assert abs(a - b) <= 1e-7 * scale


def test_general_polynomial_matches_squared_euclidean():
    # (x1-y1)^2 + (x2-y2)^2 expanded into explicit terms
    terms = []
    for i in range(2):
        e_x2 = [0, 0, 0, 0]; e_x2[i] = 2
        e_y2 = [0, 0, 0, 0]; e_y2[2 + i] = 2
        e_xy = [0, 0, 0, 0]; e_xy[i] = 1; e_xy[2 + i] = 1
        terms += [(tuple(e_x2), 1), (tuple(e_y2), 1), (tuple(e_xy), -2)]
    poly = GeneralPolynomial(dimension=2, terms=tuple(terms))
    q = SquaredEuclidean()
    rng = random.Random(3)
    for _ in range(50):
        x = (F(rng.randrange(-20, 20), 7), F(rng.randrange(-20, 20), 3))
        y = (F(rng.randrange(-20, 20), 5), F(rng.randrange(-20, 20), 2))
        assert poly.eval(x, y) == q.eval(x, y)
        assert poly.grad(x, y) == q.grad(x, y)


def test_general_polynomial_dedupes_terms():
    q = GeneralPolynomial(dimension=1, terms=(((1, 0), 2), ((1, 0), 3),
                                              ((0, 1), 0)))
    assert q.terms == (((1, 0), F(5)),)


def test_batch_matches_scalar(sq):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 2))
    Y = rng.normal(size=(40, 2))
    q2 = PinnedAreaSquared(apex=(0.5, 0.25))
    for q in (sq, q2):
        vals = q.eval_batch(X, Y)
        gx, gy = q.grad_batch(X, Y)
        for i in range(X.shape[0]):
            assert vals[i] == pytest.approx(q.eval(X[i], Y[i]), rel=1e-12)
            sgx, sgy = q.grad(X[i], Y[i])
            assert np.allclose(gx[i], np.asarray(sgx, float))
            assert np.allclose(gy[i], np.asarray(sgy, float))


@pytest.mark.parametrize("d", range(1, 10))
def test_squared_euclidean_batch_is_bitwise_np_sum(sq, d):
    # the per-coordinate kernel for d < 8 against numpy's sum, which adds
    # fewer than 8 terms left to right; from d = 8 the kernel is np.sum
    rng = np.random.default_rng(d)
    A = rng.normal(size=(7, d)) * 10.0 ** rng.integers(-6, 7, size=(7, d))
    B = rng.normal(size=(5, d)) * 10.0 ** rng.integers(-6, 7, size=(5, d))
    for X, Y in [(A[:, None, :], B[None, :, :]), (A[2], B), (A, B[3]), (A[1], B[4])]:
        got = np.asarray(sq.eval_batch(X, Y))
        want = np.asarray(np.sum(np.square(X - Y), axis=-1))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_general_polynomial_batch_broadcasts():
    rng = np.random.default_rng(1)
    X, Y = rng.normal(size=(3, 1, 2)), rng.normal(size=(4, 2))
    vals = ASYMMETRIC.eval_batch(X, Y)
    gx, gy = ASYMMETRIC.grad_batch(X, Y)
    assert vals.shape == (3, 4) and gx.shape == gy.shape == (3, 4, 2)
    for i in range(3):
        for j in range(4):
            assert vals[i, j] == pytest.approx(
                ASYMMETRIC.eval(X[i, 0], Y[j]), rel=1e-12)
            sgx, sgy = ASYMMETRIC.grad(X[i, 0], Y[j])
            assert np.allclose(gx[i, j], sgx) and np.allclose(gy[i, j], sgy)


RATIONAL_KINDS = [SquaredEuclidean(), PinnedAreaSquared(apex=(F(1, 4), F(-1, 2))),
                  ASYMMETRIC]


def _rational_points(rng, n):
    return [(F(rng.randrange(-40, 40), rng.randrange(1, 9)),
             F(rng.randrange(-40, 40), rng.randrange(1, 9))) for _ in range(n)]


def _close(a, exact):
    return a == pytest.approx(float(exact), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("q", RATIONAL_KINDS)
def test_pairing_is_the_velocity_dotted_gradient(q):
    rng = random.Random(13)
    for x, vx, y, vy in zip(*(_rational_points(rng, 20) for _ in range(4))):
        gx, gy = q.grad(x, y)
        u, w = pairing(q, x, vx, y, vy)
        assert isinstance(u, F) and isinstance(w, F)
        assert u == sum(a * b for a, b in zip(vx, gx))
        assert w == sum(a * b for a, b in zip(vy, gy))
        assert pairing(q, x, None, y, vy) == (None, w)
        assert pairing(q, x, vx, y, None) == (u, None)


@pytest.mark.parametrize("q", RATIONAL_KINDS)
def test_pairings_match_exact_pairing(q):
    rng = random.Random(17)
    n = 7
    X, VX, Y, VY = (_rational_points(rng, n) for _ in range(4))
    fX, fVX, fY, fVY = (np.array(p, dtype=float) for p in (X, VX, Y, VY))

    # (n, d) against one point (d,)
    D, u, w = pairings(q, fX, fVX, fY[0], fVY[0])
    assert D.shape == u.shape == w.shape == (n,)
    for i in range(n):
        eu, ew = pairing(q, X[i], VX[i], Y[0], VY[0])
        assert _close(D[i], q.eval(X[i], Y[0]))
        assert _close(u[i], eu) and _close(w[i], ew)

    # every pair: (n, 1, d) against (1, n, d)
    D, u, w = pairings(q, fX[:, None], fVX[:, None], fY[None], fVY[None])
    assert D.shape == u.shape == w.shape == (n, n)
    for i in range(n):
        for j in range(n):
            eu, ew = pairing(q, X[i], VX[i], Y[j], VY[j])
            assert _close(D[i, j], q.eval(X[i], Y[j]))
            assert _close(u[i, j], eu) and _close(w[i, j], ew)

    _, u, w = pairings(q, fX, None, fY, fVY)
    assert u is None and w.shape == (n,)


def test_quantity_degree():
    assert quantity_degree(SquaredEuclidean()) == 2
    assert quantity_degree(PinnedAreaSquared(apex=(0, 0))) == 4
    assert quantity_degree(GeneralPolynomial(
        dimension=1, terms=(((2, 3), F(1)),))) == 5


def test_json_roundtrip():
    docs = [
        {"kind": "sq_euclidean"},
        {"kind": "pinned_area", "apex": ["1/2", "-3/4"]},
        {"kind": "poly", "dimension": 1, "terms": [[[1, 1], "2/3"]]},
    ]
    for doc in docs:
        q = quantity_from_json(doc)
        q2 = quantity_from_json(quantity_to_json(q))
        assert q == q2
