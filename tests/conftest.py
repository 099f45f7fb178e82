"""Shared curve/quantity fixtures for the test suite."""

import math
import signal
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from curverig import (HelixCurve, Interval, PinnedAreaSquared, RationalCurve,
                      RationalFunction, SquaredEuclidean, trig_ellipse)

RF = RationalFunction.from_coeffs


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the main thread once `seconds` have passed, so
    a search that never ends (a root isolation that bisects forever) fails
    its test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def polyval_array(curve, ts, order):
    """The order-th derivative of a rational curve by np.polyval on each
    coordinate's float numerator and denominator: the reference the jet
    matrix must equal bit for bit."""
    rfs = curve.coords
    for _ in range(order):
        rfs = [rf.derivative() for rf in rfs]
    return np.stack([np.polyval(np.array(rf.num.float_coeffs()[::-1] or [0.0]), ts)
                     / np.polyval(np.array(rf.den.float_coeffs()[::-1]), ts)
                     for rf in rfs], axis=-1)


def make_parabola(lo=0, hi=1) -> RationalCurve:
    return RationalCurve([RF([0, 1]), RF([0, 0, 1])], Interval(lo, hi))


def make_line(lo=-1000, hi=1000) -> RationalCurve:
    return RationalCurve([RF([0, 1]), RF([0])], Interval(lo, hi))


def make_rect_hyperbola(lo=Fraction(1, 100), hi=4096) -> RationalCurve:
    return RationalCurve([RF([0, 1]), RF([1], [0, 1])], Interval(lo, hi))


def make_rational_circle(lo=-100, hi=100) -> RationalCurve:
    return RationalCurve([RF([1, 0, -1], [1, 0, 1]), RF([0, 2], [1, 0, 1])],
                         Interval(lo, hi))


def make_cubic(lo=0, hi=1) -> RationalCurve:
    return RationalCurve([RF([0, 1]), RF([0, 0, 0, 1])], Interval(lo, hi))


def make_unit_circle() -> HelixCurve:
    return HelixCurve([1.0], [1.0], [], 2, Interval(-math.pi, math.pi))


def make_circular_helix(c=0.5, lo=-1000.0, hi=1000.0) -> HelixCurve:
    return HelixCurve([1.0], [1.0], [c], 3, Interval(lo, hi))


@pytest.fixture
def sq() -> SquaredEuclidean:
    return SquaredEuclidean()


@pytest.fixture
def pinned_origin() -> PinnedAreaSquared:
    return PinnedAreaSquared(apex=(0, 0))


@pytest.fixture
def parabola() -> RationalCurve:
    return make_parabola()


@pytest.fixture
def wide_parabola() -> RationalCurve:
    return make_parabola(-2, 4)


@pytest.fixture
def unit_circle() -> HelixCurve:
    return make_unit_circle()


@pytest.fixture
def circular_helix() -> HelixCurve:
    return make_circular_helix()


@pytest.fixture
def rational_circle() -> RationalCurve:
    return make_rational_circle()


@pytest.fixture
def rect_hyperbola() -> RationalCurve:
    return make_rect_hyperbola()


@pytest.fixture
def ellipse():
    return trig_ellipse(2.0, 1.0)


def rational_rotation_circle_params(n: int = 12) -> tuple:
    """n points on the rational circle at equal angular gaps.

    Uses the rational rotation with tan(theta/2) = 1/2 (the (3/5, 4/5)
    point), so all parameters are exact rationals while the embedded points
    are equally spaced in angle.
    """
    half = Fraction(1, 2)
    cur = Fraction(0)
    out = [cur]
    for _ in range(n - 1):
        den = 1 - cur * half
        assert den != 0
        cur = (cur + half) / den
        out.append(cur)
    assert len(set(out)) == n
    return tuple(sorted(out))
