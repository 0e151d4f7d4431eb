"""Exact piecewise-linear Legendre-Fenchel conjugation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcalc.catalogue import gevrey
from wcalc.convex import (
    ConvexPL,
    lower_hull,
    upper_envelope_of_lines,
    young_conjugate,
)


def make_pl(xs, slopes, v0=0.0, left_slope=-math.inf, right_slope=math.inf):
    """Assemble a convex PL function from breakpoint abscissae and the
    (strictly increasing) slopes between them."""
    vals = [v0]
    for i in range(1, len(xs)):
        vals.append(vals[-1] + slopes[i - 1] * (xs[i] - xs[i - 1]))
    return ConvexPL(tuple(zip(xs, vals)), left_slope, right_slope)


@st.composite
def convex_pls(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=3.0),
            min_size=n, max_size=n,
        )
    )
    xs = np.concatenate([[0.0], np.cumsum(gaps)]) + draw(
        st.floats(min_value=-5, max_value=5)
    )
    slope_gaps = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=2.0),
            min_size=n - 1, max_size=n - 1,
        )
    )
    s0 = draw(st.floats(min_value=-4, max_value=4))
    slopes = np.concatenate([[s0], s0 + np.cumsum(slope_gaps)])
    v0 = draw(st.floats(min_value=-3, max_value=3))
    walls = draw(st.booleans())
    if walls:
        left, right = -math.inf, math.inf
    else:
        left = slopes[0] - draw(st.floats(min_value=0.1, max_value=2.0))
        right = slopes[-1] + draw(st.floats(min_value=0.1, max_value=2.0))
    return make_pl(tuple(xs), tuple(slopes), v0, left, right)


@given(convex_pls())
@settings(max_examples=300, deadline=None)
def test_conjugate_involution(f):
    g = young_conjugate(young_conjugate(f))
    assert g.is_close(f.canonical(), tol=1e-12)


@given(convex_pls(), st.floats(min_value=-8, max_value=8))
@settings(max_examples=200, deadline=None)
def test_fenchel_young_inequality(f, x):
    fs = young_conjugate(f)
    for s, v in f.breakpoints:
        lhs = s * x
        rhs = v + fs(x)
        if math.isfinite(rhs):
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


def test_single_line_conjugate_is_wall():
    # f(s) = 2s  ->  f*(x) = 0 at x = 2, +inf elsewhere
    f = ConvexPL(((0.0, 0.0),), 2.0, 2.0)
    fs = young_conjugate(f)
    assert fs(2.0) == 0.0
    assert fs(1.0) == math.inf and fs(3.0) == math.inf


def test_conjugate_of_abs():
    # f(s) = |s|  ->  f*(x) = 0 on [-1, 1], +inf outside
    f = ConvexPL(((0.0, 0.0),), -1.0, 1.0)
    fs = young_conjugate(f)
    for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
        assert fs(x) == 0.0
    assert fs(1.5) == math.inf


def test_wall_becomes_boundary_slope():
    # f = 0 on [0, 1], walls outside -> f* (x) = max(0, x)
    f = ConvexPL(((0.0, 0.0), (1.0, 0.0)), math.inf, math.inf)
    fs = young_conjugate(f)
    assert fs(-3.0) == pytest.approx(0.0)
    assert fs(2.0) == pytest.approx(2.0)


def test_evaluation_and_slopes():
    f = make_pl((0.0, 1.0, 2.0), (1.0, 3.0))
    assert f(0.5) == pytest.approx(0.5)
    assert f(1.5) == pytest.approx(1.0 + 1.5)
    assert f(-1.0) == pytest.approx(math.inf)  # default walls
    xs = np.array([0.0, 1.0, 2.0])
    assert np.allclose(f(xs), [0.0, 1.0, 4.0])


def test_envelope_of_lines():
    # max(0, s, 2s - 1) has kinks at 0 and 1
    env = upper_envelope_of_lines([0.0, 1.0, 2.0], [0.0, 0.0, -1.0])
    assert env(-5.0) == pytest.approx(0.0)
    assert env(0.5) == pytest.approx(0.5)
    assert env(3.0) == pytest.approx(5.0)


def test_envelope_drops_dominated_line():
    env = upper_envelope_of_lines([0.0, 1.0, 2.0], [0.0, -100.0, -1.0])
    assert env(0.5) == pytest.approx(0.0)
    assert env(0.6) == pytest.approx(0.2)


def test_lower_hull_simple():
    pts = np.array([(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0)])
    hull = lower_hull(pts)
    assert hull.tolist() == [[0.0, 0.0], [2.0, 1.0], [3.0, 3.0]]


def test_lower_hull_keeps_collinear_endpoints():
    pts = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
    hull = lower_hull(pts)
    assert hull[0].tolist() == [0.0, 0.0] and hull[-1].tolist() == [2.0, 2.0]


@given(convex_pls())
@settings(max_examples=100, deadline=None)
def test_conjugate_is_convex(f):
    fs = young_conjugate(f)
    sl = fs.segment_slopes()
    assert all(a < b + 1e-12 for a, b in zip(sl, sl[1:]))


def test_serialization_round_trip():
    seq = gevrey(2.0, 200)
    for f in (
        make_pl((0.0, 1.0, 2.5), (0.5, 2.0), left_slope=0.0),
        # built from arrays: its tuple is read from them
        upper_envelope_of_lines(np.arange(seq.P + 1), -seq.L),
    ):
        g = ConvexPL.from_json(f.to_json())
        assert g.is_close(f)
        assert g == f
        for i in (0, -1, len(f.breakpoints) // 2):
            assert f.breakpoint(i) == f.breakpoints[i] == g.breakpoint(i)
