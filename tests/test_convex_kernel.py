"""The array-backed convex kernel against the scalar loops it replaced.

The reference below is the previous pure-Python implementation, kept
verbatim apart from its names.  The array kernel must give the same
breakpoints bit for bit, the same scalar types for the boundary slopes (the
serializer prints an integer slope as 0 and a float as 0.0) and the same
NotConvex text, and each vectorised certificate must decline, so that the
sequential loop runs, exactly where that loop changes something.  The
kernel is its float arrays, so the reference is given float inputs.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcalc import catalogue, convex
from wcalc.convex import SLOPE_TOL, ConvexPL, NotConvex, lower_hull, upper_envelope_of_lines
from wcalc.sequences import kept, lc_minorant
from wcalc.weightfuncs import associated_function, sequence_from_weight


# -- reference: the scalar loops, verbatim ------------------------------

@dataclass(frozen=True)
class RefConvexPL:
    breakpoints: tuple[tuple[float, float], ...]
    left_slope: float = -math.inf
    right_slope: float = math.inf

    def __post_init__(self):
        if not self.breakpoints:
            raise ValueError("at least one breakpoint required")
        ss = [s for s, _ in self.breakpoints]
        if any(b <= a for a, b in zip(ss, ss[1:])):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        slopes = self.slopes()
        finite = [m for m in slopes if math.isfinite(m)]
        for i, (a, b) in enumerate(zip(finite, finite[1:])):
            if b - a < -SLOPE_TOL:
                raise NotConvex(
                    f"slopes not non-decreasing: slope {i} is {float(a)!r}, "
                    f"slope {i + 1} is {float(b)!r}, a drop of {a - b:.3g}"
                )

    def segment_slopes(self) -> list[float]:
        bp = self.breakpoints
        return [(v1 - v0) / (s1 - s0) for (s0, v0), (s1, v1) in zip(bp, bp[1:])]

    def slopes(self) -> list[float]:
        return [self.left_slope, *self.segment_slopes(), self.right_slope]

    def canonical(self, tol: float = SLOPE_TOL) -> "RefConvexPL":
        bp = list(self.breakpoints)
        # interior collinear merges
        changed = True
        while changed:
            changed = False
            for i in range(1, len(bp) - 1):
                (s0, v0), (s1, v1), (s2, v2) = bp[i - 1], bp[i], bp[i + 1]
                m0 = (v1 - v0) / (s1 - s0)
                m1 = (v2 - v1) / (s2 - s1)
                if abs(m1 - m0) <= tol:
                    del bp[i]
                    changed = True
                    break
        # boundary extensions collinear with first/last segment
        while len(bp) > 1:
            m0 = (bp[1][1] - bp[0][1]) / (bp[1][0] - bp[0][0])
            if math.isfinite(self.left_slope) and abs(self.left_slope - m0) <= tol:
                del bp[0]
            else:
                break
        while len(bp) > 1:
            m1 = (bp[-1][1] - bp[-2][1]) / (bp[-1][0] - bp[-2][0])
            if math.isfinite(self.right_slope) and abs(self.right_slope - m1) <= tol:
                del bp[-1]
            else:
                break
        return RefConvexPL(tuple(bp), self.left_slope, self.right_slope)

    def conjugate(self) -> "RefConvexPL":
        f = self.canonical()
        bp = f.breakpoints
        seg = f.segment_slopes()
        a, b = f.left_slope, f.right_slope

        dual: list[tuple[float, float]] = []
        if math.isfinite(a):
            s0, v0 = bp[0]
            dual.append((a, a * s0 - v0))
        for i, m in enumerate(seg):
            s, v = bp[i + 1]
            dual.append((m, m * s - v))
        if math.isfinite(b):
            s1, v1 = bp[-1]
            dual.append((b, b * s1 - v1))

        left = bp[0][0] if not math.isfinite(a) else -math.inf
        right = bp[-1][0] if not math.isfinite(b) else math.inf

        if not dual:
            s0, v0 = bp[0]
            return RefConvexPL(((0.0, -v0),), s0, s0)

        clean = [dual[0]]
        for x, v in dual[1:]:
            if x - clean[-1][0] <= SLOPE_TOL:
                continue
            clean.append((x, v))
        return RefConvexPL(tuple(clean), left, right).canonical()


def ref_upper_envelope_of_lines(slopes, intercepts) -> RefConvexPL:
    pts = sorted(zip(slopes, intercepts))
    support = RefConvexPL(
        tuple(ref_lower_hull([(m, -c) for m, c in pts])),
        -math.inf,
        math.inf,
    )
    return support.conjugate()


def ref_lower_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    hull: list[tuple[float, float]] = []
    for p in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) - (p[0] - x0) * (y1 - y0) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


# -- comparison helpers -------------------------------------------------

def outcome(fn):
    """fn() or the type and text of what it raised."""
    try:
        return fn()
    except (ValueError, ZeroDivisionError) as exc:
        return (type(exc), str(exc))


def bits(x) -> str:
    return float(x).hex()


def assert_same_pl(got, want):
    if isinstance(want, tuple):           # both raised
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert len(got.breakpoints) == len(want.breakpoints)
    assert [(bits(s), bits(v)) for s, v in got.breakpoints] == [
        (bits(s), bits(v)) for s, v in want.breakpoints
    ]
    for g, w in ((got.left_slope, want.left_slope), (got.right_slope, want.right_slope)):
        assert type(g) is type(w)
        assert g == w or bits(g) == bits(w)


class Counting:
    """Wraps a private loop of wcalc.convex and counts its calls."""

    def __init__(self, monkeypatch, name):
        self.calls = 0
        real = getattr(convex, name)

        def counted(*args):
            self.calls += 1
            return real(*args)

        monkeypatch.setattr(convex, name, counted)


# -- canonical and conjugate on near-collinear PL functions -------------

NUDGES = (0.0, 0.0, 1e-13, -1e-13, 5e-10)


@st.composite
def near_collinear_pls(draw):
    """Breakpoints whose slopes repeat exactly or nearly, often."""
    n = draw(st.integers(min_value=1, max_value=40))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=n - 1, max_size=n - 1))
    xs = [draw(st.floats(-5, 5))]
    for g in gaps:
        xs.append(xs[-1] + g)
    slopes = [draw(st.floats(-4, 4))]
    for _ in range(n - 2):
        if draw(st.booleans()):
            slopes.append(slopes[-1] + draw(st.sampled_from(NUDGES)))
        else:
            slopes.append(slopes[-1] + draw(st.floats(0.05, 2.0)))
    vals = [draw(st.floats(-3, 3))]
    for i in range(1, n):
        vals.append(vals[-1] + slopes[i - 1] * (xs[i] - xs[i - 1]))

    def boundary(end_slope, sign):
        kind = draw(st.sampled_from(("wall", "near", "apart")))
        if kind == "wall":
            return sign * math.inf
        if kind == "near":
            return end_slope + sign * draw(st.sampled_from(NUDGES))
        return end_slope + sign * draw(st.floats(0.05, 2.0))

    # a single point has no segment: both boundary slopes start from one value
    first, last = (slopes[0], slopes[n - 2]) if n > 1 else (slopes[0],) * 2
    left, right = boundary(first, -1), boundary(last, 1)
    return tuple(zip(xs, vals)), left, right


@given(near_collinear_pls(), st.sampled_from((1e-12, 1e-9)))
@settings(max_examples=400, deadline=None)
def test_canonical_matches_restart_loop(f, tol):
    bp, left, right = f
    assert_same_pl(
        outcome(lambda: ConvexPL(bp, left, right).canonical(tol)),
        outcome(lambda: RefConvexPL(bp, left, right).canonical(tol)),
    )


@given(near_collinear_pls())
@settings(max_examples=300, deadline=None)
def test_conjugate_matches_scalar_loop(f):
    bp, left, right = f
    assert_same_pl(
        outcome(lambda: ConvexPL(bp, left, right).conjugate()),
        outcome(lambda: RefConvexPL(bp, left, right).conjugate()),
    )


def test_canonical_cascading_merges_match():
    # merging c leaves the segment b-d within tol of a-b, so b goes next;
    # the slope drop at c (0.9e-12) stays within SLOPE_TOL
    tol = 1e-9
    bc = tol + 0.3e-12
    cd = bc - 0.9e-12
    xs = (0.0, 1.0, 2.0, 12.0, 13.0)
    vs = (0.0, 0.0, bc, bc + 10.0 * cd, bc + 10.0 * cd + 1.0)
    bp = tuple(zip(xs, vs))
    got = ConvexPL(bp).canonical(tol)
    assert_same_pl(got, RefConvexPL(bp).canonical(tol))
    assert [s for s, _ in got.breakpoints] == [0.0, 12.0, 13.0]


# -- rows of the calculator ---------------------------------------------

ROWS = [
    ("gevrey", (1.0,), 16000),
    ("gevrey", (2.0,), 4000),
    ("gevrey", (3.0,), 1000),
    ("factorial_power", (1.5, 3.0), 4000),
    ("power_index", (0.5, 1.5), 16000),
    ("power_index", (1.0, 2.0), 1000),
]


def row(family, args, pmax):
    return getattr(catalogue, family)(*args, pmax)


def assert_same_envelope(seq):
    ps = np.arange(seq.P + 1)
    got = outcome(lambda: upper_envelope_of_lines(ps, -seq.L))
    want = outcome(lambda: ref_upper_envelope_of_lines(ps.astype(float).tolist(), -seq.L))
    assert_same_pl(got, want)
    if not isinstance(want, tuple):
        # phi* of an associated function: the envelope's own conjugate
        assert_same_pl(outcome(got.conjugate), outcome(want.conjugate))
    return got, want


@pytest.mark.parametrize("family,args,pmax", ROWS)
def test_envelope_and_conjugate_match_on_rows(family, args, pmax):
    got, want = assert_same_envelope(row(family, args, pmax))
    # integer slopes in, float boundary slopes out
    assert type(got.left_slope) is float and got.left_slope == 0.0
    assert type(got.right_slope) is float and got.right_slope == pmax


@pytest.mark.parametrize("s,pmax", [(1.0, 4000), (2.0, 1000), (2.0, 4000), (3.0, 1000)])
def test_envelope_matches_on_derived_rows(s, pmax):
    # l = 0.5 rows are piecewise linear between integer points: their hull
    # pops collinear points and their conjugates merge segments
    derived = sequence_from_weight(
        associated_function(catalogue.gevrey(s, pmax)), 0.5, pmax
    )
    assert_same_envelope(derived)


def test_not_convex_message_unchanged():
    derived = sequence_from_weight(
        associated_function(catalogue.gevrey(2.0, 4000)), 0.5, 4000
    )
    with pytest.raises(NotConvex) as exc:
        associated_function(derived)
    assert str(exc.value) == (
        "slopes not non-decreasing: slope 705 is 1298.0000000005907, "
        "slope 706 is 1298.0, a drop of 5.91e-10"
    )
    ps = np.arange(derived.P + 1)
    assert outcome(lambda: ref_upper_envelope_of_lines(ps, -derived.L)) == (
        NotConvex, str(exc.value)
    )


def test_envelope_of_unsorted_lines_matches():
    rng = np.random.default_rng(3)
    slopes = [float(m) for m in rng.permutation(40)] + [7.0, 7.0]
    intercepts = [float(c) for c in rng.normal(size=42)]
    assert_same_pl(
        outcome(lambda: upper_envelope_of_lines(slopes, intercepts)),
        outcome(lambda: ref_upper_envelope_of_lines(slopes, intercepts)),
    )


# -- lower hull ---------------------------------------------------------

@given(
    st.lists(st.floats(-3, 3), min_size=0, max_size=60),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_lower_hull_matches_monotone_chain(ys, collinear):
    xs = [float(i) for i in range(len(ys))]
    if collinear:
        ys = [round(y) * 0.5 for y in ys]   # many exactly collinear triples
    pts = list(zip(xs, ys))
    want = ref_lower_hull(pts)
    got = lower_hull(np.array(pts, dtype=float).reshape(-1, 2))
    assert isinstance(got, np.ndarray) and got.shape == (len(want), 2)
    assert [(bits(x), bits(y)) for x, y in got.tolist()] == [
        (bits(x), bits(y)) for x, y in want
    ]


def test_lc_minorant_hull_matches_on_rows():
    for seq in (catalogue.bumpy_prefix(), catalogue.perturbed_gevrey(2.0, 1.5)):
        pts = [(float(p), v) for p, v in enumerate(seq.log_values)]
        want = ref_lower_hull(pts)
        got = lower_hull(np.array(pts))
        assert got.tolist() == [list(p) for p in want]
        assert lc_minorant(seq).L.tolist() == np.interp(
            np.arange(seq.P + 1), [x for x, _ in want], [y for _, y in want]
        ).tolist()


# -- the certificates decline exactly where the loops act ---------------

def test_certificates_accept_strictly_convex_input(monkeypatch):
    loops = {n: Counting(monkeypatch, n) for n in ("_merge_collinear", "_dedupe", "_monotone_chain")}
    seq = catalogue.gevrey(2.0, 500)
    env = upper_envelope_of_lines(np.arange(seq.P + 1), -seq.L)
    assert env.canonical() is env
    env.conjugate()
    assert lc_minorant(seq) is seq
    assert {n: c.calls for n, c in loops.items()} == {
        "_merge_collinear": 0, "_dedupe": 0, "_monotone_chain": 0,
    }


def test_collinear_run_declines_canonical(monkeypatch):
    loop = Counting(monkeypatch, "_merge_collinear")
    f = ConvexPL(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 4.0)))
    g = f.canonical()
    assert loop.calls == 1
    assert g.breakpoints == ((0.0, 0.0), (2.0, 2.0), (3.0, 4.0))


@pytest.mark.parametrize("left,right", [(1.0, math.inf), (-math.inf, 3.0), (1.0 - 1e-13, 3.0)])
def test_boundary_slope_on_its_segment_declines_canonical(monkeypatch, left, right):
    loop = Counting(monkeypatch, "_merge_collinear")
    bp = ((0.0, 0.0), (1.0, 1.0), (2.0, 4.0))   # segment slopes 1 and 3
    g = ConvexPL(bp, left, right).canonical()
    assert loop.calls == 1
    assert len(g.breakpoints) < len(bp)
    assert_same_pl(g, RefConvexPL(bp, left, right).canonical())


def test_duplicate_dual_abscissae_decline_dedupe(monkeypatch):
    loop = Counting(monkeypatch, "_dedupe")
    # one point with equal boundary slopes: the line s -> 2s, whose dual
    # abscissae are 2 and 2
    f = ConvexPL(((0.0, 0.0),), 2.0, 2.0)
    fs = f.conjugate()
    assert loop.calls == 1
    assert_same_pl(fs, RefConvexPL(((0.0, 0.0),), 2.0, 2.0).conjugate())


def test_non_convex_points_decline_hull(monkeypatch):
    loop = Counting(monkeypatch, "_monotone_chain")
    pts = [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0)]
    assert lower_hull(np.array(pts)).tolist() == [[0.0, 0.0], [2.0, 1.0], [3.0, 3.0]]
    assert loop.calls == 1


# -- conjugating twice returns the envelope's abscissae -------------------

@pytest.mark.xfail(strict=True, raises=NotConvex, reason="ROADMAP item 9")
@pytest.mark.parametrize("base", [
    lambda: catalogue.power_index(4, 2.5, 200),
    lambda: catalogue.gevrey(3.625, 1000),
], ids=["power_index(4,2.5)", "gevrey(3.625)"])
def test_double_conjugate_returns_envelope_abscissae(base):
    # slopes recomputed by division drop by about 1e-12 on these l = 0.5
    # rows, so conjugate() refuses them until it carries exact slopes
    seq = base()
    derived = sequence_from_weight(associated_function(seq), 0.5, seq.P)
    env = upper_envelope_of_lines(np.arange(derived.P + 1), -derived.L)
    twice = env.conjugate().conjugate()
    assert [bits(s) for s, _ in twice.breakpoints] == [
        bits(s) for s, _ in env.breakpoints
    ]


def test_associated_function_builds_no_tuple():
    w = associated_function(catalogue.gevrey(2.0, 16000))
    kept(w.source[1], "_conjugate", w.phi_pl.conjugate)(1.0)
    assert "breakpoints" not in w.phi_pl.__dict__
    assert "breakpoints" not in w.source[1].__dict__["_conjugate"][None].__dict__
    assert w.valid_to == w.phi_pl.breakpoints[-1][0]
