"""Exact convex piecewise-linear functions on the real line.

A ConvexPL is determined by its breakpoints (s_i, v_i), a slope used left of
the first breakpoint and a slope used right of the last one.  The sentinel
slopes -inf (left) and +inf (right) encode a "wall": the function is +inf
outside the breakpoint range.  With this convention the Legendre conjugate of
a convex PL function is again convex PL and conjugation is an exact
involution: breakpoints and slopes simply trade places.

Each ConvexPL also keeps its abscissae, values and segment slopes as
read-only float64 arrays, and every operation is a linear sweep over them
(the discrete Legendre transform in linear time, after Lucet 1997).  The
array code is bit-identical to the scalar loops it stands for: numpy does
only + - * / and comparisons, which round exactly as Python floats do.
Where a sequential loop could change its input (a collinear merge, a dedupe
of dual abscissae, a hull pop), a vectorised certificate first decides
whether it would change nothing; only when the certificate declines does
the loop run, so each rule has one implementation.

A ConvexPL that an operation builds is its float arrays: its breakpoints
tuple is a float view of them, built only when something reads it.
Conjugation reads the arrays and the two end breakpoints
(ConvexPL.breakpoint), so a chain of conjugates and envelopes never boxes
its P + 1 points into Python tuples.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import WcalcError

SLOPE_TOL = 1e-12


class NotConvex(WcalcError, ValueError):
    """Slopes of a piecewise-linear function decrease beyond SLOPE_TOL."""


@dataclass(frozen=True)
class ConvexPL:
    """A convex PL function kept as read-only float64 arrays: _xs and _vs
    (the breakpoints) and _seg (the segment slopes).  On an instance that an
    operation built, the breakpoints tuple is a float view of the arrays,
    built on first read; the constructor keeps the caller's tuple."""
    breakpoints: tuple[tuple[float, float], ...]
    left_slope: float = -math.inf
    right_slope: float = math.inf

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float).reshape(-1, 2)
        self._check(bp[:, 0], bp[:, 1])

    @classmethod
    def _from_arrays(cls, xs, vs, left, right) -> "ConvexPL":
        """Build from the float arrays xs and vs, checked like any other
        construction; the breakpoints tuple is built on first read."""
        f = object.__new__(cls)
        object.__setattr__(f, "left_slope", left)
        object.__setattr__(f, "right_slope", right)
        f._check(xs, vs)
        return f

    def __getattr__(self, name):
        # only reached while an array-built instance has no tuple yet
        if name != "breakpoints":
            raise AttributeError(name)
        bp = tuple(zip(self._xs.tolist(), self._vs.tolist()))
        object.__setattr__(self, "breakpoints", bp)
        return bp

    def _check(self, xs: np.ndarray, vs: np.ndarray) -> None:
        """Validate the breakpoint arrays and keep them on the instance."""
        if not xs.size:
            raise ValueError("at least one breakpoint required")
        if np.any(xs[1:] <= xs[:-1]):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        seg = (vs[1:] - vs[:-1]) / (xs[1:] - xs[:-1])
        slopes = np.concatenate(([self.left_slope], seg, [self.right_slope]))
        finite = slopes[np.isfinite(slopes)]
        drops = np.flatnonzero(finite[1:] - finite[:-1] < -SLOPE_TOL)
        if drops.size:
            i = int(drops[0])
            a, b = finite[i], finite[i + 1]
            raise NotConvex(
                f"slopes not non-decreasing: slope {i} is {float(a)!r}, "
                f"slope {i + 1} is {float(b)!r}, a drop of {a - b:.3g}"
            )
        for name, arr in (("_xs", xs), ("_vs", vs), ("_seg", seg)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # -- basic geometry -------------------------------------------------

    def breakpoint(self, i: int) -> tuple[float, float]:
        """The i-th breakpoint as floats, without building the tuple."""
        return (float(self._xs[i]), float(self._vs[i]))

    def segment_slopes(self) -> list[float]:
        return self._seg.tolist()

    def slopes(self) -> list[float]:
        """Full slope sequence: left extension, segments, right extension."""
        return [self.left_slope, *self.segment_slopes(), self.right_slope]

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        xs, vs = self._xs, self._vs
        out = np.interp(s, xs, vs)
        lo, hi = xs[0], xs[-1]
        if math.isfinite(self.left_slope):
            left = s < lo
            out = np.where(left, vs[0] + self.left_slope * (s - lo), out)
        else:
            out = np.where(s < lo, np.inf, out)
        if math.isfinite(self.right_slope):
            right = s > hi
            out = np.where(right, vs[-1] + self.right_slope * (s - hi), out)
        else:
            out = np.where(s > hi, np.inf, out)
        return out if out.ndim else float(out)

    def canonical(self, tol: float = SLOPE_TOL) -> "ConvexPL":
        """Merge collinear segments and boundary extensions.

        Middle breakpoints whose two segments differ in slope by at most tol
        go first, leftmost first; then end breakpoints whose finite boundary
        slope is within tol of their segment.
        """
        seg = self._seg
        a, b = self.left_slope, self.right_slope
        flat = np.abs(seg[1:] - seg[:-1]) <= tol
        ends = seg.size and (
            (math.isfinite(a) and abs(a - seg[0]) <= tol)
            or (math.isfinite(b) and abs(b - seg[-1]) <= tol)
        )
        if not (ends or flat.any()):
            return self
        x, v = self._xs.tolist(), self._vs.tolist()
        keep = _merge_collinear(x, v, (np.flatnonzero(flat) + 1).tolist(), tol)

        def slope(i, j):
            return (v[j] - v[i]) / (x[j] - x[i])

        lo, hi = 0, len(keep) - 1
        while hi > lo and math.isfinite(a) and abs(a - slope(keep[lo], keep[lo + 1])) <= tol:
            lo += 1
        while hi > lo and math.isfinite(b) and abs(b - slope(keep[hi - 1], keep[hi])) <= tol:
            hi -= 1
        keep = keep[lo:hi + 1]
        return ConvexPL._from_arrays(self._xs[keep], self._vs[keep], a, b)

    # -- conjugation ----------------------------------------------------

    def conjugate(self) -> "ConvexPL":
        """Exact Legendre conjugate  f*(x) = sup_s (x*s - f(s)).

        Breakpoints of f* sit at the slopes of f; slopes of f* are the
        breakpoint abscissae of f.  A finite boundary slope of f turns into
        a wall of f* and vice versa.
        """
        f = self.canonical()
        xs, vs, seg = f._xs, f._vs, f._seg
        a, b = f.left_slope, f.right_slope

        dx, dv = seg, seg * xs[1:] - vs[1:]
        if math.isfinite(a):
            dx = np.concatenate(([a], dx))
            dv = np.concatenate(([a * xs[0] - vs[0]], dv))
        if math.isfinite(b):
            dx = np.concatenate((dx, [b]))
            dv = np.concatenate((dv, [b * xs[-1] - vs[-1]]))

        left = f.breakpoint(0)[0] if not math.isfinite(a) else -math.inf
        right = f.breakpoint(-1)[0] if not math.isfinite(b) else math.inf

        if not dx.size:
            # f finite only on a single point between two walls: f* is the
            # global line x -> x*s0 - v0.
            s0, v0 = f.breakpoint(0)
            return ConvexPL(((0.0, -v0),), s0, s0)

        # dedupe equal abscissae (possible only through rounding)
        if not np.all(dx[1:] - dx[:-1] > SLOPE_TOL):
            keep = _dedupe(dx.tolist())
            dx, dv = dx[keep], dv[keep]
        return ConvexPL._from_arrays(dx, dv, left, right).canonical()

    # -- algebra helpers ------------------------------------------------

    def is_close(self, other: "ConvexPL", tol: float = 1e-12) -> bool:
        f, g = self.canonical(), other.canonical()
        if len(f.breakpoints) != len(g.breakpoints):
            return False
        for (s0, v0), (s1, v1) in zip(f.breakpoints, g.breakpoints):
            sc = max(1.0, abs(s0), abs(v0))
            if abs(s0 - s1) > tol * sc or abs(v0 - v1) > tol * sc:
                return False
        for m0, m1 in ((f.left_slope, g.left_slope), (f.right_slope, g.right_slope)):
            if math.isfinite(m0) != math.isfinite(m1):
                return False
            if math.isfinite(m0) and abs(m0 - m1) > tol * max(1.0, abs(m0)):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "breakpoints": [[s, v] for s, v in self.breakpoints],
            "left_slope": self.left_slope,
            "right_slope": self.right_slope,
        }

    @staticmethod
    def from_json(d: dict) -> "ConvexPL":
        return ConvexPL(
            tuple((float(s), float(v)) for s, v in d["breakpoints"]),
            float(d["left_slope"]),
            float(d["right_slope"]),
        )


def _merge_collinear(x: list, v: list, flagged: list, tol: float) -> list[int]:
    """Indices left after deleting, leftmost first and one at a time, every
    middle point whose two segments differ in slope by at most tol.

    A stack sweep: deleting a point changes only the segments of its two
    neighbours, so the leftmost candidate is always at the top of the stack.
    flagged lists the points whose own input triple merges; while the top
    two stack entries are consecutive inputs the sweep jumps to the next.
    """
    n = len(x)
    keep = [0]
    k = 1
    while k < n:
        while len(keep) >= 2:
            i, j = keep[-2], keep[-1]
            m0 = (v[j] - v[i]) / (x[j] - x[i])
            m1 = (v[k] - v[j]) / (x[k] - x[j])
            if abs(m1 - m0) <= tol:
                keep.pop()
            else:
                break
        keep.append(k)
        if keep[-2] == k - 1:
            f = bisect_left(flagged, k)
            nxt = flagged[f] if f < len(flagged) else n - 1
            keep.extend(range(k + 1, nxt + 1))
            k = nxt + 1
        else:
            k += 1
    return keep


def _dedupe(x: list) -> list[int]:
    """Indices left after dropping each abscissa within SLOPE_TOL of the
    last one kept."""
    keep = [0]
    for i in range(1, len(x)):
        if x[i] - x[keep[-1]] <= SLOPE_TOL:
            continue
        keep.append(i)
    return keep


def young_conjugate(f: ConvexPL) -> ConvexPL:
    """Conjugate of a convex PL function (raises NotConvex on bad input)."""
    return f.conjugate()


def upper_envelope_of_lines(slopes, intercepts) -> ConvexPL:
    """max_i (slopes[i] * s + intercepts[i]) as an exact ConvexPL.

    Equivalent to conjugating the discrete function i -> -intercepts[i]
    placed at abscissae slopes[i] with walls on both sides.
    """
    m = np.asarray(slopes, dtype=float)
    c = np.asarray(intercepts, dtype=float)
    if not np.all(m[1:] > m[:-1]):
        order = np.lexsort((c, m))
        m, c = m[order], c[order]
    hull = lower_hull(np.column_stack((m, -c)))
    support = ConvexPL._from_arrays(hull[:, 0], hull[:, 1], -math.inf, math.inf)
    return support.conjugate()


def lower_hull(points: np.ndarray) -> np.ndarray:
    """Lower convex hull of the rows (x, y) of an (n, 2) float array sorted
    by x (monotone chain sweep), as an (m, 2) float array."""
    x, y = points[:, 0], points[:, 1]
    # the sweep's pop test on each consecutive triple: if none pops, no
    # point is ever popped and the hull is the input
    turn = (x[1:-1] - x[:-2]) * (y[2:] - y[:-2]) - (x[2:] - x[:-2]) * (y[1:-1] - y[:-2])
    pops = np.flatnonzero(turn <= 0.0)
    if not pops.size:
        return points
    return np.array(_monotone_chain(points.tolist(), int(pops[0]) + 2), dtype=float)


def _monotone_chain(points: list, start: int) -> list:
    """Andrew's monotone chain over points; points[:start] need no pop."""
    hull = list(points[:start])
    for p in points[start:]:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # keep only right turns (convex from below)
            if (x1 - x0) * (p[1] - y0) - (p[0] - x0) * (y1 - y0) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull
