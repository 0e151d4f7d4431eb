"""Exact convex piecewise-linear functions on the real line.

A ConvexPL is determined by its breakpoints (s_i, v_i), a slope used left of
the first breakpoint and a slope used right of the last one.  The sentinel
slopes -inf (left) and +inf (right) encode a "wall": the function is +inf
outside the breakpoint range.  With this convention the Legendre conjugate of
a convex PL function is again convex PL and conjugation is an exact
involution: breakpoints and slopes simply trade places.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WcalcError

SLOPE_TOL = 1e-12


class NotConvex(WcalcError, ValueError):
    """Slopes of a piecewise-linear function decrease beyond SLOPE_TOL."""


@dataclass(frozen=True)
class ConvexPL:
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

    # -- basic geometry -------------------------------------------------

    def segment_slopes(self) -> list[float]:
        bp = self.breakpoints
        return [(v1 - v0) / (s1 - s0) for (s0, v0), (s1, v1) in zip(bp, bp[1:])]

    def slopes(self) -> list[float]:
        """Full slope sequence: left extension, segments, right extension."""
        return [self.left_slope, *self.segment_slopes(), self.right_slope]

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        xs = np.array([p for p, _ in self.breakpoints])
        vs = np.array([v for _, v in self.breakpoints])
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
        """Merge collinear segments and boundary extensions."""
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
        return ConvexPL(tuple(bp), self.left_slope, self.right_slope)

    # -- conjugation ----------------------------------------------------

    def conjugate(self) -> "ConvexPL":
        """Exact Legendre conjugate  f*(x) = sup_s (x*s - f(s)).

        Breakpoints of f* sit at the slopes of f; slopes of f* are the
        breakpoint abscissae of f.  A finite boundary slope of f turns into
        a wall of f* and vice versa.
        """
        f = self.canonical()
        bp = f.breakpoints
        n = len(bp)
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
            # f finite only on a single point between two walls: f* is the
            # global line x -> x*s0 - v0.
            s0, v0 = bp[0]
            return ConvexPL(((0.0, -v0),), s0, s0)

        # dedupe equal abscissae (possible only through rounding)
        clean = [dual[0]]
        for x, v in dual[1:]:
            if x - clean[-1][0] <= SLOPE_TOL:
                continue
            clean.append((x, v))
        return ConvexPL(tuple(clean), left, right).canonical()

    # -- algebra helpers ------------------------------------------------

    def scaled(self, c: float) -> "ConvexPL":
        """Return g with g(s) = c * f(s / c) for c > 0 (slopes preserved)."""
        if c <= 0:
            raise ValueError("scale must be positive")
        bp = tuple((s * c, v * c) for s, v in self.breakpoints)
        return ConvexPL(bp, self.left_slope, self.right_slope)

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


def young_conjugate(f: ConvexPL) -> ConvexPL:
    """Conjugate of a convex PL function (raises NotConvex on bad input)."""
    return f.conjugate()


def upper_envelope_of_lines(slopes, intercepts) -> ConvexPL:
    """max_i (slopes[i] * s + intercepts[i]) as an exact ConvexPL.

    Equivalent to conjugating the discrete function i -> -intercepts[i]
    placed at abscissae slopes[i] with walls on both sides.
    """
    pts = sorted(zip(slopes, intercepts))
    support = ConvexPL(
        tuple(lower_hull([(m, -c) for m, c in pts])),
        -math.inf,
        math.inf,
    )
    return support.conjugate()


def lower_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Lower convex hull of points sorted by x (monotone chain sweep)."""
    hull: list[tuple[float, float]] = []
    for p in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # keep only right turns (convex from below)
            if (x1 - x0) * (p[1] - y0) - (p[0] - x0) * (y1 - y0) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull
