"""Non-quasianalyticity verdicts and the constructive minorant machinery.

The central object is a recursion that, given a decreasing family of
non-quasianalytic rows, constructs a single non-quasianalytic minorant N
lying strictly below every row (Rainer-Schindl, Studia Math. 224, 2014).
The matrix labels are read as 1/q: row q = 1..Q is the row labelled 1/q
(within 1e-12), or its log-convex minorant when it is not log-convex, and
each needs a certified tail bound and a non-quasianalytic class.  Step q
takes a_q, the first index past b_{q-1} (b_0 = 0) where the tail of row
q + 1's root series is certified at most 2**-q / (q + 1), and b_q, the
first index past a_q where row q + 1 less log(q + 1) climbs above the plateau.
With r_q(p) = log M_p / p on row q, the switch rule for N's roots is

    r_q(p) - log q      for b_{q-1} <= p <= a_q,
    r_q(a_q) - log q    for a_q < p < b_q, held flat,
    r_Q(p) - log Q      for p >= b_{Q-1}.

The switch indices grow extremely fast (beyond 1e10 for typical rows), so
all index searches are done on the symbolic tails with certified integral
bounds; the stored prefix of N is just a window into the constructed
object, and minorant_checkpoints reads the same rule far beyond it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import verdicts
from .errors import (
    ClassMembershipFailed,
    InterpolantUnverified,
    RoutesDisagree,
    TailNotCertified,
    TruncationExhausted,
)
from .matrices import WeightMatrix, _exists, _forall, relation_matrix
from .sequences import (
    LogWeightSequence,
    check_log_convex,
    check_nq,
    increasing_root_minorant,
    kept,
    lc_minorant,
    relation_triangle,
    _root_series_verdict,
)
from .tails import geometric_mean
from .verdicts import Verdict


def class_nq_verdict(seq: LogWeightSequence) -> Verdict:
    """Non-quasianalyticity of the generated class, via both equivalent
    routes: the quotient series of the log-convex minorant, and the root
    series of the increasing-root minorant.

    The two route verdicts are computed once and kept on seq, unless they
    disagree; each call builds a new Verdict from them."""

    def routes():
        via_hull = check_nq(lc_minorant(seq))
        via_roots = _root_series_verdict(increasing_root_minorant(seq))
        if via_hull.status is not via_roots.status:
            if not (via_hull.inconclusive or via_roots.inconclusive):
                raise RoutesDisagree(
                    f"{seq.label}: hull route {via_hull.status.value}, "
                    f"root route {via_roots.status.value}"
                )
        return via_hull, via_roots

    via_hull, via_roots = kept(seq, "_nq_routes", routes)
    decided = via_hull if not via_hull.inconclusive else via_roots
    return verdicts.Verdict(
        decided.status,
        {"hull_route": via_hull.to_json(), "root_route": via_roots.to_json()},
        decided.reason,
    )


def matrix_nq_verdict(M: WeightMatrix, variant: str) -> Verdict:
    """Roumieu: some row suffices; Beurling: every row is needed."""
    if variant not in ("roumieu", "beurling"):
        raise ValueError(variant)
    # every row, also past one that holds: each row's two routes are cross-checked
    per_row = [(lbl, class_nq_verdict(row)) for lbl, row in zip(M.labels, M.rows)]
    if variant == "roumieu":
        return _exists((lbl, v, False) for lbl, v in per_row)
    return _forall(per_row, lambda lbl, v: v)


def small_terms_diagnostic(seq: LogWeightSequence) -> Verdict:
    """p / (M^I_p)^{1/p} must tend to zero for a non-quasianalytic class."""
    if not class_nq_verdict(seq).holds:
        raise ClassMembershipFailed("diagnostic requires a non-quasianalytic class")
    mi = increasing_root_minorant(seq)
    ps = np.arange(1, mi.P + 1)
    vals = np.log(ps) - mi.L[1:] / ps
    quarter = vals[3 * len(vals) // 4 :]
    prefix_trend = bool(np.all(np.diff(quarter) <= 1e-9)) and quarter[-1] < quarter[0] + 1e-9
    if mi.tail is not None:
        asym = mi.tail.asymptote()
        if asym.series_converges:
            return verdicts.holds(limit=0.0, prefix_decreasing=prefix_trend)
        return verdicts.fails(root_exponent=asym.u)
    if prefix_trend:
        return verdicts.inconclusive("prefix decreasing but no tail", last=float(quarter[-1]))
    return verdicts.inconclusive("no trend on prefix")


# -- the minorant recursion ---------------------------------------------

@dataclass(frozen=True)
class MinorantTrace:
    a: tuple[int, ...]
    b: tuple[int, ...]
    N: LogWeightSequence
    tail_sum_bound: float
    q_completed: int
    certificates: dict

    def to_json(self) -> dict:
        return {
            "a": list(self.a),
            "b": list(self.b),
            "tail_sum_bound": self.tail_sum_bound,
            "q_completed": self.q_completed,
            "N": self.N.to_json(),
            "certificates": self.certificates,
        }


def _first_index_where(pred, start: int) -> int | None:
    """Minimal integer >= start with pred true; pred must be monotone
    (false ... false true ... true).  Exponential bracket plus bisection."""
    lo, hi = start, start
    step = 1
    while not pred(hi):
        lo = hi + 1
        step *= 4
        hi = hi + step
        if hi > 10 ** 18:
            return None
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _recursion_rows(M: WeightMatrix) -> dict[int, LogWeightSequence]:
    """The rows the recursion consumes, by q = 1..Q for the Q rows of M,
    picked as the module docstring says; a row that cannot serve refuses."""
    Q = len(M.labels)
    if Q < 2:
        raise ValueError("need at least two rows")
    rows = {}
    for q in range(1, Q + 1):
        row = next((r for l, r in zip(M.labels, M.rows) if abs(l - 1.0 / q) < 1e-12), None)
        if row is None:
            raise ValueError(f"matrix lacks the label 1/{q}")
        if not check_log_convex(row).holds:
            row = lc_minorant(row)
        if row.tail is None or row.tail.root_sum_tail_upper(10.0) is None:
            raise TailNotCertified(f"row 1/{q} lacks a certified tail bound")
        if not class_nq_verdict(row).holds:
            raise ClassMembershipFailed(f"row 1/{q} is not non-quasianalytic")
        rows[q] = row
    return rows


def _minorant_roots(rows: dict, a, b, ps: np.ndarray) -> np.ndarray:
    """N's roots at the increasing integer points ps >= 1 by the switch
    rule, on the rows of _recursion_rows and the switch indices a, b.  A
    row gives its stored values up to its P and its tail's beyond; pieces
    are cut by searchsorted, and a tail is called only on points past its
    row's P.  numpy does only + and /, so each root is bit-identical to the
    scalar -math.log(q) + rows[q].root(p)."""
    Q = len(a) + 1
    out = np.empty(ps.size)
    lo = 0                      # the first point of row q's followed piece
    for q in range(1, Q + 1):
        row, shift = rows[q], -math.log(q)
        hi = ps.size if q == Q else int(ps.searchsorted(a[q - 1], "right"))
        mid = lo + int(ps[lo:hi].searchsorted(row.P, "right"))
        out[lo:mid] = shift + row.L[ps[lo:mid]] / ps[lo:mid]
        if mid < hi:
            out[mid:hi] = shift + row.tail.log_values(ps[mid:hi]) / ps[mid:hi]
        if q < Q:
            lo = int(ps.searchsorted(b[q - 1], "left"))
            out[hi:lo] = shift + row.root(a[q - 1])
    return out


def construct_minorant(M: WeightMatrix) -> MinorantTrace:
    """Run the switch-index recursion of the module docstring on the rows
    of M labelled 1/q.  The stored prefix of N is as long as the shortest
    row's; switch indices beyond it are located on the symbolic tails.
    """
    rows = _recursion_rows(M)
    Q = len(rows)
    a: list[int] = []
    b: list[int] = []
    certs: dict = {}
    b_prev = 0
    for q in range(1, Q):
        bound = 2.0 ** (-q) / (q + 1)
        tail_next = rows[q + 1].tail
        a_q = _first_index_where(
            lambda X: tail_next.root_sum_tail_upper(float(X)) <= bound,
            b_prev + 1,
        )
        if a_q is None:
            raise TruncationExhausted(q, f"no certified a_{q} found")
        plateau = -math.log(q) + rows[q].root(a_q)
        b_q = _first_index_where(
            lambda X: plateau < -math.log(q + 1) + rows[q + 1].root(X),
            a_q + 1,
        )
        if b_q is None:
            raise TruncationExhausted(q, f"no b_{q} found")
        a.append(a_q)
        b.append(b_q)
        certs[f"q={q}"] = {
            "tail_bound_at_a": tail_next.root_sum_tail_upper(float(a_q)),
            "required": bound,
            "plateau_root_log": plateau,
        }
        b_prev = b_q

    ps = np.arange(1, min(r.P for r in rows.values()) + 1)
    L = np.concatenate(([0.0], ps * _minorant_roots(rows, a, b, ps)))
    N = LogWeightSequence(L, None, 0, "constructed-minorant")

    total = sum(
        (q + 1) * certs[f"q={q}"]["tail_bound_at_a"] for q in range(1, Q)
    ) + 2.0 ** (-(Q - 1))
    return MinorantTrace(tuple(a), tuple(b), N, float(total), Q - 1, certs)


def minorant_checkpoints(trace: MinorantTrace, M: WeightMatrix):
    """Roots of the constructed minorant at the stored prefix plus
    log-spaced indices through every recursion regime, on the rows the
    recursion consumed; used to replay the monotonicity and domination
    invariants far beyond the prefix."""
    a, b = np.array(trace.a), np.array(trace.b)
    ps = np.unique(np.concatenate((
        np.arange(1, trace.N.P + 1),
        np.geomspace(2, 4.0 * b[-1], 400).astype(np.int64),
        a, b, a + 1, b + 1,
    )))
    return ps.astype(float), _minorant_roots(_recursion_rows(M), trace.a, trace.b, ps)


def sandwich_construct(
    N_matrix: WeightMatrix, M_matrix: WeightMatrix
) -> LogWeightSequence:
    """A log-convex non-quasianalytic sequence strictly between two
    matrices: above every row of the first, below every row of the second.

    The candidate interpolant is verified before being returned; an
    unverifiable candidate is an explicit error, never a silent result.
    """
    if not relation_matrix(N_matrix, M_matrix, "triangle").holds:
        raise ClassMembershipFailed("lower matrix is not strictly below upper")
    for lbl, row in zip(M_matrix.labels, M_matrix.rows):
        if not class_nq_verdict(row).holds:
            raise ClassMembershipFailed(f"upper row {lbl:g} not non-quasianalytic")

    n_rows = [lc_minorant(r) for r in N_matrix.rows]
    m_rows = list(M_matrix.rows)
    P = min(min(r.P for r in n_rows), min(r.P for r in m_rows))
    upper_of_lower = np.max([r.L[: P + 1] for r in n_rows], axis=0)
    lower_of_upper = np.min([r.L[: P + 1] for r in m_rows], axis=0)
    q_vals = 0.5 * (upper_of_lower + lower_of_upper)
    q_tail = geometric_mean(n_rows[-1].tail, m_rows[0].tail)
    if q_tail is None:
        interpolant = LogWeightSequence(q_vals, None, 0, "interpolant")
    else:
        interpolant = LogWeightSequence.from_tail(q_tail, P, "interpolant")

    candidates = []
    try:
        trace = construct_minorant(M_matrix)
        p_hull = lc_minorant(trace.N)
        PP = min(P, p_hull.P)
        merged = np.maximum(p_hull.L[: PP + 1], interpolant.L[: PP + 1])
        candidates.append(
            lc_minorant(LogWeightSequence(merged, None, 0, "merged"))
        )
    except (TruncationExhausted, TailNotCertified, ValueError):
        pass
    candidates.append(lc_minorant(interpolant))

    failures = []
    for cand in candidates:
        ok = all(v.holds for v in (check_log_convex(cand), class_nq_verdict(cand)))
        for r in n_rows:
            ok = ok and relation_triangle(r, cand).holds
        for r in m_rows:
            ok = ok and relation_triangle(cand, r).holds
        if ok:
            return cand.with_label("sandwich")
        failures.append(cand.label)
    raise InterpolantUnverified(f"all candidates failed verification: {failures}")
