"""Weight sequences in log domain: derived quantities, growth conditions,
pairwise relations, and the two regularizations.

Everything is stored and compared as L_p = log M_p.  Conditions that are
asymptotic (non-quasianalyticity, moderate growth, root divergence, ...)
are decided exactly when the sequence carries a symbolic tail and reported
Inconclusive otherwise.

A row keeps its values once, as one read-only float64 array (a tuple of
the same values took four times its bytes).  Rows compare and hash by
identity: every memo keys on a row's tail or on its row_serial.

Every row built from a closed-form tail goes through
LogWeightSequence.from_tail, behind one process-wide memo of rows by
(tail, pmax, label), least recently used first.  The memo is bounded by
the log values its rows store (P + 1 each), not by a count of rows: it
evicts the least recently used rows until they store at most
ROW_MEMO_VALUES = 2**21 values (16 MiB of row arrays), and always holds the
row just requested, however long.  Measured with an unbounded memo over
40 benchmark rounds, the working sets are 91 rows of 588 691 values
(matrix-scale), 102 rows of 166 402 (battery) and 15 rows of 4 015
(fourier-lab), so each fits with 3.5x headroom.  A count of rows bounds
neither end: 64 rows held too few of matrix-scale's, and 64 rows at
--pmax 1000000 would pin 512 MB.  The key holds the type and repr of each
of the tail's fields, and the types of pmax and label, as well:
FactorialPower(2, 1.0) equals FactorialPower(2.0, 1.0) but prints "s": 2,
so a shared row would make a report depend on what the process built
before it.

A row also keeps what is computed from it alone and read again, and the
verdict of every check of it against another row.  KEPT names each such
value, and what a sampled function or a weight matrix keeps, with its
bound, what it holds and who reads it, and kept() is the one way to it.
Every two-row engine that reads the rows' arrays, here and in matrices,
is reached only through kept_pair(), which keeps engine(x, y) on x under
y's row_serial, so a pair of rows is checked once while both live; M
precsim N, N precsim M and M triangle N share one such pass over the root
gaps (root_gap_relations).  What a row keeps lives as long as the row, so
the memo's budget and KEPT's bounds together bound it.  Nothing a row
keeps refers back to it or to a row it was checked against, since a row
in a reference cycle would outlive its last user until the garbage
collector ran: the derived rows and the minorant it keeps are rows of
their own, what it keeps about a check against another row is keyed on
that row's row_serial, and a kept verdict's witness holds only numbers
and strings.  So does the outcome of the Fourier harness's hypothesis
gates, which a matrix's first row keeps keyed on the serials of the
matrix's rows and extended rows.  An evicted row comes back as a new row
with a new serial and nothing kept, so what its partners kept under the
old serial is dead.

Array code here is bit-identical to the scalar loops it stands for: numpy
does only + - * /, comparisons and reductions (min, max, argmin) on the
stored values, and transcendentals go through the math module, because
numpy's log, exp and power may round differently in the last bit.
"""
from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import verdicts
from .convex import lower_hull
from .errors import NotLogConvex
from .tails import FactorialPower, Tail, root_gap_limit
from .verdicts import Verdict

LOG_TOL = 1e-12
TAIL_CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LogWeightSequence:
    """A weight sequence truncated at index P, stored as log values.

    tail, when present, is a closed-form rule valid for p >= tail_from and
    must agree with the stored prefix on [tail_from, P].  A non-zero
    tail_from admits finitely perturbed members of a symbolic family.
    log_values may be passed as any flat sequence of floats; it is kept
    once, as a read-only float64 array, which L returns too.  Rows of
    from_tail are shared through the row memo, and every row keeps what
    KEPT names, none of which refers back to it (see the module docstring).
    """

    log_values: np.ndarray
    tail: Tail | None = None
    tail_from: int = 0
    label: str = ""

    def __post_init__(self):
        L = np.array(self.log_values, dtype=float)
        if L.ndim != 1 or L.size < 3:
            raise ValueError("need a flat sequence with at least indices p = 0, 1, 2")
        if not np.all(np.isfinite(L)):
            raise ValueError(f"{self.label or 'row'}: log values must be finite")
        L.flags.writeable = False
        object.__setattr__(self, "log_values", L)
        if self.tail is not None:
            lo = max(self.tail_from, 0)
            ps = np.arange(lo, L.size)
            want = self.tail.log_values(ps)
            err = np.max(np.abs(want - L[lo:]) / np.maximum(1.0, np.abs(want)))
            if err > TAIL_CONSISTENCY_TOL:
                raise ValueError(
                    f"tail disagrees with stored prefix (rel err {err:.3g})"
                )

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_tail(tail: Tail, pmax: int, label: str = "") -> "LogWeightSequence":
        """The row of tail at p = 0..pmax, shared with every equal request
        while it stays in the memo (see the module docstring)."""
        return _row_from_tail(_typed_tail(tail), pmax, label)

    @staticmethod
    def gevrey(s: float, pmax: int = 200) -> "LogWeightSequence":
        return LogWeightSequence.from_tail(FactorialPower(s, 1.0), pmax, f"gevrey:{s:g}")

    @staticmethod
    def factorial_power(s: float, a: float, pmax: int = 200) -> "LogWeightSequence":
        return LogWeightSequence.from_tail(
            FactorialPower(s, a), pmax, f"factorial_power:{s:g},{a:g}"
        )

    # -- accessors ------------------------------------------------------

    @property
    def P(self) -> int:
        return self.log_values.size - 1

    @property
    def L(self) -> np.ndarray:
        """The stored log values as a read-only float array."""
        return self.log_values

    def log_at(self, p: float) -> float:
        """log M_p, using the symbolic tail beyond the stored prefix."""
        if p <= self.P and float(p).is_integer():
            return float(self.L[int(p)])
        if self.tail is None:
            raise IndexError(f"p={p} beyond prefix and no tail")
        return self.tail.log_value(p)

    def root(self, p: float) -> float:
        """(M_p)^{1/p} in log domain, i.e. L_p / p."""
        if p <= 0:
            raise ValueError("roots defined for p >= 1")
        return self.log_at(p) / p

    def is_normalized(self) -> bool:
        L0, L1 = self.L[:2].tolist()
        return abs(L0) <= LOG_TOL and L1 >= -LOG_TOL

    def with_label(self, label: str) -> "LogWeightSequence":
        return replace(self, label=label)

    def to_json(self) -> dict:
        out = {"pmax": self.P, "label": self.label}
        if self.tail is not None:
            out.update(self.tail.to_json())
            if self.tail_from:
                out["tail_from"] = self.tail_from
        else:
            out["log_values"] = self.L.tolist()
        return out


def _typed_tail(tail: Tail) -> tuple:
    """tail with the type and repr of each of its fields: equal tails whose
    fields differ in type (2 and 2.0) or sign of zero print differently."""
    fields = dataclasses.fields(tail) if dataclasses.is_dataclass(tail) else ()
    return (tail, type(tail), tuple(
        (type(v), repr(v)) for v in (getattr(tail, f.name) for f in fields)
    ))


# The row memo's budget in stored log values (P + 1 per row): 16 MiB of
# row arrays, sized in the module docstring.
ROW_MEMO_VALUES = 2**21

# from_tail's rows, least recently used first.  The dict refers to its rows
# and they not back to it, so an evicted row dies with its last user.
_rows: collections.OrderedDict = collections.OrderedDict()


def _row_from_tail(typed_tail: tuple, pmax: int, label: str) -> LogWeightSequence:
    """The memo's row for the key, built on a miss; the rows least recently
    used are then evicted until the rest store at most ROW_MEMO_VALUES log
    values, but the row just built always stays."""
    key = (typed_tail, pmax, type(pmax), label, type(label))
    row = _rows.get(key)
    if row is not None:
        _rows.move_to_end(key)
        return row
    tail = typed_tail[0]
    row = LogWeightSequence(tail.log_values(np.arange(pmax + 1)), tail, 0, label)
    _rows[key] = row
    stored = sum(r.L.size for r in _rows.values())
    while stored > ROW_MEMO_VALUES and len(_rows) > 1:
        stored -= _rows.popitem(last=False)[1].L.size
    return row


# What a row, a sampled function or a weight matrix keeps, by its name in
# the object's __dict__: the bound (how many of the most recently built
# entries it holds, by key; a single value is one entry under the key
# None), what it holds, and who reads it.  A row of from_tail keeps these
# while the row memo holds it; what it keeps about a check against another
# row y is keyed on row_serial(y), is never read again once y leaves the
# memo, and ages out.
KEPT = {
    "_serial": 1,        # row_serial: this row's number in the process
    "_mg": 1,            # check_moderate_growth: prefix constant C and its (j, j + k)
    "_lc_minorant": 1,   # lc_minorant: the minorant row, None when it is the row itself
    "_gap_samples": 8,   # _sampled_gaps: roots at _gap_sample_points(P), by P
    "_envelope": 1,      # weightfuncs.associated_function: envelope, valid_to
    "_conjugate": 1,     # fourier.check_lemma53_i: the envelope's conjugate
    "_derived": 16,      # weightfuncs.sequence_from_weight: rows by (l, pmax, label)
    "_nq_routes": 1,     # quasi.class_nq_verdict: hull and root route verdicts
    # fourier.bump_builder: its Bump by (box, depth).  The bound is the next
    # power of two at or above twice the most distinct keys one row met,
    # counted as for kept_pair below: - / - / 4.
    "_bump": 8,
    # fourier.theorem51_harness: _gates' refusal message or None, on a
    # matrix's first row by the (label, row_serial, extended) of each
    # entry of its Roumieu pool.  Bound as for _bump, from the most
    # distinct pools one first row met: - / - / 15.
    "_gates": 32,
    # On a fourier.SampledFunction, keyed on row serials, so that a function
    # in _function_of's cache keeps alive no row the row memo has evicted.
    # Bounds in rows as for _bump, from the most rows one function met:
    # - / - / 4 with a norm row and - / - / 5 with an answer; _answers
    # holds the three sides of as many rows as _norm_rows.
    "_spectrum": 1,      # compute_spectrum: the Spectrum of its one forward FFT
    # _sups: a (sup, grid sup) per order 0..K_MAX, or the lowest refused
    # order's message, not the exception, which would pin its traceback
    "_sups": 1,
    "_norm_rows": 16,    # _norm_row: fourier_norm's _NormRow by row_serial(row)
    "_answers": 48,      # _side: a row's answer by (side, row_serial(row))
    # On a matrices.WeightMatrix: extender(x) by label x.  Bound as for
    # _bump: 6 / 6 / 3 (_candidates asks for 3 labels up and 3 down).
    "_extended": 16,
    # kept_pair: the verdict of engine(x, y) on x, by row_serial(y).  Each
    # bound is the next power of two at or above twice the most distinct
    # partners one row met, counted with unbounded entries over 40
    # benchmark rounds (seeds 5, 31 and 41 alike): battery / matrix-scale /
    # fourier-lab, "-" where the engine does not run.
    "_root_gaps": 64,          # root_gap_relations: 31 / 26 / -
    "_dc_pair": 16,            # matrices._dc_pair: 6 / 5 / -
    "_mg_pair": 16,            # matrices._mg_pair: 6 / 5 / 5
    "_pseudo_mg": 16,          # matrices._pseudo_mg_pair: 5 / 4 / -
    "_iterated_doubling": 16,  # matrices._iterated_doubling: 5 / 4 / -
}


def kept(obj, name: str, build, key=None):
    """What obj keeps as the KEPT entry name under key, built by build()
    on a miss.  obj's table name holds its KEPT[name] most recently built
    entries and drops the oldest first; a hit does not refresh an entry.
    A build that raises keeps nothing, not even an empty table under name."""
    table = obj.__dict__.get(name) or {}
    if key not in table:
        table[key] = build()
        if len(table) > KEPT[name]:
            del table[next(iter(table))]
        obj.__dict__[name] = table
    return table[key]


_serials = itertools.count()


def row_serial(seq: LogWeightSequence) -> int:
    """A number given to seq on first use and to no other row of the
    process: what one row keeps about a check against another is keyed on
    it, so that it holds no reference to the other row."""
    return kept(seq, "_serial", lambda: next(_serials))


def kept_pair(name: str, engine, x: LogWeightSequence, y: LogWeightSequence):
    """engine(x, y), kept on x as the KEPT entry name under row_serial(y),
    so that x holds no reference to y.  An engine's answer depends on the
    contents of its two rows alone, and its witness holds only numbers
    and strings, so no report shares a mutable part with it."""
    return kept(x, name, lambda: engine(x, y), row_serial(y))


def pair_engine(name: str):
    """Decorator: every call of the two-row engine it wraps is answered
    through kept_pair under the KEPT entry name.  The engine's body stays
    reachable as __wrapped__."""

    def rule(engine):
        @functools.wraps(engine)
        def through_kept_pair(x, y):
            return kept_pair(name, engine, x, y)

        return through_kept_pair

    return rule


# -- growth conditions --------------------------------------------------

def check_log_convex(seq: LogWeightSequence) -> Verdict:
    L = seq.L
    d2 = L[2:] - 2 * L[1:-1] + L[:-2]
    bad = np.nonzero(d2 < -LOG_TOL)[0]
    if bad.size:
        p = int(bad[0]) + 1
        return verdicts.fails(index=p, second_difference=float(d2[bad[0]]))
    if seq.tail is None:
        # convex prefix only; the condition is about all p but every
        # violation would be visible at finite p, so a convex prefix is
        # the best possible finite evidence
        return verdicts.holds(checked_upto=seq.P, prefix_only=True)
    return verdicts.holds(checked_upto=seq.P, min_second_difference=float(d2.min()))


def check_in_LC(seq: LogWeightSequence) -> Verdict:
    if not seq.is_normalized():
        L0, L1 = seq.L[:2].tolist()
        return verdicts.fails(L0=L0, L1=L1)
    lc = check_log_convex(seq)
    if lc.fails:
        return verdicts.fails(**lc.witness)
    if seq.tail is not None:
        asym = seq.tail.asymptote()
        if asym.root_diverges:
            return verdicts.holds(root_growth=asym)
        return verdicts.fails(**verdicts.exp_witness("root_limit", asym.v))
    half = seq.P // 2
    slope = seq.root(seq.P) - seq.root(max(half, 1))
    if slope < 0.1:
        return verdicts.inconclusive(
            "no tail and prefix root slope too small to suggest divergence",
            prefix_root_slope=float(slope),
        )
    return verdicts.holds(prefix_root_slope=float(slope), prefix_only=True)


def _diagonal_minimum(L: np.ndarray) -> bool:
    """Do the stored second differences certify strict convexity?"""
    d2 = L[2:] - 2.0 * L[1:-1] + L[:-2]
    margin = 64.0 * np.finfo(float).eps * max(1.0, float(np.abs(L).max()))
    return bool(d2.size) and bool(d2.min() > margin)


def min_plus_self(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (min,+) self-convolution min_j L_j + L_{m-j} for m = 0..P, and
    the first j attaining each minimum; bit-identical to the O(P^2) loop.

    When every stored second difference exceeds 64*eps*max(1, max|L|) the
    stored values are strictly convex as real numbers, so L_j + L_{m-j}
    strictly decreases towards j = m // 2 by more than the rounding of one
    sum (Murota, Discrete Convex Analysis, 2003).  Rounding is monotone,
    so the float minimum and its first argmin sit there too.  Any other
    input takes the loop.
    """
    L = np.asarray(L, dtype=float)
    if _diagonal_minimum(L):
        m = np.arange(L.size)
        j = m // 2
        return L[j] + L[m - j], j
    mins = np.empty(L.size)
    args = np.empty(L.size, dtype=int)
    for m in range(L.size):
        conv = L[: m + 1] + L[m::-1]     # L_j + L_{m-j}, j = 0..m
        j = int(np.argmin(conv))
        mins[m], args[m] = conv[j], j
    return mins, args


def _mg_prefix_constant(L: np.ndarray) -> tuple[float, int, int]:
    """max over j+k <= P of (L_{j+k} - L_j - L_k)/(j+k), with arg."""
    mins, args = min_plus_self(L)
    vals = (L[1:] - mins[1:]) / np.arange(1, L.size)
    m = int(np.argmax(vals)) + 1     # first maximum, as a strict > scan
    return float(vals[m - 1]), int(args[m]), m


def check_moderate_growth(seq: LogWeightSequence) -> Verdict:
    best, j, m = kept(seq, "_mg", lambda: _mg_prefix_constant(seq.L))
    if seq.tail is None:
        return verdicts.inconclusive(
            "prefix only", **verdicts.exp_witness("prefix_C", best), at=(j, m - j)
        )
    if seq.tail.asymptote().moderate_growth:
        return verdicts.holds(**verdicts.exp_witness("C", best), at=(j, m - j))
    return verdicts.fails(divergent_defect=True, **verdicts.exp_witness("prefix_C", best))


def _mu_remainder(seq: LogWeightSequence) -> float:
    """sum of 1/mu_p over P < p <= P + 2000 from the tail.  exp and the sum
    stay scalar and in order, so the float equals the scalar log_value loop."""
    with np.errstate(invalid="ignore"):
        mu_log = np.diff(seq.tail.log_values(np.arange(seq.P, seq.P + 2001)))
    # inf - inf past the float range, where log mu_p >= log M_p / p is too
    mu_log[np.isnan(mu_log)] = math.inf
    return sum(map(math.exp, (-mu_log).tolist()))


def check_nq(seq: LogWeightSequence) -> Verdict:
    # a steep fall in L (a huge dent) overflows its 1/mu_p; the sum is inf
    with np.errstate(over="ignore"):
        partial = float(np.sum(np.exp(-np.diff(seq.L))))
    if seq.tail is None:
        return verdicts.inconclusive("prefix only", partial_sum=partial)
    if not seq.tail.asymptote().series_converges:
        return verdicts.fails(partial_sum=partial, divergent=True)
    bounds = seq.tail.reciprocal_mu_tail_bounds(seq.P)
    if bounds is not None:
        lo, hi = bounds
        return verdicts.holds(sum_low=partial + lo, sum_high=partial + hi)
    # convergence decided by the asymptotic key; extend the sum far enough
    # that the remainder is visibly small, report without a certified bracket
    return verdicts.holds(sum_low=partial + _mu_remainder(seq), certified_bracket=False)


def _root_series_verdict(seq: LogWeightSequence) -> Verdict:
    """Convergence of sum_p 1/(M_p)^{1/p} via the same bracketing."""
    L = seq.L
    partial = float(np.sum(np.exp(-L[1:] / np.arange(1, L.size))))
    if seq.tail is None:
        return verdicts.inconclusive("prefix only", partial_sum=partial)
    if not seq.tail.asymptote().series_converges:
        return verdicts.fails(partial_sum=partial, divergent=True)
    hi = seq.tail.root_sum_tail_upper(seq.P)
    if hi is not None:
        return verdicts.holds(sum_low=partial, sum_high=partial + hi)
    return verdicts.holds(sum_low=partial, certified_bracket=False)


def check_carleman_consistency(seq: LogWeightSequence) -> Verdict:
    lc = check_log_convex(seq)
    if not lc.holds:
        raise NotLogConvex(seq.label or "input sequence")
    v_mu = check_nq(seq)
    v_root = _root_series_verdict(seq)
    if v_mu.inconclusive or v_root.inconclusive:
        return verdicts.inconclusive(
            "either series undecided at truncation",
            mu_route=v_mu.status.value,
            root_route=v_root.status.value,
        )
    if v_mu.status is v_root.status:
        return verdicts.holds(common=v_mu.status.value)
    return verdicts.fails(mu_route=v_mu.status.value, root_route=v_root.status.value)


def check_beta3(seq: LogWeightSequence) -> Verdict:
    Q_max = 8
    if seq.tail is not None:
        asym = seq.tail.asymptote()
        if asym.root_diverges:
            return verdicts.holds(Q=2, **verdicts.pow2_witness("ratio_limit", asym.mu_order))
        return verdicts.fails(ratio_limit=1.0)
    with np.errstate(over="ignore"):
        mu = np.exp(np.diff(seq.L))
    if not np.all(np.isfinite(mu)):
        return verdicts.inconclusive("mu_p past the float range on the prefix")
    for Q in range(2, Q_max + 1):
        lo = max(1, seq.P // 4)
        ps = [p for p in range(lo, seq.P + 1) if Q * p <= seq.P]
        if not ps:
            break
        worst = min(mu[Q * p - 1] / mu[p - 1] for p in ps)
        if worst >= 1.05:
            return verdicts.holds(Q=Q, min_ratio=float(worst), prefix_only=True)
    return verdicts.inconclusive("no witness Q on prefix", Q_max=Q_max)


# -- pairwise relations -------------------------------------------------

def _prefix_gaps(M: LogWeightSequence, N: LogWeightSequence) -> np.ndarray:
    P = min(M.P, N.P)
    ps = np.arange(1, P + 1)
    return (M.L[1 : P + 1] - N.L[1 : P + 1]) / ps


def _sampled_roots(seq: LogWeightSequence, ps: np.ndarray) -> np.ndarray:
    """seq.root at the integer points ps, read-only: stored values up to
    seq.P, the tail in one log_values call beyond it."""
    stored = ps <= seq.P
    logs = np.empty_like(ps)
    logs[stored] = seq.L[ps[stored].astype(int)]
    logs[~stored] = seq.tail.log_values(ps[~stored])
    logs /= ps
    logs.flags.writeable = False
    return logs


@functools.lru_cache(maxsize=32)
def _gap_sample_points(P: int) -> np.ndarray:
    """About 40 integer points from P + 1 to 1e6, geometrically spaced.
    For P >= 1e6 they run down from P + 1 to 1e6, so all but P + 1 fall
    inside the prefix."""
    ps = np.unique(np.round(np.geomspace(P + 1, 1e6, 40)))
    ps.flags.writeable = False
    return ps


def _gap_samples(seq: LogWeightSequence, P: int) -> np.ndarray:
    """seq's roots at _gap_sample_points(P), kept on seq."""
    return kept(seq, "_gap_samples", lambda: _sampled_roots(seq, _gap_sample_points(P)), P)


def _sampled_gaps(M: LogWeightSequence, N: LogWeightSequence) -> list[float]:
    """Root gaps of M over N at the samples beyond the shared prefix (both
    tails required), in sample order.

    A tail may overflow far out (RootPowerDualTail for a tiny exponent);
    such points are left out, since inf - inf is no gap."""
    P = min(M.P, N.P)
    rM, rN = _gap_samples(M, P), _gap_samples(N, P)
    both = np.isfinite(rM) & np.isfinite(rN)
    return (rM[both] - rN[both]).tolist()


def _preceq_verdict(prefix_sup: float, g: float | None, sampled_sup: float) -> Verdict:
    """M precsim N from the sup of M's prefix gaps over N, the root-gap
    limit g and the sup of the sampled gaps."""
    if g is None:
        return verdicts.inconclusive(
            "no tail on one side", **verdicts.exp_witness("prefix_sup", prefix_sup)
        )
    if g == math.inf:
        return verdicts.fails(gap_limit="+inf")
    sup = max(prefix_sup, g, sampled_sup)
    return verdicts.holds(**verdicts.exp_witness("C1", sup), gap_limit=g)


@pair_engine("_root_gaps")
def root_gap_relations(
    M: LogWeightSequence, N: LogWeightSequence
) -> tuple[Verdict, Verdict, Verdict]:
    """M precsim N, N precsim M and M triangle N from one pass over the root
    gaps log(M_p/N_p)/p.  N's gaps over M are the exact negatives of M's
    over N, since subtraction and division by p > 0 round
    sign-symmetrically, so each backward sup is minus a forward inf.  Only
    the sign of a zero sup can differ, and a report shows a sup only
    through exp."""
    gaps = _prefix_gaps(M, N)
    g, g_rev = root_gap_limit(M.tail, N.tail), root_gap_limit(N.tail, M.tail)
    # g is None exactly when g_rev is, and then no verdict reads samples;
    # Python max and min keep the scalar loop's first extremum
    sampled = [] if g is None else _sampled_gaps(M, N)
    forward = _preceq_verdict(float(gaps.max()), g, max(sampled, default=-math.inf))
    backward = _preceq_verdict(-float(gaps.min()), g_rev, -min(sampled, default=math.inf))
    if g is None:
        triangle = verdicts.inconclusive("no tail on one side", last_gap=float(gaps[-1]))
    elif g == -math.inf:
        triangle = verdicts.holds(gap_limit="-inf")
    else:
        triangle = verdicts.fails(**verdicts.exp_witness("ratio_limit", g))
    return forward, backward, triangle


def relation_preceq(M: LogWeightSequence, N: LogWeightSequence) -> Verdict:
    """M precsim N: sup_p (M_p/N_p)^{1/p} finite."""
    return root_gap_relations(M, N)[0]


def relation_triangle(M: LogWeightSequence, N: LogWeightSequence) -> Verdict:
    """M strictly smaller: (M_p/N_p)^{1/p} -> 0."""
    return root_gap_relations(M, N)[2]


def relation_approx(M: LogWeightSequence, N: LogWeightSequence) -> Verdict:
    """M precsim N and N precsim M.  The conjunction is built per call: its
    witness nests dicts, which a kept verdict would share with every
    report."""
    forward, backward, _ = root_gap_relations(M, N)
    return verdicts.conjunction({"forward": forward, "backward": backward})


# -- regularizations ----------------------------------------------------

def lc_minorant(seq: LogWeightSequence) -> LogWeightSequence:
    """Log-convex minorant: lower convex hull of the points (p, L_p).

    seq keeps it, or None when seq is its own minorant: then seq itself is
    returned, so what callers cached on it stays shared."""

    def minorant():
        ps = np.arange(seq.P + 1)
        hull = lower_hull(np.column_stack((ps.astype(float), seq.L)))
        out = np.interp(ps, hull[:, 0], hull[:, 1])
        if np.max(np.abs(out - seq.L)) <= LOG_TOL:
            return None
        return LogWeightSequence(
            out,
            seq.tail,
            seq.P if seq.tail is not None else 0,
            f"lc({seq.label})" if seq.label else "",
        )

    return kept(seq, "_lc_minorant", minorant) or seq


def increasing_root_minorant(seq: LogWeightSequence) -> LogWeightSequence:
    """Largest minorant whose root sequence (M_k)^{1/k} is non-decreasing."""
    P = seq.P
    roots = seq.L[1:] / np.arange(1, P + 1)
    suffix = np.minimum.accumulate(roots[::-1])[::-1]
    if seq.tail is not None:
        # the suffix infimum also ranges over the symbolic continuation
        probe = min(seq.tail.root(p) for p in (P + 1, 2 * P + 2, 10 * P + 10))
        asym = seq.tail.asymptote()
        if not asym.root_diverges:
            probe = min(probe, asym.v)
        suffix = np.minimum(suffix, probe)
    out = np.concatenate(([0.0], suffix * np.arange(1, P + 1)))
    out[0] = seq.L[0] if abs(seq.L[0]) <= LOG_TOL else 0.0
    if np.max(np.abs(out - seq.L)) <= LOG_TOL:
        return seq
    # only a finite stretch changed; the symbolic continuation still applies
    # from P on whenever the final stored value survived
    tail_holds = seq.tail is not None and abs(out[-1] - seq.L[-1]) <= LOG_TOL
    return LogWeightSequence(
        out,
        seq.tail if tail_holds else None,
        P if tail_holds else 0,
        f"I({seq.label})" if seq.label else "",
    )


def lc_minorant_oracle(seq: LogWeightSequence) -> np.ndarray:
    """Independent pairwise interpolation formula for the hull (O(P^3)).

    M^lc_j = min over k <= j <= l of M_k^{(l-j)/(l-k)} M_l^{(j-k)/(l-k)},
    in log domain.  Used only as a test oracle for lc_minorant.
    """
    L = seq.L
    P = seq.P
    out = np.array(L, dtype=float)
    for j in range(P + 1):
        best = L[j]
        for k in range(0, j + 1):
            for l in range(j, P + 1):
                if l == k:
                    continue
                w = (j - k) / (l - k)
                best = min(best, (1 - w) * L[k] + w * L[l])
        out[j] = best
    return out
