"""Weight matrices: one-parameter families of weight sequences, their
quantified growth conditions, mutual relations, the subsequence-root
extension chain, and the consistency dossiers tying all of it together.

Quantifiers over the index set are resolved by finite search over the
represented labels.  Parametric families additionally carry an extender
(label -> row) so existential searches may draw on labels beyond the
represented extremes; every witness records whether it was extended.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import verdicts
from .errors import ClassMembershipFailed, DomainExceeded
from .sequences import (
    LogWeightSequence,
    check_beta3,
    check_in_LC,
    check_moderate_growth,
    kept,
    lc_minorant,
    min_plus_self,
    pair_engine,
    relation_approx,
    relation_preceq,
    relation_triangle,
)
from .tails import FactorialPower, root_gap_limit
from .verdicts import Verdict
from .weightfuncs import (
    WeightFunction,
    associated_function,
    check_omega_conditions,
    relation_omega,
    sequence_from_weight,
)

CONDITION_NAMES = (
    "dc_roumieu", "dc_beurling",
    "mg_roumieu", "mg_beurling",
    "L_roumieu", "L_beurling",
    "strict_roumieu", "strict_beurling",
    "BR_roumieu", "BR_beurling",
    "Cw_roumieu", "H", "Cw_beurling",
)


@dataclass(frozen=True)
class WeightMatrix:
    labels: tuple[float, ...]
    rows: tuple[LogWeightSequence, ...]
    extender: object = None          # callable label -> LogWeightSequence
    label: str = ""

    def __post_init__(self):
        if len(self.labels) != len(self.rows):
            raise ValueError("labels and rows must align")
        if any(b <= a for a, b in zip(self.labels, self.labels[1:])):
            raise ValueError("labels must be strictly increasing")

    def row(self, x: float) -> LogWeightSequence:
        for lbl, r in zip(self.labels, self.rows):
            if lbl == x:
                return r
        if self.extender is not None:
            return self._extend(x)
        raise KeyError(f"label {x} not represented and no extender")

    def _extend(self, x: float) -> LogWeightSequence:
        """extender(x), kept on the matrix as the KEPT entry _extended
        under x; dataclasses.replace starts a matrix that keeps none."""
        return kept(self, "_extended", lambda: self.extender(x), x)

    def is_standard_lc(self) -> bool:
        """Every row in LC and non-decreasing, the rows pointwise ordered in x."""
        def ordered(lo: LogWeightSequence, hi: LogWeightSequence) -> bool:
            n = min(lo.P, hi.P) + 1
            return bool(np.all(hi.L[:n] - lo.L[:n] >= -1e-12))

        return all(
            check_in_LC(r).holds and bool(np.all(np.diff(r.L) >= -1e-12))
            for r in self.rows
        ) and all(map(ordered, self.rows, self.rows[1:]))

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "labels": list(self.labels),
            "rows": {f"{l:g}": r.to_json() for l, r in zip(self.labels, self.rows)},
        }


def build_gevrey_matrix(s_values, pmax: int = 200) -> WeightMatrix:
    """Rows p -> p!**(s+1) for the given strictly increasing s values."""
    s_values = tuple(float(s) for s in s_values)
    if any(s <= 0 for s in s_values):
        raise ValueError("Gevrey indices must be positive")

    def extend(s: float) -> LogWeightSequence:
        return LogWeightSequence.from_tail(
            FactorialPower(s + 1.0, 1.0), pmax, f"gevrey-row:{s:g}"
        )

    rows = tuple(extend(s) for s in s_values)
    return WeightMatrix(s_values, rows, extend, "gevrey-matrix")


def build_omega_matrix(w: WeightFunction, l_values, pmax: int = 200) -> WeightMatrix:
    """Rows j -> exp((1/l) phi*(l*j)) of a weight function."""
    conds = check_omega_conditions(w)
    for name in ("omega0", "omega3", "omega4"):
        if not conds[name].holds:
            raise ClassMembershipFailed(f"{w.label}: {name} not certified")
    l_values = tuple(float(l) for l in l_values)

    def extend(l: float) -> LogWeightSequence:
        return sequence_from_weight(w, l, pmax)

    rows = tuple(extend(l) for l in l_values)
    return WeightMatrix(l_values, rows, extend, f"omega-matrix({w.label})")


# -- pairwise inequality engines ---------------------------------------
#
# An engine that reads the rows' arrays is answered once per pair of rows
# (sequences.pair_engine).

@pair_engine("_dc_pair")
def _dc_pair(x: LogWeightSequence, y: LogWeightSequence) -> Verdict:
    """Is sup_j (L^x_{j+1} - L^y_j)/(j+1) finite?"""
    P = min(x.P, y.P) - 1
    js = np.arange(0, P + 1)
    prefix = float(np.max((x.L[1 : P + 2] - y.L[: P + 1]) / (js + 1)))
    g = root_gap_limit(x.tail, y.tail)
    if g is None:
        return verdicts.inconclusive("no tail", prefix_sup=prefix)
    if g == -math.inf:
        return verdicts.holds(**verdicts.exp_witness("C", max(prefix, 0.0)))
    if g == math.inf:
        return verdicts.fails(gap_limit="+inf")
    if x.tail.asymptote().shift_defect_unbounded:
        return verdicts.fails(unbounded_shift_defect=True)
    return verdicts.holds(**verdicts.exp_witness("C", max(prefix, g) + 0.1))


@pair_engine("_mg_pair")
def _mg_pair(x: LogWeightSequence, y: LogWeightSequence) -> Verdict:
    """Is sup_{j,k} (L^x_{j+k} - L^y_j - L^y_k)/(j+k) finite?"""
    P = min(x.P, y.P)
    mins, _ = min_plus_self(y.L[: P + 1])
    best = float(np.max((x.L[1 : P + 1] - mins[1:]) / np.arange(1, P + 1)))
    if x.tail is None or y.tail is None:
        return verdicts.inconclusive("no tail", **verdicts.exp_witness("prefix_C", best))
    if x.tail.asymptote().mixed_moderate_growth(y.tail.asymptote()):
        return verdicts.holds(**verdicts.exp_witness("C", max(best, 0.0) + 0.1))
    return verdicts.fails(**verdicts.exp_witness("prefix_C", best), divergent_diagonal=True)


def _absorbs(**witness):
    """The pair test: does y absorb every power C**p over x (root gap of x
    over y to -inf)?  It holds with witness; a fails witness is dropped
    by _exists."""
    def pair(x: LogWeightSequence, y: LogWeightSequence) -> Verdict:
        g = root_gap_limit(x.tail, y.tail)
        if g is None:
            return verdicts.inconclusive("no tail")
        if g == -math.inf:
            return verdicts.holds(**witness)
        return verdicts.fails(gap_limit=g)

    return pair


# -- quantifier helpers -------------------------------------------------

def _exists(labelled) -> Verdict:
    """Some y: labelled yields (y, verdict at y, extended_flag) and is read
    up to the first verdict that holds, so a generator stops there."""
    open_reason = None
    searched = []
    for lbl, v, ext in labelled:
        if v.holds:
            wit = dict(v.witness)
            wit["y"] = lbl
            if ext:
                wit["extended_label"] = True
            return verdicts.holds(**wit)
        if v.inconclusive:
            open_reason = v.reason
        searched.append(lbl)
    if open_reason is not None:
        return verdicts.inconclusive(open_reason)
    return verdicts.fails(searched=searched)


def _forall(items, pred) -> Verdict:
    parts = {}
    for lbl, row in items:
        parts[f"x={lbl:g}"] = pred(lbl, row)
    return verdicts.conjunction(parts)


def _candidates(M: WeightMatrix, direction: str | None = None):
    """Search pool for an existential label: all rows, then extended ones.

    direction "up" appends labels beyond the maximum, "down" below the
    minimum; both only when the matrix carries an extender and has rows.
    """
    pool = [(lbl, row, False) for lbl, row in zip(M.labels, M.rows)]
    if direction is not None and M.extender is not None and M.labels:
        if direction == "up":
            top = M.labels[-1]
            extra = [top + 1, 2 * top + 1, 4 * top + 2]
        else:
            bot = M.labels[0]
            extra = [bot / 2, bot / 4, bot / 8]
        pool += [(lbl, M._extend(lbl), True) for lbl in extra]
    return pool


def _forall_exists(M: WeightMatrix, pool, pred) -> Verdict:
    """For every row x of M some candidate y in pool with pred(x, y)."""
    return _forall(
        zip(M.labels, M.rows),
        lambda lbl, row: _exists((ly, pred(row, y), ext) for ly, y, ext in pool),
    )


def _roumieu(M: WeightMatrix, pair) -> Verdict:
    """For every row x a row y above it with pair(x, y)."""
    return _forall_exists(M, _candidates(M, "up"), pair)


def _beurling(M: WeightMatrix, pair) -> Verdict:
    """For every row x a row y below it with pair(y, x)."""
    return _forall_exists(M, _candidates(M, "down"), lambda x, y: pair(y, x))


_VARIANTS = {"roumieu": _roumieu, "beurling": _beurling}

# pair tests of the conditions quantified as forall x exists y
_PAIRS = {
    "dc": _dc_pair,
    "mg": _mg_pair,     # Beurling: x_1 = x_2 = the larger row suffices, rows are ordered
    "L": _absorbs(absorbs="every C"),
    # the root gap of y over x unbounded: Scale.gap_limit is antisymmetric
    "strict": _absorbs(sup="+inf"),
    "BR": relation_triangle,
}


# -- matrix conditions --------------------------------------------------

def check_matrix_condition(M: WeightMatrix, condition: str) -> Verdict:
    if condition not in CONDITION_NAMES:
        raise ValueError(f"unknown condition: {condition}")
    family, _, variant = condition.rpartition("_")
    if family in _PAIRS:
        return _VARIANTS[variant](M, _PAIRS[family])

    # analytic-containment conditions via the root behaviour of m = M/p!
    gaps = [
        (lbl, root_gap_limit(row.tail, FactorialPower(1.0, 1.0)))
        for lbl, row in zip(M.labels, M.rows)
    ]
    if condition == "Cw_roumieu":
        for lbl, g in gaps:
            if g is not None and g > -math.inf:
                return verdicts.holds(x=lbl, m_root_liminf_log=g)
        if any(g is None for _, g in gaps):
            return verdicts.inconclusive("rows without tails")
        return verdicts.fails()

    def row_verdict(lbl, g):
        if g is None:
            return verdicts.inconclusive("no tail")
        if condition == "H":
            return verdicts.holds(gap=g) if g > -math.inf else verdicts.fails()
        return verdicts.holds() if g == math.inf else verdicts.fails(gap=g)

    return _forall(gaps, row_verdict)


def relation_matrix(M: WeightMatrix, N: WeightMatrix, kind: str) -> Verdict:
    if kind == "roumieu_preceq":
        return _forall_exists(M, _candidates(N), relation_preceq)
    if kind == "beurling_preceq":
        return _forall_exists(N, _candidates(M), lambda y, x: relation_preceq(x, y))
    if kind in ("roumieu_approx", "beurling_approx"):
        preceq = kind.replace("approx", "preceq")
        return verdicts.conjunction(
            {
                "forward": relation_matrix(M, N, preceq),
                "backward": relation_matrix(N, M, preceq),
            }
        )
    if kind == "triangle":
        parts = {}
        for lx, rx in zip(M.labels, M.rows):
            for ly, ry in zip(N.labels, N.rows):
                parts[f"{lx:g}<|{ly:g}"] = relation_triangle(rx, ry)
        return verdicts.conjunction(parts)
    raise ValueError(f"unknown relation kind: {kind}")


# -- multi-index construction -------------------------------------------

@dataclass(frozen=True)
class MultiIndexChain:
    base: WeightMatrix
    steps: tuple[float, ...] = ()
    current: WeightMatrix = None

    def __post_init__(self):
        if self.current is None:
            object.__setattr__(self, "current", self.base)


def multi_index_step(chain: MultiIndexChain, l: float) -> MultiIndexChain:
    """Apply the row transform M -> (j -> exp((1/l) phi*_{omega_M}(l j)))."""
    cur = chain.current
    new_rows = []
    for row in cur.rows:
        w = associated_function(row)
        pmax = min(row.P, int(math.floor(row.P / l)))
        if pmax < 2:
            raise DomainExceeded(f"step l={l} leaves fewer than 3 indices")
        new_rows.append(
            sequence_from_weight(w, l, pmax, f"{row.label};{l:g}")
        )
    new_mat = WeightMatrix(
        cur.labels, tuple(new_rows), None, f"{cur.label};step{l:g}"
    )
    return MultiIndexChain(chain.base, chain.steps + (float(l),), new_mat)


def check_omega_stability(chain: MultiIndexChain) -> Verdict:
    """omega of every extended row stays equivalent to omega of its base row."""
    parts = {}
    for lbl, base_row, cur_row in zip(
        chain.base.labels, chain.base.rows, chain.current.rows
    ):
        parts[f"x={lbl:g}"] = relation_omega(
            associated_function(base_row), associated_function(cur_row), "sim"
        )
    return verdicts.conjunction(parts)


def integer_step_identity_error(chain: MultiIndexChain) -> float:
    """max |L^{x;l}_j - L^x_{jl}/l| over rows and jl within range.

    Only meaningful when all steps are integers and base rows log-convex.
    The products j*l and the maximum are exact as in the scalar loop over
    j, and since l > 0 the loop's stop at the first jl > P is a prefix.
    """
    l = 1.0
    for s in chain.steps:
        l *= s
    err = 0.0
    for base_row, cur_row in zip(chain.base.rows, chain.current.rows):
        hull = lc_minorant(base_row)
        jl = np.arange(cur_row.P + 1) * l
        on_grid = (jl <= hull.P) & (jl == np.floor(jl))
        if on_grid.any():
            want = hull.L[jl[on_grid].astype(np.intp)] / l
            err = max(err, float(np.max(np.abs(cur_row.L[on_grid] - want))))
    return err


# -- pseudo moderate growth ---------------------------------------------

def min_convolution(seq: LogWeightSequence) -> LogWeightSequence:
    """N_p = min_{0<=q<=p} M_q * M_{p-q} in log domain."""
    mins, _ = min_plus_self(seq.L)
    return LogWeightSequence(mins, None, 0, f"minconv({seq.label})")


def min_convolution_omega_gap(seq: LogWeightSequence) -> float:
    """max |omega_N(t) - 2 omega_M(t)| at 256 points of the resolved band."""
    N = min_convolution(seq)
    wM = associated_function(lc_minorant(seq))
    wN = associated_function(lc_minorant(N))
    half = associated_function(
        lc_minorant(
            LogWeightSequence(seq.L[: seq.P // 2 + 1], None, 0, "")
        )
    )
    s_hi = half.valid_to
    s = np.linspace(0.0, s_hi, 256)
    return float(np.max(np.abs(wN.phi(s) - 2.0 * wM.phi(s))))


def _pseudo_mg_grid_ok(w_small: WeightFunction, w_big: WeightFunction, H: float) -> bool:
    """2*omega_small(t) <= omega_big(H t) + H on the shared resolved band."""
    s_hi = min(w_small.valid_to, w_big.valid_to) - math.log(H)
    if s_hi <= 1.0:
        return False
    s = np.linspace(0.0, s_hi, 200)
    lhs = 2.0 * w_small.phi(s)
    rhs = w_big.phi(s + math.log(H)) + H
    return bool(np.all(lhs <= rhs + 1e-9))


@pair_engine("_pseudo_mg")
def _pseudo_mg_pair(x: LogWeightSequence, y: LogWeightSequence) -> Verdict:
    """Some H = 2**k on the grid with 2*omega_y(t) <= omega_x(H t) + H."""
    small, big = associated_function(y), associated_function(x)
    for k in range(0, 16):
        H = 2.0 ** k
        if _pseudo_mg_grid_ok(small, big, H):
            return verdicts.holds(H=H)
    return verdicts.inconclusive("no H on grid within resolved band")


def check_pseudo_mg(M: WeightMatrix, variant: str = "roumieu") -> Verdict:
    """Associated-function form of the mixed moderate-growth condition,
    cross-validated against the sequence-level verdict."""
    if variant not in _VARIANTS:
        raise ValueError(variant)
    omega_side = _VARIANTS[variant](M, _pseudo_mg_pair)
    seq_side = check_matrix_condition(M, f"mg_{variant}")
    agree = (
        omega_side.inconclusive
        or seq_side.inconclusive
        or omega_side.status is seq_side.status
    )
    if not agree:
        return verdicts.fails(
            omega_side=omega_side.status.value, sequence_side=seq_side.status.value
        )
    if omega_side.inconclusive and seq_side.inconclusive:
        return verdicts.inconclusive("both routes undecided")
    decided = seq_side if not seq_side.inconclusive else omega_side
    return verdicts.Verdict(
        decided.status,
        {
            "omega_side": omega_side.status.value,
            "sequence_side": seq_side.status.value,
        },
        "",
    )


# -- stability of the construction --------------------------------------

STABILITY_STEPS = (2.0, 3.0, 0.5, 0.25)


def check_stability_theorem(M: WeightMatrix) -> Verdict:
    """The extension chain produces an equivalent matrix whenever the
    mixed moderate-growth conditions hold: one step for each l in
    STABILITY_STEPS.  The second_extension parts compare the l = 2 step
    with a second l = 2 step on it.  That is not equivalence in general:
    on power_index rows each step multiplies kappa by 2**(beta - 1)."""
    if not M.is_standard_lc():
        raise ClassMembershipFailed("matrix is not standard log-convex")
    parts = {
        "mg_roumieu": check_matrix_condition(M, "mg_roumieu"),
        "mg_beurling": check_matrix_condition(M, "mg_beurling"),
    }
    base_chain = MultiIndexChain(M)
    steps = {}
    for l in STABILITY_STEPS:
        ext = steps[l] = multi_index_step(base_chain, l)
        parts[f"approx_roumieu:l={l:g}"] = relation_matrix(
            M, ext.current, "roumieu_approx"
        )
        parts[f"approx_beurling:l={l:g}"] = relation_matrix(
            M, ext.current, "beurling_approx"
        )
    once = steps[2.0]
    twice = multi_index_step(once, 2.0)
    parts["second_extension_roumieu"] = relation_matrix(
        once.current, twice.current, "roumieu_approx"
    )
    parts["second_extension_beurling"] = relation_matrix(
        once.current, twice.current, "beurling_approx"
    )
    parts["iterated_doubling"] = _iterated_doubling(M.rows[0], M.rows[-1])
    return verdicts.conjunction(parts)


@pair_engine("_iterated_doubling")
def _iterated_doubling(x: LogWeightSequence, y: LogWeightSequence) -> Verdict:
    """The iterated inequality for the Beurling direction, doubling twice:
    some H = 2**k on the grid with 4*omega_x(t) <= omega_y(H**2 t) + 3H."""
    wx, wy = associated_function(x), associated_function(y)
    for k in range(0, 16):
        H = 2.0 ** k
        s_hi = min(wx.valid_to, wy.valid_to) - 2 * math.log(H)
        if s_hi <= 1.0:
            break
        s = np.linspace(0.0, s_hi, 128)
        if bool(np.all(4.0 * wx.phi(s) <= wy.phi(s + 2 * math.log(H)) + 3 * H)):
            return verdicts.holds(k=2)
    return verdicts.inconclusive("no H on grid")


def check_L_consequences(M: WeightMatrix) -> Verdict:
    """If every power C^k can be absorbed between rows, then the doubled
    argument of the associated functions and the mixed-index domination
    are controlled as well."""
    L_verdict = check_matrix_condition(M, "L_roumieu")

    # (a) omega_{M^y}(2t) = O(omega_{M^x}(t)) with searched y
    def doubling(x, y):
        wx, wy = associated_function(x), associated_function(y)
        s_hi = min(wx.valid_to, wy.valid_to) - math.log(2)
        if s_hi <= 1.0:
            return verdicts.inconclusive("no resolved band")
        s = np.linspace(1.0, s_hi, 128)
        ratio = wy.phi(s + math.log(2)) / np.maximum(wx.phi(s), 1e-12)
        r = float(np.max(ratio[wx.phi(s) > 1.0])) if np.any(wx.phi(s) > 1.0) else 1.0
        cls_ok = relation_omega(wx, wy, "preceq").holds
        if cls_ok:
            return verdicts.holds(grid_ratio=r)
        return verdicts.fails(grid_ratio=r)

    # (b) mixed-index domination with moderate h and inner steps a, b
    def mixed(lbl, row):
        base = MultiIndexChain(
            WeightMatrix((lbl,), (row,), None, "single")
        )
        rows_a = {a: multi_index_step(base, a).current.rows[0] for a in (1.0, 2.0)}

        def dominated(xa, h):
            def pred(y_row):
                wy = associated_function(y_row)
                for b in (1.0, 2.0):
                    try:
                        yb = sequence_from_weight(wy, b, min(y_row.P, int(y_row.P // b)))
                    except DomainExceeded:
                        continue
                    g = root_gap_limit(xa.tail, yb.tail)
                    if g is not None and g < -math.log(h):
                        P = min(xa.P, yb.P)
                        js = np.arange(1, P + 1)
                        D = float(
                            np.max(js * math.log(h) + xa.L[1 : P + 1] - yb.L[1 : P + 1])
                        )
                        return verdicts.holds(b=b, **verdicts.exp_witness("D", max(D, 0.0)))
                return verdicts.fails()

            return _exists((ly, pred(y), ext) for ly, y, ext in _candidates(M, "up"))

        sub = {}
        for a in (1.0, 2.0):
            for h in (2.0, 4.0):
                sub[f"a={a:g},h={h:g}"] = dominated(rows_a[a], h)
        return verdicts.conjunction(sub)

    return verdicts.implication(
        L_verdict,
        lambda: verdicts.conjunction(
            {
                "L": L_verdict,
                "omega_doubling": _roumieu(M, doubling),
                "mixed_index": _forall(zip(M.labels, M.rows), mixed),
            }
        ),
    )


def check_BR_triangle(M: WeightMatrix) -> Verdict:
    """Beyond-all-rows relation transfers to the associated functions and
    back under the stated hypotheses."""
    br = check_matrix_condition(M, "BR_roumieu")
    per_row_mg = _forall(
        zip(M.labels, M.rows), lambda lbl, row: check_moderate_growth(row)
    )
    omega_side = _roumieu(
        M,
        lambda x, y: relation_omega(
            associated_function(x), associated_function(y), "triangle"
        ),
    )
    per_row_o1 = _forall(
        zip(M.labels, M.rows),
        lambda lbl, row: check_omega_conditions(associated_function(row))["omega1"],
    )
    return verdicts.conjunction(
        {
            "forward": verdicts.implication(
                verdicts.conjunction({"BR": br, "mg": per_row_mg}), lambda: omega_side
            ),
            "converse": verdicts.implication(
                verdicts.conjunction({"omega1": per_row_o1, "triangle": omega_side}),
                lambda: br,
            ),
        }
    )


# -- the equivalence dossier --------------------------------------------

def comparison_report(obj) -> dict:
    """Full consistency dossier for a sequence or a weight function."""
    report: dict = {"verdicts": {}}
    V = report["verdicts"]
    if isinstance(obj, LogWeightSequence):
        report["input"] = {"kind": "sequence", **obj.to_json()}
        if not check_in_LC(obj).holds:
            raise ClassMembershipFailed("sequence not in the admissible class")
        V["beta3"] = check_beta3(obj)
        V["mg"] = check_moderate_growth(obj)
        w = associated_function(obj)
        l_set = (1.0, 2.0, 0.5)
        rows = {}
        for l in l_set:
            pmax = int(min(obj.P, obj.P // max(l, 1.0)))
            rows[l] = sequence_from_weight(w, l, max(pmax, 2))
        dev = float(np.max(np.abs(rows[1.0].L - obj.L[: rows[1.0].P + 1])))
        V["reconstruction"] = (
            verdicts.holds(max_log_dev=dev) if dev <= 1e-9 else verdicts.fails()
        )
        for l in l_set:
            V[f"approx:l={l:g}"] = relation_approx(obj, rows[l])
            V[f"mg:l={l:g}"] = check_moderate_growth(rows[l])
            V[f"omega_sim:l={l:g}"] = relation_omega(
                w, associated_function(rows[l]), "sim"
            )
            V[f"beta3:l={l:g}"] = check_beta3(rows[l])
    elif isinstance(obj, WeightFunction):
        report["input"] = {"kind": "weight", **obj.to_json()}
        conds = check_omega_conditions(obj)
        for name in ("omega0", "omega3", "omega4"):
            if not conds[name].holds:
                raise ClassMembershipFailed(f"{name} not certified")
        V["omega6"] = conds["omega6"]
        mat = build_omega_matrix(obj, (1.0, 2.0, 4.0), pmax=120)
        pair_parts = {}
        for i, (l1, r1) in enumerate(zip(mat.labels, mat.rows)):
            for l2, r2 in list(zip(mat.labels, mat.rows))[i + 1 :]:
                pair_parts[f"{l1:g}~{l2:g}"] = relation_approx(r1, r2)
        all_pairs = verdicts.conjunction(pair_parts)
        row_mg = _forall(
            zip(mat.labels, mat.rows), lambda lbl, row: check_moderate_growth(row)
        )
        V["rows_pairwise_approx"] = all_pairs
        V["rows_mg"] = row_mg
        if conds["omega6"].holds:
            consistent = all_pairs.holds and row_mg.holds
        elif conds["omega6"].fails:
            consistent = not all_pairs.holds
        else:
            consistent = True
        V["equivalence_consistent"] = (
            verdicts.holds() if consistent else verdicts.fails()
        )
    else:
        raise TypeError("expected a sequence or a weight function")
    report["status"] = verdicts.combined_status(
        v for k, v in V.items() if k not in ("omega6", "rows_pairwise_approx", "rows_mg")
    ).value
    return report
