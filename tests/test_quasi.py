"""Quasianalyticity verdicts and the constructive minorant."""

import copy
import math

import numpy as np
import pytest

from wcalc import quasi, verdicts

from wcalc.catalogue import (
    gevrey,
    matrix_battery,
    matrix_from_rows,
    perturbed_gevrey,
    prefix_only,
    sequence_battery,
)
from wcalc.errors import (
    ClassMembershipFailed,
    InterpolantUnverified,
    RoutesDisagree,
    TailNotCertified,
)
from wcalc.matrices import WeightMatrix, build_gevrey_matrix
from wcalc.quasi import (
    class_nq_verdict,
    construct_minorant,
    matrix_nq_verdict,
    minorant_checkpoints,
    sandwich_construct,
    small_terms_diagnostic,
)
from wcalc.sequences import (
    LogWeightSequence,
    _root_series_verdict,
    check_log_convex,
    check_nq,
    increasing_root_minorant,
    lc_minorant,
    relation_triangle,
)
from wcalc.serialize import dumps_canonical


# -- route agreement -----------------------------------------------------

def test_routes_never_disagree_on_battery():
    # RoutesDisagree would propagate out of class_nq_verdict
    for name, seq in sequence_battery().items():
        v = class_nq_verdict(seq)
        assert v.status.value in ("holds", "fails", "inconclusive"), name


def test_route_verdict_records_both_routes():
    v = class_nq_verdict(gevrey(2.0))
    assert v.holds
    assert v.witness["hull_route"]["status"] == "holds"
    assert v.witness["root_route"]["status"] == "holds"


def test_route_verdict_on_non_convex_input():
    # regularizations differ but must agree on the class verdict
    v = class_nq_verdict(perturbed_gevrey(2.0))
    assert v.holds


def ref_class_nq_verdict(seq):
    # both routes computed on every call, as before rows kept them
    via_hull = check_nq(lc_minorant(seq))
    via_roots = _root_series_verdict(increasing_root_minorant(seq))
    if via_hull.status is not via_roots.status:
        if not (via_hull.inconclusive or via_roots.inconclusive):
            raise RoutesDisagree(seq.label)
    decided = via_hull if not via_hull.inconclusive else via_roots
    return verdicts.Verdict(
        decided.status,
        {"hull_route": via_hull.to_json(), "root_route": via_roots.to_json()},
        decided.reason,
    )


def _fresh(seq):
    # an equal row built apart, outside the row memo, with nothing kept yet
    return LogWeightSequence(seq.L, seq.tail, seq.tail_from, seq.label)


def test_nq_routes_kept_on_rows_leave_verdicts_unchanged():
    for name, seq in sequence_battery().items():
        want = dumps_canonical(ref_class_nq_verdict(_fresh(seq)).to_json())
        row = _fresh(seq)
        for _ in range(2):       # cold, then from the kept routes
            assert dumps_canonical(class_nq_verdict(row).to_json()) == want, name
        assert "_nq_routes" in row.__dict__


def test_nq_verdicts_share_no_dict_with_the_kept_routes():
    row = _fresh(gevrey(2.0))
    v = class_nq_verdict(row)
    want = copy.deepcopy(v.to_json())
    v.witness["hull_route"]["witness"]["sum_low"] = -1.0
    v.witness["root_route"]["witness"].clear()
    v.witness.clear()
    assert class_nq_verdict(row).to_json() == want


def test_routes_that_disagree_are_not_kept(monkeypatch):
    row = _fresh(gevrey(2.0))
    monkeypatch.setattr(quasi, "check_nq", lambda seq: verdicts.fails(divergent=True))
    for _ in range(2):
        with pytest.raises(RoutesDisagree):
            class_nq_verdict(row)
    assert "_nq_routes" not in row.__dict__
    monkeypatch.undo()
    assert class_nq_verdict(row).holds and "_nq_routes" in row.__dict__


def test_matrix_nq_quantifiers():
    two = matrix_from_rows((gevrey(1.0), gevrey(2.0)), (1.0, 2.0))
    assert matrix_nq_verdict(two, "roumieu").holds
    assert matrix_nq_verdict(two, "beurling").fails
    allnq = matrix_from_rows((gevrey(1.5), gevrey(2.0)), (1.0, 2.0))
    assert matrix_nq_verdict(allnq, "beurling").holds
    with pytest.raises(ValueError):
        matrix_nq_verdict(two, "mixed")


def ref_matrix_nq_status(M, variant):
    # the status rule of the per-row loops that _exists and _forall replaced
    per_row = [class_nq_verdict(row) for row in M.rows]
    first, second = ("holds", "fails") if variant == "roumieu" else ("fails", "holds")
    if any(v.status.value == first for v in per_row):
        return first
    if any(v.inconclusive for v in per_row):
        return "inconclusive"
    return second


def test_matrix_nq_quantifiers_keep_the_row_rule():
    matrices = dict(matrix_battery())
    for n in range(2, 6):
        matrices[f"gevrey x{n}"] = build_gevrey_matrix([0.5 * k for k in range(1, n + 1)])
    matrices["criterion 07"] = matrix_from_rows((gevrey(1.0), gevrey(2.0)), (1.0, 2.0))
    matrices["prefix_only below"] = matrix_from_rows((prefix_only(2.0), gevrey(2.0)), (1.0, 2.0))
    matrices["prefix_only above"] = matrix_from_rows((gevrey(1.0), prefix_only(2.0)), (1.0, 2.0))
    seen = {"roumieu": set(), "beurling": set()}
    for name, M in matrices.items():
        for variant in seen:
            got = matrix_nq_verdict(M, variant).status.value
            assert got == ref_matrix_nq_status(M, variant), (name, variant)
            seen[variant].add(got)
    assert all(s == {"holds", "fails", "inconclusive"} for s in seen.values()), seen


def test_matrix_nq_checks_every_row_past_one_that_holds(monkeypatch):
    first, disagreeing = _fresh(gevrey(2.0)), _fresh(gevrey(3.0))
    check = quasi.check_nq
    monkeypatch.setattr(
        quasi, "check_nq",
        lambda seq: verdicts.fails(divergent=True) if seq is disagreeing else check(seq),
    )
    M = matrix_from_rows((first, disagreeing), (1.0, 2.0))
    assert class_nq_verdict(first).holds
    for variant in ("roumieu", "beurling"):
        with pytest.raises(RoutesDisagree):
            matrix_nq_verdict(M, variant)


def test_small_terms_diagnostic():
    assert small_terms_diagnostic(gevrey(2.0)).holds
    with pytest.raises(ClassMembershipFailed):
        small_terms_diagnostic(gevrey(1.0))


# -- the minorant recursion ----------------------------------------------

@pytest.fixture(scope="module")
def four_row_trace():
    labels = tuple(1.0 / q for q in (4, 3, 2, 1))
    rows = tuple(gevrey(1 + 1.0 / q, 5000) for q in (4, 3, 2, 1))
    M = matrix_from_rows(rows, labels)
    return M, construct_minorant(M)


def test_minorant_completes_three_steps(four_row_trace):
    _, trace = four_row_trace
    assert trace.q_completed >= 3
    assert len(trace.a) == 3 and len(trace.b) == 3


def test_minorant_switch_indices_interleave(four_row_trace):
    _, trace = four_row_trace
    prev_b = 0
    for a_q, b_q in zip(trace.a, trace.b):
        assert prev_b < a_q < b_q
        prev_b = b_q


def test_minorant_tail_sum_bound(four_row_trace):
    _, trace = four_row_trace
    assert trace.tail_sum_bound <= 1.0
    # each certificate respects its per-step budget
    for q in range(1, trace.q_completed + 1):
        c = trace.certificates[f"q={q}"]
        assert c["tail_bound_at_a"] <= c["required"]


def test_minorant_roots_nondecreasing_far_beyond_prefix(four_row_trace):
    M, trace = four_row_trace
    ps, roots = minorant_checkpoints(trace, M)
    assert ps[-1] > 4e11
    assert np.all(np.diff(roots) >= -1e-12)


def test_minorant_dominated_by_scaled_rows(four_row_trace):
    # root_N(p) <= -log q + root of row 1/q from the q-th regime onward
    M, trace = four_row_trace
    ps, roots = minorant_checkpoints(trace, M)
    for q in range(1, 5):
        row = M.row(1.0 / q)
        lo = trace.b[q - 2] if q >= 2 else 1
        sel = ps >= lo
        bound = -math.log(q) + np.array([row.root(p) for p in ps[sel]])
        assert np.max(roots[sel] - bound) <= 1e-9, q


def test_minorant_prefix_is_below_smallest_row(four_row_trace):
    M, trace = four_row_trace
    small = M.row(1.0)     # label 1/1: the largest q... the first regime row
    N = trace.N
    ps = np.arange(1, N.P + 1)
    assert np.all(N.L[1:] / ps <= np.array([small.root(p) for p in ps]) + 1e-12)


def minorant_root(rows: dict, a, b, p: float) -> float:
    """Root of the constructed sequence at any index p >= 1.

    rows maps q = 1..Q to the rows the recursion consumed; a and b are its
    switch indices.  Row q, shifted down by log q, is followed from b_{q-1}
    to a_q and then held flat until b_q.
    """
    Q = len(rows)
    for q in range(1, Q):
        lo = b[q - 2] if q >= 2 else 0
        if lo <= p <= a[q - 1]:
            return -math.log(q) + rows[q].root(p)
        if a[q - 1] < p < b[q - 1]:
            return -math.log(q) + rows[q].root(a[q - 1])
    return -math.log(Q) + rows[Q].root(p)     # p >= b_{Q-1}


def assert_the_scalar_rule(M, trace):
    # N's prefix and the checkpoint roots against minorant_root, the scalar
    # switch rule kept here as the reference
    rows = {q: M.row(1.0 / q) for q in range(1, trace.q_completed + 2)}
    want = np.zeros(trace.N.P + 1)
    for p in range(1, trace.N.P + 1):
        want[p] = p * minorant_root(rows, trace.a, trace.b, p)
    assert np.array_equal(trace.N.L.view(np.uint64), want.view(np.uint64))
    ps, roots = minorant_checkpoints(trace, M)
    want = np.array([minorant_root(rows, trace.a, trace.b, int(p)) for p in ps])
    assert np.array_equal(roots.view(np.uint64), want.view(np.uint64))


# The battery's quasi construct configurations (ROW_PATTERNS x k x
# CONSTRUCT_PMAX in perfbench/workloads.py) but for 1+1/q**2 at k >= 3,
# which stops at a_2, and each at pmax 200 too.  Between them they put
# every piece of the recursion inside the prefix, and past it on the tails.
_EXPONENTS = {"1+1/q": lambda q: 1 + 1 / q, "1+2/q": lambda q: 1 + 2 / q,
              "1+1/q**2": lambda q: 1 + 1 / q**2, "1.5+1/q": lambda q: 1.5 + 1 / q}


@pytest.mark.parametrize("pattern, Q, pmax", [
    (pattern, Q, pmax) for pattern in _EXPONENTS for Q in (2, 3, 4)
    if not (pattern == "1+1/q**2" and Q >= 3)
    for pmax in (200, 2000, 3000, 4000, 5000)
])
def test_minorant_prefix_is_bit_identical_to_the_loop(pattern, Q, pmax):
    qs = range(Q, 0, -1)
    M = matrix_from_rows(tuple(gevrey(_EXPONENTS[pattern](q), pmax) for q in qs),
                         tuple(1.0 / q for q in qs))
    assert_the_scalar_rule(M, construct_minorant(M))


def test_minorant_far_past_the_prefix_is_bit_identical_to_the_loop(four_row_trace):
    M, trace = four_row_trace
    assert trace.b[-1] > 1e11          # the checkpoints run on the tails
    assert_the_scalar_rule(M, trace)


def test_checkpoints_replay_the_rows_the_recursion_consumed():
    # a row that is not log-convex: the recursion follows its log-convex
    # minorant, and so do the checkpoints
    dented = perturbed_gevrey(2.0, 2.0, pmax=400)
    assert not check_log_convex(dented).holds
    M = matrix_from_rows((gevrey(1.5, 400), dented), (0.5, 1.0))
    trace = construct_minorant(M)
    ps, roots = minorant_checkpoints(trace, M)
    P = trace.N.P
    assert np.array_equal(ps[:P], np.arange(1, P + 1))
    assert np.array_equal(ps[:P] * roots[:P], trace.N.L[1:])
    # a label the recursion reads as 1/1 is read so by the checkpoints too
    M = matrix_from_rows((gevrey(1.5, 400), gevrey(2.0, 400)), (0.5, 1 + 1e-13))
    trace = construct_minorant(M)
    ps, roots = minorant_checkpoints(trace, M)
    assert np.array_equal(ps[:P] * roots[:P], trace.N.L[1:])


def test_minorant_requires_certified_tails():
    rows = tuple(
        gevrey(1 + 1.0 / q, 200).with_label(f"r{q}") for q in (2, 1)
    )
    bare = tuple(
        type(r)(r.log_values, None, 0, r.label) for r in rows
    )
    M = matrix_from_rows(bare, (0.5, 1.0))
    with pytest.raises(TailNotCertified):
        construct_minorant(M)


def test_minorant_refuses_quasianalytic_rows():
    # a p! row has no convergent root series, hence no tail certificate
    M = matrix_from_rows((gevrey(1.0, 200), gevrey(1.0, 200)), (0.5, 1.0))
    with pytest.raises((ClassMembershipFailed, TailNotCertified)):
        construct_minorant(M)


# -- the sandwich --------------------------------------------------------

def test_sandwich_worked_example():
    lo = matrix_from_rows((gevrey(1.05, 300), gevrey(1.1, 300)), (1.0, 2.0))
    hi = matrix_from_rows((gevrey(4.0 / 3.0, 300), gevrey(1.5, 300)), (1.0, 2.0))
    cand = sandwich_construct(lo, hi)
    assert check_log_convex(cand).holds
    assert check_nq(cand).holds
    for r in lo.rows:
        assert relation_triangle(r, cand).holds
    for r in hi.rows:
        assert relation_triangle(cand, r).holds
    # interpolated exponent lies strictly between the families
    assert cand.tail.s == pytest.approx(0.5 * (1.1 + 4.0 / 3.0))


def test_sandwich_rejects_non_separated_input():
    lo = matrix_from_rows((gevrey(2.0, 200),), (1.0,))
    hi = matrix_from_rows((gevrey(1.5, 200),), (1.0,))
    with pytest.raises(ClassMembershipFailed):
        sandwich_construct(lo, hi)


def test_sandwich_requires_nq_upper_rows():
    lo = matrix_from_rows((gevrey(1.0, 200),), (1.0,))
    # wait: lower row p! is fine as a lower bound, but upper rows must be nq
    hi = matrix_from_rows((gevrey(1.0, 200).with_label("qa"),), (1.0,))
    with pytest.raises(ClassMembershipFailed):
        sandwich_construct(lo, hi)
