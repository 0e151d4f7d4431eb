"""Weight sequences: regularizations, growth conditions, relations."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcalc import cli, sequences, serialize, verdicts
from wcalc.catalogue import (
    bumpy_prefix,
    factorial_power,
    gevrey,
    perturbed_gevrey,
    power_index,
    prefix_only,
)
from wcalc.errors import DomainExceeded, NotLogConvex
from wcalc.matrices import build_gevrey_matrix, check_matrix_condition, check_pseudo_mg
from wcalc.quasi import matrix_nq_verdict
from wcalc.serialize import dumps_canonical
from wcalc.sequences import (
    KEPT,
    LogWeightSequence,
    check_beta3,
    check_carleman_consistency,
    check_in_LC,
    check_log_convex,
    check_moderate_growth,
    check_nq,
    increasing_root_minorant,
    lc_minorant,
    lc_minorant_oracle,
    min_plus_self,
    relation_approx,
    relation_pair,
    relation_preceq,
    relation_triangle,
)
from wcalc.sequences import (
    _diagonal_minimum,
    _gap_sample_points,
    keep,
    _mg_prefix_constant,
    _sampled_roots,
)
from wcalc.tails import FactorialPower, PowerIndex
from wcalc.weightfuncs import associated_function, sequence_from_weight


@st.composite
def log_sequences(draw):
    n = draw(st.integers(min_value=3, max_value=50))
    vals = [0.0] + draw(
        st.lists(
            st.floats(min_value=-3.0, max_value=30.0),
            min_size=n - 1, max_size=n - 1,
        )
    )
    return LogWeightSequence(tuple(vals), None, 0, "random")


# -- regularizations -----------------------------------------------------

@given(log_sequences())
@settings(max_examples=500, deadline=None)
def test_lc_minorant_matches_pairwise_oracle(seq):
    hull = lc_minorant(seq)
    oracle = lc_minorant_oracle(seq)
    assert np.max(np.abs(hull.L - oracle)) <= 1e-9


@given(log_sequences())
@settings(max_examples=200, deadline=None)
def test_minorant_sandwich(seq):
    # L^lc <= L^I <= L pointwise
    hull = lc_minorant(seq).L
    incr = increasing_root_minorant(seq).L
    assert np.all(hull <= incr + 1e-9)
    assert np.all(incr <= seq.L + 1e-9)


@given(log_sequences())
@settings(max_examples=200, deadline=None)
def test_regularizations_idempotent(seq):
    hull = lc_minorant(seq)
    assert np.max(np.abs(lc_minorant(hull).L - hull.L)) <= 1e-12
    incr = increasing_root_minorant(seq)
    assert np.max(np.abs(increasing_root_minorant(incr).L - incr.L)) <= 1e-12


@given(log_sequences())
@settings(max_examples=200, deadline=None)
def test_increasing_root_minorant_has_increasing_roots(seq):
    mi = increasing_root_minorant(seq)
    ps = np.arange(1, mi.P + 1)
    roots = mi.L[1:] / ps
    assert np.all(np.diff(roots) >= -1e-12)


def test_hull_worked_example():
    seq = LogWeightSequence((0.0, 2.0, 1.0, 3.0), None, 0, "ex")
    assert np.allclose(lc_minorant(seq).L, [0.0, 0.5, 1.0, 3.0])


def test_increasing_root_worked_example():
    seq = LogWeightSequence((0.0, 3.0, 2.0), None, 0, "ex")
    # roots 3, 1 -> suffix min gives 1, 1 -> L = (0, 1, 2)
    assert np.allclose(increasing_root_minorant(seq).L, [0.0, 1.0, 2.0])


def test_lc_fixed_point_on_convex_input():
    g = LogWeightSequence.gevrey(2.0, 100)
    h = lc_minorant(g)
    assert np.array_equal(h.log_values, g.log_values) and h.tail == g.tail


def test_lc_minorant_is_kept_on_the_row(monkeypatch):
    calls = []
    hull = sequences.lower_hull

    def counted(points):
        calls.append(len(points))
        return hull(points)

    monkeypatch.setattr(sequences, "lower_hull", counted)
    convex = LogWeightSequence(gevrey(2.0, 300).L, None, 0, "convex")
    assert lc_minorant(convex) is convex and len(calls) == 1
    assert lc_minorant(convex) is convex and len(calls) == 1
    # a row that is not its own minorant keeps the minorant row
    bumpy = bumpy_prefix()
    first, second = lc_minorant(bumpy), lc_minorant(bumpy)
    assert len(calls) == 2 and first is second
    assert first is not bumpy and not np.array_equal(first.L, bumpy.L)
    assert check_log_convex(first).holds and lc_minorant(first) is first


def test_keep_holds_the_latest_built_entries():
    d, built = {}, []

    def build(k):
        built.append(k)
        return None if k % 2 else k      # None is a value like any other

    for k in range(6):
        assert keep(d, k, 4, lambda: build(k)) == (None if k % 2 else k)
    assert list(d) == [2, 3, 4, 5] and built == list(range(6))
    # a hit builds nothing and does not refresh the entry
    assert keep(d, 3, 4, lambda: build(-1)) is None and built == list(range(6))
    keep(d, 6, 4, lambda: build(6))
    assert list(d) == [3, 4, 5, 6]

    def refuse():
        raise ValueError("no value")

    with pytest.raises(ValueError):
        keep(d, 7, 4, refuse)
    assert list(d) == [3, 4, 5, 6]


def test_rows_keep_only_kept_names_within_their_bounds():
    M = build_gevrey_matrix((1, 2, 3), 1000)
    g = gevrey(1.5, 2000)
    check_pseudo_mg(M)
    check_matrix_condition(M, "mg_roumieu")
    matrix_nq_verdict(M, "roumieu")
    relation_approx(M.rows[0], g)
    # more derived rows than g may keep
    derived = [sequence_from_weight(associated_function(g), 1.0, p)
               for p in range(100, 100 * (KEPT["_derived"] + 3), 100)]
    fields = {f.name for f in dataclasses.fields(LogWeightSequence)}
    for row in (*M.rows, g, *derived):
        names = set(row.__dict__) - fields
        assert names <= set(KEPT), row.label
        for name in names:
            if KEPT[name] > 1:
                assert len(row.__dict__[name]) <= KEPT[name], (row.label, name)
    assert len(g.__dict__["_derived"]) == KEPT["_derived"]
    assert {"_gap_samples", "_pseudo_mg", "_mg_pair", "_nq_routes"} <= set(M.rows[0].__dict__)


@st.composite
def tail_rows(draw):
    """(tail, pmax, label) of a gevrey, factorial_power or power_index row."""
    pmax = draw(st.integers(2, 16000))
    fam = draw(st.sampled_from(("gevrey", "factorial_power", "power_index")))
    if fam == "gevrey":
        s = draw(st.floats(0.5, 4.0))
        return FactorialPower(s, 1.0), pmax, f"gevrey:{s:g}"
    if fam == "factorial_power":
        s, a = draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 3.0))
        return FactorialPower(s, a), pmax, f"factorial_power:{s:g},{a:g}"
    k, b = draw(st.floats(0.1, 4.0)), draw(st.floats(1.0, 3.0))
    return PowerIndex(k, b), pmax, f"power_index({k:g},{b:g})"


@given(tail_rows())
@settings(max_examples=40, deadline=None)
def test_rows_compare_by_content_and_come_from_one_memo(case):
    tail, pmax, label = case
    row = LogWeightSequence.from_tail(tail, pmax, label)
    assert LogWeightSequence.from_tail(tail, pmax, label) is row
    fresh = LogWeightSequence(tail.log_values(np.arange(pmax + 1)), tail, 0, label)
    assert fresh is not row and fresh == row and hash(fresh) == hash(row)
    assert fresh.to_json() == row.to_json()
    assert not row.L.flags.writeable and row.log_values is row.L
    with pytest.raises(ValueError):
        row.L[0] = 1.0
    # L_0 = 0.0 in all three families; -0.0 equals it, so hashes alike
    neg = np.array(row.L)
    neg[0] = -0.0
    for t in (tail, None):
        a = LogWeightSequence(neg, t, 0, label)
        b = LogWeightSequence(row.L, t, 0, label)
        assert math.copysign(1.0, a.L[0]) == -1.0
        assert a == b and hash(a) == hash(b)
    assert row != row.with_label(label + "'")


def test_row_memo_keys_on_field_types():
    # FactorialPower(2, 1.0) == FactorialPower(2.0, 1.0), but they print
    # "s": 2 and "s": 2.0, so each gets its own row
    whole = LogWeightSequence.from_tail(FactorialPower(2, 1.0), 50, "g")
    real = LogWeightSequence.from_tail(FactorialPower(2.0, 1.0), 50, "g")
    assert whole is not real and whole == real
    assert type(whole.to_json()["s"]) is int and type(real.to_json()["s"]) is float
    # and the types of pmax and label are in the key too
    assert LogWeightSequence.from_tail(FactorialPower(2.0, 1.0), np.int64(50), "g") is not real
    assert LogWeightSequence.from_tail(FactorialPower(2.0, 1.0), 50, "g") is real


@pytest.fixture
def small_row_memo(monkeypatch):
    """An empty row memo with a budget of 300 stored log values."""
    monkeypatch.setattr(sequences, "ROW_MEMO_VALUES", 300)
    sequences._row_from_tail.cache_clear()
    yield lambda: [(row.label, row.P) for row in sequences._rows.values()]
    sequences._row_from_tail.cache_clear()


def _memo_row(label, pmax):
    return LogWeightSequence.from_tail(FactorialPower(2.0, 1.0), pmax, label)


def test_row_memo_evicts_least_recent_by_stored_values(small_row_memo):
    # 100 rows of 3 values fill the budget exactly: a count does not bound it
    tiny = [_memo_row(f"t{i}", 2) for i in range(100)]
    assert len(small_row_memo()) == 100
    assert all(_memo_row(f"t{i}", 2) is tiny[i] for i in range(100))
    # one row of 100 values evicts the 34 least recently used tiny rows
    _memo_row("a", 99)
    assert small_row_memo() == [(f"t{i}", 2) for i in range(34, 100)] + [("a", 99)]
    assert _memo_row("t0", 2) is not tiny[0] and _memo_row("t99", 2) is tiny[99]


def test_row_memo_hit_moves_the_row_to_the_newest_end(small_row_memo):
    a, b, c = (_memo_row(lbl, 99) for lbl in "abc")
    assert _memo_row("a", 99) is a
    assert small_row_memo() == [("b", 99), ("c", 99), ("a", 99)]
    _memo_row("d", 2)                   # 303 values: b, now the oldest, goes
    assert small_row_memo() == [("c", 99), ("a", 99), ("d", 2)]
    assert _memo_row("a", 99) is a and _memo_row("c", 99) is c
    assert _memo_row("b", 99) is not b


def test_row_memo_holds_a_row_over_budget_alone(small_row_memo):
    _memo_row("a", 99)
    big = _memo_row("big", 999)
    assert big.P == 999 and small_row_memo() == [("big", 999)]
    assert _memo_row("big", 999) is big
    _memo_row("b", 2)
    assert small_row_memo() == [("b", 2)]


def test_row_memo_cache_clear_empties_it(small_row_memo):
    a = _memo_row("a", 99)
    sequences._row_from_tail.cache_clear()
    assert small_row_memo() == []
    assert _memo_row("a", 99) is not a and small_row_memo() == [("a", 99)]


def test_scalar_readers_return_python_types():
    row = LogWeightSequence((0.5, 1.0, 3.0), None, 0, "raised")
    assert type(row.log_at(1)) is float and type(row.is_normalized()) is bool
    wit = check_in_LC(row).witness
    assert type(wit["L0"]) is float and type(wit["L1"]) is float
    assert all(type(v) is float for v in row.to_json()["log_values"])


def test_perturbed_family_keeps_tail_after_regularization():
    seq = perturbed_gevrey(2.0)
    hull = lc_minorant(seq)
    assert hull.tail is not None
    assert check_log_convex(hull).holds


# -- condition verdicts --------------------------------------------------

def test_conditions_on_gevrey():
    for s, nq_expected in ((1.0, False), (1.5, True), (2.0, True), (3.0, True)):
        g = LogWeightSequence.gevrey(s, 200)
        assert check_log_convex(g).holds
        assert check_in_LC(g).holds
        assert check_moderate_growth(g).holds
        v = check_nq(g)
        assert v.holds == nq_expected and v.fails == (not nq_expected)
        assert check_beta3(g).holds


def test_nq_bracket_gevrey2_contains_basel_constant():
    g = LogWeightSequence.gevrey(2.0, 200)
    w = check_nq(g).witness
    assert w["sum_low"] <= math.pi ** 2 / 6 <= w["sum_high"]
    assert w["sum_high"] - w["sum_low"] < 0.02


def test_nq_fails_power_of_two_weights():
    # M_p = 2^p: mu constant, sum 1/mu diverges
    from wcalc.tails import FactorialPower

    seq = LogWeightSequence.from_tail(FactorialPower(0.0, 2.0), 100, "2^p")
    assert check_nq(seq).fails


def test_carleman_consistency_requires_log_convex():
    with pytest.raises(NotLogConvex):
        check_carleman_consistency(bumpy_prefix())


def test_carleman_consistency_on_catalogue():
    from wcalc.catalogue import sequence_battery

    for name, seq in sequence_battery().items():
        if check_log_convex(seq).holds and seq.tail is not None:
            assert check_carleman_consistency(seq).holds, name


def test_moderate_growth_witness_constant_is_valid():
    g = LogWeightSequence.gevrey(1.0, 120)
    v = check_moderate_growth(g)
    C = v.witness["C"]
    L = g.L
    for j in range(0, 60):
        for k in range(0, 60):
            assert L[j + k] <= (j + k) * math.log(C) + L[j] + L[k] + 1e-9


def test_mg_fails_power_index():
    from wcalc.catalogue import power_index

    assert check_moderate_growth(power_index(1.0, 2.0)).fails


def test_prefix_only_conditions_are_undecided_or_prefix_based():
    seq = prefix_only(2.0)
    assert check_log_convex(seq).holds       # prefix evidence only
    v = check_nq(seq)
    assert v.inconclusive and "partial_sum" in v.witness


def test_beta3_fails_constant_quotient():
    from wcalc.tails import FactorialPower

    seq = LogWeightSequence.from_tail(FactorialPower(0.0, 3.0), 100, "3^p")
    assert check_beta3(seq).fails


# -- relations -----------------------------------------------------------

def test_relation_orderings():
    g1 = LogWeightSequence.gevrey(1.0, 150)
    g2 = LogWeightSequence.gevrey(2.0, 150)
    assert relation_preceq(g1, g2).holds
    assert relation_preceq(g2, g1).fails
    assert relation_triangle(g1, g2).holds
    assert relation_triangle(g2, g1).fails
    assert relation_approx(g1, g2).fails


def test_relation_approx_scaled_family():
    from wcalc.tails import FactorialPower

    g = LogWeightSequence.gevrey(2.0, 150)
    h = LogWeightSequence.from_tail(FactorialPower(2.0, 3.0), 150, "scaled")
    assert relation_preceq(g, h).holds
    assert relation_approx(g, h).holds
    assert relation_triangle(g, h).fails


def test_relation_reflexive():
    g = LogWeightSequence.gevrey(1.5, 100)
    assert relation_preceq(g, g).holds
    assert relation_approx(g, g).holds


def _relation_reports(M, N):
    return repr((relation_preceq(M, N).to_json(), relation_approx(M, N).to_json()))


@given(tail_rows(), tail_rows())
@settings(max_examples=40, deadline=None)
def test_root_gap_samples_leave_reports_unchanged(m, n):
    M, N = (LogWeightSequence.from_tail(*case) for case in (m, n))
    for row in (M, N):
        row.__dict__.pop("_gap_samples", None)
    cold = _relation_reports(M, N)
    assert _relation_reports(M, N) == cold
    # rows built outside the row memo start with no samples
    fresh = [LogWeightSequence(t.log_values(np.arange(p + 1)), t, 0, label)
             for t, p, label in (m, n)]
    assert _relation_reports(*fresh) == cold
    P = min(M.P, N.P)
    for row in (M, N, *fresh):
        kept = row.__dict__.get("_gap_samples", {})
        assert len(kept) <= 8 and not any(a.flags.writeable for a in kept.values())
        if P in kept:
            want = _sampled_roots(row, _gap_sample_points(P))
            assert kept[P].tobytes() == want.tobytes()


def _pair_rows():
    """Rows of every kind a relation meets: tails of both asymptote kinds,
    no tail, the steep power_index(2, 3), rows derived at l in {0.5, 1, 2}
    as the dossier derives them, and equal rows built apart."""
    base = [
        gevrey(1.0), gevrey(1.5, 1000), gevrey(2.0), gevrey(2.0, 1000),
        gevrey(3.0, 4000), factorial_power(2.0, 3.0), factorial_power(1.5, 2.0),
        power_index(1.0, 2.0), power_index(0.5, 1.0), power_index(2.0, 3.0),
        prefix_only(2.0), prefix_only(1.5),
    ]
    rows = list(base)
    for seq in base[:7] + base[10:11]:
        w = associated_function(seq)
        for l in (0.5, 1.0, 2.0):
            try:
                rows.append(sequence_from_weight(w, l, max(int(seq.P // max(l, 1.0)), 2)))
            except DomainExceeded:
                pass
    rows += [LogWeightSequence(r.L, r.tail, 0, r.label) for r in (base[2], base[10])]
    return rows


def test_relation_pair_equals_both_directions():
    # N's gaps over M are the exact negatives of M's over N; the pair must
    # give the reports of relation_preceq both ways and their conjunction
    rows = _pair_rows()
    for M in rows:
        for N in rows:
            forward, backward = relation_preceq(M, N), relation_preceq(N, M)
            approx = verdicts.conjunction({"forward": forward, "backward": backward})
            want = [v.to_json() for v in (forward, backward, approx)]
            got = [v.to_json() for v in relation_pair(M, N)]
            assert dumps_canonical(got) == dumps_canonical(want), (M.label, N.label)
            assert dumps_canonical(relation_approx(M, N)) == dumps_canonical(approx)


@pytest.mark.parametrize("left, right", [
    ("gevrey:2", "gevrey:2"), ("gevrey:1.5", "gevrey:2"), ("factorial_power:2,3", "gevrey:2"),
    ("power_index:1,2", "gevrey:3"), ("prefix_only:2", "gevrey:2"),
    ("power_index:2,3", "prefix_only:2"),
])
def test_matrix_compare_report_equals_three_call_composition(left, right, monkeypatch):
    reports = []
    monkeypatch.setattr(serialize, "write_report", lambda path, rep: reports.append(rep) or "")
    argv = ["matrix", "compare", "--left", left, "--right", right, "--pmax", "300"]
    assert cli.main(argv) == 0
    [report] = reports
    del report["config"]
    a, b = (cli.parse_sequence(d, 300) for d in (left, right))
    want = {
        "preceq": relation_preceq(a, b).to_json(),
        "preceq_rev": relation_preceq(b, a).to_json(),
        "triangle": relation_triangle(a, b).to_json(),
        "approx": verdicts.conjunction(
            {"forward": relation_preceq(a, b), "backward": relation_preceq(b, a)}
        ).to_json(),
    }
    assert dumps_canonical(report) == dumps_canonical(want)


def test_root_gap_samples_keep_the_eight_latest_prefix_lengths():
    g = LogWeightSequence(gevrey(2.0, 3000).L, FactorialPower(2.0, 1.0), 0, "g")
    lengths = list(range(100, 1300, 100))
    first = relation_preceq(gevrey(1.5, lengths[0]), g).to_json()
    for P in lengths:
        relation_preceq(gevrey(1.5, P), g)
    kept = g.__dict__["_gap_samples"]
    assert list(kept) == lengths[-8:]
    assert repr(relation_preceq(gevrey(1.5, lengths[0]), g).to_json()) == repr(first)
    assert list(kept) == lengths[-7:] + lengths[:1]


# -- bookkeeping ---------------------------------------------------------

def test_tail_consistency_enforced():
    from wcalc.tails import FactorialPower

    with pytest.raises(ValueError):
        LogWeightSequence((0.0, 0.5, 3.0, 9.0), FactorialPower(2.0), 0, "bad")


def test_json_round_trip():
    g = LogWeightSequence.gevrey(2.0, 50)
    d = g.to_json()
    assert d["family"] == "gevrey" and d["s"] == 2.0 and d["pmax"] == 50
    d2 = prefix_only(2.0).to_json()
    assert len(d2["log_values"]) == 61


# -- (min,+) kernel --------------------------------------------------------

def _loop_min_plus(L):
    """Reference: the O(P^2) scan the kernel replaces."""
    mins, args = [], []
    for m in range(L.size):
        conv = L[: m + 1] + L[m::-1]
        j = int(np.argmin(conv))
        mins.append(conv[j])
        args.append(j)
    return np.array(mins), np.array(args)


def _loop_mg_prefix_constant(L):
    """Reference: _mg_prefix_constant as a strict > scan over the loop."""
    best, bj, bm = -math.inf, 0, 1
    for m in range(1, L.size):
        conv = L[: m + 1] + L[m::-1]
        j = int(np.argmin(conv))
        val = (L[m] - conv[j]) / m
        if val > best:
            best, bj, bm = float(val), j, m
    return best, bj, bm


def _assert_kernel_matches_loop(L):
    mins, args = min_plus_self(L)
    want_mins, want_args = _loop_min_plus(L)
    assert np.array_equal(mins.view(np.uint64), want_mins.view(np.uint64))
    assert np.array_equal(args, want_args)


@pytest.mark.parametrize("seq", [
    gevrey(1.0, 4000),
    gevrey(3.0, 4000),
    gevrey(1.5, 1000),
    factorial_power(2.0, 3.0, 4000),
    factorial_power(1.0, 0.5, 1000),
    power_index(0.25, 1.25, 4000),
    power_index(2.0, 3.0, 1000),
    # the catalogue's dents are too shallow to break convexity
    perturbed_gevrey(2.0),
    perturbed_gevrey(1.5, 0.2),
], ids=lambda s: s.label)
def test_min_plus_kernel_diagonal_path_matches_loop(seq):
    assert _diagonal_minimum(seq.L)
    _assert_kernel_matches_loop(seq.L)
    assert _mg_prefix_constant(seq.L) == _loop_mg_prefix_constant(seq.L)


@pytest.mark.parametrize("seq", [
    perturbed_gevrey(2.0, amplitude=2.0, pmax=400),
    bumpy_prefix(),
    LogWeightSequence(0.75 * np.arange(300), None, 0, "linear"),
    power_index(1.0, 1.0, 300),
], ids=lambda s: s.label)
def test_min_plus_kernel_falls_back_to_loop(seq):
    assert not _diagonal_minimum(seq.L)
    _assert_kernel_matches_loop(seq.L)
    assert _mg_prefix_constant(seq.L) == _loop_mg_prefix_constant(seq.L)


@st.composite
def barely_convex(draw):
    """Convex sequences whose second differences sit near rounding level."""
    n = draw(st.integers(min_value=3, max_value=120))
    scale = draw(st.sampled_from([1e-16, 1e-14, 1e-12, 1e-9, 1e-3]))
    d2 = draw(st.lists(st.floats(0.0, 100.0), min_size=n - 2, max_size=n - 2))
    slope0 = draw(st.floats(-50.0, 50.0))
    level = draw(st.sampled_from([0.0, 1.0, 1e4, 1e8]))
    slopes = slope0 + np.cumsum([0.0, *(scale * np.array(d2))])
    return np.concatenate(([level], level + np.cumsum(slopes)))


@given(barely_convex())
@settings(max_examples=300, deadline=None)
def test_min_plus_kernel_matches_loop_near_rounding(L):
    _assert_kernel_matches_loop(L)
    assert _mg_prefix_constant(L) == _loop_mg_prefix_constant(L)


# -- array paths against the scalar loops they replaced ------------------

def _gap_sup_loop(M, N):
    """The scalar root-gap sampler: one LogWeightSequence.root per point."""
    P = min(M.P, N.P)
    ps = np.unique(np.round(np.geomspace(P + 1, 1e6, 40)))
    return max(M.root(p) - N.root(p) for p in ps)


def _mu_remainder_loop(seq):
    """The scalar remainder: one Tail.mu_log per index."""
    return sum(
        math.exp(-seq.tail.mu_log(p)) for p in range(seq.P + 1, seq.P + 2001)
    )


def _tailed_rows():
    from wcalc.catalogue import matrix_battery, sequence_battery
    from wcalc.matrices import MultiIndexChain, multi_index_step

    rows = {k: s for k, s in sequence_battery().items() if s.tail is not None}
    for name in ("gevrey-matrix:1,2,3", "omega-matrix:powerlog2",
                 "omega-matrix:rootpower2"):
        M = matrix_battery()[name]
        for l in (0.5, 2.0):
            chain = multi_index_step(MultiIndexChain(M, (), None), l)
            for lbl, row in zip(M.labels, chain.current.rows):
                rows[f"{name};x={lbl:g};l={l:g}"] = row
        for lbl, row in zip(M.labels, M.rows):
            rows[f"{name};x={lbl:g}"] = row
    # stored values that differ from the tail within the consistency
    # tolerance: a sample at or below P must read the stored value
    g = gevrey(2.0, 200)
    rows["gevrey:2;nudged"] = LogWeightSequence(g.L * (1.0 + 1e-10), g.tail, 0, "nudged")
    assert all(r.tail is not None for r in rows.values())
    return rows


def _same_float(a, b):
    return repr(float(a)) == repr(float(b))


def test_sampled_gap_sup_matches_scalar_loop():
    from wcalc.sequences import _sampled_gaps

    rows = list(_tailed_rows().items())
    assert len({r.P for _, r in rows}) > 1     # pairs whose two P differ
    for a, M in rows:
        for b, N in rows:
            sup = max(_sampled_gaps(M, N), default=-math.inf)
            assert _same_float(sup, _gap_sup_loop(M, N)), (a, b)


def test_mu_remainder_matches_scalar_loop():
    from wcalc.sequences import _mu_remainder

    rows = _tailed_rows()
    reached = 0
    for name, seq in rows.items():
        assert _same_float(_mu_remainder(seq), _mu_remainder_loop(seq)), name
        v = check_nq(seq)
        if v.witness.get("certified_bracket") is False:
            reached += 1
            partial = float(np.sum(np.exp(-np.diff(seq.L))))
            assert _same_float(v.witness["sum_low"], partial + _mu_remainder_loop(seq))
    assert reached     # some rows decide nq through the remainder


def test_exp_witness_switches_to_log_past_the_float_range():
    from wcalc.verdicts import exp_witness

    assert exp_witness("C", 1.0) == {"C": math.exp(1.0)}
    assert exp_witness("C", 1e4) == {"log_C": 1e4}
    v = check_moderate_growth(power_index(2.0, 3.0))
    assert v.fails and v.witness["log_prefix_C"] > 709.0
