"""Weight matrices: quantified conditions, chains, stability, dossiers."""

import collections
import copy
import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcalc import cli, convex, matrices, sequences, verdicts
from wcalc.catalogue import (
    bumpy_prefix,
    factorial_power,
    gevrey,
    matrix_battery,
    matrix_from_rows,
    perturbed_gevrey,
    power_index,
    prefix_only,
)
from wcalc.errors import ClassMembershipFailed, WcalcError
from wcalc.matrices import (
    CONDITION_NAMES,
    _VARIANTS,
    _candidates,
    _dc_pair,
    _forall,
    _mg_pair,
    _pseudo_mg_grid_ok,
    _pseudo_mg_pair,
    MultiIndexChain,
    WeightMatrix,
    build_gevrey_matrix,
    build_omega_matrix,
    check_BR_triangle,
    check_L_consequences,
    check_matrix_condition,
    check_omega_stability,
    check_pseudo_mg,
    check_stability_theorem,
    comparison_report,
    integer_step_identity_error,
    min_convolution,
    min_convolution_omega_gap,
    multi_index_step,
    relation_matrix,
)
from wcalc.sequences import (
    KEPT,
    LogWeightSequence,
    check_moderate_growth,
    lc_minorant,
    min_plus_self,
    relation_approx,
    relation_preceq,
    relation_triangle,
    root_gap_relations,
    row_serial,
)
from wcalc.quasi import class_nq_verdict, matrix_nq_verdict
from wcalc.serialize import dumps_canonical
from wcalc.tails import FactorialPower, root_gap_limit
from wcalc.weightfuncs import (
    associated_function,
    make_power_log_weight,
    make_root_power_weight,
    sequence_from_weight,
)


def test_matrix_invariants():
    G = build_gevrey_matrix((1.0, 2.0, 3.0))
    assert G.check_M().holds
    assert G.check_Msc().holds
    with pytest.raises(ValueError):
        WeightMatrix((2.0, 1.0), (gevrey(1.0), gevrey(2.0)), None, "bad")


def test_gevrey_matrix_all_conditions_hold():
    G = build_gevrey_matrix((1.0, 2.0, 3.0))
    for name in CONDITION_NAMES:
        assert check_matrix_condition(G, name).holds, name


def test_extended_label_witness_recorded():
    # single-row parametric family: every existential needs the extender
    G = build_gevrey_matrix((2.0,))
    v = check_matrix_condition(G, "strict_roumieu")
    assert v.holds
    inner = v.witness["parts"]["x=2"]
    assert inner["witness"].get("extended_label") is True


def test_two_row_matrix_loses_beurling_sides():
    # {p!, p!^2} without an extender: nothing strictly below the bottom row
    M = matrix_from_rows((gevrey(1.0), gevrey(2.0)), (1.0, 2.0))
    assert check_matrix_condition(M, "strict_roumieu").fails
    assert check_matrix_condition(M, "BR_beurling").fails
    assert check_matrix_condition(M, "mg_roumieu").holds


def test_omega_matrix_powerlog_conditions():
    W = build_omega_matrix(make_power_log_weight(2.0), (1.0, 2.0, 4.0))
    # rows log M_j = kappa_l j^2 with kappa strictly growing in l: the next
    # row absorbs the index-shift defect, so dc holds across the family
    assert check_matrix_condition(W, "dc_roumieu").holds
    assert check_matrix_condition(W, "mg_roumieu").holds
    assert check_matrix_condition(W, "Cw_beurling").holds


def test_omega_matrix_requires_weight_axioms():
    with pytest.raises(ValueError):
        make_power_log_weight(0.5)


def test_relation_matrix_orderings():
    G12 = build_gevrey_matrix((1.0, 2.0))
    G23 = build_gevrey_matrix((2.0, 3.0))
    assert relation_matrix(G12, G23, "roumieu_preceq").holds
    assert relation_matrix(G23, G12, "roumieu_preceq").fails
    assert relation_matrix(G12, G12, "roumieu_approx").holds
    assert relation_matrix(G12, G12, "beurling_approx").holds
    lo = matrix_from_rows((gevrey(1.1),), (1.0,))
    hi = matrix_from_rows((gevrey(2.0),), (1.0,))
    assert relation_matrix(lo, hi, "triangle").holds
    assert relation_matrix(hi, lo, "triangle").fails


# -- multi-index chain ---------------------------------------------------

def test_integer_step_identity():
    for s in (1.0, 2.0, 3.0):
        base = matrix_from_rows((gevrey(s, 100),), (1.0,))
        for l in (2.0, 3.0):
            chain = multi_index_step(MultiIndexChain(base), l)
            assert integer_step_identity_error(chain) <= 1e-9, (s, l)


def ref_integer_step_identity_error(chain):
    # the scalar loop the array code replaced, verbatim
    err = 0.0
    for base_row, cur_row in zip(chain.base.rows, chain.current.rows):
        l = 1.0
        for s in chain.steps:
            l *= s
        hull = lc_minorant(base_row)
        for j in range(cur_row.P + 1):
            jl = j * l
            if jl > hull.P:
                break
            want = hull.L[int(round(jl))] / l if float(jl).is_integer() else None
            if want is None:
                continue
            err = max(err, abs(cur_row.L[j] - want))
    return err


def test_identity_error_is_bit_identical_to_the_loop():
    base = matrix_from_rows((gevrey(1.0, 300), bumpy_prefix(), gevrey(3.0, 300)), (1.0, 2.0, 3.0))
    for steps in ((2.0,), (3.0,), (2.0, 2.0), (1.5, 2.0), (0.5,), (2.5,), (0.3, 3.0)):
        chain = MultiIndexChain(base)
        for l in steps:
            chain = multi_index_step(chain, l)
        # a current matrix off the identity gives non-zero errors to compare
        bent = MultiIndexChain(base, chain.steps, WeightMatrix(
            base.labels,
            tuple(LogWeightSequence(r.L + 1e-3 * np.sin(np.arange(r.P + 1)), None, 0, "")
                  for r in chain.current.rows),
        ))
        for c in (chain, bent):
            assert float.hex(integer_step_identity_error(c)) == float.hex(
                float(ref_integer_step_identity_error(c))
            ), steps


def test_chain_omega_stability():
    G = build_gevrey_matrix((1.0, 2.0), 200)
    chain = multi_index_step(MultiIndexChain(G), 2.0)
    assert check_omega_stability(chain).holds
    chain2 = multi_index_step(chain, 2.0)
    assert check_omega_stability(chain2).holds


def test_fractional_step_keeps_equivalence():
    G = build_gevrey_matrix((2.0,), 200)
    chain = multi_index_step(MultiIndexChain(G), 0.5)
    assert check_omega_stability(chain).holds


def test_stability_theorem_gevrey():
    G = build_gevrey_matrix((1.0, 2.0, 3.0), 200)
    v = check_stability_theorem(G)
    assert v.holds
    assert v.witness["parts"]["mg_roumieu"]["status"] == "holds"
    assert v.witness["parts"]["second_extension_roumieu"]["status"] == "holds"


def test_stability_requires_standard_matrix():
    from wcalc.catalogue import bumpy_prefix

    M = matrix_from_rows((bumpy_prefix(),), (1.0,))
    with pytest.raises(ClassMembershipFailed):
        check_stability_theorem(M)


# -- pseudo moderate growth ----------------------------------------------

def test_min_convolution_identity_factorial():
    # N = min-convolution of p! gives omega_N = 2 omega_M exactly
    assert min_convolution_omega_gap(gevrey(1.0, 100)) <= 1e-9


def test_min_convolution_values():
    g = gevrey(2.0, 40)
    N = min_convolution(g)
    # log-convex input: minimum at the split p = floor(p/2)
    for p in (2, 7, 20):
        assert N.L[p] == pytest.approx(g.L[p // 2] + g.L[p - p // 2])


def test_pseudo_mg_agreement_battery():
    from wcalc.catalogue import matrix_battery

    for name, M in matrix_battery().items():
        v = check_pseudo_mg(M)
        seq_side = check_matrix_condition(M, "mg_roumieu")
        if not (v.inconclusive or seq_side.inconclusive):
            assert v.status is seq_side.status, name


def test_pseudo_mg_beurling_variant():
    G = build_gevrey_matrix((1.0, 2.0, 3.0))
    assert check_pseudo_mg(G, "beurling").holds


def ref_pseudo_mg_pair(x, y):
    # the search as it ran before rows kept its result: every grid check
    small, big = associated_function(y), associated_function(x)
    for k in range(0, 16):
        H = 2.0 ** k
        if _pseudo_mg_grid_ok(small, big, H):
            return verdicts.holds(H=H)
    return verdicts.inconclusive("no H on grid within resolved band")


def _fresh_rows(M):
    # equal rows built apart, outside the row memo, with nothing kept yet
    rows = tuple(LogWeightSequence(r.L, r.tail, r.tail_from, r.label) for r in M.rows)
    return WeightMatrix(M.labels, rows, M.extender, M.label)


@pytest.mark.parametrize("variant", ["roumieu", "beurling"])
def test_pseudo_mg_constants_kept_on_rows_leave_verdicts_unchanged(variant):
    matrices = [
        *matrix_battery().values(),
        build_gevrey_matrix((1.0, 2.0, 3.0), 1000),
        build_gevrey_matrix((1.5, 2.5), 4000),
        build_omega_matrix(make_power_log_weight(2.0), (1.0, 2.0), 200),
    ]
    for M in matrices:
        want = _VARIANTS[variant](_fresh_rows(M), ref_pseudo_mg_pair).to_json()
        cold = _VARIANTS[variant](M, _pseudo_mg_pair).to_json()
        warm = _VARIANTS[variant](M, _pseudo_mg_pair).to_json()
        fresh = _VARIANTS[variant](_fresh_rows(M), _pseudo_mg_pair).to_json()
        assert dumps_canonical(cold) == dumps_canonical(want), M.label
        assert dumps_canonical(warm) == dumps_canonical(want), M.label
        assert dumps_canonical(fresh) == dumps_canonical(want), M.label
        full = [dumps_canonical(check_pseudo_mg(M, variant).to_json()) for _ in range(2)]
        assert full[0] == full[1]


def ref_mg_pair(x, y):
    # the pair test as it ran before rows kept the prefix sup
    P = min(x.P, y.P)
    mins, _ = min_plus_self(y.L[: P + 1])
    best = float(np.max((x.L[1 : P + 1] - mins[1:]) / np.arange(1, P + 1)))
    g = root_gap_limit(x.tail, y.tail)
    if g is None:
        return verdicts.inconclusive("no tail", **verdicts.exp_witness("prefix_C", best))
    kx, ky = x.tail.asymptote(), y.tail.asymptote()
    if kx[0] == "log" and ky[0] == "log":
        ok = kx[1] <= ky[1]
    elif kx[0] == "poly" and ky[0] == "poly":
        if kx[1] != ky[1]:
            ok = kx[1] < ky[1]
        else:
            ok = ky[2] >= 2.0 ** kx[1] * kx[2] * (1 - 1e-12)
    else:
        ok = kx[0] == "log"
    if ok:
        return verdicts.holds(**verdicts.exp_witness("C", max(best, 0.0) + 0.1))
    return verdicts.fails(**verdicts.exp_witness("prefix_C", best), divergent_diagonal=True)


@pytest.mark.parametrize("variant", ["roumieu", "beurling"])
def test_mg_prefix_sups_kept_on_rows_leave_verdicts_unchanged(variant):
    matrices = [
        *matrix_battery().values(),
        build_gevrey_matrix((1.0, 2.0, 3.0), 1000),
        build_gevrey_matrix((1.5, 2.5), 4000),
        build_omega_matrix(make_power_log_weight(2.0), (1.0, 2.0), 200),
    ]
    for M in matrices:
        want = dumps_canonical(_VARIANTS[variant](_fresh_rows(M), ref_mg_pair).to_json())
        fresh = _fresh_rows(M)
        for N in (M, M, fresh, fresh):      # cold, then warm, on both
            got = _VARIANTS[variant](N, _mg_pair).to_json()
            assert dumps_canonical(got) == want, M.label
        condition = f"mg_{variant}"
        full = [dumps_canonical(check_matrix_condition(M, condition).to_json()) for _ in range(2)]
        assert full[0] == full[1]


# every two-row engine behind sequences.kept_pair, by its KEPT entry
PAIR_ENGINES = {
    "_root_gaps": root_gap_relations,
    "_dc_pair": _dc_pair,
    "_mg_pair": _mg_pair,
    "_pseudo_mg": _pseudo_mg_pair,
    "_iterated_doubling": matrices._iterated_doubling,
}

# the relations that once kept tables of their own, each now a view of the
# one _root_gaps pass: their partners are kept in that table
ROOT_GAP_VIEWS = {
    "_preceq": relation_preceq,
    "_preceq_both": relation_approx,
    "_triangle": relation_triangle,
}


def _answer(engine, x, y) -> str:
    """engine(x, y) as the repr of its JSON, or the error it raised."""
    try:
        v = engine(x, y)
    except WcalcError as e:
        return type(e).__name__
    return repr([u.to_json() for u in v] if isinstance(v, tuple) else v.to_json())


def _counting(counter, name, fn):
    """fn, counting its calls in counter under name."""
    def call(*args):
        counter[name] += 1
        return fn(*args)
    return call


def _count_bodies(monkeypatch) -> tuple[collections.Counter, collections.Counter]:
    """Calls of sequences.kept_pair from now on, and the engine bodies they
    run, by KEPT entry."""
    asked, bodies = collections.Counter(), collections.Counter()
    rule = sequences.kept_pair

    def counting(name, engine, x, y):
        asked[name] += 1
        return rule(name, _counting(bodies, name, engine), x, y)

    monkeypatch.setattr(sequences, "kept_pair", counting)
    return asked, bodies


@pytest.mark.parametrize("name", sorted(PAIR_ENGINES) + sorted(ROOT_GAP_VIEWS))
def test_pair_engines_keep_their_latest_partners(name, monkeypatch):
    engine = PAIR_ENGINES.get(name) or ROOT_GAP_VIEWS[name]
    name = name if name in PAIR_ENGINES else "_root_gaps"
    bound = KEPT[name]
    x = LogWeightSequence(gevrey(1.0, 400).L, FactorialPower(1.0, 1.0), 0, "x")
    ys = [gevrey(1.0 + i / 20, 400 - (i % 3)) for i in range(1, bound + 9)]
    first = _answer(engine, x, ys[0])
    for y in ys:
        engine(x, y)
    kept = x.__dict__[name]
    # keyed on serials, so x holds no reference to any y
    assert list(kept) == [row_serial(y) for y in ys[-bound:]]
    _, bodies = _count_bodies(monkeypatch)
    assert _answer(engine, x, ys[0]) == first and bodies == {name: 1}
    assert list(kept) == [row_serial(y) for y in ys[-bound + 1:] + ys[:1]]
    engine(x, ys[-1])
    assert bodies == {name: 1}
    # equal rows built apart have serials of their own
    twin = LogWeightSequence(x.L, x.tail, x.tail_from, x.label)
    assert np.array_equal(twin.L, x.L)
    assert (twin.tail, twin.tail_from, twin.label) == (x.tail, x.tail_from, x.label)
    assert row_serial(twin) != row_serial(x) == row_serial(x)


@st.composite
def engine_rows(draw):
    """A gevrey, factorial_power, power_index or perturbed_gevrey row."""
    pmax = draw(st.integers(20, 2000))
    fam = draw(st.sampled_from(("gevrey", "factorial_power", "power_index", "perturbed")))
    if fam == "gevrey":
        return gevrey(draw(st.floats(0.5, 4.0)), pmax)
    if fam == "factorial_power":
        return factorial_power(draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 3.0)), pmax)
    if fam == "power_index":
        return power_index(draw(st.floats(0.1, 4.0)), draw(st.floats(1.0, 3.0)), pmax)
    return perturbed_gevrey(draw(st.floats(1.0, 4.0)), draw(st.floats(0.0, 0.3)), pmax)


@given(engine_rows(), engine_rows())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_kept_pair_answers_equal_fresh_ones(x, y):
    # equal rows built apart, outside the row memo, with nothing kept yet
    fx, fy = (LogWeightSequence(r.L, r.tail, r.tail_from, r.label) for r in (x, y))
    for name, engine in PAIR_ENGINES.items():
        want = _answer(engine.__wrapped__, fx, fy)
        assert _answer(engine, x, y) == want == _answer(engine, x, y), name


def test_pair_checks_keep_their_partners_alive_nowhere():
    gc.disable()
    try:
        x = gevrey(1.5, 1000)
        for name, engine in PAIR_ENGINES.items():
            y = LogWeightSequence(gevrey(2.0, 1000).L, FactorialPower(2.0, 1.0), 0, "y")
            ref = weakref.ref(y)
            engine(x, y)
            engine(y, x)
            del y
            assert ref() is None, name
        for name in PAIR_ENGINES:
            assert x.__dict__[name], name
            for v in x.__dict__[name].values():
                for u in v if isinstance(v, tuple) else (v,):
                    # numbers and strings only: no row, and nothing mutable
                    assert all(type(w) in (bool, int, float, str)
                               for w in u.witness.values()), (name, u)
    finally:
        gc.enable()


def test_warm_matrix_ops_run_no_pair_engine_body(tmp_path, monkeypatch):
    out = str(tmp_path / "r.json")
    ops = [["matrix", "stability", "--gevrey", "1,2", "--pmax", "1000", "--out", out],
           ["matrix", "conditions", "--gevrey", "1,2,3", "--pmax", "1000", "--out", out],
           ["matrix", "compare", "--left", "gevrey:1.5", "--right", "gevrey:2",
            "--pmax", "1000", "--out", out]]
    assert all(cli.main(argv) == 0 for argv in ops)
    asked, calls = _count_bodies(monkeypatch)
    for owner, name in ((sequences, "_prefix_gaps"), (sequences, "_sampled_gaps"),
                        (convex.ConvexPL, "__call__")):
        monkeypatch.setattr(owner, name, _counting(calls, name, getattr(owner, name)))
    # no gap or envelope arithmetic, and no pair engine's body: every
    # two-row answer, _dc_pair's among them, is kept on its rows
    assert all(cli.main(argv) == 0 for argv in ops)
    assert calls == {}
    assert {"_root_gaps", "_dc_pair", "_mg_pair", "_iterated_doubling"} <= set(asked)


def test_one_root_gap_pass_answers_every_relation_of_a_pair(monkeypatch):
    _, calls = _count_bodies(monkeypatch)
    for name in ("_prefix_gaps", "_sampled_gaps"):
        monkeypatch.setattr(sequences, name, _counting(calls, name, getattr(sequences, name)))
    fields = {f.name for f in dataclasses.fields(LogWeightSequence)}
    for order in itertools.permutations((relation_preceq, relation_approx, relation_triangle)):
        # a fresh pair of tailed rows, outside the row memo
        x, y = (LogWeightSequence(gevrey(s, 300).L, FactorialPower(s, 1.0), 0, "")
                for s in (1.5, 2.0))
        calls.clear()
        for relation in order:
            relation(x, y)
        # one engine body, one gap pass, one table on x with one key
        assert calls == {"_root_gaps": 1, "_prefix_gaps": 1, "_sampled_gaps": 1}
        assert set(x.__dict__) - fields == {"_root_gaps", "_gap_samples"}
        assert list(x.__dict__["_root_gaps"]) == [row_serial(y)]


def _scribble(obj):
    """Clear every dict and list reachable from obj, innermost first."""
    if isinstance(obj, (dict, list)):
        for v in list(obj.values() if isinstance(obj, dict) else obj):
            _scribble(v)
        obj.clear()


def test_kept_results_do_not_leak_into_later_reports():
    M = build_gevrey_matrix((1.0, 2.0), pmax=300)
    checks = (
        lambda: class_nq_verdict(M.rows[0]),
        lambda: check_matrix_condition(M, "mg_roumieu"),
        lambda: matrix_nq_verdict(M, "roumieu"),
        lambda: check_pseudo_mg(M),
        lambda: relation_approx(M.rows[0], M.rows[1]),
        lambda: check_stability_theorem(M),
    )
    for check in checks:
        v = check()
        want = copy.deepcopy(v.to_json())
        _scribble(v.witness)
        assert check().to_json() == want


# -- structural consequences ---------------------------------------------

def test_implication_calls_then_only_when_the_hypothesis_holds():
    consequent = verdicts.fails(consequent=True)
    table = {
        "holds": (verdicts.holds(), consequent.to_json(), 1),
        "fails": (verdicts.fails(), {"status": "holds", "witness": {"vacuous": True}}, 0),
        "inconclusive": (
            verdicts.inconclusive("open"),
            {"status": "inconclusive", "reason": "hypothesis undecided"},
            0,
        ),
    }
    for name, (hyp, want, n_calls) in table.items():
        calls = []
        v = verdicts.implication(hyp, lambda: calls.append(name) or consequent)
        assert v.to_json() == want and len(calls) == n_calls, name


def test_L_consequences_gevrey():
    assert check_L_consequences(build_gevrey_matrix((1.0, 2.0))).holds


def test_L_consequences_vacuous_without_L():
    W = build_omega_matrix(make_power_log_weight(2.0), (1.0, 2.0))
    if check_matrix_condition(W, "L_roumieu").fails:
        v = check_L_consequences(W)
        assert v.holds and v.witness.get("vacuous")


def test_BR_triangle_gevrey():
    assert check_BR_triangle(build_gevrey_matrix((1.0, 2.0, 3.0))).holds


# -- dossiers ------------------------------------------------------------

def test_comparison_report_sequence():
    rep = comparison_report(gevrey(2.0, 200))
    assert rep["status"] == "holds"
    assert rep["verdicts"]["reconstruction"].holds
    assert rep["verdicts"]["beta3"].holds


def test_comparison_report_weight():
    rep = comparison_report(make_power_log_weight(2.0))
    assert rep["verdicts"]["omega6"].fails
    assert rep["verdicts"]["equivalence_consistent"].holds


def test_comparison_report_rejects_bad_input():
    from wcalc.catalogue import bumpy_prefix

    with pytest.raises(ClassMembershipFailed):
        comparison_report(bumpy_prefix())
    with pytest.raises(TypeError):
        comparison_report(42)


def test_matrix_json():
    G = build_gevrey_matrix((1.0, 2.0))
    d = G.to_json()
    assert d["labels"] == [1.0, 2.0]
    assert d["rows"]["1"]["family"] == "gevrey"


# -- row reuse -------------------------------------------------------------

def test_extended_rows_built_once_per_matrix():
    calls = []

    def extend(s):
        calls.append(s)
        return gevrey(s + 1.0, 200)

    M = WeightMatrix((1.0, 2.0), (gevrey(2.0, 200), gevrey(3.0, 200)), extend)
    for name in CONDITION_NAMES:
        check_matrix_condition(M, name)
    check_pseudo_mg(M)
    assert M.row(0.5) is M.row(0.5)
    assert sorted(calls) == sorted(set(calls))
    # a copy starts with an empty memo of its own
    copy = dataclasses.replace(M)
    copy.row(0.5)
    assert calls.count(0.5) == 2


def test_rows_die_without_garbage_collection():
    # what a row keeps (sequences.KEPT: envelope, derived rows,
    # moderate-growth constant, log-convex minorant, root-gap samples,
    # pair verdicts, NQ route verdicts) must not tie
    # it to its WeightFunction, to another row or to itself in a cycle:
    # once the row memo lets go, reference counting alone frees every row
    gc.disable()
    try:
        M = build_gevrey_matrix((1.0, 2.0), pmax=4000)
        v = check_pseudo_mg(M)
        ws = [associated_function(r) for r in M.rows]
        refs = [weakref.ref(r) for r in M.rows]
        refs.append(weakref.ref(M.row(2 * M.labels[-1] + 1)))
        convex = gevrey(1.5, 2000)
        assert lc_minorant(convex) is convex
        check_moderate_growth(convex)
        derived = sequence_from_weight(associated_function(convex), 0.5, 2000)
        assert sequence_from_weight(associated_function(convex), 0.5, 2000) is derived
        # a row that is not its own minorant keeps the minorant row
        bumpy = bumpy_prefix()
        hull = lc_minorant(bumpy)
        assert lc_minorant(bumpy) is hull is not bumpy
        refs += [weakref.ref(convex), weakref.ref(derived), weakref.ref(bumpy), weakref.ref(hull)]
        # root-gap samples and the minorant are kept on the rows too
        approx = [relation_approx(M.rows[0], M.rows[1]), relation_approx(convex, M.rows[0])]
        assert all("_gap_samples" in r.__dict__ for r in (*M.rows[:2], convex))
        assert "_lc_minorant" in convex.__dict__
        # and so are the pseudo-mg verdicts of check_pseudo_mg(M)
        assert all(r.__dict__["_pseudo_mg"] for r in M.rows)
        # the mg verdicts and the NQ routes of the hypothesis gates
        mg = check_matrix_condition(M, "mg_roumieu")
        nq = matrix_nq_verdict(M, "roumieu")
        assert all(r.__dict__["_mg_pair"] for r in M.rows)
        assert all("_nq_routes" in r.__dict__ for r in M.rows)
        del M, v, ws, convex, derived, bumpy, hull, approx, mg, nq
        sequences._rows.clear()
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


# -- the condition table against the branches it replaced --------------
#
# The reference is the previous branch-per-condition code, verbatim apart
# from its names.  The table must give the same verdicts byte for byte.

def _exists(pool, pred):
    """matrices._exists in the call shape the references were written
    for: pred applied to each (label, row, extended_flag) of pool."""
    return matrices._exists((lbl, pred(y), ext) for lbl, y, ext in pool)


def ref_check_matrix_condition(M: WeightMatrix, condition: str):
    if condition not in CONDITION_NAMES:
        raise ValueError(f"unknown condition: {condition}")
    name = condition

    if name == "dc_roumieu":
        return _forall(
            zip(M.labels, M.rows),
            lambda lbl, row: _exists(_candidates(M, "up"), lambda y: _dc_pair(row, y)),
        )
    if name == "dc_beurling":
        return _forall(
            zip(M.labels, M.rows),
            lambda lbl, row: _exists(_candidates(M, "down"), lambda y: _dc_pair(y, row)),
        )
    if name == "mg_roumieu":
        return _forall(
            zip(M.labels, M.rows),
            lambda lbl, row: _exists(_candidates(M, "up"), lambda y: _mg_pair(row, y)),
        )
    if name == "mg_beurling":
        # x_1 = x_2 = the larger of any pair suffices since rows are ordered
        return _forall(
            zip(M.labels, M.rows),
            lambda lbl, row: _exists(_candidates(M, "down"), lambda y: _mg_pair(y, row)),
        )
    if name in ("L_roumieu", "L_beurling"):
        up = name == "L_roumieu"

        def absorbs_all_C(row):
            def pred(y):
                g = root_gap_limit(*((row.tail, y.tail) if up else (y.tail, row.tail)))
                if g is None:
                    return verdicts.inconclusive("no tail")
                if g == -math.inf:
                    return verdicts.holds(absorbs="every C")
                return verdicts.fails(gap_limit=g)

            return _exists(_candidates(M, "up" if up else "down"), pred)

        return _forall(zip(M.labels, M.rows), lambda lbl, row: absorbs_all_C(row))
    if name in ("strict_roumieu", "strict_beurling"):
        up = name == "strict_roumieu"

        def strict_pred(row):
            def pred(y):
                g = root_gap_limit(*((y.tail, row.tail) if up else (row.tail, y.tail)))
                if g is None:
                    return verdicts.inconclusive("no tail")
                if g == math.inf:
                    return verdicts.holds(sup="+inf")
                return verdicts.fails(gap_limit=g)

            return _exists(_candidates(M, "up" if up else "down"), pred)

        return _forall(zip(M.labels, M.rows), lambda lbl, row: strict_pred(row))
    if name in ("BR_roumieu", "BR_beurling"):
        up = name == "BR_roumieu"

        def br_pred(row):
            def pred(y):
                return (
                    relation_triangle(row, y) if up else relation_triangle(y, row)
                )

            return _exists(_candidates(M, "up" if up else "down"), pred)

        return _forall(zip(M.labels, M.rows), lambda lbl, row: br_pred(row))

    # analytic-containment conditions via the root behaviour of m = M/p!
    def m_root_gap(row):
        return root_gap_limit(row.tail, FactorialPower(1.0, 1.0))

    if name == "Cw_roumieu":
        for lbl, row in zip(M.labels, M.rows):
            g = m_root_gap(row)
            if g is not None and g > -math.inf:
                return verdicts.holds(x=lbl, m_root_liminf_log=g)
        if any(row.tail is None for row in M.rows):
            return verdicts.inconclusive("rows without tails")
        return verdicts.fails()
    if name in ("H", "Cw_beurling"):
        parts = {}
        for lbl, row in zip(M.labels, M.rows):
            g = m_root_gap(row)
            if g is None:
                parts[f"x={lbl:g}"] = verdicts.inconclusive("no tail")
            elif name == "H":
                parts[f"x={lbl:g}"] = (
                    verdicts.holds(gap=g) if g > -math.inf else verdicts.fails()
                )
            else:
                parts[f"x={lbl:g}"] = (
                    verdicts.holds() if g == math.inf else verdicts.fails(gap=g)
                )
        return verdicts.conjunction(parts)
    raise AssertionError(name)


def ref_relation_matrix(M: WeightMatrix, N: WeightMatrix, kind: str):
    if kind == "roumieu_preceq":
        return _forall(
            zip(M.labels, M.rows),
            lambda lbl, row: _exists(
                [(l, r, False) for l, r in zip(N.labels, N.rows)],
                lambda y: relation_preceq(row, y),
            ),
        )
    if kind == "beurling_preceq":
        return _forall(
            zip(N.labels, N.rows),
            lambda lbl, rowN: _exists(
                [(l, r, False) for l, r in zip(M.labels, M.rows)],
                lambda x: relation_preceq(x, rowN),
            ),
        )
    if kind == "roumieu_approx":
        return verdicts.conjunction(
            {
                "forward": ref_relation_matrix(M, N, "roumieu_preceq"),
                "backward": ref_relation_matrix(N, M, "roumieu_preceq"),
            }
        )
    if kind == "beurling_approx":
        return verdicts.conjunction(
            {
                "forward": ref_relation_matrix(M, N, "beurling_preceq"),
                "backward": ref_relation_matrix(N, M, "beurling_preceq"),
            }
        )
    if kind == "triangle":
        parts = {}
        for lx, rx in zip(M.labels, M.rows):
            for ly, ry in zip(N.labels, N.rows):
                parts[f"{lx:g}<|{ly:g}"] = relation_triangle(rx, ry)
        return verdicts.conjunction(parts)
    raise ValueError(f"unknown relation kind: {kind}")


def comparison_matrices() -> dict:
    out = dict(matrix_battery())
    out["gevrey:0.5,1"] = build_gevrey_matrix((0.5, 1))
    out["prefix-only"] = matrix_from_rows((prefix_only(1.5), prefix_only(2.5)), (1.0, 2.0))
    out["bumpy"] = matrix_from_rows((gevrey(1.0, 60), bumpy_prefix()), (1.0, 2.0))
    return out


RELATION_KINDS = (
    "roumieu_preceq", "beurling_preceq", "roumieu_approx", "beurling_approx", "triangle",
)


@pytest.mark.parametrize("name", sorted(comparison_matrices()))
def test_condition_table_matches_branches(name):
    M = comparison_matrices()[name]
    for cond in CONDITION_NAMES:
        got = dumps_canonical(check_matrix_condition(M, cond).to_json())
        want = dumps_canonical(ref_check_matrix_condition(M, cond).to_json())
        assert got == want, cond


def test_relation_matrix_matches_branches():
    mats = comparison_matrices()
    for a, M in mats.items():
        for b, N in mats.items():
            for kind in RELATION_KINDS:
                got = dumps_canonical(relation_matrix(M, N, kind).to_json())
                want = dumps_canonical(ref_relation_matrix(M, N, kind).to_json())
                assert got == want, (a, b, kind)
