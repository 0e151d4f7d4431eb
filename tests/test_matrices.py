"""Weight matrices: quantified conditions, chains, stability, dossiers."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from wcalc.catalogue import gevrey, matrix_from_rows, power_index
from wcalc.errors import ClassMembershipFailed
from wcalc.matrices import (
    CONDITION_NAMES,
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
from wcalc.sequences import LogWeightSequence
from wcalc.weightfuncs import (
    associated_function,
    make_power_log_weight,
    make_root_power_weight,
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


# -- structural consequences ---------------------------------------------

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
    # cached envelopes must not tie a row to its WeightFunction in a cycle
    gc.disable()
    try:
        M = build_gevrey_matrix((1.0, 2.0), pmax=4000)
        v = check_pseudo_mg(M)
        ws = [associated_function(r) for r in M.rows]
        refs = [weakref.ref(r) for r in M.rows]
        refs.append(weakref.ref(M.row(2 * M.labels[-1] + 1)))
        del M, v, ws
        assert all(r() is None for r in refs)
    finally:
        gc.enable()
