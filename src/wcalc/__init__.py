"""Computational calculus of weight sequences, weight functions and
weight matrices: exact piecewise-linear convex duality, regularizations,
three-valued growth/relation verdicts, a constructive non-quasianalytic
minorant, and a desk-scale Fourier verification harness."""

__version__ = "0.1.0"

from .convex import ConvexPL, lower_hull, upper_envelope_of_lines, young_conjugate
from .sequences import (
    LogWeightSequence,
    check_beta3,
    check_carleman_consistency,
    check_in_LC,
    check_log_convex,
    check_moderate_growth,
    check_nq,
    increasing_root_minorant,
    lc_minorant,
    relation_approx,
    relation_preceq,
    relation_triangle,
)
from .verdicts import Status, Verdict
from .weightfuncs import (
    WeightFunction,
    associated_function,
    check_omega_conditions,
    make_power_log_weight,
    make_root_power_weight,
    relation_omega,
    sequence_from_weight,
)
from .matrices import (
    WeightMatrix,
    build_gevrey_matrix,
    build_omega_matrix,
    check_matrix_condition,
    check_pseudo_mg,
    check_stability_theorem,
    comparison_report,
    relation_matrix,
)
from .quasi import (
    class_nq_verdict,
    construct_minorant,
    matrix_nq_verdict,
    sandwich_construct,
)

__all__ = [
    "ConvexPL",
    "LogWeightSequence",
    "Status",
    "Verdict",
    "WeightFunction",
    "WeightMatrix",
    "associated_function",
    "build_gevrey_matrix",
    "build_omega_matrix",
    "check_beta3",
    "check_carleman_consistency",
    "check_in_LC",
    "check_log_convex",
    "check_matrix_condition",
    "check_moderate_growth",
    "check_nq",
    "check_omega_conditions",
    "check_pseudo_mg",
    "check_stability_theorem",
    "class_nq_verdict",
    "comparison_report",
    "construct_minorant",
    "increasing_root_minorant",
    "lc_minorant",
    "lower_hull",
    "make_power_log_weight",
    "make_root_power_weight",
    "matrix_nq_verdict",
    "relation_approx",
    "relation_matrix",
    "relation_omega",
    "relation_preceq",
    "relation_triangle",
    "sandwich_construct",
    "sequence_from_weight",
    "upper_envelope_of_lines",
    "young_conjugate",
]
