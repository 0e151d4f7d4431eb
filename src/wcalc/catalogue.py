"""Built-in families of weight sequences, weight functions and matrices.

The battery is the fixed population used by the cross-validation suites:
every family here is exercised by the route-agreement and consistency
checks, so additions should come with a symbolic tail whenever possible.
"""
from __future__ import annotations

import numpy as np

from .matrices import WeightMatrix, build_gevrey_matrix, build_omega_matrix
from .sequences import LogWeightSequence
from .tails import PowerIndex
from .weightfuncs import make_power_log_weight, make_root_power_weight


def gevrey(s: float, pmax: int = 200) -> LogWeightSequence:
    return LogWeightSequence.gevrey(s, pmax)


def factorial_power(s: float, a: float, pmax: int = 200) -> LogWeightSequence:
    return LogWeightSequence.factorial_power(s, a, pmax)


def power_index(kappa: float, beta: float, pmax: int = 200) -> LogWeightSequence:
    tail = PowerIndex(kappa, beta)
    return LogWeightSequence.from_tail(tail, pmax, f"power_index({kappa:g},{beta:g})")


def perturbed_gevrey(
    s: float, amplitude: float = 0.3, pmax: int = 200
) -> LogWeightSequence:
    """Gevrey values with a deterministic sine dent on p in [3, 9]; the
    symbolic tail stays valid from the end of the dent on.

    The dent perturbs the stored prefix without breaking log-convexity at
    small amplitudes: at s = 2 the row stays strictly log-convex up to
    amplitude about 1.15 and loses convexity from about 1.2, so the
    battery members (amplitudes 0.3 and 0.2) are log-convex.  The dent
    needs a stored prefix through p = 9, so pmax below 10 is refused.
    """
    if pmax < 10:
        raise ValueError(f"perturbed_gevrey needs pmax >= 10, got {pmax}")
    base = LogWeightSequence.gevrey(s, pmax)
    L = np.array(base.L)
    ps = np.arange(3, 10)
    L[ps] += amplitude * np.sin(np.pi * (ps - 3) / 6.0)
    return LogWeightSequence(L, base.tail, 10, f"perturbed-gevrey({s:g})")


def prefix_only(s: float, pmax: int = 60) -> LogWeightSequence:
    """A finite stretch of Gevrey values with no symbolic continuation."""
    base = LogWeightSequence.gevrey(s, pmax)
    return LogWeightSequence(base.L, None, 0, f"prefix-gevrey({s:g})")


def bumpy_prefix() -> LogWeightSequence:
    """Finite, tail-free, and not log-convex; exercises Inconclusive paths."""
    base = LogWeightSequence.gevrey(2.0, 60)
    L = np.array(base.L)
    L[4::7] += 0.5
    return LogWeightSequence(L, None, 0, "bumpy-prefix")


def sequence_battery() -> dict[str, LogWeightSequence]:
    pmax = 200
    fams: dict[str, LogWeightSequence] = {}
    for s in (1.0, 1.1, 1.2, 1.25, 4.0 / 3.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0):
        fams[f"gevrey:{s:g}"] = gevrey(s, pmax)
    for s, a in ((1.0, 2.0), (1.5, 3.0), (2.0, 2.0), (3.0, 1.5)):
        fams[f"factorial_power:{s:g},{a:g}"] = factorial_power(s, a, pmax)
    for k, b in ((1.0, 2.0), (0.5, 1.5), (2.0, 3.0), (0.25, 1.25)):
        fams[f"power_index:{k:g},{b:g}"] = power_index(k, b, pmax)
    fams["perturbed_gevrey:2"] = perturbed_gevrey(2.0, pmax=pmax)
    fams["perturbed_gevrey:1.5"] = perturbed_gevrey(1.5, 0.2, pmax=pmax)
    fams["prefix_only:2"] = prefix_only(2.0)
    fams["bumpy_prefix"] = bumpy_prefix()
    return fams


def matrix_from_rows(seqs, labels) -> WeightMatrix:
    return WeightMatrix(tuple(labels), tuple(seqs), None, "inline")


def matrix_battery() -> dict[str, WeightMatrix]:
    pmax = 200
    out: dict[str, WeightMatrix] = {}
    out["gevrey-matrix:1,2,3"] = build_gevrey_matrix((1.0, 2.0, 3.0), pmax)
    out["two-row:p!,p!^2"] = matrix_from_rows(
        (gevrey(1.0, pmax), gevrey(2.0, pmax)), (1.0, 2.0)
    )
    out["omega-matrix:powerlog2"] = build_omega_matrix(
        make_power_log_weight(2.0), (1.0, 2.0, 4.0), pmax
    )
    out["omega-matrix:rootpower2"] = build_omega_matrix(
        make_root_power_weight(2.0), (1.0, 2.0, 4.0), pmax
    )
    return out
