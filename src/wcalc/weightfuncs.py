"""Weight functions in log coordinates.

A weight omega is carried as phi(s) = omega(e^s).  For weights built from a
sequence, phi is the exact convex piecewise-linear upper envelope
max_p (p*s - L_p); for the two symbolic families (power-log and root-power)
phi and its Young conjugate are closed forms.  Condition checks are decided
analytically from a coarse growth class

    ("power", alpha):    omega(t) ~ const * t**alpha
    ("logpower", sigma): omega(t) ~ const * (log t)**sigma

and fall back to Inconclusive grid evidence when no class is known.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import verdicts
from .convex import ConvexPL, upper_envelope_of_lines
from .errors import DomainExceeded, NotNormalized, ClassMembershipFailed
from .sequences import (
    LogWeightSequence,
    check_in_LC,
    check_moderate_growth,
    kept,
    lc_minorant,
    relation_preceq,
)
from .tails import FactorialPower, PowerIndex, RootPowerDualTail, SteppedTail, root_gap_limit
from .verdicts import Verdict

OMEGA_CONDITIONS = (
    "omega0", "omega1", "omega2", "omega3", "omega4",
    "omega5", "omega6", "omega7", "omega_nq",
)


@dataclass(frozen=True)
class WeightFunction:
    source: tuple
    phi_pl: ConvexPL | None
    valid_to: float
    label: str = ""

    # -- evaluation -----------------------------------------------------

    def phi(self, s):
        """phi(s) = omega(e^s); vectorized."""
        s = np.asarray(s, dtype=float)
        kind = self.source[0]
        if kind == "power_log":
            sigma = self.source[1]
            out = np.where(s > 0, np.maximum(s, 0.0) ** sigma, 0.0)
        elif kind == "root_power":
            a, c = self.source[1], self.source[2]
            out = np.where(s > 0, c * (np.exp(a * np.maximum(s, 0.0)) - 1.0), 0.0)
        else:
            out = np.asarray(self.phi_pl(s), dtype=float)
            out = np.where(s <= 0, 0.0, out)
        return out if out.ndim else float(out)

    def omega(self, t):
        t = np.asarray(t, dtype=float)
        out = self.phi(np.log(np.maximum(t, 1.0)))
        return out if np.ndim(out) else float(out)

    def growth_class(self) -> tuple | None:
        kind = self.source[0]
        if kind == "power_log":
            return ("logpower", self.source[1])
        if kind == "root_power":
            return ("power", self.source[1])
        seq: LogWeightSequence = self.source[1]
        return None if seq.tail is None else seq.tail.asymptote().omega_class()

    def to_json(self) -> dict:
        kind = self.source[0]
        if kind == "power_log":
            src = {"kind": kind, "sigma": self.source[1]}
        elif kind == "root_power":
            src = {"kind": kind, "a": self.source[1], "c": self.source[2]}
        else:
            src = {"kind": "sequence", "sequence": self.source[1].to_json()}
        return {
            "source": src,
            "valid_to": self.valid_to,
            "label": self.label,
            "phi": None if self.phi_pl is None else self.phi_pl.to_json(),
        }


def make_power_log_weight(sigma: float) -> WeightFunction:
    """omega_s(t) = max(0, (log t)**sigma)."""
    if sigma <= 1:
        raise ValueError("need sigma > 1 for a weight with log t = o(omega)")
    return WeightFunction(
        ("power_log", float(sigma)), None, math.inf, f"powerlog:{sigma:g}"
    )


def make_root_power_weight(a: float, c: float = 1.0) -> WeightFunction:
    """omega(t) = max(0, c*(t**a - 1))."""
    if a <= 0 or c <= 0:
        raise ValueError("need a > 0 and c > 0")
    if c * a == 0.0:
        # the rows' threshold c*a underflows: every row would divide by 0
        raise ValueError("need c * a > 0 in floating point")
    return WeightFunction(
        ("root_power", float(a), float(c)), None, math.inf, f"rootpower:{a:g},{c:g}"
    )


def associated_function(seq: LogWeightSequence) -> WeightFunction:
    """omega_M(t) = sup_p log(t^p / M_p) as an exact envelope in s = log t."""
    if not seq.is_normalized():
        raise NotNormalized(seq.label or "input sequence")

    def build():
        env = upper_envelope_of_lines(np.arange(seq.P + 1), -seq.L)
        return env, env.breakpoint(-1)[0]

    # The envelope is kept on the sequence, never the WeightFunction: its
    # source points back at seq, and that cycle would keep every row alive
    # until the garbage collector runs.
    env, valid_to = kept(seq, "_envelope", build)
    return WeightFunction(
        ("sequence", seq), env, valid_to,
        f"omega({seq.label})" if seq.label else "",
    )


def sequence_from_weight(
    w: WeightFunction, l: float, pmax: int, label: str = ""
) -> LogWeightSequence:
    """The matrix row  j -> exp((1/l) * phi*(l*j)).

    A closed-form row comes from the row memo of LogWeightSequence.from_tail.
    A row derived from a sequence is kept on that sequence, keyed on
    (l, pmax, label), next to its envelope; it never refers back to it."""
    if l <= 0:
        raise ValueError("parameter l must be positive")
    kind = w.source[0]
    label = label or f"{w.label};l={l:g}"
    if kind == "power_log":
        sigma = w.source[1]
        beta = sigma / (sigma - 1.0)
        try:
            kappa = (sigma - 1.0) * l ** (beta - 1.0) * sigma ** (-beta)
        except OverflowError:
            kappa = math.inf
        # kappa underflows to 0 for sigma near 1 and l < 1; log M_p
        # increases with p, so the row is finite when log M_pmax is
        tail = PowerIndex(kappa, beta) if 0.0 < kappa < math.inf else None
        if tail is None or not math.isfinite(tail.log_value(pmax)):
            raise DomainExceeded(f"row {label} leaves the float range by p = {pmax}")
        return LogWeightSequence.from_tail(tail, pmax, label)
    if kind == "root_power":
        a, c = w.source[1], w.source[2]
        return LogWeightSequence.from_tail(RootPowerDualTail(a, c, l), pmax, label)
    seq: LogWeightSequence = w.source[1]
    # the hull lc_minorant(seq) has the same indices 0..P as seq
    if l * pmax > seq.P + 1e-9:
        raise DomainExceeded(
            f"need slope {l * pmax:g} but representation ends at {seq.P}"
        )

    def build():
        hull = lc_minorant(seq)
        stepped = SteppedTail(hull.L, hull.tail, l)
        vals = stepped.log_values(np.arange(pmax + 1))
        # a prefix-only parent gives no certified asymptote for the row
        tail = stepped if hull.tail is not None else None
        return LogWeightSequence(vals, tail, 0, label)

    return kept(seq, "_derived", build, (l, pmax, label))


# -- condition battery --------------------------------------------------

def _pl_exp_integral(phi: ConvexPL, s0: float, s1: float) -> float:
    """integral of phi(s)*exp(-s) ds over [s0, s1] (phi linear pieces)."""
    grid = [s0] + [s for s, _ in phi.breakpoints if s0 < s < s1] + [s1]
    total = 0.0
    for a, b in zip(grid, grid[1:]):
        va, vb = phi((a + b) / 2 - (b - a) / 2), phi((a + b) / 2 + (b - a) / 2)
        m = (vb - va) / (b - a)
        # antiderivative of (va + m*(s-a))e^{-s} is -(phi(s)+m)e^{-s}
        total += (va + m) * math.exp(-a) - (vb + m) * math.exp(-b)
    return total


def check_omega_conditions(w: WeightFunction) -> dict[str, Verdict]:
    cls = w.growth_class()
    out: dict[str, Verdict] = {}

    # (omega0): continuous, increasing, zero on [0,1], divergent at infinity
    phi0 = float(w.phi(0.0))
    increasing = True
    if w.phi_pl is not None:
        increasing = all(m >= -1e-12 for m in w.phi_pl.slopes() if math.isfinite(m))
    if abs(phi0) > 1e-12 or not increasing:
        out["omega0"] = verdicts.fails(phi_at_0=phi0, increasing=increasing)
    else:
        out["omega0"] = verdicts.holds(phi_at_0=phi0)

    out["omega4"] = verdicts.holds(structural="convex piecewise carrier")

    if cls is None:
        grid = np.linspace(1.0, max(w.valid_to, 2.0), 64)
        ratio = float(np.max(w.phi(grid + math.log(2)) / np.maximum(w.phi(grid), 1e-300)))
        for name in ("omega1", "omega2", "omega3", "omega5", "omega6", "omega7", "omega_nq"):
            out[name] = verdicts.inconclusive(
                "no growth class; truncated evidence only", doubling_ratio=ratio
            )
        return out

    kind, expo = cls
    if kind == "power":
        alpha = expo
        out["omega1"] = verdicts.holds(**verdicts.pow2_witness("C", alpha))
        out["omega2"] = (
            verdicts.holds(exponent=alpha) if alpha <= 1.0
            else verdicts.fails(exponent=alpha)
        )
        out["omega3"] = verdicts.holds(exponent=alpha)
        out["omega5"] = (
            verdicts.holds(exponent=alpha) if alpha < 1.0
            else verdicts.fails(exponent=alpha)
        )
        if math.isinf(1.0 / alpha):
            raise DomainExceeded(f"growth exponent {alpha!r} has no finite reciprocal")
        k = math.ceil(1.0 / alpha)
        out["omega6"] = verdicts.holds(**verdicts.pow2_witness("H", k))
        out["omega7"] = verdicts.fails(reason_exponent=2 * alpha)
        if alpha < 1.0:
            wit = {}
            if w.phi_pl is not None:
                wit["resolved_integral"] = _pl_exp_integral(w.phi_pl, 0.0, w.valid_to)
            out["omega_nq"] = verdicts.holds(exponent=alpha, **wit)
        else:
            out["omega_nq"] = verdicts.fails(exponent=alpha)
    else:
        sigma = expo
        out["omega1"] = verdicts.holds(C=1.0, note="doubling shifts log t by log 2")
        out["omega2"] = verdicts.holds(subpolynomial=True)
        out["omega3"] = (
            verdicts.holds(sigma=sigma) if sigma > 1.0 else verdicts.fails(sigma=sigma)
        )
        out["omega5"] = verdicts.holds(subpolynomial=True)
        out["omega6"] = verdicts.fails(
            reason="additive shift of log t cannot double (log t)^sigma"
        )
        out["omega7"] = verdicts.holds(**verdicts.pow2_witness("C", math.ceil(sigma)), H=1.0)
        out["omega_nq"] = verdicts.holds(sigma=sigma)
    return out


def omega_ratio_range(
    w1: WeightFunction, w2: WeightFunction, t_lo: float, t_hi: float
) -> tuple[float, float]:
    """min and max of omega_1/omega_2 at 512 geometric points of [t_lo, t_hi]."""
    t = np.geomspace(t_lo, t_hi, 512)
    r = w1.omega(t) / w2.omega(t)
    return float(np.min(r)), float(np.max(r))


def relation_omega(sigma_w: WeightFunction, tau_w: WeightFunction, kind: str) -> Verdict:
    """Relations sigma preceq tau (tau = O(sigma)), sim, and tau = o(sigma)."""
    if kind not in ("preceq", "sim", "triangle"):
        raise ValueError(f"unknown relation kind: {kind}")
    c1, c2 = sigma_w.growth_class(), tau_w.growth_class()
    if c1 is None or c2 is None:
        hi = min(sigma_w.valid_to, tau_w.valid_to)
        if hi <= 1.0:
            return verdicts.inconclusive("no shared domain")
        # past t = e**700 the grid would leave the float range
        lo_r, hi_r = omega_ratio_range(tau_w, sigma_w, math.e, math.exp(min(hi, 700.0)))
        return verdicts.inconclusive(
            "growth class unavailable", ratio_range=(lo_r, hi_r)
        )

    # the classes order as the growth does (Scale.omega_class)
    ok = {"preceq": c2 <= c1, "sim": c1 == c2, "triangle": c2 < c1}[kind]
    return verdicts.holds(classes=(c1, c2)) if ok else verdicts.fails(classes=(c1, c2))


def check_lemma_assofunc(seq: LogWeightSequence) -> Verdict:
    """Self-test: omega_M of an LC sequence is a weight, and the root
    behaviour of m_p = M_p/p! forces (omega2) resp. (omega5)."""
    if not check_in_LC(seq).holds:
        raise ClassMembershipFailed(seq.label or "input sequence")
    w = associated_function(seq)
    conds = check_omega_conditions(w)
    parts = {k: conds[k] for k in ("omega0", "omega3", "omega4")}
    g = root_gap_limit(seq.tail, FactorialPower(1.0, 1.0))
    # each premise is decided here, so each part is its consequent
    if g is not None and g > -math.inf:
        parts["omega2_implication"] = conds["omega2"]
    if g == math.inf:
        parts["omega5_implication"] = conds["omega5"]
    return verdicts.conjunction(parts)


def check_relation_comparison(M: LogWeightSequence, N: LogWeightSequence) -> Verdict:
    """Two transfer implications between sequence order and weight order."""
    wM = associated_function(M)
    wN = associated_function(N)
    part1 = verdicts.implication(
        verdicts.conjunction(
            {"omega1": check_omega_conditions(wM)["omega1"], "preceq": relation_preceq(M, N)}
        ),
        lambda: relation_omega(wM, wN, "preceq"),
    )
    part2 = verdicts.implication(
        verdicts.conjunction(
            {"mg": check_moderate_growth(N), "omega_preceq": relation_omega(wN, wM, "preceq")}
        ),
        lambda: relation_preceq(N, M),
    )
    return verdicts.conjunction({"order_transfer": part1, "order_reflect": part2})
