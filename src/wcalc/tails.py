"""Symbolic tails of weight sequences.

A truncated sequence stores log M_p only up to an index P, which is never
enough to decide an asymptotic condition.  A Tail is a closed-form rule for
log M_p valid from some index on; it supports exact evaluation at huge
(float-representable) integers via lgamma and exposes the Scale of its
root sequence p -> log(M_p)/p, all that is needed to decide the
quotient-series conditions and the pairwise root-limit relations exactly.

Each family writes its closed form once, as the vector hook _log_values;
Tail.log_values(ps) and the scalar Tail.log_value(p) both evaluate it.  A
hook computes every transcendental (lgamma, log, p**beta) with the scalar
math routines and lets numpy do only + - * / and linear interpolation,
which round the same way elementwise as they do on Python floats, so a
point's value does not depend on the points evaluated with it.

FactorialPower reads log p! at whole p >= 0 from one module-level table,
_LOG_FACTORIALS[p] = math.lgamma(p + 1.0), shared by every s and a.  It
starts empty and grows to the largest whole point of a request only when
the request has at least half as many whole points beyond the table as the
growth adds, so growing costs at most twice the lgamma calls the request
would make anyway: rows 0..P fill it, sparse samples far out (root gaps,
out to 4e6) never do.  Every other point is one scalar math.lgamma call,
as is every entry, so a value does not depend on where it came from.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Scale",
    "Tail",
    "FactorialPower",
    "PowerIndex",
    "SteppedTail",
    "RootPowerDualTail",
    "root_gap_limit",
    "geometric_mean",
]


# read-only; _log_factorials replaces it with a longer copy to grow it
_LOG_FACTORIALS = np.empty(0)
_LOG_FACTORIALS.flags.writeable = False


def _log_factorials(ps: np.ndarray) -> np.ndarray:
    """math.lgamma(p + 1.0) at every point of ps."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    whole = (ps >= 0) & (ps == np.floor(ps))
    beyond = ps[whole & (ps >= table.size)]
    if beyond.size and beyond.max() - table.size < 2 * beyond.size:
        new = np.arange(table.size, int(beyond.max()) + 1) + 1.0
        table = np.concatenate(
            (table, np.fromiter(map(math.lgamma, new.tolist()), float, new.size))
        )
        table.flags.writeable = False
        _LOG_FACTORIALS = table
    inside = whole & (ps < table.size)
    if inside.all():
        return table[ps.astype(np.intp)]
    out = np.empty(ps.size)
    out[inside] = table[ps[inside].astype(np.intp)]
    rest = ps[~inside] + 1.0
    out[~inside] = np.fromiter(map(math.lgamma, rest.tolist()), float, rest.size)
    return out


class Scale(NamedTuple):
    """Asymptotic scale of a root sequence p -> log(M_p)/p, one of

        ("log", alpha, beta):   root(p) = alpha*log p + beta + o(1)
        ("poly", gamma, kappa): root(p) = kappa * p**gamma * (1 + o(1)), gamma > 0

    A tuple, so a witness holding one encodes as the list [kind, u, v]."""

    kind: str
    u: float
    v: float

    @property
    def mu_order(self) -> float:
        """alpha with mu_p = p**(alpha + o(1)); inf on the poly scale."""
        return math.inf if self.kind == "poly" else self.u

    @property
    def root_diverges(self) -> bool:
        return self.mu_order > 0

    @property
    def series_converges(self) -> bool:
        """Does sum 1/mu_p (equivalently sum exp(-root)) converge?"""
        return self.mu_order > 1.0

    @property
    def moderate_growth(self) -> bool:
        """(M.2): L_p = O(p log p) keeps (L_{j+k} - L_j - L_k)/(j+k) bounded."""
        return self.kind == "log"

    @property
    def shift_defect_unbounded(self) -> bool:
        """Against a row at a finite root gap, a shift by one index adds
        kappa*(gamma+1)*j**(gamma-1) to (L_{j+1} - L'_j)/(j+1)."""
        return self.kind == "poly" and self.u > 1.0

    def gap_limit(self, other: Scale) -> float:
        """lim root(p) - root'(p), root' on other; exact closed forms agree to o(1)."""
        if self.kind != other.kind:
            return math.inf if self.kind == "poly" else -math.inf
        if self.kind == "log" and self.u == other.u:
            return self.v - other.v
        for a, b in ((self.u, other.u), (self.v, other.v)):
            if a != b:
                return math.inf if a > b else -math.inf
        return 0.0

    def mixed_moderate_growth(self, other: Scale) -> bool:
        """Is sup_{j,k} (L_{j+k} - L'_j - L'_k)/(j+k) finite, L' on other?"""
        if self.kind != other.kind:
            return self.kind == "log"
        if self.kind == "log" or self.u != other.u:
            return self.u <= other.u
        # diagonal j = k is the extremal direction for convex exponents
        return other.v >= 2.0 ** self.u * self.v * (1 - 1e-12)

    def stepped(self, l: float) -> Scale:
        """The scale of j -> (M_{l j})**(1/l)."""
        if self.kind == "log":
            return self._replace(v=self.v + self.u * math.log(l))
        return self._replace(v=self.v * l ** self.u)

    def omega_class(self) -> tuple | None:
        """("power", e) for omega(t) ~ t**e, ("logpower", e) for (log t)**e,
        None for a bounded root; the classes order as omega grows."""
        if self.kind == "log":
            return ("power", 1.0 / self.u) if self.u > 0 else None
        beta = self.u + 1.0
        return ("logpower", beta / (beta - 1.0))


class Tail:
    """Closed-form continuation of a log weight sequence."""

    def log_value(self, p: float) -> float:
        return float(self._log_values(np.array([float(p)]))[0])

    def log_values(self, ps) -> np.ndarray:
        """log_value at every point of ps, as a float array."""
        return self._log_values(np.atleast_1d(np.asarray(ps, dtype=float)))

    def _log_values(self, ps: np.ndarray) -> np.ndarray:
        # families override this hook, never log_value(s) itself
        raise NotImplementedError

    def root(self, p: float) -> float:
        return self.log_value(p) / p

    def mu_log(self, p: float) -> float:
        """log mu_p = log M_p - log M_{p-1}."""
        return self.log_value(p) - self.log_value(p - 1)

    def asymptote(self) -> Scale:
        """The family's _scale(), computed once per tail."""
        if "_scale" not in self.__dict__:
            self.__dict__["_scale"] = self._scale()
        return self.__dict__["_scale"]

    def is_log_convex(self) -> bool:
        raise NotImplementedError

    # certified bounds; None means "not available for this tail family"

    def reciprocal_mu_tail_bounds(self, P: int) -> tuple[float, float] | None:
        """Bracket for sum_{p > P} 1/mu_p, or None."""
        return None

    def root_sum_tail_upper(self, X: float) -> float | None:
        """Certified upper bound for sum_{p > X} exp(-root(p)), or None."""
        return None

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class FactorialPower(Tail):
    """M_p = p!**s * a**p; the Gevrey family is a = 1."""

    s: float
    a: float = 1.0

    def __post_init__(self):
        if self.s < 0 or self.a <= 0:
            raise ValueError("need s >= 0 and a > 0")

    def _log_values(self, ps: np.ndarray) -> np.ndarray:
        return self.s * _log_factorials(ps) + ps * math.log(self.a)

    def _scale(self) -> Scale:
        # log p!/p = log p - 1 + o(1)
        return Scale("log", self.s, math.log(self.a) - self.s)

    def is_log_convex(self) -> bool:
        return True

    def reciprocal_mu_tail_bounds(self, P: int) -> tuple[float, float] | None:
        # mu_p = a * p**s exactly; integral test around sum_{p>P} 1/(a p**s)
        s, a = self.s, self.a
        if s <= 1.0:
            return None
        hi = P ** (1.0 - s) / (a * (s - 1.0))
        lo = (P + 1.0) ** (1.0 - s) / (a * (s - 1.0))
        return (lo, hi)

    def root_sum_tail_upper(self, X: float) -> float | None:
        # root(p) >= s*(log p - 1) + log a since log p! >= p log p - p,
        # so exp(-root(p)) <= (e**s/a) p**-s and the integral test applies.
        s, a = self.s, self.a
        if s <= 1.0:
            return None
        try:
            return (math.exp(s) / a) * X ** (1.0 - s) / (s - 1.0)
        except OverflowError:
            # e**s or X**(1 - s) is past the float range: one exp of the
            # sum of the logs, and inf if the bound itself is past it
            log_bound = s - math.log(a) + (1.0 - s) * math.log(X) - math.log(s - 1.0)
            try:
                return math.exp(log_bound)
            except OverflowError:
                return math.inf

    def to_json(self) -> dict:
        if self.a == 1.0:
            return {"family": "gevrey", "s": self.s}
        return {"family": "factorial_power", "s": self.s, "a": self.a}


def _pow_or_inf(p: float, beta: float) -> float:
    try:
        return p ** beta
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PowerIndex(Tail):
    """log M_p = kappa * p**beta (rows derived from power-log weights)."""

    kappa: float
    beta: float

    def __post_init__(self):
        if self.kappa <= 0 or self.beta < 1:
            raise ValueError("need kappa > 0 and beta >= 1")

    def _log_values(self, ps: np.ndarray) -> np.ndarray:
        # p**beta past the float range is inf, as in RootPowerDualTail
        powers = np.fromiter(map(_pow_or_inf, ps.tolist(), [self.beta] * ps.size), float, ps.size)
        with np.errstate(over="ignore"):
            return self.kappa * powers

    def _scale(self) -> Scale:
        if self.beta == 1.0:
            return Scale("log", 0.0, self.kappa)
        return Scale("poly", self.beta - 1.0, self.kappa)

    def is_log_convex(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {"family": "power_index", "kappa": self.kappa, "beta": self.beta}


class SteppedTail(Tail):
    """Tail of the subsequence-root row  j -> (M_{l j})**(1/l).

    Between the stored integer indices of the parent the log values are
    interpolated linearly (the parent row is used only when log-convex, so
    the interpolant is the exact piecewise-linear hull evaluation); beyond
    the stored prefix the parent tail takes over.
    """

    def __init__(self, parent_log_values, parent_tail: Tail | None, l: float):
        if l <= 0:
            raise ValueError("step must be positive")
        self.parent_log_values = np.asarray(parent_log_values, dtype=float)
        self.parent_tail = parent_tail
        self.l = float(l)

    def _log_values(self, ps: np.ndarray) -> np.ndarray:
        xs = self.l * ps
        last = len(self.parent_log_values) - 1
        inside = xs <= last
        out = np.empty_like(xs)
        out[inside] = np.interp(xs[inside], np.arange(last + 1), self.parent_log_values)
        if not inside.all():
            if self.parent_tail is None:
                raise ValueError("parent prefix exhausted and no parent tail")
            out[~inside] = self.parent_tail._log_values(xs[~inside])
        with np.errstate(over="ignore"):
            return out / self.l

    def _scale(self) -> Scale:
        if self.parent_tail is None:
            raise ValueError("stepped tail over a prefix-only parent has no asymptote")
        return self.parent_tail.asymptote().stepped(self.l)

    def is_log_convex(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {
            "family": "stepped",
            "l": self.l,
            "parent_tail": None if self.parent_tail is None else self.parent_tail.to_json(),
            "parent_len": len(self.parent_log_values),
        }


@dataclass(frozen=True)
class RootPowerDualTail(Tail):
    """Row of the matrix associated to omega(t) = max(0, c*(t**a - 1)).

    log M_j = (1/l) * phi_star(l*j) with the closed-form conjugate of
    phi(y) = c*(exp(a*y) - 1).
    """

    a: float
    c: float
    l: float

    def _log_values(self, ps: np.ndarray) -> np.ndarray:
        xs = self.l * ps
        th = self.c * self.a
        out = np.zeros_like(xs)
        up = ~(xs <= th)
        x = xs[up]
        # a tiny exponent a overflows x / a to inf far out; the value is then
        # inf or nan, as in Python float arithmetic, and numpy stays quiet
        with np.errstate(over="ignore", invalid="ignore"):
            logs = np.fromiter(map(math.log, (x / th).tolist()), float, x.size)
            xa = x / self.a
            out[up] = (xa * logs - xa + self.c) / self.l
        return out

    def _scale(self) -> Scale:
        alpha = 1.0 / self.a
        beta = (math.log(self.l) - math.log(self.c * self.a) - 1.0) / self.a
        return Scale("log", alpha, beta)

    def is_log_convex(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {"family": "root_power_dual", "a": self.a, "c": self.c, "l": self.l}


def root_gap_limit(t1: Tail | None, t2: Tail | None) -> float | None:
    """Limit of root_1(p) - root_2(p) as p -> infinity; None without a tail."""
    return None if t1 is None or t2 is None else t1.asymptote().gap_limit(t2.asymptote())


def geometric_mean(t1: Tail | None, t2: Tail | None) -> Tail | None:
    """Tail of p -> (M_p N_p)**0.5 when a closed form exists."""
    if isinstance(t1, FactorialPower) and isinstance(t2, FactorialPower):
        return FactorialPower(0.5 * t1.s + 0.5 * t2.s, t1.a ** 0.5 * t2.a ** 0.5)
    return None


def tail_from_json(d: dict | None) -> Tail | None:
    if d is None:
        return None
    fam = d["family"]
    if fam == "gevrey":
        return FactorialPower(float(d["s"]), 1.0)
    if fam == "factorial_power":
        return FactorialPower(float(d["s"]), float(d.get("a", 1.0)))
    if fam == "power_index":
        return PowerIndex(float(d["kappa"]), float(d["beta"]))
    if fam == "root_power_dual":
        return RootPowerDualTail(float(d["a"]), float(d["c"]), float(d["l"]))
    raise ValueError(f"unknown tail family: {fam}")
