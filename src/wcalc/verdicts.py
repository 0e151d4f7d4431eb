"""Three-valued verdicts with replayable witnesses.

Asymptotic growth conditions cannot be decided from a finite prefix of a
sequence, so every condition tester in this package returns a Verdict that
is either Holds, Fails or Inconclusive.  Holds/Fails always carry a witness
(constants, indices, bracketing sums) that a checker can replay.

The connectives are written once.  "and" is `conjunction` (Fails
dominates, then Inconclusive: `combined_status`), "implies" is
`implication` (a failed hypothesis holds vacuously), and the quantifiers
"some row" / "every row" over a weight matrix are `matrices._exists` and
`matrices._forall`.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any


class Status(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: Status
    witness: dict[str, Any] = field(default_factory=dict)
    reason: str = ""

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS

    @property
    def inconclusive(self) -> bool:
        return self.status is Status.INCONCLUSIVE

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self, condition: str | None = None) -> dict[str, Any]:
        out: dict[str, Any] = {}
        if condition is not None:
            out["condition"] = condition
        out["status"] = self.status.value
        if self.witness:
            # a copy, so that no report shares a mutable dict with a kept verdict
            out["witness"] = dict(self.witness)
        if self.reason:
            out["reason"] = self.reason
        return out


def holds(**witness: Any) -> Verdict:
    return Verdict(Status.HOLDS, witness)


def fails(**witness: Any) -> Verdict:
    return Verdict(Status.FAILS, witness)


def inconclusive(reason: str, **witness: Any) -> Verdict:
    return Verdict(Status.INCONCLUSIVE, witness, reason)


def exp_witness(name: str, log_value: float) -> dict[str, float]:
    """{name: exp(log_value)}, or {"log_" + name: log_value} when the
    exponential is past the float range."""
    try:
        return {name: math.exp(log_value)}
    except OverflowError:
        return {"log_" + name: log_value}


def pow2_witness(name: str, x: float) -> dict[str, float]:
    """{name: 2.0 ** x}, or {"log_" + name: x log 2} when the power is past
    the float range.  2.0 ** x is not exp(x log 2) in the last bits, so
    the two helpers are kept apart."""
    try:
        return {name: 2.0 ** x}
    except OverflowError:
        return {"log_" + name: x * math.log(2.0)}


def combined_status(parts) -> Status:
    """Status of a conjunction: Fails dominates, then Inconclusive."""
    order = (Status.FAILS, Status.INCONCLUSIVE, Status.HOLDS)
    return min((v.status for v in parts), key=order.index, default=Status.HOLDS)


def conjunction(parts: dict[str, Verdict]) -> Verdict:
    """Combine named sub-verdicts by combined_status.
    The sub-verdicts ride along in the witness so runs can be replayed."""
    detail = {k: v.to_json() for k, v in parts.items()}
    status = combined_status(parts.values())
    if status is Status.HOLDS:
        return holds(checked=sorted(parts), parts=detail)
    named = sorted(k for k, v in parts.items() if v.status is status)
    if status is Status.FAILS:
        return fails(failed=named, parts=detail)
    return inconclusive("undecided sub-checks: " + ", ".join(named), parts=detail)


def implication(hyp: Verdict, then) -> Verdict:
    """hyp => then(): the consequent verdict when hyp holds, a vacuous
    Holds when it fails.  then is called only when hyp holds."""
    if hyp.holds:
        return then()
    if hyp.fails:
        return holds(vacuous=True)
    return inconclusive("hypothesis undecided")
