"""Exception hierarchy shared by all modules."""


class WcalcError(Exception):
    """Base class for all toolkit errors."""


class NotLogConvex(WcalcError):
    pass


class NotNormalized(WcalcError):
    pass


class DomainExceeded(WcalcError):
    """A requested index needs slopes beyond the representation horizon."""


class StorageExceeded(WcalcError):
    """What an argument asks for is more than the machine can store."""


class RoutesDisagree(WcalcError):
    """Two theorem-equivalent computations returned different verdicts.

    This always signals an implementation bug, never a property of the
    input; it is raised instead of returned.
    """


class TruncationExhausted(WcalcError):
    """The minorant recursion could not locate a switch index."""

    def __init__(self, q_reached: int, msg: str = ""):
        self.q_reached = q_reached
        super().__init__(msg or f"recursion stalled after q={q_reached}")


class TailNotCertified(WcalcError):
    """An infinite sum was required but no symbolic tail certifies it."""


class InterpolantUnverified(WcalcError):
    """The heuristic sandwich interpolant failed its verification."""


class ClassMembershipFailed(WcalcError):
    pass


class HypothesisNotCertified(WcalcError):
    pass


class WidthBudgetExceeded(WcalcError):
    """Mollifier widths do not fit inside the requested support box."""


class TailDominates(WcalcError):
    """A quadrature tail bound exceeds the tolerated bracket width."""


class DerivativeOrderUnreliable(WcalcError):
    """Spectral differentiation hit the noise floor before the requested order."""
