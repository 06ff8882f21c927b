"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Multi-indices, points or weights of different dimensions were combined."""


class WeightDomainError(ValueError):
    """A weight value was requested outside the weight's domain of definition."""


class SequenceExhausted(WeightDomainError):
    """An explicit radial coefficient list is shorter than the requested index."""


class BallDomainError(ValueError):
    """A metric evaluation point lies on or outside the unit sphere."""


class TailUnreliableError(RuntimeError):
    """No rigorous tail bound is available for a truncated series evaluation."""


class WeightSpecError(ValueError):
    """A serialized weight specification is malformed."""
