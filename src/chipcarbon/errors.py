"""Exception types distinguishing bad configuration from bad model inputs."""


class ChipCarbonError(Exception):
    """Base class for all tool-specific errors."""


class ParameterError(ChipCarbonError):
    """A parameter document is malformed, out of range, or incomplete."""


class ConsistencyError(ChipCarbonError):
    """An internal invariant (e.g. breakdown closure) failed; indicates a bug."""


class NonFiniteError(ChipCarbonError, ValueError):
    """A quantity is inf or nan; past the flags, that means a result overflowed."""
