"""Exception hierarchy for the monochromator simulator."""


class MonochromatorError(Exception):
    """Base class for all simulator errors."""


class EvanescentOrderError(MonochromatorError):
    """The grating equation has no real solution: |sin| argument exceeds 1.

    The requested diffraction order does not propagate; callers enumerating
    paths should discard the path, not abort.
    """

    def __init__(self, argument, order):
        super().__init__(
            f"evanescent diffraction order: arcsin argument {argument!r} outside [-1, 1] "
            f"(order {order})"
        )


class GrazingSingularityError(MonochromatorError):
    """The angular derivative diverges at the arcsin branch point."""

    def __init__(self, argument):
        super().__init__(
            f"velocity divergence singular: |arcsin argument| = {abs(argument)!r} too close to 1"
        )


class BelowCutoffError(MonochromatorError):
    """The requested velocity cannot reach the fixed exit angle at this order."""

    def __init__(self, velocity, order, cutoff):
        super().__init__(
            f"velocity {velocity} m/s below cutoff for |order| = {abs(order)} "
            f"(cutoff {cutoff:.1f} m/s)"
        )


class EmptyTransmissionError(MonochromatorError):
    """A beamline simulation transmitted zero weight."""


class ConfigurationError(MonochromatorError):
    """Invalid run configuration or missing grating data."""
