"""Exception types shared across the package."""


class EllipTrackError(Exception):
    """Base class for all errors raised by this package."""


class EmptyMeasurementSet(EllipTrackError):
    """An operation that needs at least one measurement received none."""


class SingularInnovation(EllipTrackError):
    """The kinematic innovation covariance is numerically singular."""


class SingularPseudoCov(EllipTrackError):
    """A pseudo-measurement covariance is numerically singular."""


class NonFiniteState(EllipTrackError):
    """A filter state or a result computed from it overflowed to inf or NaN."""


class NotPSD(EllipTrackError):
    """A matrix required to be positive semi-definite is not."""


class ConfigError(EllipTrackError, ValueError):
    """A scenario or filter configuration is inconsistent."""


class MalformedRecord(EllipTrackError):
    """A serialized per-step record could not be parsed."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class StepMisalignment(EllipTrackError):
    """Two per-step files do not describe the same sequence of steps."""
