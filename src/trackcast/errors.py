"""Exception types shared across the package."""


class TrackcastError(Exception):
    """Base class for every package-specific error."""


class InvalidArgumentError(TrackcastError, ValueError):
    """An argument violates an operation's contract."""


class IllPosedError(InvalidArgumentError):
    """The data hold too few samples: an empty train or validation set,
    fewer windows than a fit has free parameters or a split needs, or
    fewer rows or points than a statistic needs."""


class ConfigError(TrackcastError):
    """A run configuration is missing, malformed, or inconsistent."""


class SchemaError(TrackcastError):
    """A CSV header does not expose the required columns."""


class DataFormatError(TrackcastError):
    """A CSV payload row or cell is malformed."""


class NumericDivergenceError(TrackcastError):
    """Training produced a non-finite loss value.

    Carries the training trace accumulated up to the failure, when one
    exists, so callers can report partial results.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class IntegrityError(TrackcastError):
    """A stored model artifact is truncated or internally inconsistent."""


class UnsupportedVersionError(TrackcastError):
    """A stored model artifact uses a format version this build cannot read."""
