"""Exception hierarchy shared across the package.

Two families matter for the CLI exit-code contract: configuration and
validation problems (``ConfigError`` subclasses, exit code 2) and runtime or
numeric failures (every other ``GclError``, exit code 1).
"""

from __future__ import annotations


class GclError(Exception):
    """Base class for all package errors."""


class ConfigError(GclError):
    """Invalid configuration or argument values. Maps to CLI exit code 2."""


class ShapeMismatchError(ConfigError):
    """Array shapes disagree with the operation's contract."""


class InvalidTemperatureError(ConfigError):
    """Temperature must be strictly positive."""


class EmptyPairSetError(ConfigError):
    """A loss was configured with no query/candidate pairs."""


class BatchTooSmallError(ConfigError):
    """The operation needs more rows than the batch provides."""


class InvalidDimsError(ConfigError):
    """Dimension parameters are inconsistent (e.g. latent dim > input dim)."""


class StepOutOfRangeError(ConfigError):
    """A schedule was queried outside [0, total_steps]."""


class KOutOfRangeError(ConfigError):
    """Retrieval cutoff k is not in [1, pool size]."""


class ZeroVectorError(GclError):
    """A vector with norm below the zero threshold cannot be normalized."""


class FormatError(GclError):
    """A binary file does not match the expected layout.

    Attributes:
        offset: Byte offset at which the problem was detected, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DuplicateIdError(GclError):
    """Candidate or query ids collide where uniqueness is required."""


class EmptyPoolError(GclError):
    """A retrieval pool or query set has no entries."""


class MissingModalityError(GclError):
    """A diagnostic needs samples from a modality that has none."""


class NonFiniteGradientError(GclError):
    """A gradient contained NaN or Inf; training state at failure is attached."""

    state_dump: dict | None = None


class DivergenceDetectedError(GclError):
    """The training loss became non-finite."""


class DegenerateDataError(GclError):
    """Input data carries no usable signal (e.g. zero total variance)."""
