"""Exception types shared across the package: one type per failure, wherever it is detected.

The function that takes a value refuses it, before any work, with :class:`ParameterError` when it
lies outside its range (the CLI's usage error); a plain ``ValueError`` is an internal failure.
"""


class EntOrderError(Exception):
    """Base class for all package errors."""


class ValidationError(EntOrderError):
    """A spectrum or report failed structural validation."""


class NonPositive(ValidationError):
    """A Schmidt weight is zero or negative."""


class NotNormalized(ValidationError):
    """Weights (plus any certified tail) do not sum to one."""


class WeightsIncrease(ValidationError):
    """A log weight exceeds the one before it by more than the tie tolerance.

    Carries the index of the first such step.
    """

    def __init__(self, message, index):
        self.index = index
        super().__init__(message)


class ParseError(EntOrderError):
    """A spectrum file could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParameterError(EntOrderError, ValueError):
    """A caller gave a value outside its range."""


class QOutOfRange(ParameterError):
    """Squeezing parameter outside [0, 1)."""


class OffsetNotFound(EntOrderError):
    """No shift up to the configured maximum satisfies the curve conditions."""


class ConditionViolated(EntOrderError):
    """Curve conditions fail inside the requested discretization range."""


class TruncationUnsafe(EntOrderError):
    """A truncation tail is large enough to contaminate a requested comparison."""


class WindowTooSmall(EntOrderError):
    """A comparison window or trend-test sequence holds fewer points than ``min_points``."""


class InvalidFamily(EntOrderError):
    """A sampled reference-family member fails the tail-function conditions."""
