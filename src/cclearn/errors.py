"""Exception types shared across the package."""


class DegenerateVectorError(ValueError):
    """A vector that must be normalizable has a (near-)zero or overflowing norm."""


class StateError(RuntimeError):
    """An operation was invoked against state it cannot work with."""


class UndefinedMetricError(ValueError):
    """The requested metric is undefined for the given inputs."""


class UndefinedProjectionError(ValueError):
    """A projection cannot be produced (rank-deficient data)."""


class TableParseError(ValueError):
    """A dataset table failed to parse; the message names the offending line."""


class TrainingError(RuntimeError):
    """A training run hit a non-recoverable numerical condition."""
