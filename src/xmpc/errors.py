"""Exception types shared across the package.

Every class derives from one of two bases, and the base decides the CLI's
exit code.  A ``UsageError`` (a ``ValueError``) is a bad input or a bad
file, a caller mistake usually detectable before any real work starts:
exit code 2.  A ``FailureError`` (a ``RuntimeError``) is a failure that
surfaces mid-computation: exit code 3.
"""


class UsageError(ValueError):
    """A bad input or file; the CLI exits with code 2."""


class FailureError(RuntimeError):
    """A failure mid-computation; the CLI exits with code 3."""


class InvalidInputError(UsageError):
    """A numeric argument is out of range or non-finite."""


class SchemaError(UsageError):
    """A feature vector does not match the model's feature schema."""


class ConfigError(UsageError):
    """A configuration value or required setting is missing or invalid."""


class DeserializationError(UsageError):
    """A persisted file is truncated, corrupt, or has the wrong shape."""


class EpisodeIntegrityError(UsageError):
    """An episode file fails its internal consistency checks."""


class RenderError(UsageError):
    """A rendered document still holds an unfilled placeholder token."""


class SimulationDivergedError(FailureError):
    """The thermal simulation left its physically plausible range."""


class TrainingDivergedError(FailureError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"non-finite training loss at epoch {epoch}")


class OptimizationFailedError(FailureError):
    """Every candidate in the setpoint grid evaluated to a non-finite cost."""


class AttributionError(FailureError):
    """An episode's attributions do not add up to the outputs they explain."""


class GatewayError(FailureError):
    """The chat-completions service returned an error or malformed response."""


class GatewayTimeoutError(GatewayError):
    """The chat-completions service did not answer within the retry budget."""
