"""Exception types shared across the package.

Grouping rule: subclasses of ValueError indicate bad inputs or bad files
(caller mistakes, usually detectable before any real work starts), while
subclasses of RuntimeError indicate failures that surface mid-computation.
The CLI maps the former to exit code 2 and the latter to exit code 3.
"""


class InvalidInputError(ValueError):
    """A numeric argument is out of range or non-finite."""


class SchemaError(ValueError):
    """A feature vector does not match the model's feature schema."""


class ConfigError(ValueError):
    """A configuration value or required setting is missing or invalid."""


class DeserializationError(ValueError):
    """A persisted file is truncated, corrupt, or has the wrong shape."""


class EpisodeIntegrityError(ValueError):
    """An episode file fails its internal consistency checks."""


class RenderError(ValueError):
    """A rendered document still holds an unfilled placeholder token."""


class SimulationDivergedError(RuntimeError):
    """The thermal simulation left its physically plausible range."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"non-finite training loss at epoch {epoch}")


class OptimizationFailedError(RuntimeError):
    """Every candidate in the setpoint grid evaluated to a non-finite cost."""


class GatewayError(RuntimeError):
    """The chat-completions service returned an error or malformed response."""


class GatewayTimeoutError(GatewayError):
    """The chat-completions service did not answer within the retry budget."""
