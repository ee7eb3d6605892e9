"""Exception hierarchy shared across the package.

Grouping matters for the CLI: ConfigError maps to exit code 2, and
DataError and every other error here (a diverged training, say) to exit
code 4, a data or training problem.
"""


class NormbaseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(NormbaseError):
    """Invalid configuration: bad value, unknown key, missing input path."""


class UnknownFeatureError(ConfigError):
    """A feature spec names a channel or calendar feature that does not exist."""


class DataError(NormbaseError):
    """Input data violates a precondition (too short, empty, inconsistent)."""


class ParseError(DataError):
    """Unparseable record in an input file.

    Attributes:
        line_number: 1-based line in the source text, when known.
    """

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyInputError(DataError):
    """Input held no data rows at all."""


class SchemaError(DataError):
    """Input contradicts its declared schema (channel, unit, or cadence)."""


class UnfillableChannelError(DataError):
    """Gap filling got a series with no present values to anchor on."""


class NoOverlapError(DataError):
    """Energy and weather series share no dates in the requested range."""


class InsufficientHistoryError(DataError):
    """Fewer rows than one sequence window requires."""


class UndefinedMetricError(DataError):
    """Metric denominator is zero for the given inputs."""


class DimensionError(NormbaseError):
    """Array arguments have incompatible shapes."""


class TrainingDivergedError(NormbaseError):
    """Training produced a non-finite loss or parameter."""

