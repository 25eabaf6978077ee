"""Exception and warning types shared across the toolkit.

Every error raised by this package derives from VibanomError so callers can
catch the whole family at an API boundary (the CLI does exactly that).
Every count and number a fleet config or a checkpoint hands in passes
_count (an int >= 1) or _number (an int or float that fits a float); a
bool, a string or a numpy scalar (bar np.float64, a float) is neither.
"""

from __future__ import annotations


class VibanomError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(VibanomError):
    """Tensor shapes are incompatible with the requested operation."""


class ConfigurationError(VibanomError):
    """A config object or file violates its invariants."""


def _count(name, value):
    """Refuse value, naming the field, unless it is an int (not a bool) >= 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError("%s must be an integer >= 1, got %r" % (name, value))


def _number(name, value):
    """value as a float, if it is an int or float (not a bool) that fits one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError("%s must be a number, got %r" % (name, value))
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError("%s is too large for a float" % name) from None


class CalibrationError(VibanomError):
    """Statistics cannot be fit (degenerate or insufficient data)."""


class TrainingError(VibanomError):
    """The training loop hit a non-finite loss or gradient."""


class SignalSpecError(VibanomError):
    """A synthetic-signal specification is invalid (e.g. above Nyquist)."""


class CheckpointError(VibanomError):
    """Base class for checkpoint load/save failures."""


class CheckpointFormatError(CheckpointError):
    """Bad magic bytes or a structurally invalid checkpoint file."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint format version is not supported."""


class CheckpointTruncatedError(CheckpointError):
    """The checkpoint file ends mid-record."""


class ParseError(VibanomError):
    """A text input (recording file, CSV, report log) failed to parse."""


class IngestError(VibanomError):
    """A dataset directory is missing or malformed."""


class RoutingError(VibanomError):
    """A frame stream references a predictor the fleet does not know."""


class AliasingWarning(UserWarning):
    """Resampling pushed the dominant signal component past Nyquist."""


class DataWarning(UserWarning):
    """Input data was usable but shorter or smaller than requested."""
