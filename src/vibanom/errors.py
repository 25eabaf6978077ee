"""Exception and warning types shared across the toolkit.

Every error raised by this package derives from VibanomError so callers can
catch the whole family at an API boundary (the CLI does exactly that).
"""

from __future__ import annotations


class VibanomError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(VibanomError):
    """Tensor shapes are incompatible with the requested operation."""


class ConfigurationError(VibanomError):
    """A config object or file violates its invariants."""


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
