"""Bearing vibration anomaly detection toolkit.

Reconstruction-based scoring with a convolutional auto-encoding network,
alarm classification with windowed hysteresis, a synthetic signal laboratory
for validation, run-to-failure dataset ingestion, and multi-predictor fleet
monitoring.
"""

from vibanom.dcan import DcanConfig
from vibanom.errors import (
    AliasingWarning,
    CalibrationError,
    CheckpointError,
    ConfigurationError,
    DataWarning,
    DimensionError,
    IngestError,
    ParseError,
    RoutingError,
    SignalSpecError,
    TrainingError,
    VibanomError,
)
from vibanom.fleet import (
    FleetConfig,
    PredictorSpec,
    StatusReport,
    calibrate_predictor,
    load_fleet_config,
    run_fleet,
    save_fleet_config,
)
from vibanom.ingest import Frame, FrameBlock, build_nasa_splits, read_frames, write_frames
from vibanom.scoring import (
    AlarmConfig,
    AlarmDecision,
    AlarmLevel,
    HysteresisState,
    ScoreNormalization,
    calibrate,
    classify,
    evaluate,
    hysteresis_step,
    score,
)
from vibanom.signals import (
    NormalSignalSpec,
    Spectrum,
    Waveform,
    fft_magnitude,
    inject_sawtooth,
    synth_normal,
    synth_normal_frames,
    time_scale,
)
from vibanom.training import (
    StandardizationStats,
    TrainConfig,
    fit_standardization,
    load_checkpoint,
    save_checkpoint,
    standardize,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AlarmConfig",
    "AlarmDecision",
    "AlarmLevel",
    "AliasingWarning",
    "CalibrationError",
    "CheckpointError",
    "ConfigurationError",
    "DataWarning",
    "DcanConfig",
    "DimensionError",
    "FleetConfig",
    "Frame",
    "FrameBlock",
    "HysteresisState",
    "IngestError",
    "NormalSignalSpec",
    "ParseError",
    "PredictorSpec",
    "RoutingError",
    "ScoreNormalization",
    "SignalSpecError",
    "Spectrum",
    "StandardizationStats",
    "StatusReport",
    "TrainConfig",
    "TrainingError",
    "VibanomError",
    "Waveform",
    "build_nasa_splits",
    "calibrate",
    "calibrate_predictor",
    "classify",
    "evaluate",
    "fft_magnitude",
    "fit_standardization",
    "hysteresis_step",
    "inject_sawtooth",
    "load_checkpoint",
    "load_fleet_config",
    "read_frames",
    "run_fleet",
    "save_checkpoint",
    "save_fleet_config",
    "score",
    "standardize",
    "synth_normal",
    "synth_normal_frames",
    "time_scale",
    "train",
    "write_frames",
]
