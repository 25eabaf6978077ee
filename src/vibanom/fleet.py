"""Fleet orchestration: per-location predictors over frame streams.

A fleet is a list of predictors, each owning a trained checkpoint, a
score normalization, an alarm configuration, and a location label. Every
frame routed to a predictor produces exactly one StatusReport, appended
to a newline-delimited report log whose records round-trip losslessly
(floats are serialized with repr, which preserves the exact value).

Reconstruction error is computed in standardized space, matching how
the score normalization was calibrated. A stream is walked in _CHUNK-frame
slices: each slice is stacked, standardized, reconstructed and reported
before the next is touched, so the working memory is one chunk's, however
long the stream.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import dcan
from .errors import ConfigurationError, DimensionError, ParseError, RoutingError
from .ingest import Frame, stack_frames
from .scoring import (
    AlarmConfig,
    AlarmLevel,
    HysteresisState,
    ScoreNormalization,
    calibrate,
    evaluate,
)
from .training import load_checkpoint, standardize

DEFAULT_LOCATIONS = (
    "motor-left",
    "motor-right",
    "gear-left",
    "gear-right",
    "cylinder-left",
    "cylinder-right",
)

# frames per stack/standardize/reconstruct/report step
_CHUNK = 64

# report lines are space-separated key:value pairs, so these tokens must
# stay free of spaces and colons
_TOKEN = re.compile(r"^[A-Za-z0-9_.\-/]+$")

REPORT_FIELDS = (
    "ts",
    "predictor",
    "location",
    "axis_mse",
    "total_mse",
    "score",
    "level",
    "alarm",
    "window_anomalous",
)


@dataclass(frozen=True)
class PredictorSpec:
    """One fault predictor: identity, model checkpoint, alarm settings."""

    id: str
    location: str
    checkpoint: str
    normalization: Optional[ScoreNormalization] = None
    alarm: AlarmConfig = field(default_factory=AlarmConfig)

    def __post_init__(self):
        for label, value in (("id", self.id), ("location", self.location)):
            if not (isinstance(value, str) and _TOKEN.match(value)):
                raise ConfigurationError(
                    "predictor %s %r must be a non-empty string without "
                    "spaces or colons" % (label, value)
                )
        if not (isinstance(self.checkpoint, str) and self.checkpoint):
            raise ConfigurationError(
                "predictor %s needs a checkpoint path, got %r"
                % (self.id, self.checkpoint)
            )


@dataclass(frozen=True)
class FleetConfig:
    """A deployed set of predictors plus the shared report log path."""

    predictors: Tuple[PredictorSpec, ...]
    report_log: str = "reports.log"

    def __post_init__(self):
        predictors = tuple(self.predictors)
        if not predictors:
            raise ConfigurationError("a fleet needs at least one predictor")
        if not isinstance(self.report_log, str):
            raise ConfigurationError(
                "report_log must be a path string, got %r" % (self.report_log,)
            )
        ids = [p.id for p in predictors]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigurationError(
                "duplicate predictor ids: %s" % ", ".join(dupes)
            )
        object.__setattr__(self, "predictors", predictors)

    def predictor(self, predictor_id: str) -> PredictorSpec:
        for spec in self.predictors:
            if spec.id == predictor_id:
                return spec
        raise RoutingError("unknown predictor id %r" % predictor_id)


def default_fleet_config(
    checkpoint_dir: str = "checkpoints", report_log: str = "reports.log"
) -> FleetConfig:
    """The six-location mill deployment with conventional paths."""
    predictors = tuple(
        PredictorSpec(
            id=name,
            location=name,
            checkpoint="%s/%s.ckpt" % (checkpoint_dir, name),
        )
        for name in DEFAULT_LOCATIONS
    )
    return FleetConfig(predictors=predictors, report_log=report_log)


@dataclass(frozen=True)
class StatusReport:
    """One predictor's verdict on one frame."""

    timestamp: int
    predictor_id: str
    location: str
    per_axis_mse: Tuple[float, ...]
    total_mse: float
    score: float
    level: AlarmLevel
    alarm_fired: bool
    anomalous_in_window: int

    def __post_init__(self):
        object.__setattr__(
            self, "per_axis_mse", tuple(float(v) for v in self.per_axis_mse)
        )
        object.__setattr__(self, "level", AlarmLevel(self.level))
        if self.alarm_fired and self.level < AlarmLevel.LOW:
            raise ConfigurationError(
                "a fired alarm requires at least the low level"
            )


def format_report(report: StatusReport) -> str:
    """Serialize to one log line; parse_report inverts this losslessly."""
    values = (
        str(report.timestamp),
        report.predictor_id,
        report.location,
        ",".join(repr(v) for v in report.per_axis_mse),
        repr(report.total_mse),
        repr(report.score),
        report.level.name.lower(),
        "1" if report.alarm_fired else "0",
        str(report.anomalous_in_window),
    )
    return " ".join(
        "%s:%s" % (key, value) for key, value in zip(REPORT_FIELDS, values)
    )


def parse_report(line: str) -> StatusReport:
    """Parse one report-log line back into a StatusReport."""
    tokens = line.strip().split(" ")
    if len(tokens) != len(REPORT_FIELDS):
        raise ParseError(
            "report line has %d fields, expected %d: %r"
            % (len(tokens), len(REPORT_FIELDS), line)
        )
    values = {}
    for key, token in zip(REPORT_FIELDS, tokens):
        prefix = key + ":"
        if not token.startswith(prefix):
            raise ParseError(
                "expected field %r, got token %r" % (key, token)
            )
        values[key] = token[len(prefix):]
    try:
        level = AlarmLevel[values["level"].upper()]
    except KeyError:
        raise ParseError("unknown alarm level %r" % values["level"]) from None
    if values["alarm"] not in ("0", "1"):
        raise ParseError("alarm flag must be 0 or 1, got %r" % values["alarm"])
    try:
        return StatusReport(
            timestamp=int(values["ts"]),
            predictor_id=values["predictor"],
            location=values["location"],
            per_axis_mse=tuple(
                float(v) for v in values["axis_mse"].split(",")
            ),
            total_mse=float(values["total_mse"]),
            score=float(values["score"]),
            level=level,
            alarm_fired=values["alarm"] == "1",
            anomalous_in_window=int(values["window_anomalous"]),
        )
    except ValueError as exc:
        raise ParseError("bad report line %r: %s" % (line, exc)) from None


def write_report_log(reports: Sequence[StatusReport], path):
    """Append reports to the log, one line each."""
    with open(path, "a", encoding="utf-8") as fh:
        for report in reports:
            fh.write(format_report(report) + "\n")


def read_report_log(path) -> List[StatusReport]:
    reports = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            reports.append(parse_report(line))
    return reports


def _predictor_from_dict(entry: dict) -> PredictorSpec:
    if not isinstance(entry, dict):
        raise ConfigurationError("predictor entry must be an object, got %r" % (entry,))
    norm, alarm = entry.get("normalization"), entry.get("alarm")
    return PredictorSpec(**{
        **entry,
        "normalization": None if norm is None else ScoreNormalization(**norm),
        "alarm": AlarmConfig() if alarm is None else AlarmConfig(**alarm),
    })


def fleet_config_from_dict(data: dict) -> FleetConfig:
    """The inverse of save_fleet_config: the same fields, no others.

    An absent or null alarm gives the default AlarmConfig; a null
    normalization stays None. Unknown, missing or mistyped fields raise
    ConfigurationError.
    """
    try:
        predictors = tuple(_predictor_from_dict(e) for e in data["predictors"])
        return FleetConfig(**{**data, "predictors": predictors})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError("malformed fleet config: %s" % exc) from exc


def save_fleet_config(config: FleetConfig, path):
    text = json.dumps(asdict(config), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_fleet_config(path) -> FleetConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            "fleet config %s is not valid JSON: %s" % (path, exc)
        ) from exc
    if not isinstance(data, dict):
        raise ConfigurationError(
            "fleet config %s must be a JSON object" % path
        )
    return fleet_config_from_dict(data)


def _reconstruction_reports(model, stats, frames: Sequence[Frame]):
    """Stack, standardize, reconstruct and report _CHUNK frames at a time."""
    reports = []
    for start in range(0, len(frames), _CHUNK):
        batch = standardize(stack_frames(frames[start:start + _CHUNK]), stats)
        reports.extend(dcan.reconstruction_report(batch, dcan.reconstruct(model, batch)))
    return reports


def _ordered_stream(spec: PredictorSpec, frames: Sequence[Frame]) -> List[Frame]:
    ordered = sorted(frames, key=lambda f: f.timestamp)
    for earlier, later in zip(ordered, ordered[1:]):
        if later.timestamp == earlier.timestamp:
            raise RoutingError(
                "predictor %s got two frames for timestamp %d; one report "
                "per sampling time" % (spec.id, earlier.timestamp)
            )
    return ordered


def _check_axes(model, frames: Sequence[Frame], who: str) -> None:
    """Reject an empty stream, or any frame the checkpoint has the wrong axes for.

    who prefixes the message, e.g. "predictor p: ", or is empty. A later
    frame is named by its index in frames and its timestamp.
    """
    if len(frames) == 0:
        raise DimensionError("%sthe stream has no frames" % who)
    axes = model.config.axes
    if frames[0].axes != axes:
        raise ConfigurationError(
            "%scheckpoint expects %d axes but frames have %d"
            % (who, axes, frames[0].axes)
        )
    for k, frame in enumerate(frames):
        if frame.axes != axes:
            raise DimensionError(
                "%sframe %d (timestamp %d) has %d axes, expected %d"
                % (who, k, frame.timestamp, frame.axes, axes)
            )


def evaluate_stream(
    spec: PredictorSpec, model, stats, frames: Sequence[Frame]
) -> List[StatusReport]:
    """Run one predictor over its frames in timestamp order."""
    if spec.normalization is None:
        raise ConfigurationError(
            "predictor %s has no calibration; run calibrate first" % spec.id
        )
    _check_axes(model, frames, "predictor %s: " % spec.id)
    ordered = _ordered_stream(spec, frames)
    return _status_reports(spec, ordered, _reconstruction_reports(model, stats, ordered))


def evaluate_self_calibrated(
    spec: PredictorSpec, model, stats, frames: Sequence[Frame]
) -> List[StatusReport]:
    """Run one predictor over frames, calibrated on those same frames.

    Each frame is reconstructed once: the total_mse values that fit the
    normalization are the ones scored. spec.normalization is ignored.
    """
    _check_axes(model, frames, "")
    ordered = _ordered_stream(spec, frames)
    recon = _reconstruction_reports(model, stats, ordered)
    norm = calibrate([r.total_mse for r in recon])
    return _status_reports(replace(spec, normalization=norm), ordered, recon)


def _status_reports(spec: PredictorSpec, ordered: Sequence[Frame], recon) -> List[StatusReport]:
    """Score reconstructed frames through the predictor's hysteresis window."""
    state = HysteresisState()
    reports = []
    for frame, rr in zip(ordered, recon):
        decision, state = evaluate(
            rr.total_mse, spec.normalization, spec.alarm, state
        )
        reports.append(
            StatusReport(
                timestamp=frame.timestamp,
                predictor_id=spec.id,
                location=spec.location,
                per_axis_mse=rr.per_axis_mse,
                total_mse=rr.total_mse,
                score=decision.score,
                level=decision.level,
                alarm_fired=decision.alarm_fired,
                anomalous_in_window=decision.anomalous_in_window,
            )
        )
    return reports


def run_fleet(
    fleet: FleetConfig,
    frame_streams: Dict[str, Sequence[Frame]],
    log_path=None,
) -> List[StatusReport]:
    """Route frame streams to their predictors and append the report log.

    Streams are keyed by predictor id; each predictor processes its
    frames in timestamp order, independently of the others. Reports are
    appended to log_path (default: the fleet's report_log) and returned
    in processing order: fleet order, then frame order.
    """
    unknown = sorted(set(frame_streams) - {p.id for p in fleet.predictors})
    if unknown:
        raise RoutingError(
            "no predictor for stream id(s): %s" % ", ".join(unknown)
        )
    all_reports: List[StatusReport] = []
    for spec in fleet.predictors:
        frames = frame_streams.get(spec.id, ())
        if not frames:
            continue
        model, stats = load_checkpoint(spec.checkpoint)
        all_reports.extend(evaluate_stream(spec, model, stats, frames))
    destination = fleet.report_log if log_path is None else log_path
    if destination:
        write_report_log(all_reports, destination)
    return all_reports


def calibrate_predictor(
    checkpoint_path, frames: Sequence[Frame]
) -> ScoreNormalization:
    """Fit score normalization from normal frames via a checkpoint."""
    model, stats = load_checkpoint(checkpoint_path)
    _check_axes(model, frames, "")
    reports = _reconstruction_reports(model, stats, frames)
    return calibrate([r.total_mse for r in reports])

