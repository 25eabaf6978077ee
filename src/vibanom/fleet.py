"""Fleet orchestration: per-location predictors over frame streams.

A fleet is a list of predictors, each owning a trained checkpoint, a
score normalization, an alarm configuration, and a location label. Every
frame routed to a predictor produces exactly one StatusReport, appended
to a newline-delimited report log whose records round-trip losslessly
(floats are serialized with repr, which preserves the exact value).

Reconstruction error is computed in standardized space, matching how
the score normalization was calibrated. A stream is a FrameBlock or a
FrameFile (ingest.read_frames); a Sequence[Frame] is stacked into a block
once, as it comes in, and run_fleet also takes the path of a FRME file
and opens it with read_frames. Scoring and calibration take one walk,
_columns: it checks a stream against the checkpoint, orders it by one
stable argsort of its timestamps and cuts that order into fixed
_TASK-frame tasks, each of which gathers (for a FrameFile, reads and
checks its records), standardizes, reconstructs and reports its frames,
with the training loss's MSE (dcan.reconstruction_report). The tasks run
on the task runner that training shares (parallel.run_in_order): one
thread per usable CPU, the caller included, takes them in order, and
their reports, and the first error, come back in task order, as from a
sequential walk. At most _IN_FLIGHT frames, one task per thread, are
worked on at once, however long the stream; of a FrameFile nothing else is held but its timestamp column and
the reports, about 0.4 KB per frame. Every package error of a fleet
predictor's stream or checkpoint starts "predictor <id>: " (_named).

While the tasks run, the runner pins OpenBLAS to one thread
(vibanom.blas), and since the GEMM shapes are fixed by _TASK alone, the
report bits are the same for any worker count. They are the same for any
number of cores only where OpenBLAS is found and pinned: with another
BLAS (or no /proc) there is one worker and the BLAS keeps its own
threads, so the last digits can depend on the cores.
"""

from __future__ import annotations

import contextlib
import json
import mmap
import os
import re
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import dcan, ingest, parallel
from .errors import (
    CalibrationError,
    ConfigurationError,
    DataWarning,
    DimensionError,
    ParseError,
    RoutingError,
    VibanomError,
)
from .ingest import FrameBlock, FrameFile, Frames, frame_stream, read_frames, stack_frames
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

# frames per scoring task; a constant, so the GEMM shapes, and with them
# the report bits, do not depend on the worker count
_TASK = 16
# frames being scored at once, at most, whatever the machine: one task on
# each of the runner's threads
_IN_FLIGHT = 64
assert _TASK * parallel._MAX_WORKERS <= _IN_FLIGHT


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
        if self.anomalous_in_window < 0:
            raise ConfigurationError(
                "anomalous_in_window must be >= 0, got %r" % self.anomalous_in_window
            )
        if self.timestamp < 0:
            raise ConfigurationError("timestamp must be >= 0, got %r" % self.timestamp)
        # NaN and inf pass: a frame whose reconstruction overflows logs them
        for name, values in (("axis_mse", self.per_axis_mse), ("total_mse", (self.total_mse,))):
            for value in values:
                if value < 0:
                    raise ConfigurationError("%s must be >= 0, got %r" % (name, value))


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
    except (ValueError, ConfigurationError) as exc:  # StatusReport refused it
        raise ParseError("bad report line %r: %s" % (line, exc)) from None


def _torn_line_start(fh) -> Optional[int]:
    """Byte offset of the last line of a binary log file if it lacks its
    trailing newline (a write cut short), else None."""
    if os.fstat(fh.fileno()).st_size == 0:
        return None  # mmap cannot map an empty file
    with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
        if view[-1:] == b"\n":
            return None
        return view.rfind(b"\n") + 1


def _warn_torn(path, offset: int, action: str):
    warnings.warn(
        "report log %s: %s the torn last line at byte %d (no trailing newline)"
        % (path, action, offset),
        DataWarning,
        stacklevel=3,
    )


def write_report_log(reports: Sequence[StatusReport], path):
    """Append reports to the log, one line each.

    A torn last line already in the log is cut off first, with a
    DataWarning, so the first new record starts a line of its own.
    """
    with open(path, "a+b") as fh:
        torn = _torn_line_start(fh)
        if torn is not None:
            fh.truncate(torn)
            _warn_torn(path, torn, "cut")
        for report in reports:
            fh.write((format_report(report) + "\n").encode("utf-8"))


def read_report_log(path) -> List[StatusReport]:
    """Parse every line of a report log.

    A last line without its trailing newline (a write cut short) is
    dropped with a DataWarning naming its byte offset; a malformed
    complete line raises ParseError, prefixed `<path>:<line number>: `,
    counting every line of the file, blank ones included.
    """
    with open(path, "rb") as fh:
        torn = _torn_line_start(fh)
        fh.seek(0)
        data = fh.read() if torn is None else fh.read(torn)
    if torn is not None:
        _warn_torn(path, torn, "dropped")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("report log %s: not UTF-8 text: %s" % (path, exc)) from None
    reports = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            try:
                reports.append(parse_report(line))
            except ParseError as exc:
                raise ParseError("%s:%d: %s" % (path, lineno, exc)) from None
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
    normalization stays None. Unknown, missing or mistyped fields, and
    numbers too large for a float, raise ConfigurationError.
    """
    try:
        predictors = tuple(_predictor_from_dict(e) for e in data["predictors"])
        return FleetConfig(**{**data, "predictors": predictors})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError("malformed fleet config: %s" % exc) from exc


def save_fleet_config(config: FleetConfig, path):
    text = json.dumps(asdict(config), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _read_json_object(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at path; what names the file in
    the ConfigurationError that refuses anything else."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    # bad JSON, bad UTF-8, an over-long int, or nesting too deep to parse
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError("%s %s is not valid JSON: %s" % (what, path, exc)) from exc
    if not isinstance(data, dict):
        raise ConfigurationError("%s %s must be a JSON object" % (what, path))
    return data


def load_fleet_config(path) -> FleetConfig:
    return fleet_config_from_dict(_read_json_object(path, "fleet config"))


def _task_reports(model, stats, stream: FrameBlock | FrameFile, rows: np.ndarray):
    """Stack, standardize, reconstruct and report the frames at rows.

    A finite frame too large for float32 once standardized overflows to a
    non-finite MSE, which scoring reports as high and calibration refuses
    (calibrate_predictor): numpy's overflow and invalid-value warnings on
    the way there say nothing more, so they are not raised.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        batch = standardize(stack_frames(stream[rows]), stats)
        return dcan.reconstruction_report(batch, dcan.reconstruct(model, batch))


@contextlib.contextmanager
def _named(spec: PredictorSpec):
    """Put "predictor <id>: " in front of any package error raised in the
    block, and re-raise that same exception, its class and traceback kept."""
    try:
        yield
    except VibanomError as exc:
        exc.args = ("predictor %s: %s" % (spec.id, exc),)
        raise


def _columns(model, stats, frames: Frames):
    """The walk over one stream: its timestamps (a list) and the MSE
    columns (per_axis, total) of dcan.reconstruction_report, in timestamp
    order, whatever order the frames come in; frames that share a
    timestamp keep their given order.

    An empty stream, mixed axis counts and the wrong axis count for the
    checkpoint are refused. Each _TASK-frame slice of the order is one
    task of parallel.run_in_order, so a walk holds at most one task's
    frames, reconstruction and report per thread.
    """
    if len(frames) == 0:
        raise DimensionError("the stream has no frames")
    stream = frame_stream(frames)
    if stream.axes != model.config.axes:
        raise ConfigurationError(
            "checkpoint expects %d axes but frames have %d"
            % (model.config.axes, stream.axes)
        )
    order = np.argsort(stream.timestamps, kind="stable")
    stamps = stream.timestamps[order]
    tasks = [order[start:start + _TASK] for start in range(0, len(order), _TASK)]
    results = parallel.run_in_order(
        lambda k: _task_reports(model, stats, stream, tasks[k]),
        len(tasks),
    )
    per_axis, total = zip(*results)
    return stamps.tolist(), np.concatenate(per_axis), np.concatenate(total)


def evaluate_stream(spec: PredictorSpec, model, stats, frames: Frames) -> List[StatusReport]:
    """Run one predictor over its frames in timestamp order. Its package
    errors start "predictor <id>: "."""
    with _named(spec):
        if spec.normalization is None:
            raise ConfigurationError("no calibration; run calibrate first")
        return _status_reports(spec, *_columns(model, stats, frames))


def _status_reports(
    spec: PredictorSpec, stamps: List[int], per_axis: np.ndarray, total: np.ndarray
) -> List[StatusReport]:
    """Score reconstructed frames, given as the columns of _columns,
    through the predictor's hysteresis window. Two frames with one
    timestamp are refused: a sampling time has one report."""
    repeats = np.flatnonzero(np.diff(stamps) == 0)
    if repeats.size:
        raise RoutingError("two frames for timestamp %d; one report per "
                           "sampling time" % stamps[repeats[0]])
    state = HysteresisState()
    reports = []
    for timestamp, axis_mse, mse in zip(stamps, per_axis.tolist(), total.tolist()):
        decision, state = evaluate(mse, spec.normalization, spec.alarm, state)
        reports.append(
            StatusReport(
                timestamp=timestamp,
                predictor_id=spec.id,
                location=spec.location,
                per_axis_mse=axis_mse,
                total_mse=mse,
                score=decision.score,
                level=decision.level,
                alarm_fired=decision.alarm_fired,
                anomalous_in_window=decision.anomalous_in_window,
            )
        )
    return reports


def _run_predictor(spec: PredictorSpec, frames) -> List[StatusReport]:
    """One predictor's reports; a path is opened here (read_frames), and
    the scoring tasks read its samples, a task's records at a time."""
    with _named(spec):
        if isinstance(frames, (str, os.PathLike)):
            frames = read_frames(frames)
        if len(frames) == 0:
            return []
        model, stats = load_checkpoint(spec.checkpoint)
    return evaluate_stream(spec, model, stats, frames)


def run_fleet(
    fleet: FleetConfig,
    frame_streams: Dict[str, Union[Frames, str, os.PathLike]],
    log_path=None,
) -> List[StatusReport]:
    """Route frame streams to their predictors and append the report log.

    Streams are keyed by predictor id. A stream is a FrameBlock, a
    FrameFile, a Sequence[Frame] or the path of a FRME file; a path is
    opened only when its predictor's turn comes, and its scoring tasks
    read their own records, so no stream file is held whole. A truncated
    file fails when its turn comes, a non-finite frame when the task
    holding it runs, two frames at one timestamp once the stream's walk
    is done. Each predictor processes its frames in timestamp
    order, independently of the others; an empty stream is skipped.
    Reports are appended to log_path (default: the fleet's report_log,
    checked against the checkpoints and stream paths before any scoring)
    and returned in fleet order, then frame order.
    """
    unknown = sorted(set(frame_streams) - {p.id for p in fleet.predictors})
    if unknown:
        raise RoutingError(
            "no predictor for stream id(s): %s" % ", ".join(unknown)
        )
    destination = fleet.report_log if log_path is None else log_path
    inputs = [p.checkpoint for p in fleet.predictors]
    inputs += [s for s in frame_streams.values() if isinstance(s, (str, os.PathLike))]
    ingest._destination(destination, "report log", inputs)
    all_reports: List[StatusReport] = []
    for spec in fleet.predictors:
        if spec.id in frame_streams:
            all_reports.extend(_run_predictor(spec, frame_streams[spec.id]))
    write_report_log(all_reports, destination)
    return all_reports


def calibrate_predictor(checkpoint_path, frames: Frames) -> ScoreNormalization:
    """Fit score normalization from normal frames via a checkpoint.

    The frames are walked in timestamp order, as evaluate_stream walks
    them, so any order of frames with distinct timestamps gives the same
    normalization. Frames may share a timestamp, as the channels of one
    IMS recording do in ingest-nasa's train.frames; those keep their given
    order. The first frame, in that order, whose MSE is not finite is
    refused by its timestamp.
    """
    model, stats = load_checkpoint(checkpoint_path)
    stamps, _, total = _columns(model, stats, frames)
    bad = np.flatnonzero(~np.isfinite(total))
    if bad.size:
        raise CalibrationError(
            "frame at timestamp %d has a non-finite reconstruction MSE" % stamps[bad[0]]
        )
    return calibrate(total)

