"""Fleet orchestration: per-location predictors over frame streams.

A fleet is a list of predictors, each owning a trained checkpoint, a
score normalization, an alarm configuration, and a location label. Every
frame routed to a predictor produces exactly one StatusReport, appended
to a newline-delimited report log whose records round-trip losslessly
(floats are serialized with repr, which preserves the exact value).

Reconstruction error is computed in standardized space, matching how
the score normalization was calibrated. A stream is a FrameBlock, a
FrameFile (ingest.read_frames) or a Sequence[Frame]; run_fleet also takes
the path of a FRME file and opens it with read_frames. It is ordered by
one stable argsort of its timestamps and cut into fixed _TASK-frame
slices of that order. Each slice is one task: gather (for a FrameFile,
read and check those records from the file), stack, standardize,
reconstruct and report its frames. The tasks are taken in order by one
thread per usable CPU (_worker_count), the caller included, and their
reports are joined in task order, so the reports, and the first error in
that order, are those of a sequential walk. At most _IN_FLIGHT frames are
being worked on at once. So the working memory is bounded by that however
long the stream, and for a FrameFile nothing else of the stream is held
but its timestamp column and the reports, about 0.4 KB per frame.

While the tasks run, OpenBLAS is pinned to one thread (vibanom.blas) and
its count is restored afterwards. The workers then share the cores
without BLAS threads competing for them, and since the GEMM shapes are
fixed by _TASK alone, the report bits are the same for any worker count.
They are the same for any number of cores only where OpenBLAS is found
and pinned: with another BLAS (or no /proc) there is one worker and the
BLAS keeps its own threads, so the last digits can depend on the cores.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import json
import mmap
import os
import re
import threading
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import blas, dcan
from .errors import (
    ConfigurationError,
    DataWarning,
    DimensionError,
    ParseError,
    RoutingError,
)
from .ingest import FrameStream, Frames, frame_stream, read_frames, stack_frames
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
# frames being scored at once, at most, whatever the machine
_IN_FLIGHT = 64


def _worker_count() -> int:
    """One scoring worker per usable CPU, up to _IN_FLIGHT // _TASK.

    Without an OpenBLAS to pin, the workers' GEMMs would compete with
    BLAS threads for the cores, which measured slower than one worker.
    """
    if blas.thread_count() is None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _IN_FLIGHT // _TASK)


@functools.cache
def _raise_mmap_threshold() -> None:
    """Free one untouched 16 MB malloc block, once per process.

    glibc's malloc maps each block above its mmap threshold (128 KB at
    start) afresh and unmaps it on free, so every first touch of its pages
    faults; a scoring task's temporaries (786 KB for 16 three-axis frames)
    are such blocks. Freeing a mapped block raises the threshold to that
    block's size, and the trim threshold to twice that, so later
    temporaries come from a heap that keeps its pages. A 6 x 240-frame
    monitor call took about 3.0k minor faults with this, against 42k-52k
    without. The block is never touched, so it adds no resident memory;
    where malloc is not glibc's, this is a harmless malloc and free.
    """
    try:
        libc = ctypes.CDLL(None)  # the process's own symbols
    except (OSError, TypeError):  # TypeError: no such handle on Windows
        return
    libc.malloc.restype = ctypes.c_void_p
    libc.malloc.argtypes = [ctypes.c_size_t]
    libc.free.restype = None
    libc.free.argtypes = [ctypes.c_void_p]
    libc.free(libc.malloc(16 << 20))


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
    complete line raises ParseError.
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
    return [parse_report(line) for line in text.splitlines() if line.strip()]


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
    except ValueError as exc:  # bad JSON, bad UTF-8 or an over-long int
        raise ConfigurationError(
            "fleet config %s is not valid JSON: %s" % (path, exc)
        ) from exc
    if not isinstance(data, dict):
        raise ConfigurationError(
            "fleet config %s must be a JSON object" % path
        )
    return fleet_config_from_dict(data)


def _task_reports(model, stats, stream: FrameStream, rows: np.ndarray, meet=None):
    """Stack, standardize, reconstruct and report the frames at rows,
    calling meet(), if given, once the report's working set is allocated."""
    batch = standardize(stack_frames(stream[rows]), stats)
    recon = dcan.reconstruct(model, batch)
    scratch = dcan._report_scratch(batch)
    if meet is not None:
        meet()
    return dcan.reconstruction_report(batch, recon, _scratch=scratch)


def _reconstruction_reports(model, stats, stream: FrameStream, order: np.ndarray):
    """One ReconstructionReport per frame, taking the frames in order (an
    index array).

    The _TASK-frame tasks are taken in order by `workers` threads, the
    calling thread among them. When a task raises, the threads take only
    tasks before the first failing one. Tasks are taken in order, so every
    task a sequential walk would run before its error runs, and the error
    raised, the first in task order, is the one it would raise.

    The first task of each thread waits at a barrier once it holds its
    report working set (standardized frames, reconstruction, report
    buffer), so every walk reaches `workers` such sets at once. This is
    for the peak memory's sake, not speed: without it the peak of a short
    walk depends on whether the threads' peaks happen to overlap. Later
    tasks do not wait for each other.
    """
    _raise_mmap_threshold()
    tasks = [order[start:start + _TASK] for start in range(0, len(order), _TASK)]
    workers = min(_worker_count(), len(tasks))
    results: list = [None] * len(tasks)
    errors = {}  # task index -> its exception, under lock
    lock = threading.Lock()
    taken = itertools.count()
    first_round = threading.Barrier(workers)

    def meet():
        try:
            first_round.wait()
        except threading.BrokenBarrierError:
            pass  # a task failed: go on alone

    def work():
        while True:
            k = next(taken)
            with lock:
                if k >= len(tasks) or (errors and k > min(errors)):
                    return
            try:
                results[k] = _task_reports(
                    model, stats, stream, tasks[k], meet if k < workers else None
                )
            except BaseException as exc:
                with lock:
                    errors[k] = exc
                first_round.abort()

    with blas.one_thread():
        threads = [threading.Thread(target=work) for _ in range(workers - 1)]
        try:
            for thread in threads:
                thread.start()
            work()
        finally:
            # frees a thread still waiting, which only a caller that
            # failed outside a task can leave behind
            first_round.abort()
            for thread in threads:
                if thread.ident is not None:  # started
                    thread.join()
    if errors:
        raise errors[min(errors)]
    return [report for part in results for report in part]


def _timestamp_order(spec: PredictorSpec, stream: FrameStream) -> np.ndarray:
    """The stable timestamp order of stream.

    Two frames with one timestamp are refused: one report per sampling time.
    """
    order = np.argsort(stream.timestamps, kind="stable")
    stamps = stream.timestamps[order]
    repeats = np.flatnonzero(stamps[1:] == stamps[:-1])
    if repeats.size:
        raise RoutingError(
            "predictor %s got two frames for timestamp %d; one report "
            "per sampling time" % (spec.id, stamps[repeats[0]])
        )
    return order


def _scorable(model, frames: Frames, who: str) -> FrameStream:
    """frames as a stream (ingest.frame_stream) the checkpoint can score;
    a FrameFile stays on disk, its records read by the scoring tasks.

    An empty stream, mixed axis counts or the wrong axis count for the
    checkpoint is refused; who prefixes the message, e.g. "predictor p: ",
    or is empty. A mixed stream names the odd frame by its index in frames
    and its timestamp.
    """
    if len(frames) == 0:
        raise DimensionError("%sthe stream has no frames" % who)
    try:
        stream = frame_stream(frames)
    except DimensionError as exc:
        raise DimensionError(who + str(exc)) from None
    if stream.axes != model.config.axes:
        raise ConfigurationError(
            "%scheckpoint expects %d axes but frames have %d"
            % (who, model.config.axes, stream.axes)
        )
    return stream


def evaluate_stream(spec: PredictorSpec, model, stats, frames: Frames) -> List[StatusReport]:
    """Run one predictor over its frames in timestamp order."""
    if spec.normalization is None:
        raise ConfigurationError(
            "predictor %s has no calibration; run calibrate first" % spec.id
        )
    stream = _scorable(model, frames, "predictor %s: " % spec.id)
    order = _timestamp_order(spec, stream)
    recon = _reconstruction_reports(model, stats, stream, order)
    return _status_reports(spec, stream.timestamps[order].tolist(), recon)


def evaluate_self_calibrated(
    spec: PredictorSpec, model, stats, frames: Frames
) -> List[StatusReport]:
    """Run one predictor over frames, calibrated on those same frames.

    Each frame is reconstructed once: the total_mse values that fit the
    normalization are the ones scored. spec.normalization is ignored.
    """
    stream = _scorable(model, frames, "")
    order = _timestamp_order(spec, stream)
    recon = _reconstruction_reports(model, stats, stream, order)
    norm = calibrate([r.total_mse for r in recon])
    return _status_reports(
        replace(spec, normalization=norm), stream.timestamps[order].tolist(), recon
    )


def _status_reports(spec: PredictorSpec, stamps: List[int], recon) -> List[StatusReport]:
    """Score reconstructed frames through the predictor's hysteresis window."""
    state = HysteresisState()
    reports = []
    for timestamp, rr in zip(stamps, recon):
        decision, state = evaluate(
            rr.total_mse, spec.normalization, spec.alarm, state
        )
        reports.append(
            StatusReport(
                timestamp=timestamp,
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


def _run_predictor(spec: PredictorSpec, frames) -> List[StatusReport]:
    """One predictor's reports; a path is opened here (read_frames), and
    the scoring tasks read its samples, a task's records at a time."""
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
    holding it runs. Each predictor processes its frames in timestamp
    order, independently of the others; an empty stream is skipped.
    Reports are appended to log_path (default: the fleet's report_log) and
    returned in processing order: fleet order, then frame order.
    """
    unknown = sorted(set(frame_streams) - {p.id for p in fleet.predictors})
    if unknown:
        raise RoutingError(
            "no predictor for stream id(s): %s" % ", ".join(unknown)
        )
    all_reports: List[StatusReport] = []
    for spec in fleet.predictors:
        if spec.id in frame_streams:
            all_reports.extend(_run_predictor(spec, frame_streams[spec.id]))
    destination = fleet.report_log if log_path is None else log_path
    if destination:
        write_report_log(all_reports, destination)
    return all_reports


def calibrate_predictor(checkpoint_path, frames: Frames) -> ScoreNormalization:
    """Fit score normalization from normal frames via a checkpoint.

    The frames are reconstructed in the order given.
    """
    model, stats = load_checkpoint(checkpoint_path)
    stream = _scorable(model, frames, "")
    reports = _reconstruction_reports(model, stats, stream, np.arange(len(stream)))
    return calibrate([r.total_mse for r in reports])

