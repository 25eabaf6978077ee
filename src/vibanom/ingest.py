"""Frame ingestion: NASA IMS bearing files and binary frames.

Raw recordings become Frame objects: A axes x 4096 points of float32
acceleration, a timestamp and a source label (the IMS channel a frame was
cut from). A stream of frames is a FrameBlock: one (N,) column of
timestamps and one (N, A, 4096) float32 column of samples, checked once
with vectorised checks; FrameBlock.of stacks a Sequence[Frame] into one.
IMS files are whitespace-separated channel columns named by their capture
time (YYYY.MM.DD.HH.MM.SS, interpreted as UTC for determinism); each
channel column is cut into non-overlapping FRAME_LEN-point windows.
Window k of a file gets timestamp file_ts + k: a synthetic one-second
tiebreaker that keeps per-channel sequences strictly chronological (files
are 600 s apart, so order is never disturbed).

The binary frame format "FRME" is the bit-exact interchange format: one
packed 13-byte _HEADER record, then one _record_dtype(axes) record per
frame (a u64 timestamp and the axis-major float32 samples). Those two
numpy dtypes are the whole layout; every field is little-endian.
read_frames returns the file as a FrameBlock whose columns are views of
the one record array it reads.
"""

from __future__ import annotations

import io
import os
import re
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ConfigurationError,
    DataWarning,
    DimensionError,
    IngestError,
    ParseError,
)
from .signals import MODEL_FRAME_LEN as FRAME_LEN

FRAME_MAGIC = b"FRME"
FRAME_FORMAT_VERSION = 1
_HEADER = np.dtype(
    [("magic", "S4"), ("version", "<u4"), ("axes", "u1"), ("frame_len", "<u4")]
)
DEFAULT_TRAIN_SIZE = 30000

# capture-time file names, e.g. 2004.02.12.10.32.39
_TIMESTAMP_NAME = re.compile(r"^\d{4}\.\d{2}\.\d{2}\.\d{2}\.\d{2}\.\d{2}$")


@dataclass(frozen=True, eq=False)
class Frame:
    """One sampling event: A axes x 4096 points, in g."""

    data: np.ndarray
    timestamp: int
    source: str = ""

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 2:
            raise DimensionError(
                "frame data must be 2-D (axes, points), got ndim %d" % data.ndim
            )
        if data.shape[0] < 1:
            raise DimensionError("frame needs at least one axis")
        if data.shape[1] != FRAME_LEN:
            raise DimensionError(
                "frame must have exactly %d points per axis, got %d"
                % (FRAME_LEN, data.shape[1])
            )
        if not np.all(np.isfinite(data)):
            raise IngestError("frame contains non-finite values")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "timestamp", int(self.timestamp))

    @property
    def axes(self) -> int:
        return int(self.data.shape[0])


def _timestamp_column(stamps) -> np.ndarray:
    """Frame timestamps as a u8 column; the first negative one is named."""
    stamps = np.asarray(stamps)
    if stamps.ndim != 1 or stamps.dtype.kind not in "iu":
        raise DimensionError(
            "timestamps must be a 1-D integer column, got %s of shape %r"
            % (stamps.dtype, stamps.shape)
        )
    if stamps.dtype.kind == "i":
        negative = np.flatnonzero(stamps < 0)
        if negative.size:
            k = int(negative[0])
            raise ConfigurationError(
                "frame %d has negative timestamp %d" % (k, stamps[k])
            )
    return stamps.astype("<u8", copy=False)


@dataclass(frozen=True, eq=False)
class FrameBlock:
    """A stream of N frames held column-wise.

    timestamps is (N,) u8 and data (N, A, 4096) float32; both are checked
    once, with vectorised checks, and an error names the first bad frame
    by index (and timestamp). len(block) is N, block.axes is A, block[k]
    is frame k as a Frame viewing the block's samples, and block[rows]
    for a slice or an index array is the sub-block of those rows (a view
    for a slice).
    """

    timestamps: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise DimensionError(
                "frame block data must be 3-D (frames, axes, points), got ndim %d"
                % data.ndim
            )
        if data.shape[1] < 1:
            raise DimensionError("frame needs at least one axis")
        if data.shape[2] != FRAME_LEN:
            raise DimensionError(
                "frame must have exactly %d points per axis, got %d"
                % (FRAME_LEN, data.shape[2])
            )
        stamps = _timestamp_column(self.timestamps)
        if stamps.shape[0] != data.shape[0]:
            raise DimensionError(
                "%d timestamps for %d frames" % (stamps.shape[0], data.shape[0])
            )
        finite = np.isfinite(data).all(axis=(1, 2))
        if not finite.all():
            k = int(np.argmin(finite))
            raise IngestError(
                "frame %d (timestamp %d) contains non-finite values" % (k, stamps[k])
            )
        object.__setattr__(self, "timestamps", stamps)
        object.__setattr__(self, "data", data)

    @classmethod
    def of(cls, frames: Frames) -> "FrameBlock":
        """frames as one block: a FrameBlock unchanged, a Sequence[Frame] stacked once."""
        if isinstance(frames, FrameBlock):
            return frames
        return _FrameSequence(frames)[:]

    @property
    def axes(self) -> int:
        return int(self.data.shape[1])

    def __len__(self) -> int:
        return int(self.data.shape[0])

    @classmethod
    def _checked(cls, timestamps: np.ndarray, data: np.ndarray) -> "FrameBlock":
        """A block of columns that already pass every check, built without
        checking them again (rows of a block, stacks of Frames)."""
        block = object.__new__(cls)
        object.__setattr__(block, "timestamps", timestamps)
        object.__setattr__(block, "data", data)
        return block

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return Frame(data=self.data[key], timestamp=int(self.timestamps[key]))
        return FrameBlock._checked(self.timestamps[key], self.data[key])

    def __iter__(self) -> Iterator[Frame]:
        return (self[k] for k in range(len(self)))


Frames = Union[FrameBlock, Sequence[Frame]]


class _FrameSequence:
    """A Sequence[Frame] behind FrameBlock's stream interface.

    Its timestamps and axis count are taken up front; stream[rows] stacks
    only those rows into a FrameBlock, so a walk over it in slices holds
    one slice's copy of the samples at a time, never the whole stream's.
    """

    def __init__(self, frames: Sequence[Frame]):
        if len(frames) == 0:
            raise DimensionError("cannot stack an empty frame list")
        axes = frames[0].axes
        for k, frame in enumerate(frames):
            if frame.axes != axes:
                raise DimensionError(
                    "frame %d (timestamp %d) has %d axes, expected %d"
                    % (k, frame.timestamp, frame.axes, axes)
                )
        self.frames = frames
        self.axes = axes
        self.timestamps = _timestamp_column([f.timestamp for f in frames])

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, rows) -> FrameBlock:
        # each Frame checked its samples and __init__ checked the rest
        picked = np.arange(len(self.frames))[rows]
        return FrameBlock._checked(
            self.timestamps[rows], np.stack([self.frames[k].data for k in picked])
        )


FrameStream = Union[FrameBlock, _FrameSequence]


def frame_stream(frames: Frames) -> FrameStream:
    """frames as a stream that slices into FrameBlocks.

    A FrameBlock is returned unchanged; a non-empty Sequence[Frame] is
    wrapped so that each slice is stacked only when it is taken. Either
    has timestamps, axes, len() and [rows] -> FrameBlock.
    """
    return frames if isinstance(frames, FrameBlock) else _FrameSequence(frames)


def stack_frames(frames: Frames) -> np.ndarray:
    """Stack frames into the model input layout (B, 1, A, 4096), C-contiguous."""
    block = FrameBlock.of(frames)
    if len(block) == 0:
        raise DimensionError("cannot stack an empty frame list")
    return np.ascontiguousarray(block.data)[:, None]


@dataclass(frozen=True, eq=False)
class ImsRecording:
    """One IMS capture file: rows x channels of acceleration values."""

    timestamp: int
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise DimensionError("recording matrix must be 2-D")
        if matrix.shape[0] < 1 or matrix.shape[1] < 1:
            raise DimensionError(
                "recording matrix must be non-empty, got shape %r"
                % (matrix.shape,)
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "timestamp", int(self.timestamp))

    @property
    def channel_count(self) -> int:
        return int(self.matrix.shape[1])

    def channel(self, number: int) -> np.ndarray:
        """1-based channel column, matching the dataset's Ch naming."""
        if not 1 <= number <= self.channel_count:
            raise DimensionError(
                "channel %d out of range 1..%d" % (number, self.channel_count)
            )
        return self.matrix[:, number - 1]


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split by (set, channel); channels are 1-based."""

    test_channels: Tuple[Tuple[str, int], ...] = (
        ("Set1", 5),
        ("Set1", 7),
        ("Set2", 1),
    )
    train_size: int = DEFAULT_TRAIN_SIZE

    def __post_init__(self):
        if self.train_size < 1:
            raise ConfigurationError("train_size must be >= 1")
        for entry in self.test_channels:
            set_name, channel = entry
            if not re.match(r"^Set[1-9]\d*$", set_name) or channel < 1:
                raise ConfigurationError(
                    "bad test channel entry %r (expected ('SetK', n))"
                    % (entry,)
                )

    def is_test_channel(self, set_name: str, channel: int) -> bool:
        return (set_name, channel) in self.test_channels


def timestamp_from_filename(filename: str) -> int:
    """Parse a YYYY.MM.DD.HH.MM.SS capture name to UTC epoch seconds."""
    name = os.path.basename(filename)
    candidates = [name]
    stem, ext = os.path.splitext(name)
    if ext and stem not in candidates:
        candidates.append(stem)
    for candidate in candidates:
        try:
            moment = datetime.strptime(candidate, "%Y.%m.%d.%H.%M.%S")
        except ValueError:
            continue
        return int(moment.replace(tzinfo=timezone.utc).timestamp())
    raise ParseError(
        "%s: file name is not a YYYY.MM.DD.HH.MM.SS timestamp" % filename
    )


def _diagnose_table(text: str, filename: str):
    """Pinpoint the first ragged row or non-numeric token."""
    expected = None
    row = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        row += 1
        tokens = line.split()
        for col, token in enumerate(tokens, start=1):
            try:
                float(token)
            except ValueError:
                raise ParseError(
                    "%s: row %d, column %d: non-numeric token %r"
                    % (filename, row, col, token)
                ) from None
        if expected is None:
            expected = len(tokens)
        elif len(tokens) != expected:
            raise ParseError(
                "%s: row %d has %d columns, expected %d"
                % (filename, row, len(tokens), expected)
            )


def parse_ims_file(text: str, filename: str) -> ImsRecording:
    """Parse one whitespace-separated IMS capture file."""
    timestamp = timestamp_from_filename(filename)
    if not text.strip():
        raise ParseError("%s: empty file" % filename)
    try:
        matrix = np.loadtxt(io.StringIO(text), dtype=np.float64, ndmin=2)
    except ValueError as exc:
        _diagnose_table(text, filename)
        raise ParseError("%s: %s" % (filename, exc)) from exc
    if not np.all(np.isfinite(matrix)):
        raise ParseError("%s: non-finite value in data" % filename)
    return ImsRecording(timestamp=timestamp, matrix=matrix)


def windowize(channel_series, *, source: str = "", timestamp: int = 0) -> List[Frame]:
    """Cut a 1-D series into non-overlapping windows of FRAME_LEN points.

    Window k holds samples k*FRAME_LEN onwards and is stamped
    timestamp + k; the trailing remainder shorter than a frame is
    discarded. A series shorter than one frame yields an empty list with
    a DataWarning.
    """
    series = np.asarray(channel_series, dtype=np.float32)
    if series.ndim != 1:
        raise DimensionError("channel series must be 1-D")
    if series.size < FRAME_LEN:
        warnings.warn(
            "series of %d points is shorter than one %d-point frame; "
            "no frames produced" % (series.size, FRAME_LEN),
            DataWarning,
        )
        return []
    # each window is copied so a kept frame does not pin the whole series
    return [
        Frame(
            data=series[k * FRAME_LEN:(k + 1) * FRAME_LEN].reshape(1, FRAME_LEN).copy(),
            timestamp=int(timestamp) + k,
            source=source,
        )
        for k in range(series.size // FRAME_LEN)
    ]


_SET_ORDINALS = {1: "1st", 2: "2nd", 3: "3rd", 4: "4th"}


def _normalize_dir_name(name: str) -> str:
    return re.sub(r"[\s_\-.]+", "", name.lower())


def _set_name_candidates(set_number: int) -> Tuple[str, ...]:
    ordinal = _SET_ORDINALS.get(set_number, "%dth" % set_number)
    return (
        "%stest" % ordinal,
        "set%d" % set_number,
        "test%d" % set_number,
    )


def _data_files(directory: Path) -> List[Path]:
    files = [
        child
        for child in directory.iterdir()
        if child.is_file() and _TIMESTAMP_NAME.match(child.name)
    ]
    return sorted(files, key=lambda p: p.name)


def resolve_set_dir(root_dir, set_number: int) -> Path:
    """Locate the directory of one IMS test set under root_dir.

    Accepts the download's 1st_test/2nd_test/3rd_test naming as well as
    Set1/set_1/Test1 variants, case-insensitively, searching root_dir
    and one level below it (archives often nest a same-named folder).
    """
    root = Path(root_dir)
    if not root.is_dir():
        raise IngestError("dataset root %s is not a directory" % root)
    wanted = _set_name_candidates(set_number)

    def matches(path: Path) -> bool:
        return _normalize_dir_name(path.name) in wanted

    candidates = [child for child in sorted(root.iterdir()) if child.is_dir()]
    hits = [c for c in candidates if matches(c)]
    if not hits:
        for child in candidates:
            hits.extend(
                sub for sub in sorted(child.iterdir())
                if sub.is_dir() and matches(sub)
            )
    if not hits:
        found = ", ".join(c.name for c in candidates) or "(nothing)"
        raise IngestError(
            "could not find set %d under %s; found: %s"
            % (set_number, root, found)
        )
    chosen = hits[0]
    # descend through a nested same-named folder (zip-in-zip layout)
    while not _data_files(chosen):
        inner = [c for c in sorted(chosen.iterdir()) if c.is_dir()]
        named = [c for c in inner if matches(c)]
        if named:
            chosen = named[0]
            continue
        if len(inner) == 1:
            chosen = inner[0]
            continue
        raise IngestError(
            "%s contains no timestamp-named data files" % chosen
        )
    return chosen


class _Reservoir:
    """Algorithm R: uniform sample of fixed size from a stream."""

    def __init__(self, size: int, rng: np.random.Generator):
        self.size = size
        self.rng = rng
        self.items: List[Frame] = []
        self.seen = 0

    def offer(self, item: Frame):
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            j = int(self.rng.integers(0, self.seen))
            if j < self.size:
                self.items[j] = item


def build_nasa_splits(
    root_dir,
    spec: Optional[SplitSpec] = None,
    seed: int = 0,
) -> Tuple[List[Frame], Dict[str, List[Frame]]]:
    """Split the IMS dataset into train frames and test sequences.

    Test channels keep their full chronological frame sequences; every
    other channel feeds a seeded reservoir subsample of spec.train_size
    frames. Returns (train_frames, {"SetK/ChN": frames}).
    """
    if spec is None:
        spec = SplitSpec()
    rng = np.random.default_rng(seed)
    reservoir = _Reservoir(spec.train_size, rng)
    test_sequences: Dict[str, List[Frame]] = {
        "%s/Ch%d" % (set_name, channel): []
        for set_name, channel in spec.test_channels
    }
    set_numbers = sorted({int(s[3:]) for s, _ in spec.test_channels} | {1, 2, 3})
    for set_number in set_numbers:
        set_name = "Set%d" % set_number
        set_dir = resolve_set_dir(root_dir, set_number)
        for path in _data_files(set_dir):
            recording = parse_ims_file(path.read_text(), path.name)
            for channel in range(1, recording.channel_count + 1):
                label = "%s/Ch%d" % (set_name, channel)
                frames = windowize(
                    recording.channel(channel),
                    source=label,
                    timestamp=recording.timestamp,
                )
                if spec.is_test_channel(set_name, channel):
                    test_sequences[label].extend(frames)
                else:
                    for frame in frames:
                        reservoir.offer(frame)
    if reservoir.seen < spec.train_size:
        warnings.warn(
            "requested %d training frames but only %d are available"
            % (spec.train_size, reservoir.seen),
            DataWarning,
        )
    for label, frames in test_sequences.items():
        stamps = [f.timestamp for f in frames]
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise IngestError(
                "test sequence %s is not strictly chronological" % label
            )
    return reservoir.items, test_sequences


def _record_dtype(axes: int) -> np.dtype:
    return np.dtype([("ts", "<u8"), ("data", "<f4", (axes, FRAME_LEN))])


def write_frames(path, frames: Frames):
    """Write frames (a FrameBlock or a Sequence[Frame]) to the FRME binary
    format (bit-exact)."""
    if len(frames) == 0:
        raise DimensionError("refusing to write an empty frame file")
    stream = frame_stream(frames)
    header = np.array(
        [(FRAME_MAGIC, FRAME_FORMAT_VERSION, stream.axes, FRAME_LEN)], dtype=_HEADER
    )
    # one reused record, so memory does not grow with the frame count
    record = np.empty(1, dtype=_record_dtype(stream.axes))
    with open(path, "wb") as fh:
        fh.write(header)
        for timestamp, frame in zip(stream.timestamps, frames):
            record[0] = (timestamp, frame.data)
            fh.write(record)


def read_frames(path) -> FrameBlock:
    """Read a FRME binary file; values round-trip bit-identically.

    The block's timestamps and samples are views of the one record array
    read from the file: no per-frame objects, no copy.
    """
    with open(path, "rb") as fh:
        header = np.fromfile(fh, dtype=_HEADER, count=1)
        if header.size < 1:
            raise ParseError("%s: truncated header" % path)
        magic, version, axes, frame_len = header[0].item()
        if magic != FRAME_MAGIC:
            raise ParseError("%s: not a FRME frame file" % path)
        if version != FRAME_FORMAT_VERSION:
            raise ParseError(
                "%s: unsupported frame format version %d" % (path, version)
            )
        if axes < 1:
            raise ParseError("%s: axis count must be >= 1" % path)
        if frame_len != FRAME_LEN:
            raise ParseError(
                "%s: frame length %d unsupported, expected %d"
                % (path, frame_len, FRAME_LEN)
            )
        record = _record_dtype(axes)
        stray = (os.fstat(fh.fileno()).st_size - _HEADER.itemsize) % record.itemsize
        if stray:
            raise ParseError(
                "%s: truncated frame record (%d stray bytes)" % (path, stray)
            )
        records = np.fromfile(fh, dtype=record)
    try:
        return FrameBlock(timestamps=records["ts"], data=records["data"])
    except IngestError as exc:
        raise IngestError("%s: %s" % (path, exc)) from None
