"""Frame ingestion: NASA IMS bearing files and binary frames.

A stream of frames is a FrameBlock: one (N,) column of timestamps and
one (N, A, 4096) float32 column of samples (A axes of acceleration),
checked once with vectorised checks. A Frame is one such sampling event
handed in by a caller, a plain record; FrameBlock.of stacks and checks a
Sequence[Frame] as a block, where it comes in. Nothing walks Frames.
IMS files are whitespace-separated channel columns of numbers named by
their capture time (YYYY.MM.DD.HH.MM.SS, interpreted as UTC for
determinism); each channel column is cut into non-overlapping
FRAME_LEN-point windows, the rows of a single-axis FrameBlock. Window k
of a file gets timestamp file_ts + k: a synthetic one-second tiebreaker
that keeps per-channel sequences strictly chronological (files are 600 s
apart, so order is never disturbed). build_nasa_splits serves one split
of IMS sets 1-3: Set1/Ch5, Set1/Ch7 and Set2/Ch1 are held out as test
sequences, and every other channel is training data.

The binary frame format "FRME" is the bit-exact interchange format: one
packed 13-byte _HEADER record, then one _record_dtype(axes) record per
frame (a u64 timestamp and the axis-major float32 samples). Those two
numpy dtypes are the whole layout; every field is little-endian.
read_frames opens a file as a FrameFile: the header and the timestamp
column are read and checked at once, the samples only when rows of the
file are taken, so a walk over it in slices holds one slice's samples at
a time, however long the file. read_frames(path)[:] is the whole file as
one FrameBlock.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ConfigurationError,
    DataWarning,
    DimensionError,
    IngestError,
    ParseError,
    _count,
)
from .signals import MODEL_FRAME_LEN as FRAME_LEN

FRAME_MAGIC = b"FRME"
FRAME_FORMAT_VERSION = 1
_HEADER = np.dtype(
    [("magic", "S4"), ("version", "<u4"), ("axes", "u1"), ("frame_len", "<u4")]
)
DEFAULT_TRAIN_SIZE = 30000
# the held-out IMS channels as SetK/ChN labels, channels 1-based
_TEST_LABELS = ("Set1/Ch5", "Set1/Ch7", "Set2/Ch1")

# capture-time file names, e.g. 2004.02.12.10.32.39
_TIMESTAMP_NAME = re.compile(r"^\d{4}\.\d{2}\.\d{2}\.\d{2}\.\d{2}\.\d{2}$")


@dataclass(frozen=True, eq=False)
class Frame:
    """One sampling event: A axes x 4096 points, in g. A plain input
    record, checked where FrameBlock.of stacks a Sequence[Frame]."""

    data: np.ndarray
    timestamp: int
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float32))
        object.__setattr__(self, "timestamp", int(self.timestamp))

    @property
    def axes(self) -> int:
        return int(self.data.shape[0])


@dataclass(frozen=True, eq=False)
class FrameBlock:
    """A stream of N frames held column-wise.

    timestamps is (N,) u8 and data (N, A, 4096) float32; both are checked
    once, with vectorised checks, and an error names the first bad frame
    by index (and timestamp): frame 0 when the shape is refused.
    len(block) is N, block.axes is A, and block[rows], for a slice or a
    1-D index array, is the sub-block of those rows (a view for a slice).
    """

    timestamps: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        stamps = np.asarray(self.timestamps)
        if stamps.ndim != 1 or stamps.dtype.kind not in "iu":
            raise DimensionError(
                "timestamps must be a 1-D integer column, got %s of shape %r"
                % (stamps.dtype, stamps.shape)
            )
        negative = np.flatnonzero(stamps < 0)
        if negative.size:
            k = int(negative[0])
            raise ConfigurationError("frame %d has negative timestamp %d" % (k, stamps[k]))
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 3 or data.shape[1] < 1 or data.shape[2] != FRAME_LEN:
            # every frame has the refused shape: the first is named
            raise DimensionError(
                "%sframes must be 2-D with at least one axis of exactly %d points, "
                "stacked 3-D (frames, axes, points); got shape %r"
                % ("frame 0 (timestamp %d): " % stamps[0] if len(stamps) else "",
                   FRAME_LEN, data.shape)
            )
        if stamps.shape[0] != data.shape[0]:
            raise DimensionError(
                "%d timestamps for %d frames" % (stamps.shape[0], data.shape[0])
            )
        stamps = stamps.astype("<u8", copy=False)
        _require_finite(stamps, data)
        object.__setattr__(self, "timestamps", stamps)
        object.__setattr__(self, "data", data)

    @classmethod
    def of(cls, frames: Frames) -> "FrameBlock":
        """frames as one block: a FrameBlock unchanged, a FrameFile read
        whole, a non-empty Sequence[Frame] stacked once and checked as a
        block. A frame shaped unlike the first is named by index and
        timestamp."""
        if isinstance(frames, FrameBlock):
            return frames
        if isinstance(frames, FrameFile):
            return frames[:]
        if len(frames) == 0:
            raise DimensionError("cannot stack an empty frame list")
        shape = frames[0].data.shape
        for k, frame in enumerate(frames):
            got = frame.data.shape
            if got != shape:
                detail = (
                    "%d axes, expected %d" % (got[0], shape[0])
                    if len(got) == len(shape) == 2 and got[1] == shape[1]
                    else "shape %r, expected %r" % (got, shape)
                )
                raise DimensionError("frame %d (timestamp %d) has %s" % (k, frame.timestamp, detail))
        return cls([f.timestamp for f in frames], np.stack([f.data for f in frames]))

    @property
    def axes(self) -> int:
        return int(self.data.shape[1])

    def __len__(self) -> int:
        return int(self.data.shape[0])

    @classmethod
    def _checked(cls, timestamps: np.ndarray, data: np.ndarray) -> "FrameBlock":
        """A block of columns that already pass every check, built without
        checking them again (rows of a block or a file)."""
        block = object.__new__(cls)
        object.__setattr__(block, "timestamps", timestamps)
        object.__setattr__(block, "data", data)
        return block

    def __getitem__(self, rows) -> "FrameBlock":
        # an int is refused, which also makes a block not iterable
        if not isinstance(rows, slice) and np.ndim(rows) != 1:
            raise TypeError("frame block rows must be a slice or a 1-D index array")
        return FrameBlock._checked(self.timestamps[rows], self.data[rows])


def _require_finite(stamps: np.ndarray, data: np.ndarray, index=None, where: str = ""):
    """Refuse the first frame of data with a non-finite sample, naming it
    by index[k] (k when index is None) and its timestamp after where."""
    finite = np.isfinite(data).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        raise IngestError(
            "%sframe %d (timestamp %d) contains non-finite values"
            % (where, k if index is None else index[k], stamps[k])
        )


# records per os.preadv, and per write_frames chunk: two buffers each
# keeps a read within Linux's IOV_MAX of 1024 buffers
_READ_RECORDS = 64


class FrameFile:
    """A FRME file behind FrameBlock's stream interface; read_frames opens one.

    timestamps (N,) u8 and axes were read and checked when the file was
    opened; the samples stay on disk. file[rows], for a slice or an index
    array, reads only those records, each run of consecutive ones with one
    os.preadv straight into the (rows,) u8 and (rows, A, 4096) float32
    columns of the FrameBlock it returns. Those rows are checked as
    FrameBlock checks its frames, but a non-finite sample names the frame's
    index in the file. A record cut short, or one whose timestamp is not
    the one read at open, raises ParseError: the file changed after it was
    opened.
    """

    def __init__(self, path, axes: int, timestamps: np.ndarray):
        self.path = path
        self.axes = axes
        self.timestamps = timestamps

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    def __getitem__(self, rows) -> FrameBlock:
        # rows are resolved without an arange over the whole file, so a
        # task's read costs the same however long the file is
        n = len(self)
        if isinstance(rows, slice):
            return self._read(np.arange(*rows.indices(n)))
        rows = np.asarray(rows)
        # an int is refused, which also makes a file not iterable
        if rows.dtype.kind not in "iu" or rows.ndim != 1:
            raise TypeError("frame file rows must be a slice or a 1-D integer array")
        if np.any((rows < -n) | (rows >= n)):
            raise IndexError("row out of range for a file of %d frames" % n)
        return self._read(np.where(rows < 0, rows + n, rows))

    def _read(self, rows: np.ndarray) -> FrameBlock:
        stamps = np.empty(len(rows), dtype="<u8")
        data = np.empty((len(rows), self.axes, FRAME_LEN), dtype=np.float32)
        stamp_bytes = stamps.view(np.uint8).reshape(len(rows), 8)
        sample_bytes = data.reshape(len(rows), self.axes * FRAME_LEN).view(np.uint8)
        size = _record_dtype(self.axes).itemsize
        # output positions where a run of consecutive records starts
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1).tolist()
        with open(self.path, "rb", buffering=0) as fh:
            for first, stop in zip(starts, starts[1:] + [len(rows)]):
                for lo in range(first, stop, _READ_RECORDS):
                    hi = min(lo + _READ_RECORDS, stop)
                    buffers = []
                    for k in range(lo, hi):
                        buffers += (stamp_bytes[k], sample_bytes[k])
                    offset = _HEADER.itemsize + int(rows[lo]) * size
                    got = os.preadv(fh.fileno(), buffers, offset)
                    if got != (hi - lo) * size:
                        raise ParseError(
                            "%s: frame %d is cut short; the file changed after "
                            "it was opened" % (self.path, rows[lo] + got // size)
                        )
        moved = np.flatnonzero(stamps != self.timestamps[rows])
        if moved.size:
            k = int(moved[0])
            raise ParseError(
                "%s: frame %d has timestamp %d, not %d; the file changed after "
                "it was opened" % (self.path, rows[k], stamps[k], self.timestamps[rows[k]])
            )
        _require_finite(stamps, data, rows, "%s: " % self.path)
        return FrameBlock._checked(stamps, data)


Frames = Union[FrameBlock, FrameFile, Sequence[Frame]]


def frame_stream(frames: Frames) -> Union[FrameBlock, FrameFile]:
    """frames as a stream that slices into FrameBlocks: a FrameFile stays
    on disk, anything else is FrameBlock.of(frames). Each has timestamps,
    axes, len() and [rows] -> FrameBlock."""
    return frames if isinstance(frames, FrameFile) else FrameBlock.of(frames)


def stack_frames(frames: Frames) -> np.ndarray:
    """Stack frames into the model input layout (B, 1, A, 4096), C-contiguous."""
    block = FrameBlock.of(frames)
    if len(block) == 0:
        raise DimensionError("cannot stack an empty frame list")
    return np.ascontiguousarray(block.data)[:, None]


def timestamp_from_filename(name: str) -> int:
    """Parse a YYYY.MM.DD.HH.MM.SS capture name to UTC epoch seconds."""
    try:
        moment = datetime.strptime(name, "%Y.%m.%d.%H.%M.%S")
    except ValueError:
        raise ParseError(
            "%s: file name is not a YYYY.MM.DD.HH.MM.SS timestamp" % name
        ) from None
    return int(moment.replace(tzinfo=timezone.utc).timestamp())


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


def parse_ims_file(text: str, filename: str) -> Tuple[int, np.ndarray]:
    """Parse one whitespace-separated IMS capture file into its capture
    timestamp and its (rows, channels) float64 matrix, at least 1 x 1.

    The file is numbers only: a '#' is a non-numeric token, not a comment.
    """
    timestamp = timestamp_from_filename(filename)
    if not text.strip():
        raise ParseError("%s: empty file" % filename)
    try:
        matrix = np.loadtxt(io.StringIO(text), dtype=np.float64, ndmin=2, comments=None)
    except ValueError as exc:
        _diagnose_table(text, filename)
        raise ParseError("%s: %s" % (filename, exc)) from exc
    if not np.all(np.isfinite(matrix)):
        raise ParseError("%s: non-finite value in data" % filename)
    return timestamp, matrix


def windowize(channel_series, *, timestamp: int = 0) -> FrameBlock:
    """Cut a 1-D series into non-overlapping windows of FRAME_LEN points,
    the rows of a single-axis FrameBlock.

    Row k holds samples k*FRAME_LEN onwards and is stamped timestamp + k;
    the trailing remainder shorter than a frame is discarded. A series
    shorter than one frame yields an empty block with a DataWarning.
    """
    series = np.asarray(channel_series, dtype=np.float32)
    if series.ndim != 1:
        raise DimensionError("channel series must be 1-D")
    count = series.size // FRAME_LEN
    if count == 0:
        warnings.warn(
            "series of %d points is shorter than one %d-point frame; "
            "no frames produced" % (series.size, FRAME_LEN),
            DataWarning,
        )
    stamps = np.arange(count, dtype=np.int64) + int(timestamp)
    return FrameBlock(stamps, series[:count * FRAME_LEN].reshape(count, 1, FRAME_LEN))


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


def build_nasa_splits(
    root_dir, *, train_size: int = DEFAULT_TRAIN_SIZE, seed: int = 0
) -> Tuple[FrameBlock, Dict[str, FrameBlock]]:
    """Split IMS sets 1-3 into train frames and test sequences.

    The held-out channels, Set1/Ch5, Set1/Ch7 and Set2/Ch1, keep their
    full chronological frame sequences; every other channel feeds a
    seeded reservoir subsample of train_size frames (Algorithm R, its
    rows written into one preallocated block). Returns (train_block,
    {"SetK/ChN": block}), all single-axis.
    """
    _count("train_size", train_size)
    rng = np.random.default_rng(seed)
    size, seen = train_size, 0
    train = FrameBlock._checked(
        np.empty(size, dtype="<u8"), np.empty((size, 1, FRAME_LEN), dtype=np.float32)
    )
    test_parts: Dict[str, List[FrameBlock]] = {label: [train[:0]] for label in _TEST_LABELS}
    for set_number in (1, 2, 3):
        for path in _data_files(resolve_set_dir(root_dir, set_number)):
            timestamp, matrix = parse_ims_file(path.read_text(), path.name)
            for column in range(matrix.shape[1]):
                block = windowize(matrix[:, column], timestamp=timestamp)
                label = "Set%d/Ch%d" % (set_number, column + 1)
                if label in test_parts:
                    test_parts[label].append(block)
                    continue
                for k in range(len(block)):
                    slot = seen if seen < size else int(rng.integers(0, seen + 1))
                    seen += 1
                    if slot < size:
                        train.timestamps[slot], train.data[slot] = block.timestamps[k], block.data[k]
    if seen < size:
        warnings.warn(
            "requested %d training frames but only %d are available" % (size, seen),
            DataWarning,
        )
    test_sequences = {}
    for label, parts in test_parts.items():
        stamps = np.concatenate([b.timestamps for b in parts])
        if np.any(stamps[1:] <= stamps[:-1]):
            raise IngestError(
                "test sequence %s is not strictly chronological" % label
            )
        test_sequences[label] = FrameBlock._checked(
            stamps, np.concatenate([b.data for b in parts])
        )
        parts.clear()  # frees this label's windows once copied
    return train[:min(seen, size)], test_sequences


def _record_dtype(axes: int) -> np.dtype:
    return np.dtype([("ts", "<u8"), ("data", "<f4", (axes, FRAME_LEN))])


def _destination(path, what, inputs=()):
    """Refuse a path that is empty, a directory, in a missing directory or
    the same file as one of the command's inputs (None for an input not
    given); what names it. Commands call this before any work."""
    if not path:
        raise ConfigurationError("empty %s path" % what)
    if os.path.isdir(path):
        raise ConfigurationError("%s %s is a directory" % (what, path))
    if not Path(path).parent.is_dir():
        raise ConfigurationError("%s directory %s not found" % (what, Path(path).parent))
    if os.path.exists(path):
        for source in inputs:
            if source is not None and os.path.exists(source) and os.path.samefile(path, source):
                raise ConfigurationError("%s %s is also the input %s" % (what, path, source))


@contextlib.contextmanager
def _replacing(path):
    """A new file beside path, open for binary writing in the block and
    renamed over path when the block ends; removed instead when the block
    raises, KeyboardInterrupt included, so path is never left half-written."""
    partial = "%s.%d.tmp" % (os.fspath(path), os.getpid())
    fh = open(partial, "xb")
    try:
        with fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise


def write_frames(path, frames: Frames):
    """Write frames (a FrameBlock, a FrameFile or a Sequence[Frame]) to the
    FRME binary format (bit-exact).

    The stream's columns are copied into one reused chunk of
    _READ_RECORDS records at a time, so beyond a list's one stacked copy,
    memory does not grow with the frame count. The records go to a
    temporary file beside path, renamed over it only once all are
    written: a stream that fails part-way leaves path as it was.
    """
    if len(frames) == 0:
        raise DimensionError("refusing to write an empty frame file")
    stream = frame_stream(frames)
    header = np.array(
        [(FRAME_MAGIC, FRAME_FORMAT_VERSION, stream.axes, FRAME_LEN)], dtype=_HEADER
    )
    chunk = np.empty(_READ_RECORDS, dtype=_record_dtype(stream.axes))
    with _replacing(path) as fh:
        fh.write(header)
        for start in range(0, len(stream), _READ_RECORDS):
            block = stream[start:start + _READ_RECORDS]
            records = chunk[:len(block)]
            records["ts"], records["data"] = block.timestamps, block.data
            del block  # a file's rows: freed before the next are read
            fh.write(records)


def read_frames(path) -> FrameFile:
    """Open a FRME binary file as a FrameFile; values round-trip bit-identically.

    The header, the stray-byte count and the timestamp column (one 8-byte
    pread per record) are read and checked here; the samples are read only
    when rows of the file are taken. read_frames(path)[:] reads every frame
    into one FrameBlock.
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
        size = _record_dtype(axes).itemsize
        body = os.fstat(fh.fileno()).st_size - _HEADER.itemsize
        if body % size:
            raise ParseError(
                "%s: truncated frame record (%d stray bytes)" % (path, body % size)
            )
        offsets = range(_HEADER.itemsize, _HEADER.itemsize + body, size)
        column = b"".join(os.pread(fh.fileno(), 8, offset) for offset in offsets)
    if len(column) != 8 * len(offsets):
        raise ParseError(
            "%s: a timestamp is cut short; the file changed while it was read" % path
        )
    return FrameFile(path, axes, np.frombuffer(column, dtype="<u8"))
