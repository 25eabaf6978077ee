"""Ingestion tests: IMS parsing, windowing, splits, and frame formats.

The NASA-layout tests run against a fabricated miniature dataset tree
whose channel columns hold the constant set*100 + channel, so any frame
can be traced back to its origin by value.
"""

import re
import struct
import tracemalloc
import warnings
from datetime import datetime, timezone

import numpy as np
import pytest

from vibanom import dcan
from vibanom.errors import (
    ConfigurationError,
    DataWarning,
    DimensionError,
    IngestError,
    ParseError,
)
from vibanom.fleet import PredictorSpec, calibrate_predictor, evaluate_stream
from vibanom.ingest import (
    FRAME_LEN,
    Frame,
    FrameBlock,
    FrameFile,
    build_nasa_splits,
    parse_ims_file,
    read_frames,
    resolve_set_dir,
    stack_frames,
    timestamp_from_filename,
    windowize,
    write_frames,
)
from vibanom.scoring import ScoreNormalization
from vibanom.training import StandardizationStats, load_checkpoint, save_checkpoint

from helpers import make_mini_ims as build_mini_ims


def random_frame(rng, axes=3, timestamp=100, source="t"):
    data = rng.normal(size=(axes, FRAME_LEN)).astype(np.float32)
    return Frame(data=data, timestamp=timestamp, source=source)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """An untrained default (3-axis) model with identity standardization."""
    path = tmp_path_factory.mktemp("ingest") / "model.ckpt"
    stats = StandardizationStats(
        per_axis_mean=np.zeros(3, dtype=np.float32), per_axis_std=np.ones(3, dtype=np.float32)
    )
    save_checkpoint(dcan.build(dcan.DcanConfig(), seed=1), stats, path)
    return str(path)


class TestFrame:
    """A Frame is a plain record; a list of them is checked where it is
    stacked, by whichever entry point it reaches, and the error names the
    frame by index and timestamp."""

    def test_valid_frame(self):
        data = np.zeros((3, FRAME_LEN), dtype=np.float32)
        frame = Frame(data=data, timestamp=np.int64(7), source="Set1/Ch2")
        assert frame.axes == 3
        assert frame.data.dtype == np.float32
        assert frame.timestamp == 7
        assert isinstance(frame.timestamp, int)

    def test_frame_itself_checks_nothing(self):
        data = np.full((2, 5), np.nan)
        frame = Frame(data=data, timestamp=3)
        assert frame.data.dtype == np.float32 and frame.data.shape == (2, 5)

    def refused_everywhere(self, frames, error, pattern, checkpoint, tmp_path):
        """Each entry point a Frame list reaches raises error matching
        pattern, and write_frames leaves no file behind."""
        spec = PredictorSpec(id="p", location="p", checkpoint=checkpoint,
                             normalization=ScoreNormalization(mu=1.0, sigma=0.5))
        model, stats = load_checkpoint(checkpoint)
        out = tmp_path / "out.bin"
        for call in (
            lambda: FrameBlock.of(frames),
            lambda: stack_frames(frames),
            lambda: write_frames(out, frames),
            lambda: evaluate_stream(spec, model, stats, frames),
            lambda: calibrate_predictor(checkpoint, frames),
        ):
            with pytest.raises(error, match=pattern):
                call()
        assert list(tmp_path.iterdir()) == []

    def test_wrong_length_rejected(self, checkpoint, tmp_path):
        short = Frame(data=np.zeros((3, FRAME_LEN - 1)), timestamp=4)
        self.refused_everywhere(
            [short, short], DimensionError,
            r"frame 0 \(timestamp 4\): .*exactly 4096 points.*got shape \(2, 3, 4095\)",
            checkpoint, tmp_path,
        )
        rng = np.random.default_rng(0)
        self.refused_everywhere(
            [random_frame(rng, timestamp=1), short], DimensionError,
            r"frame 1 \(timestamp 4\) has shape \(3, 4095\), expected \(3, 4096\)",
            checkpoint, tmp_path,
        )

    def test_one_dimensional_rejected(self, checkpoint, tmp_path):
        flat = Frame(data=np.zeros(FRAME_LEN), timestamp=6)
        self.refused_everywhere(
            [flat], DimensionError,
            r"frame 0 \(timestamp 6\): frames must be 2-D.*got shape \(1, 4096\)",
            checkpoint, tmp_path,
        )
        rng = np.random.default_rng(1)
        self.refused_everywhere(
            [random_frame(rng, timestamp=1), flat], DimensionError,
            r"frame 1 \(timestamp 6\) has shape \(4096,\), expected \(3, 4096\)",
            checkpoint, tmp_path,
        )

    def test_no_axis_rejected(self, checkpoint, tmp_path):
        empty = Frame(data=np.zeros((0, FRAME_LEN)), timestamp=8)
        self.refused_everywhere(
            [empty], DimensionError,
            r"frame 0 \(timestamp 8\): .*at least one axis.*got shape \(1, 0, 4096\)",
            checkpoint, tmp_path,
        )
        rng = np.random.default_rng(2)
        self.refused_everywhere(
            [random_frame(rng, timestamp=1), empty], DimensionError,
            r"frame 1 \(timestamp 8\) has 0 axes, expected 3", checkpoint, tmp_path,
        )

    def test_nonfinite_rejected(self, checkpoint, tmp_path):
        rng = np.random.default_rng(3)
        frames = [random_frame(rng, timestamp=10 + i) for i in range(3)]
        data = frames[2].data.copy()
        data[0, 100] = np.nan
        frames[2] = Frame(data=data, timestamp=12)
        self.refused_everywhere(
            frames, IngestError, r"frame 2 \(timestamp 12\) contains non-finite values",
            checkpoint, tmp_path,
        )


class TestStackFrames:
    def test_layout(self):
        rng = np.random.default_rng(0)
        frames = [random_frame(rng, timestamp=i) for i in range(3)]
        stack = stack_frames(frames)
        assert stack.shape == (3, 1, 3, FRAME_LEN)
        assert stack.dtype == np.float32
        assert np.array_equal(stack[1, 0], frames[1].data)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            stack_frames([])

    def test_mixed_axes_rejected(self):
        rng = np.random.default_rng(0)
        frames = [random_frame(rng, axes=3), random_frame(rng, axes=1)]
        with pytest.raises(DimensionError, match="frame 1"):
            stack_frames(frames)

    def test_rows_of_a_file_or_a_gather_are_stacked_without_a_copy(self, tmp_path):
        # the rows scoring's tasks take are C-contiguous already, so the
        # stack is a view of them; only a caller's strided block is copied
        rng = np.random.default_rng(2)
        path = tmp_path / "frames.bin"
        write_frames(path, [random_frame(rng, timestamp=i) for i in range(5)])
        file = read_frames(path)
        for block in (file[:], file[1:4], file[np.array([3, 0, 2])], file[:][np.array([4, 1])]):
            assert np.shares_memory(stack_frames(block), block.data)
        strided = FrameBlock(file[:].timestamps[::2], file[:].data[::2])
        assert not np.shares_memory(stack_frames(strided), strided.data)


class TestFrameBlock:
    def test_of_stacks_a_sequence_and_passes_a_block(self):
        rng = np.random.default_rng(1)
        frames = [random_frame(rng, timestamp=5 + i) for i in range(4)]
        block = FrameBlock.of(frames)
        assert len(block) == 4 and block.axes == 3
        assert block.data.shape == (4, 3, FRAME_LEN)
        assert block.timestamps.tolist() == [5, 6, 7, 8]
        assert FrameBlock.of(block) is block
        assert np.array_equal(block.data[2], frames[2].data)
        part = block[1:3]
        assert part.timestamps.tolist() == [6, 7]
        assert np.shares_memory(part.data, block.data)
        assert block[np.array([3, 0])].timestamps.tolist() == [8, 5]
        # rows only: no int key, so no iteration as Frames either
        for bad in (lambda: block[2], lambda: list(block)):
            with pytest.raises(TypeError, match="slice or a 1-D index array"):
                bad()

    def test_of_names_the_frame_with_other_axes(self):
        rng = np.random.default_rng(2)
        frames = [random_frame(rng, timestamp=10 + i) for i in range(3)]
        frames.append(random_frame(rng, axes=1, timestamp=13))
        with pytest.raises(
            DimensionError, match=r"^frame 3 \(timestamp 13\) has 1 axes, expected 3$"
        ):
            FrameBlock.of(frames)

    def test_checks(self):
        data = np.zeros((2, 3, FRAME_LEN), dtype=np.float32)
        with pytest.raises(DimensionError, match="3-D"):
            FrameBlock(np.arange(2), data[0])
        with pytest.raises(DimensionError, match="4096"):
            FrameBlock(np.arange(2), data[:, :, :-1])
        with pytest.raises(DimensionError, match="at least one axis"):
            FrameBlock(np.arange(2), data[:, :0])
        with pytest.raises(DimensionError, match="3 timestamps for 2 frames"):
            FrameBlock(np.arange(3), data)
        with pytest.raises(ConfigurationError, match="frame 1 has negative timestamp -4"):
            FrameBlock(np.array([3, -4]), data)
        data[1, 2, 77] = np.inf
        with pytest.raises(IngestError, match=r"frame 1 \(timestamp 9\) contains non-finite"):
            FrameBlock(np.array([8, 9]), data)

    def test_read_frames_names_a_nan_frame(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "frames.bin"
        write_frames(path, [random_frame(rng, timestamp=40 + i) for i in range(5)])
        blob = bytearray(path.read_bytes())
        record = 8 + 3 * FRAME_LEN * 4
        struct.pack_into("<f", blob, 13 + 3 * record + 8 + 4 * 5000, np.nan)
        path.write_bytes(bytes(blob))
        with pytest.raises(IngestError, match=r"frame 3 \(timestamp 43\) contains non-finite"):
            read_frames(path)[:]


class TestFrameFile:
    """read_frames opens a file; rows are read from it only when taken."""

    def write(self, path, count, seed=4, stamps=None):
        rng = np.random.default_rng(seed)
        stamps = range(count) if stamps is None else stamps
        frames = [random_frame(rng, timestamp=int(t)) for t in stamps]
        write_frames(path, frames)
        return frames

    def test_read_frames_reads_into_contiguous_columns(self, tmp_path):
        frames = self.write(tmp_path / "frames.bin", 3)
        stream = read_frames(tmp_path / "frames.bin")
        assert isinstance(stream, FrameFile)
        assert (len(stream), stream.axes) == (3, 3)
        assert stream.timestamps.tolist() == [0, 1, 2]
        block = stream[:]
        assert isinstance(block, FrameBlock)
        for column in (block.timestamps, block.data):
            assert column.flags.c_contiguous and column.flags.owndata
        assert np.array_equal(block.data, np.stack([f.data for f in frames]))
        write_frames(tmp_path / "again.bin", block)
        assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "frames.bin").read_bytes()
        write_frames(tmp_path / "again.bin", stream)
        assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "frames.bin").read_bytes()

    def test_rows_match_the_block_in_memory(self, tmp_path):
        # 150 records: runs longer than one preadv
        frames = self.write(tmp_path / "frames.bin", 150)
        whole = FrameBlock.of(frames)
        stream = read_frames(tmp_path / "frames.bin")
        picks = [
            slice(None), slice(3, 140), slice(None, None, -7), slice(5, 5),
            np.random.default_rng(5).permutation(150)[:40],
            np.array([7, 8, 9, 3, 4, 149, 0, 1]), np.array([-1, -150, 2]),
            np.array([], dtype=np.int64), [5, 6],
        ]
        for rows in picks:
            block = stream[rows]
            assert np.array_equal(block.timestamps, whole.timestamps[rows])
            assert np.array_equal(block.data, whole.data[rows])
        assert np.array_equal(stack_frames(stream), stack_frames(whole))
        for rows in (np.array([3, 150]), np.array([-151])):
            with pytest.raises(IndexError):
                stream[rows]
        # rows only: no int key, so no iteration as Frames either
        for rows in (0, -1, np.ones(150, dtype=bool), 2.0, np.zeros((2, 2), dtype=int)):
            with pytest.raises(TypeError):
                stream[rows]
        with pytest.raises(TypeError):
            list(stream)

    def test_open_reads_no_samples(self, tmp_path):
        path = tmp_path / "frames.bin"
        self.write(path, 100)
        tracemalloc.start()
        try:
            stream = read_frames(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream) == 100
        assert peak < path.stat().st_size / 100

    def test_nan_frame_named_by_its_index_in_the_file(self, tmp_path):
        path = tmp_path / "frames.bin"
        self.write(path, 6, stamps=[50, 40, 30, 20, 10, 60])
        blob = bytearray(path.read_bytes())
        record = 8 + 3 * FRAME_LEN * 4
        struct.pack_into("<f", blob, 13 + 3 * record + 8 + 4 * 77, np.inf)
        path.write_bytes(bytes(blob))
        stream = read_frames(path)
        assert len(stream[:3]) == 3
        message = r"^%s: frame 3 \(timestamp 20\) contains non-finite values$"
        with pytest.raises(IngestError, match=message % re.escape(str(path))):
            stream[np.array([4, 3, 2])]

    def test_file_cut_short_after_open(self, tmp_path):
        path = tmp_path / "frames.bin"
        self.write(path, 5)
        stream = read_frames(path)
        record = 8 + 3 * FRAME_LEN * 4
        path.write_bytes(path.read_bytes()[:13 + 2 * record + record // 2])
        assert len(stream[:2]) == 2
        message = r"^%s: frame %d is cut short; the file changed after it was opened$"
        for rows, short in ((slice(None), 2), (np.array([1, 4]), 4)):
            with pytest.raises(ParseError, match=message % (re.escape(str(path)), short)):
                stream[rows]

    def test_file_rewritten_after_open(self, tmp_path):
        path = tmp_path / "frames.bin"
        self.write(path, 5)
        stream = read_frames(path)
        self.write(path, 5, seed=5, stamps=[0, 1, 7, 3, 4])
        assert np.array_equal(stream[:2].timestamps, [0, 1])
        message = r"^%s: frame 2 has timestamp 7, not 2; the file changed after it was opened$"
        with pytest.raises(ParseError, match=message % re.escape(str(path))):
            stream[1:4]


class TestTimestampFromFilename:
    def test_dataset_convention(self):
        expected = int(
            datetime(2004, 2, 12, 10, 32, 39, tzinfo=timezone.utc).timestamp()
        )
        assert timestamp_from_filename("2004.02.12.10.32.39") == expected

    @pytest.mark.parametrize("name", ["bearing.csv", "2004.02.12", ""])
    def test_bad_names_rejected(self, name):
        with pytest.raises(ParseError):
            timestamp_from_filename(name)


class TestParseImsFile:
    NAME = "2004.02.12.10.32.39"

    def test_two_rows_eight_columns(self):
        text = "\t".join(str(v) for v in range(8)) + "\n"
        text += "\t".join(str(v + 10) for v in range(8)) + "\n"
        timestamp, matrix = parse_ims_file(text, self.NAME)
        assert matrix.shape == (2, 8)
        assert matrix[0, 3] == 3.0
        assert matrix[1, 0] == 10.0
        assert timestamp == timestamp_from_filename(self.NAME)

    def test_single_row(self):
        _, matrix = parse_ims_file("1 2 3 4\n", self.NAME)
        assert matrix.shape == (1, 4)

    def test_ragged_rows_name_the_row(self):
        text = "1 2 3\n4 5\n"
        with pytest.raises(ParseError, match="row 2"):
            parse_ims_file(text, self.NAME)

    def test_non_numeric_token_named(self):
        text = "1 2 abc\n4 5 6\n"
        with pytest.raises(ParseError, match="column 3.*'abc'"):
            parse_ims_file(text, self.NAME)

    @pytest.mark.parametrize("text", ["", "   \n  \n"])
    def test_empty_rejected(self, text):
        with pytest.raises(ParseError, match="empty"):
            parse_ims_file(text, self.NAME)

    def test_nonfinite_rejected(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_ims_file("1 2\nnan 4\n", self.NAME)

    @pytest.mark.parametrize(
        "text, row, column",
        [("# header\n", 1, 1), ("1 2 3\n4 5 6 # 7\n", 2, 4)],
        ids=["comment-only-file", "hash-inside-a-row"],
    )
    def test_hash_is_a_non_numeric_token(self, text, row, column):
        # a '#' is a bad token, not a comment: the first file once gave a
        # numpy UserWarning and a DimensionError naming no file, and the
        # second was read as two rows of three numbers
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as raised:
                parse_ims_file(text, self.NAME)
        assert str(raised.value) == "%s: row %d, column %d: non-numeric token '#'" % (
            self.NAME, row, column
        )


class TestWindowize:
    def test_two_exact_windows(self):
        series = np.arange(2 * FRAME_LEN, dtype=np.float64)
        block = windowize(series, timestamp=1000)
        assert isinstance(block, FrameBlock)
        assert (len(block), block.axes) == (2, 1)
        assert block.timestamps.tolist() == [1000, 1001]
        assert np.array_equal(block.data[1, 0], series[FRAME_LEN:].astype(np.float32))

    def test_remainder_discarded(self):
        series = np.arange(2 * FRAME_LEN - 1, dtype=np.float64)
        block = windowize(series)
        assert len(block) == 1
        assert np.array_equal(block.data[0, 0], series[:FRAME_LEN].astype(np.float32))

    def test_five_windows(self):
        block = windowize(np.zeros(20480))
        assert len(block) == 5

    def test_short_series_warns_and_returns_empty(self):
        with pytest.warns(DataWarning, match="shorter"):
            block = windowize(np.zeros(FRAME_LEN - 1))
        assert len(block) == 0 and block.data.shape == (0, 1, FRAME_LEN)

    def test_bad_inputs(self):
        with pytest.raises(DimensionError):
            windowize(np.zeros((2, FRAME_LEN)))


class TestFrameFileRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        frames = [random_frame(rng, timestamp=10 + i) for i in range(3)]
        path = tmp_path / "frames.bin"
        write_frames(path, frames)
        loaded = read_frames(path)
        assert len(loaded) == 3
        assert np.array_equal(loaded[:].data, np.stack([f.data for f in frames]))
        assert loaded.timestamps.tolist() == [f.timestamp for f in frames]

    def test_single_axis_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        frames = [random_frame(rng, axes=1, timestamp=4)]
        path = tmp_path / "frames.bin"
        write_frames(path, frames)
        loaded = read_frames(path)
        assert loaded.axes == 1
        assert np.array_equal(loaded[:].data[0], frames[0].data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "frames.bin"
        rng = np.random.default_rng(7)
        write_frames(path, [random_frame(rng)])
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="not a FRME"):
            read_frames(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "frames.bin"
        rng = np.random.default_rng(8)
        write_frames(path, [random_frame(rng)])
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="version 99"):
            read_frames(path)

    def test_unsupported_frame_length(self, tmp_path):
        path = tmp_path / "frames.bin"
        rng = np.random.default_rng(9)
        write_frames(path, [random_frame(rng)])
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 9, 2048)
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="frame length 2048"):
            read_frames(path)

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "frames.bin"
        rng = np.random.default_rng(10)
        write_frames(path, [random_frame(rng)])
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(ParseError, match="truncated"):
            read_frames(path)

    def test_zero_axis_count(self, tmp_path):
        path = tmp_path / "frames.bin"
        write_frames(path, [random_frame(np.random.default_rng(11))])
        blob = bytearray(path.read_bytes())
        blob[8] = 0  # the header's axis count
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="axis count must be >= 1"):
            read_frames(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "frames.bin"
        path.write_bytes(b"FRME\x01")
        with pytest.raises(ParseError, match="truncated header"):
            read_frames(path)

    @pytest.mark.parametrize("axes", [1, 3])
    def test_golden_bytes(self, tmp_path, axes):
        # reference built field by field with struct, independent of the
        # reader and writer, so the two cannot drift together
        rng = np.random.default_rng(13)
        stamps = [7, 2**33 + 1, 9]
        frames = [random_frame(rng, axes=axes, timestamp=t) for t in stamps]
        golden = b"FRME" + struct.pack("<IBI", 1, axes, FRAME_LEN)
        for frame in frames:
            golden += struct.pack("<Q", frame.timestamp)
            golden += struct.pack("<%df" % (axes * FRAME_LEN), *frame.data.ravel())
        written = tmp_path / "written.bin"
        reference = tmp_path / "golden.bin"
        reference.write_bytes(golden)
        for form in (frames, FrameBlock.of(frames), read_frames(reference)):
            write_frames(written, form)
            assert written.read_bytes() == golden
        loaded = read_frames(reference)
        assert loaded.timestamps.tolist() == stamps
        block = loaded[:]
        assert block.data.dtype == np.float32
        assert np.array_equal(block.data, np.stack([f.data for f in frames]))

    def write_peak(self, path, stream):
        tracemalloc.start()
        try:
            write_frames(path, stream)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_memory_does_not_grow_with_frame_count(self, tmp_path):
        rng = np.random.default_rng(14)
        block = FrameBlock.of([random_frame(rng, timestamp=i) for i in range(256)])
        path = tmp_path / "frames.bin"
        assert self.write_peak(path, block) <= 1.2 * self.write_peak(path, block[:64])
        write_frames(tmp_path / "source.bin", block)
        source = read_frames(tmp_path / "source.bin")
        write_frames(tmp_path / "short.bin", block[:64])
        short = read_frames(tmp_path / "short.bin")
        assert self.write_peak(path, source) <= 1.2 * self.write_peak(path, short)

    def test_list_write_memory_is_one_stacked_copy(self, tmp_path):
        # a list is stacked once where it comes in; beyond that copy the
        # write holds what a block's does
        rng = np.random.default_rng(15)
        frames = [random_frame(rng, timestamp=i) for i in range(256)]
        block = FrameBlock.of(frames)
        path = tmp_path / "frames.bin"
        chunked = self.write_peak(path, block)
        assert self.write_peak(path, frames) <= block.data.nbytes + 1.2 * chunked

    def test_failed_write_leaves_the_target_as_it_was(self, tmp_path):
        rng = np.random.default_rng(16)
        source = tmp_path / "source.bin"
        write_frames(source, [random_frame(rng, timestamp=i) for i in range(100)])
        blob = bytearray(source.read_bytes())
        struct.pack_into("<f", blob, 13 + 90 * (8 + 3 * FRAME_LEN * 4) + 8, np.nan)
        source.write_bytes(bytes(blob))
        out = tmp_path / "out.bin"
        with pytest.raises(IngestError, match="frame 90"):
            write_frames(out, read_frames(source))
        assert not out.exists()
        write_frames(out, [random_frame(rng, timestamp=7)])
        before = out.read_bytes()
        with pytest.raises(IngestError, match="frame 90"):
            write_frames(out, read_frames(source))
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "source.bin"]

    def test_header_only_file_reads_as_no_frames(self, tmp_path):
        path = tmp_path / "frames.bin"
        path.write_bytes(b"FRME" + struct.pack("<IBI", 1, 3, FRAME_LEN))
        assert len(read_frames(path)) == 0

    def test_write_rejects_empty_and_mixed(self, tmp_path):
        rng = np.random.default_rng(11)
        with pytest.raises(DimensionError):
            write_frames(tmp_path / "a.bin", [])
        mixed = [random_frame(rng, axes=3), random_frame(rng, axes=1, timestamp=7)]
        with pytest.raises(DimensionError, match=r"frame 1 \(timestamp 7\) has 1 axes, expected 3"):
            write_frames(tmp_path / "b.bin", mixed)

    def test_write_rejects_negative_timestamp(self, tmp_path):
        rng = np.random.default_rng(12)
        frame = random_frame(rng, timestamp=-5)
        with pytest.raises(ConfigurationError, match="negative"):
            write_frames(tmp_path / "c.bin", [frame])


@pytest.fixture(scope="module")
def mini_ims(tmp_path_factory):
    root = tmp_path_factory.mktemp("ims")
    build_mini_ims(root)
    return root


class TestResolveSetDir:
    def test_standard_names(self, mini_ims):
        assert resolve_set_dir(mini_ims, 1).name == "1st_test"
        assert resolve_set_dir(mini_ims, 2).name == "2nd_test"
        assert resolve_set_dir(mini_ims, 3).name == "3rd_test"

    def test_alternate_names(self, tmp_path):
        build_mini_ims(tmp_path, set_dir_names=("Set1", "set_2", "TEST-3"))
        for k in (1, 2, 3):
            resolved = resolve_set_dir(tmp_path, k)
            assert resolved.is_dir()

    def test_nested_layout(self, tmp_path):
        build_mini_ims(tmp_path / "archive")
        assert resolve_set_dir(tmp_path, 1).name == "1st_test"

    def test_doubly_nested_same_name(self, tmp_path):
        outer = tmp_path / "1st_test"
        build_mini_ims(outer, set_dir_names=("1st_test", "2nd_x", "3rd_x"))
        resolved = resolve_set_dir(tmp_path, 1)
        assert resolved == outer / "1st_test"

    def test_missing_set_lists_found(self, tmp_path):
        (tmp_path / "something_else").mkdir()
        with pytest.raises(IngestError, match="set 1.*something_else"):
            resolve_set_dir(tmp_path, 1)

    def test_bad_root(self, tmp_path):
        with pytest.raises(IngestError, match="not a directory"):
            resolve_set_dir(tmp_path / "missing", 1)


class TestBuildNasaSplits:
    def test_split_layout_and_disjointness(self, mini_ims):
        with pytest.warns(DataWarning, match="only 44"):
            train, tests = build_nasa_splits(mini_ims, seed=0)
        # candidates: Set1 2 files x 6 non-test channels x 2 windows,
        # Set2 2 x 3 x 2, Set3 1 x 4 x 2
        assert isinstance(train, FrameBlock) and (len(train), train.axes) == (44, 1)
        assert set(tests) == {"Set1/Ch5", "Set1/Ch7", "Set2/Ch1"}
        # value traceability: every frame carries its channel constant
        constants = {"Set1/Ch5": 105.0, "Set1/Ch7": 107.0, "Set2/Ch1": 201.0}
        for label, sequence in tests.items():
            assert isinstance(sequence, FrameBlock) and (len(sequence), sequence.axes) == (4, 1)
            assert np.all(np.diff(sequence.timestamps.astype(np.int64)) > 0)
            assert np.all(sequence.data == constants[label])
        assert np.all(train.data == train.data[:, :, :1])
        train_ids = set(self.ids(train))
        assert len(train_ids) == 44
        assert not {c for c, _ in train_ids} & set(constants.values())

    @staticmethod
    def ids(block):
        """(channel constant, timestamp) of each row, in order."""
        return list(zip(block.data[:, 0, 0].tolist(), block.timestamps.tolist()))

    def test_subsample_is_seeded(self, mini_ims):
        train_a, _ = build_nasa_splits(mini_ims, train_size=10, seed=3)
        train_b, _ = build_nasa_splits(mini_ims, train_size=10, seed=3)
        train_c, _ = build_nasa_splits(mini_ims, train_size=10, seed=4)
        ids_a, ids_b, ids_c = (self.ids(t) for t in (train_a, train_b, train_c))
        assert len(ids_a) == 10
        assert ids_a == ids_b
        assert ids_a != ids_c

    def test_reservoir_picks_are_pinned(self, mini_ims):
        # Algorithm R's picks for seed 3, as the frame-by-frame reservoir
        # drew them: a change in how rows are offered or drawn moves them
        train, _ = build_nasa_splits(mini_ims, train_size=10, seed=3)
        assert self.ids(train) == [
            (204.0, 1076581959), (104.0, 1076582560), (102.0, 1076582559),
            (204.0, 1076581960), (202.0, 1076581960), (103.0, 1076581960),
            (302.0, 1078392466), (104.0, 1076581960), (108.0, 1076581959),
            (106.0, 1076582560),
        ]

    def test_missing_set_raises(self, tmp_path):
        build_mini_ims(tmp_path, set_dir_names=("1st_test", "2nd_test", "junk"))
        with pytest.raises(IngestError, match="set 3"):
            build_nasa_splits(tmp_path)

    @pytest.mark.parametrize("train_size", [0, True, "10"])
    def test_split_spec_validation(self, tmp_path, train_size):
        # refused before the archive is looked at
        with pytest.raises(ConfigurationError) as raised:
            build_nasa_splits(tmp_path / "missing", train_size=train_size)
        assert str(raised.value) == "train_size must be an integer >= 1, got %r" % (train_size,)


def _splits_of_captures_one_second_apart(tmp_path):
    # each capture's two windows are stamped t and t + 1, so a capture one
    # second later repeats a held-out channel's timestamp t + 1
    build_mini_ims(tmp_path)
    first = tmp_path / "1st_test"
    (first / "2004.02.12.10.42.39").rename(first / "2004.02.12.10.32.40")
    build_nasa_splits(tmp_path, train_size=1)


@pytest.mark.parametrize(
    "call, error, message",
    [(lambda _: FrameBlock(np.array([0.5]), np.zeros((1, 1, FRAME_LEN), np.float32)),
      DimensionError, "timestamps must be a 1-D integer column, got float64 of shape (1,)"),
     (lambda _: stack_frames(FrameBlock(np.zeros(0, np.int64), np.zeros((0, 3, FRAME_LEN)))),
      DimensionError, "cannot stack an empty frame list"),
     (_splits_of_captures_one_second_apart,
      IngestError, "test sequence Set1/Ch5 is not strictly chronological")],
    ids=["float-timestamps", "stack-empty-block", "held-out-out-of-order"],
)
def test_bad_input_is_refused(tmp_path, call, error, message):
    with pytest.raises(error) as raised:
        call(tmp_path)
    assert str(raised.value) == message
