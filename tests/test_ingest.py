"""Ingestion tests: IMS parsing, windowing, splits, and frame formats.

The NASA-layout tests run against a fabricated miniature dataset tree
whose channel columns hold the constant set*100 + channel, so any frame
can be traced back to its origin by value.
"""

import re
import struct
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest

from vibanom.errors import (
    ConfigurationError,
    DataWarning,
    DimensionError,
    IngestError,
    ParseError,
)
from vibanom.ingest import (
    FRAME_LEN,
    Frame,
    FrameBlock,
    FrameFile,
    ImsRecording,
    SplitSpec,
    build_nasa_splits,
    parse_ims_file,
    read_frames,
    resolve_set_dir,
    stack_frames,
    timestamp_from_filename,
    windowize,
    write_frames,
)

from helpers import make_mini_ims as build_mini_ims


def random_frame(rng, axes=3, timestamp=100, source="t"):
    data = rng.normal(size=(axes, FRAME_LEN)).astype(np.float32)
    return Frame(data=data, timestamp=timestamp, source=source)


class TestFrame:
    def test_valid_frame(self):
        data = np.zeros((3, FRAME_LEN), dtype=np.float32)
        frame = Frame(data=data, timestamp=np.int64(7), source="Set1/Ch2")
        assert frame.axes == 3
        assert frame.data.dtype == np.float32
        assert frame.timestamp == 7
        assert isinstance(frame.timestamp, int)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError, match="4096"):
            Frame(data=np.zeros((3, FRAME_LEN - 1)), timestamp=0)

    def test_one_dimensional_rejected(self):
        with pytest.raises(DimensionError, match="2-D"):
            Frame(data=np.zeros(FRAME_LEN), timestamp=0)

    def test_nonfinite_rejected(self):
        data = np.zeros((1, FRAME_LEN))
        data[0, 100] = np.nan
        with pytest.raises(IngestError, match="non-finite"):
            Frame(data=data, timestamp=0)


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


class TestFrameBlock:
    def test_of_stacks_a_sequence_and_passes_a_block(self):
        rng = np.random.default_rng(1)
        frames = [random_frame(rng, timestamp=5 + i) for i in range(4)]
        block = FrameBlock.of(frames)
        assert len(block) == 4 and block.axes == 3
        assert block.data.shape == (4, 3, FRAME_LEN)
        assert block.timestamps.tolist() == [5, 6, 7, 8]
        assert FrameBlock.of(block) is block
        frame = block[2]
        assert isinstance(frame, Frame) and type(frame.timestamp) is int
        assert frame.timestamp == 7
        assert np.shares_memory(frame.data, block.data)
        assert [f.timestamp for f in block] == [5, 6, 7, 8]
        part = block[1:3]
        assert part.timestamps.tolist() == [6, 7]
        assert np.shares_memory(part.data, block.data)

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
        # 150 records: runs longer than one preadv, and iteration in steps
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
        for k in (0, 77, -1):
            assert stream[k].timestamp == whole[k].timestamp
            assert np.array_equal(stream[k].data, whole[k].data)
        assert [f.timestamp for f in stream] == list(range(150))
        assert np.array_equal(stack_frames(stream), stack_frames(whole))
        for rows in (150, -151, np.array([3, 150]), np.ones(150, dtype=bool), 2.0):
            with pytest.raises(IndexError):
                stream[rows]

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

    def test_directory_prefix_and_extension(self):
        base = timestamp_from_filename("2004.02.12.10.32.39")
        assert timestamp_from_filename("/data/1st_test/2004.02.12.10.32.39") == base
        assert timestamp_from_filename("2004.02.12.10.32.39.txt") == base

    @pytest.mark.parametrize("name", ["bearing.csv", "2004.02.12", ""])
    def test_bad_names_rejected(self, name):
        with pytest.raises(ParseError):
            timestamp_from_filename(name)


class TestParseImsFile:
    NAME = "2004.02.12.10.32.39"

    def test_two_rows_eight_columns(self):
        text = "\t".join(str(v) for v in range(8)) + "\n"
        text += "\t".join(str(v + 10) for v in range(8)) + "\n"
        rec = parse_ims_file(text, self.NAME)
        assert rec.matrix.shape == (2, 8)
        assert rec.channel_count == 8
        assert rec.matrix[0, 3] == 3.0
        assert rec.matrix[1, 0] == 10.0
        assert rec.timestamp == timestamp_from_filename(self.NAME)

    def test_single_row(self):
        rec = parse_ims_file("1 2 3 4\n", self.NAME)
        assert rec.matrix.shape == (1, 4)

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

    def test_channel_accessor_is_one_based(self):
        rec = parse_ims_file("1 2\n3 4\n", self.NAME)
        assert np.array_equal(rec.channel(1), [1.0, 3.0])
        assert np.array_equal(rec.channel(2), [2.0, 4.0])
        with pytest.raises(DimensionError):
            rec.channel(3)

    def test_recording_rejects_empty_matrix(self):
        with pytest.raises(DimensionError):
            ImsRecording(timestamp=0, matrix=np.zeros((0, 4)))


class TestWindowize:
    def test_two_exact_windows(self):
        series = np.arange(2 * FRAME_LEN, dtype=np.float64)
        frames = windowize(series, source="Set1/Ch2", timestamp=1000)
        assert len(frames) == 2
        assert frames[0].timestamp == 1000
        assert frames[1].timestamp == 1001
        assert frames[0].source == "Set1/Ch2"
        assert np.array_equal(frames[1].data[0], series[FRAME_LEN:].astype(np.float32))

    def test_remainder_discarded(self):
        series = np.arange(2 * FRAME_LEN - 1, dtype=np.float64)
        frames = windowize(series)
        assert len(frames) == 1
        assert np.array_equal(frames[0].data[0], series[:FRAME_LEN].astype(np.float32))

    def test_five_windows(self):
        frames = windowize(np.zeros(20480))
        assert len(frames) == 5

    def test_short_series_warns_and_returns_empty(self):
        with pytest.warns(DataWarning, match="shorter"):
            frames = windowize(np.zeros(FRAME_LEN - 1))
        assert frames == []

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
        for original, parsed in zip(frames, loaded):
            assert np.array_equal(original.data, parsed.data)
            assert parsed.timestamp == original.timestamp

    def test_single_axis_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        frames = [random_frame(rng, axes=1, timestamp=4)]
        path = tmp_path / "frames.bin"
        write_frames(path, frames)
        loaded = read_frames(path)
        assert loaded[0].axes == 1
        assert np.array_equal(loaded[0].data, frames[0].data)

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
        for form in (frames, FrameBlock.of(frames)):
            write_frames(written, form)
            assert written.read_bytes() == golden
        reference = tmp_path / "golden.bin"
        reference.write_bytes(golden)
        loaded = read_frames(reference)
        assert [f.timestamp for f in loaded] == stamps
        assert all(type(f.timestamp) is int for f in loaded)
        for original, parsed in zip(frames, loaded):
            assert parsed.data.dtype == np.float32
            assert np.array_equal(original.data, parsed.data)

    def test_write_memory_does_not_grow_with_frame_count(self, tmp_path):
        rng = np.random.default_rng(14)
        frames = [random_frame(rng, timestamp=i) for i in range(256)]

        def peak(count):
            tracemalloc.start()
            try:
                write_frames(tmp_path / "frames.bin", frames[:count])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(256) <= 1.2 * peak(64)

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
        assert len(train) == 44
        assert set(tests) == {"Set1/Ch5", "Set1/Ch7", "Set2/Ch1"}
        for label, sequence in tests.items():
            assert len(sequence) == 4
            stamps = [f.timestamp for f in sequence]
            assert all(b > a for a, b in zip(stamps, stamps[1:]))
            assert all(f.source == label for f in sequence)
        # value traceability: test frames carry their channel constant
        assert all(np.all(f.data == 105.0) for f in tests["Set1/Ch5"])
        assert all(np.all(f.data == 107.0) for f in tests["Set1/Ch7"])
        assert all(np.all(f.data == 201.0) for f in tests["Set2/Ch1"])
        test_labels = set(tests)
        assert all(f.source not in test_labels for f in train)
        train_ids = {(f.source, f.timestamp) for f in train}
        test_ids = {
            (f.source, f.timestamp)
            for seq in tests.values()
            for f in seq
        }
        assert not train_ids & test_ids

    def test_subsample_is_seeded(self, mini_ims):
        spec = SplitSpec(train_size=10)
        train_a, _ = build_nasa_splits(mini_ims, spec, seed=3)
        train_b, _ = build_nasa_splits(mini_ims, spec, seed=3)
        train_c, _ = build_nasa_splits(mini_ims, spec, seed=4)
        ids_a = [(f.source, f.timestamp) for f in train_a]
        ids_b = [(f.source, f.timestamp) for f in train_b]
        ids_c = [(f.source, f.timestamp) for f in train_c]
        assert len(ids_a) == 10
        assert ids_a == ids_b
        assert ids_a != ids_c

    def test_missing_set_raises(self, tmp_path):
        build_mini_ims(tmp_path, set_dir_names=("1st_test", "2nd_test", "junk"))
        with pytest.raises(IngestError, match="set 3"):
            build_nasa_splits(tmp_path)

    def test_split_spec_validation(self):
        with pytest.raises(ConfigurationError):
            SplitSpec(train_size=0)
        with pytest.raises(ConfigurationError):
            SplitSpec(test_channels=(("first", 5),))
