"""CLI wiring tests driven through main(argv).

Subcommands run against tiny real inputs: an untrained full-size
checkpoint, small FRME files of noise frames, and a miniature IMS tree.
"""

import json
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from vibanom import cli, dcan, fleet, parallel
from vibanom.cli import main
from vibanom.errors import AliasingWarning, DataWarning, ParseError
from vibanom.fleet import (
    FleetConfig,
    PredictorSpec,
    parse_report,
    save_fleet_config,
)
from vibanom.ingest import FRAME_LEN, Frame, FrameBlock, read_frames, write_frames
from vibanom.scoring import AlarmLevel, ScoreNormalization
from vibanom.signals import DEFAULT_SAMPLE_RATE, Waveform, write_waveform_csv
from vibanom.training import StandardizationStats, load_checkpoint, save_checkpoint

from helpers import make_mini_ims

REPORT = ("ts:1 predictor:p location:l axis_mse:1.0 total_mse:1.0 score:0.0 "
          "level:%s alarm:%d window_anomalous:%d")
ARCHITECTURE_REFUSED = "architecture metadata is neither the 1-axis nor the 3-axis DCAN's"


def rewrite_architecture(path, edit):
    """Rewrite the checkpoint at path with edit applied to its
    architecture block, the metadata's config entry, in place."""
    data = path.read_bytes()
    end = 12 + struct.unpack_from("<I", data, 8)[0]
    meta = json.loads(data[12:end])
    edit(meta["config"])
    blob = json.dumps(meta).encode()
    path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[end:])


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.ckpt"
    model = dcan.build(dcan.DcanConfig(), seed=21)
    stats = StandardizationStats(
        per_axis_mean=np.zeros(3, dtype=np.float32),
        per_axis_std=np.ones(3, dtype=np.float32),
    )
    save_checkpoint(model, stats, path)
    return str(path)


def frames_file(path, seed, count, scale=1.0, axes=3, start_ts=1000):
    rng = np.random.default_rng(seed)
    frames = [
        Frame(
            data=rng.normal(0.0, scale, (axes, FRAME_LEN)).astype(np.float32),
            timestamp=start_ts + i,
            source="s",
        )
        for i in range(count)
    ]
    write_frames(path, frames)
    return str(path)


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestTrain:
    def test_train_writes_checkpoint_and_loss_csv(self, tmp_path, capsys):
        frames = frames_file(tmp_path / "train.frames", seed=1, count=4)
        out = tmp_path / "trained.ckpt"
        rc = main(["train", "--frames", frames, "--out", str(out), "--seed", "1"])
        assert rc == 0
        model, stats = load_checkpoint(out)
        assert model.config.axes == 3
        loss_csv = tmp_path / "trained.ckpt.loss.csv"
        header, rows = read_csv_rows(loss_csv)
        assert header == "epoch,train_mse,val_mse"
        assert len(rows) >= 1
        assert "trained" in capsys.readouterr().out


class TestCalibrate:
    def test_prints_and_writes_json(self, checkpoint, tmp_path, capsys):
        frames = frames_file(tmp_path / "cal.frames", seed=2, count=6)
        out = tmp_path / "norm.json"
        rc = main(
            ["calibrate", "--checkpoint", checkpoint, "--frames", frames,
             "--out", str(out)]
        )
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(out.read_text())
        assert printed == saved
        assert saved["sigma"] > 0

    def test_degenerate_frames_fail_cleanly(self, checkpoint, tmp_path, capsys):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(3, FRAME_LEN)).astype(np.float32)
        frames = [Frame(data=data, timestamp=i, source="s") for i in range(3)]
        path = tmp_path / "same.frames"
        write_frames(path, frames)
        rc = main(["calibrate", "--checkpoint", checkpoint, "--frames", str(path)])
        assert rc == 1
        assert "error: CalibrationError:" in capsys.readouterr().err

    def test_header_only_frame_file_names_the_file(self, checkpoint, tmp_path, capsys):
        frames = tmp_path / "empty.frames"
        frames.write_bytes(b"FRME" + struct.pack("<IBI", 1, 3, FRAME_LEN))
        rc = main(["calibrate", "--checkpoint", checkpoint, "--frames", str(frames)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: DimensionError: %s: the frame file has no frames\n" % frames


class TestScore:
    def test_adhoc_self_calibration_scores_none(self, checkpoint, tmp_path, capsys):
        # scoring the calibration frames themselves: |z| <= (N-1)/sqrt(N)
        # stays under the low threshold of 3 for N = 10
        frames = frames_file(tmp_path / "score.frames", seed=4, count=10)
        log = tmp_path / "score.log"
        rc = main(
            ["score", "--checkpoint", checkpoint, "--frames", frames,
             "--out", str(log)]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        reports = [parse_report(line) for line in lines]
        assert all(r.level == AlarmLevel.NONE for r in reports)
        assert all(r.predictor_id == "adhoc" for r in reports)
        assert log.read_text().strip().splitlines() == lines

    def test_adhoc_reconstructs_each_frame_once(
        self, checkpoint, tmp_path, capsys, monkeypatch
    ):
        # 70 frames span five scoring tasks
        frames = frames_file(tmp_path / "once.frames", seed=8, count=70)
        reconstructed = []
        real = dcan.reconstruct

        def counting(model, batch):
            reconstructed.append(batch.shape[0])
            return real(model, batch)

        monkeypatch.setattr(dcan, "reconstruct", counting)
        rc = main(["score", "--checkpoint", checkpoint, "--frames", frames])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 70
        assert sum(reconstructed) == len(lines)

    def test_config_supplies_identity_and_calibration(
        self, checkpoint, tmp_path, capsys
    ):
        frames = frames_file(tmp_path / "score2.frames", seed=5, count=3)
        spec = PredictorSpec(
            id="gear-left",
            location="gear-left",
            checkpoint=checkpoint,
            normalization=ScoreNormalization(mu=1.0, sigma=0.5),
        )
        config_path = tmp_path / "fleet.json"
        save_fleet_config(
            FleetConfig(predictors=(spec,), report_log="r.log"), config_path
        )
        rc = main(
            ["score", "--checkpoint", checkpoint, "--frames", frames,
             "--config", str(config_path)]
        )
        assert rc == 0
        reports = [
            parse_report(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert all(r.predictor_id == "gear-left" for r in reports)

    @pytest.mark.parametrize("with_config", [False, True])
    def test_header_only_frame_file_fails_cleanly(
        self, checkpoint, tmp_path, capsys, with_config
    ):
        # what a writer killed after the header leaves behind
        frames = tmp_path / "empty.frames"
        frames.write_bytes(b"FRME" + struct.pack("<IBI", 1, 3, FRAME_LEN))
        argv = ["score", "--checkpoint", checkpoint, "--frames", str(frames)]
        if with_config:
            spec = PredictorSpec(
                id="a", location="a", checkpoint=checkpoint,
                normalization=ScoreNormalization(mu=1.0, sigma=0.5),
            )
            config_path = tmp_path / "fleet.json"
            save_fleet_config(
                FleetConfig(predictors=(spec,), report_log="r.log"), config_path
            )
            argv += ["--config", str(config_path)]
        rc = main(argv)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: DimensionError:" in captured.err
        assert captured.err == "error: DimensionError: %s: the frame file has no frames\n" % frames

    @pytest.mark.parametrize(
        "field, value",
        [("frame_len", "4096"), ("axes", 3.0), ("fc_widths", (200, "200", 200, 200)),
         ("leaky_slope", True)],
    )
    def test_mistyped_checkpoint_metadata_fails_cleanly(self, tmp_path, capsys, field, value):
        stats = StandardizationStats(np.zeros(3, np.float32), np.ones(3, np.float32))
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(dcan.build(dcan.DcanConfig(), seed=21), stats, bad)
        rewrite_architecture(bad, lambda entry: entry.update({field: value}))
        frames = frames_file(tmp_path / "s.frames", seed=6, count=3)
        out = tmp_path / "scores.log"
        rc = main(["score", "--checkpoint", str(bad), "--frames", frames, "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: CheckpointFormatError: %s\n" % ARCHITECTURE_REFUSED
        assert not out.exists()

    @pytest.mark.parametrize("given", ["./m.ckpt", "absolute", "sub/../m.ckpt"])
    def test_config_matches_the_checkpoint_by_file(
        self, checkpoint, tmp_path, capsys, monkeypatch, given
    ):
        # fleet.json lists m.ckpt; --checkpoint names the same file otherwise
        (tmp_path / "m.ckpt").write_bytes(Path(checkpoint).read_bytes())
        (tmp_path / "sub").mkdir()
        frames = frames_file(tmp_path / "s.frames", seed=5, count=3)
        spec = PredictorSpec(id="gear-left", location="gear-left", checkpoint="m.ckpt",
                             normalization=ScoreNormalization(mu=1.0, sigma=0.5))
        save_fleet_config(FleetConfig(predictors=(spec,)), tmp_path / "fleet.json")
        monkeypatch.chdir(tmp_path)
        argv = ["score", "--frames", frames, "--config", "fleet.json", "--checkpoint"]
        assert main(argv + ["m.ckpt"]) == 0
        plain = capsys.readouterr().out
        if given == "absolute":
            given = str(tmp_path / "m.ckpt")
        assert main(argv + [given]) == 0
        assert capsys.readouterr().out == plain
        assert [parse_report(line).predictor_id for line in plain.splitlines()] == ["gear-left"] * 3

    def test_config_with_two_matching_checkpoints(self, checkpoint, tmp_path, capsys, monkeypatch):
        (tmp_path / "m.ckpt").write_bytes(Path(checkpoint).read_bytes())
        frames = frames_file(tmp_path / "s.frames", seed=5, count=3)
        specs = tuple(
            PredictorSpec(id=name, location=name, checkpoint=path,
                          normalization=ScoreNormalization(mu=1.0, sigma=0.5))
            for name, path in (("a", "m.ckpt"), ("b", "./m.ckpt"))
        )
        save_fleet_config(FleetConfig(predictors=specs), tmp_path / "fleet.json")
        monkeypatch.chdir(tmp_path)
        rc = main(["score", "--frames", frames, "--config", "fleet.json",
                   "--checkpoint", str(tmp_path / "m.ckpt")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: RoutingError: 2 predictors in fleet.json use checkpoint %s; need exactly 1"
            % (tmp_path / "m.ckpt")
        ]

    def test_config_without_matching_checkpoint(self, checkpoint, tmp_path, capsys):
        frames = frames_file(tmp_path / "score3.frames", seed=6, count=3)
        spec = PredictorSpec(id="a", location="a", checkpoint="other.ckpt")
        config_path = tmp_path / "fleet.json"
        save_fleet_config(
            FleetConfig(predictors=(spec,), report_log="r.log"), config_path
        )
        rc = main(
            ["score", "--checkpoint", checkpoint, "--frames", frames,
             "--config", str(config_path)]
        )
        assert rc == 1
        assert "error: RoutingError:" in capsys.readouterr().err


class TestSaturatedFrame:
    """Frame 2 (timestamp 102) of five is all 3e38 g: finite, as FrameBlock
    requires, but past float32 once a checkpoint with std 0.05
    standardizes it. main runs with warnings as errors, since pytest
    captures warnings that an stderr check alone would not see."""

    @pytest.fixture
    def setup(self, tmp_path):
        data = np.random.default_rng(1).normal(size=(5, 3, FRAME_LEN)).astype(np.float32)
        data[2] = 3e38
        write_frames(tmp_path / "sat.frames", FrameBlock(np.arange(100, 105), data))
        model = dcan.build(dcan.DcanConfig(), seed=21)
        stats = StandardizationStats(np.zeros(3, np.float32), np.full(3, 0.05, np.float32))
        save_checkpoint(model, stats, tmp_path / "tight.ckpt")
        return tmp_path

    def run(self, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(argv)

    def test_scored_high_without_warnings(self, setup, capsys):
        spec = PredictorSpec(id="p", location="p", checkpoint=str(setup / "tight.ckpt"),
                             normalization=ScoreNormalization(mu=1.0, sigma=0.5))
        save_fleet_config(FleetConfig(predictors=(spec,)), setup / "fleet.json")
        rc = self.run(["score", "--checkpoint", str(setup / "tight.ckpt"),
                       "--frames", str(setup / "sat.frames"), "--config", str(setup / "fleet.json")])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        reports = [parse_report(line) for line in captured.out.splitlines()]
        assert [r.timestamp for r in reports] == [100, 101, 102, 103, 104]
        assert reports[2].level == AlarmLevel.HIGH

    @pytest.mark.parametrize("command", ["calibrate", "score"])
    def test_calibration_names_the_frame(self, setup, capsys, command):
        # score without --config calibrates on the frames it scores
        rc = self.run([command, "--checkpoint", str(setup / "tight.ckpt"),
                       "--frames", str(setup / "sat.frames")])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.splitlines() == [
            "error: CalibrationError: frame at timestamp 102 has a non-finite "
            "reconstruction MSE"
        ]

    def test_calibrates_under_unit_stats(self, setup, checkpoint, capsys):
        # finite MSEs beyond float32's range still have a spread
        rc = self.run(["calibrate", "--checkpoint", checkpoint,
                       "--frames", str(setup / "sat.frames")])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert json.loads(captured.out)["sigma"] > 0


def shuffled_streams(root, checkpoint, lengths, seed):
    """Write one stream file per length under root/streams, with shuffled
    timestamps so each scoring task gathers out of file order, plus
    fleet.json (a predictor per stream) and one.json (the first only).
    Returns each file's frames as a FrameBlock, keyed by its path."""
    streams = root / "streams"
    streams.mkdir()
    blocks, specs = {}, []
    for k, count in enumerate(lengths):
        rng = np.random.default_rng(seed + k)
        frames = [
            Frame(data=rng.normal(0.0, 1.0, (3, FRAME_LEN)).astype(np.float32),
                  timestamp=int(ts), source="s")
            for ts in 1000 + rng.permutation(count)
        ]
        name = "n%d" % count
        path = streams / (name + ".frames")
        write_frames(path, frames)
        blocks[str(path)] = FrameBlock.of(frames)
        specs.append(PredictorSpec(
            id=name, location=name, checkpoint=checkpoint,
            normalization=ScoreNormalization(mu=1.0, sigma=0.5),
        ))
    save_fleet_config(FleetConfig(predictors=tuple(specs)), root / "fleet.json")
    save_fleet_config(FleetConfig(predictors=tuple(specs[:1])), root / "one.json")
    return blocks


class TestWorkerCount:
    """monitor and score write the same bytes for any number of workers."""

    LENGTHS = (1, 15, 16, 17, 64, 65, 203)

    @pytest.fixture(scope="class")
    def setup(self, checkpoint, tmp_path_factory):
        root = tmp_path_factory.mktemp("workers")
        shuffled_streams(root, checkpoint, self.LENGTHS, seed=60)
        return root

    @pytest.mark.parametrize("workers", [2, 4])
    def test_monitor_log_bytes(self, setup, workers, monkeypatch, capsys):
        logs = []
        for count in (1, workers):
            monkeypatch.setattr(parallel, "_worker_count", lambda count=count: count)
            log = setup / ("w%d-%d.log" % (workers, count))
            assert main(["monitor", "--config", str(setup / "fleet.json"),
                         "--frames", str(setup / "streams"), "--out", str(log)]) == 0
            logs.append(log.read_bytes())
        assert logs[0].count(b"\n") == sum(self.LENGTHS)
        assert logs[1] == logs[0]

    @pytest.mark.parametrize("with_config", [False, True])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_score_stdout(self, setup, checkpoint, workers, with_config, monkeypatch, capsys):
        # one predictor in one.json uses the checkpoint, so --config applies;
        # without it a 1-frame stream fails to self-calibrate, the same way
        extra = ["--config", str(setup / "one.json")] if with_config else []
        for length in self.LENGTHS:
            frames = str(setup / "streams" / ("n%d.frames" % length))
            outputs = []
            for count in (1, workers):
                monkeypatch.setattr(parallel, "_worker_count", lambda count=count: count)
                rc = main(["score", "--checkpoint", checkpoint, "--frames", frames, *extra])
                outputs.append((rc, capsys.readouterr()))
            assert outputs[1] == outputs[0]
            assert outputs[0][0] == (1 if length == 1 and not with_config else 0)


class TestFileStreams:
    """monitor and score give the same bytes for a stream file as for the
    same frames held in memory as a FrameBlock."""

    LENGTHS = (1, 15, 16, 17, 65, 203)

    @pytest.fixture(scope="class")
    def setup(self, checkpoint, tmp_path_factory):
        root = tmp_path_factory.mktemp("file-streams")
        return root, shuffled_streams(root, checkpoint, self.LENGTHS, seed=70)

    def test_monitor_log_bytes(self, setup, monkeypatch, capsys):
        root, blocks = setup
        logs = []
        for in_memory in (False, True):
            if in_memory:
                monkeypatch.setattr(fleet, "read_frames", lambda path: blocks[str(path)])
            log = root / ("monitor-%d.log" % in_memory)
            assert main(["monitor", "--config", str(root / "fleet.json"),
                         "--frames", str(root / "streams"), "--out", str(log)]) == 0
            logs.append(log.read_bytes())
        assert logs[0].count(b"\n") == sum(self.LENGTHS)
        assert logs[1] == logs[0]

    @pytest.mark.parametrize("with_config", [False, True])
    def test_score_stdout(self, setup, checkpoint, with_config, monkeypatch, capsys):
        root, blocks = setup
        extra = ["--config", str(root / "one.json")] if with_config else []
        for path in blocks:
            outputs = []
            for in_memory in (False, True):
                if in_memory:
                    monkeypatch.setattr(cli, "read_frames", lambda path: blocks[str(path)])
                rc = main(["score", "--checkpoint", checkpoint, "--frames", path, *extra])
                outputs.append((rc, capsys.readouterr()))
                monkeypatch.undo()
            assert outputs[1] == outputs[0]
            assert outputs[0][0] == (1 if path.endswith("n1.frames") and not with_config else 0)


class TestMonitor:
    def make_fleet(self, checkpoint, tmp_path, log_name="fleet.log"):
        spec = PredictorSpec(
            id="motor-left",
            location="motor-left",
            checkpoint=checkpoint,
            normalization=ScoreNormalization(mu=1.0, sigma=0.5),
        )
        config_path = tmp_path / "fleet.json"
        save_fleet_config(
            FleetConfig(
                predictors=(spec,), report_log=str(tmp_path / log_name)
            ),
            config_path,
        )
        return config_path

    def test_monitor_appends_log(self, checkpoint, tmp_path, capsys):
        config_path = self.make_fleet(checkpoint, tmp_path)
        streams = tmp_path / "streams"
        streams.mkdir()
        frames_file(streams / "motor-left.frames", seed=7, count=6)
        rc = main(
            ["monitor", "--config", str(config_path), "--frames", str(streams)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "motor-left: 6 frames" in out
        log_lines = (tmp_path / "fleet.log").read_text().strip().splitlines()
        assert len(log_lines) == 6

    def test_monitor_holds_one_stream_at_a_time(self, checkpoint, tmp_path, capsys):
        names = ("s1", "s2", "s3", "s4", "s5", "s6")
        specs = tuple(
            PredictorSpec(
                id=name, location=name, checkpoint=checkpoint,
                normalization=ScoreNormalization(mu=1.0, sigma=0.5),
            )
            for name in names
        )
        save_fleet_config(FleetConfig(predictors=specs), tmp_path / "fleet.json")
        for count in (1, 6):
            streams = tmp_path / ("streams%d" % count)
            streams.mkdir()
            for k, name in enumerate(names[:count]):
                frames_file(streams / (name + ".frames"), seed=40 + k, count=100)

        def peak(count):
            argv = ["monitor", "--config", str(tmp_path / "fleet.json"),
                    "--frames", str(tmp_path / ("streams%d" % count)),
                    "--out", str(tmp_path / ("r%d.log" % count))]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(6) <= 1.3 * peak(1)
        assert "report log: %s (600 reports appended)" % (tmp_path / "r6.log") in capsys.readouterr().out

    def test_monitor_memory_does_not_grow_with_stream_length(self, checkpoint, tmp_path, capsys):
        # each scoring task reads its own records from the file, so the
        # stream is never held whole; only the reports grow with it
        config_path = self.make_fleet(checkpoint, tmp_path)
        for count in (100, 400):
            streams = tmp_path / ("streams%d" % count)
            streams.mkdir()
            frames_file(streams / "motor-left.frames", seed=41, count=count)

        def peak(count):
            argv = ["monitor", "--config", str(config_path),
                    "--frames", str(tmp_path / ("streams%d" % count)),
                    "--out", str(tmp_path / ("r%d.log" % count))]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(400) <= 1.2 * peak(100)
        assert "(400 reports appended)" in capsys.readouterr().out

    def test_nan_frame_mid_stream_fails_cleanly(self, checkpoint, tmp_path, capsys):
        specs = tuple(
            PredictorSpec(
                id=name, location=name, checkpoint=checkpoint,
                normalization=ScoreNormalization(mu=1.0, sigma=0.5),
            )
            for name in ("first", "second")
        )
        config_path = tmp_path / "fleet.json"
        save_fleet_config(FleetConfig(predictors=specs), config_path)
        streams = tmp_path / "streams"
        streams.mkdir()
        frames_file(streams / "first.frames", seed=23, count=20)
        # shuffled timestamps: the file index and the scoring order differ
        second = streams / "second.frames"
        stamps = 1000 + np.random.default_rng(24).permutation(70)
        write_frames(second, [
            Frame(data=np.full((3, FRAME_LEN), 0.5, dtype=np.float32), timestamp=int(t))
            for t in stamps
        ])
        blob = bytearray(second.read_bytes())
        record = 8 + 3 * FRAME_LEN * 4
        struct.pack_into("<f", blob, 13 + 37 * record + 8 + 4 * 9000, np.nan)
        second.write_bytes(bytes(blob))
        log = tmp_path / "out.log"
        rc = main(["monitor", "--config", str(config_path), "--frames", str(streams),
                   "--out", str(log)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: IngestError: predictor second: %s: frame 37 (timestamp %d) contains "
            "non-finite values" % (second, stamps[37])
        ]
        assert not log.exists()

    @pytest.mark.parametrize(
        "fault, kind, message",
        [("bad-magic", "CheckpointFormatError", "bad magic b'XXXX'; not a checkpoint file"),
         ("truncated-checkpoint", "CheckpointTruncatedError", "checkpoint truncated while reading"),
         ("nan-frame", "IngestError", "frame 2 (timestamp 1002) contains non-finite values"),
         ("truncated-stream", "ParseError", "truncated frame record"),
         ("repeated-timestamp", "RoutingError", "two frames for timestamp 1000"),
         ("one-axis-stream", "ConfigurationError", "checkpoint expects 3 axes but frames have 1"),
         ("uncalibrated", "ConfigurationError", "no calibration; run calibrate first")],
    )
    def test_one_bad_predictor_is_named(self, checkpoint, tmp_path, capsys, fault, kind, message):
        # the faulty predictor sits between two good ones; its one error
        # line names it, and nothing is appended to the log
        bad_ckpt = tmp_path / "bad.ckpt"
        bad_ckpt.write_bytes(Path(checkpoint).read_bytes())
        specs = tuple(
            PredictorSpec(
                id=name, location=name,
                checkpoint=str(bad_ckpt) if name == "bad" else checkpoint,
                normalization=None if fault == "uncalibrated" and name == "bad"
                else ScoreNormalization(mu=1.0, sigma=0.5),
            )
            for name in ("first", "bad", "last")
        )
        config_path = tmp_path / "fleet.json"
        save_fleet_config(FleetConfig(predictors=specs), config_path)
        streams = tmp_path / "streams"
        streams.mkdir()
        for k, name in enumerate(("first", "bad", "last")):
            axes = 1 if fault == "one-axis-stream" and name == "bad" else 3
            frames_file(streams / (name + ".frames"), seed=30 + k, count=4, axes=axes)
        bad = streams / "bad.frames"
        if fault == "bad-magic":
            bad_ckpt.write_bytes(b"XXXX" + bad_ckpt.read_bytes()[4:])
        elif fault == "truncated-checkpoint":
            bad_ckpt.write_bytes(bad_ckpt.read_bytes()[:-100])
        elif fault == "nan-frame":
            blob = bytearray(bad.read_bytes())
            struct.pack_into("<f", blob, 13 + 2 * (8 + 3 * FRAME_LEN * 4) + 8, np.nan)
            bad.write_bytes(bytes(blob))
        elif fault == "truncated-stream":
            bad.write_bytes(bad.read_bytes()[:-5])
        elif fault == "repeated-timestamp":
            frames = read_frames(bad)
            write_frames(bad, FrameBlock(np.array([1000, 1001, 1000, 1003]), frames[:].data))
        log = tmp_path / "out.log"
        rc = main(["monitor", "--config", str(config_path), "--frames", str(streams),
                   "--out", str(log)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: %s: predictor bad: " % kind)
        assert message in lines[0]
        assert lines[0].count("predictor ") == 1
        assert not log.exists()

    def test_monitor_appends_after_a_torn_line(self, checkpoint, tmp_path, capsys):
        config_path = self.make_fleet(checkpoint, tmp_path)
        streams = tmp_path / "streams"
        streams.mkdir()
        frames_file(streams / "motor-left.frames", seed=9, count=12)
        argv = ["monitor", "--config", str(config_path), "--frames", str(streams)]
        assert main(argv) == 0
        log = tmp_path / "fleet.log"
        whole = log.read_bytes()
        log.write_bytes(whole[:2000])  # a write cut short mid-line
        kept = whole[:2000].rfind(b"\n") + 1
        with pytest.warns(DataWarning, match="byte %d" % kept):
            assert main(argv) == 0
        assert log.read_bytes() == whole[:kept] + whole
        out_csv = tmp_path / "timeline.csv"
        assert main(["export-plot", str(log), "--out", str(out_csv)]) == 0
        assert len(out_csv.read_text().splitlines()) == 1 + whole[:kept].count(b"\n") + 12

    def test_truncated_later_stream_fails_before_any_log_write(
        self, checkpoint, tmp_path, capsys
    ):
        specs = tuple(
            PredictorSpec(
                id=name, location=name, checkpoint=checkpoint,
                normalization=ScoreNormalization(mu=1.0, sigma=0.5),
            )
            for name in ("first", "second")
        )
        config_path = tmp_path / "fleet.json"
        save_fleet_config(FleetConfig(predictors=specs), config_path)
        streams = tmp_path / "streams"
        streams.mkdir()
        frames_file(streams / "first.frames", seed=21, count=4)
        second = streams / "second.frames"
        frames_file(second, seed=22, count=4)
        second.write_bytes(second.read_bytes()[:-5])
        log = tmp_path / "out.log"
        rc = main(
            ["monitor", "--config", str(config_path), "--frames", str(streams),
             "--out", str(log)]
        )
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ParseError:")
        assert "truncated frame record" in lines[0]
        assert not log.exists()

    def test_stray_stream_file(self, checkpoint, tmp_path, capsys):
        config_path = self.make_fleet(checkpoint, tmp_path)
        streams = tmp_path / "streams"
        streams.mkdir()
        frames_file(streams / "mystery.frames", seed=8, count=1)
        rc = main(
            ["monitor", "--config", str(config_path), "--frames", str(streams)]
        )
        assert rc == 1
        assert "error: RoutingError: no predictor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"predictors": [1]}, "predictor entry must be an object"),
            ({"predictors": [{"id": "a", "location": "a", "checkpoint": "m.ckpt"}],
              "report_log": 1}, "report_log"),
            ({"predictors": [{"id": "a", "location": "a", "checkpoint": 3}]},
             "checkpoint path, got 3"),
            ({"predictors": [{"id": "a", "location": "a", "checkpoint": "m.ckpt",
                              "alarm": {"window_len": 30.0}}]},
             "window_len must be an integer"),
            # string thresholds once loaded as floats, and a string mu was
            # refused with a message that named no field
            ({"predictors": [{"id": "a", "location": "a", "checkpoint": "m.ckpt",
                              "alarm": {"level_thresholds": ["3", "5", "8"]}}]},
             "level_thresholds must be a number, got '3'"),
            ({"predictors": [{"id": "a", "location": "a", "checkpoint": "m.ckpt",
                              "normalization": {"mu": "1.0", "sigma": 0.5}}]},
             "mu must be a number, got '1.0'"),
            ({"predictors": [{"id": "a", "location": "a", "checkpoint": "m.ckpt",
                              "alarm": {"window_len": 0}}]},
             "window_len must be an integer >= 1, got 0"),
            ({"predictors": [{"id": "a", "location": "a", "checkpoint": "m.ckpt",
                              "alarm": {"trigger_sensitized": True}}]},
             "trigger_sensitized must be an integer >= 1, got True"),
        ],
    )
    def test_malformed_config_fails_cleanly(self, tmp_path, capsys, config, message):
        config_path = tmp_path / "fleet.json"
        config_path.write_text(json.dumps(config))
        streams = tmp_path / "streams"
        streams.mkdir()
        # --out keeps a config that wrongly loads away from its report_log
        rc = main(
            ["monitor", "--config", str(config_path), "--frames", str(streams),
             "--out", str(tmp_path / "out.log")]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ConfigurationError:")
        assert message in lines[0]

    def test_missing_stream_dir(self, checkpoint, tmp_path, capsys):
        config_path = self.make_fleet(checkpoint, tmp_path)
        rc = main(
            ["monitor", "--config", str(config_path), "--frames",
             str(tmp_path / "nowhere")]
        )
        assert rc == 1
        assert "error: ConfigurationError:" in capsys.readouterr().err


def dominant_from_csv(path):
    header, rows = read_csv_rows(path)
    assert header == "freq_hz,magnitude"
    freqs = [float(r[0]) for r in rows]
    mags = [float(r[1]) for r in rows]
    k = 1 + int(np.argmax(mags[1:]))
    return freqs[k]


class TestSynthAndExportPlot:
    def test_waveform_csv_and_spectrum(self, tmp_path):
        wave_csv = tmp_path / "wave.csv"
        rc = main(["synth", "--out", str(wave_csv), "--seed", "3"])
        assert rc == 0
        spectrum_csv = tmp_path / "spec.csv"
        rc = main(["export-plot", str(wave_csv), "--out", str(spectrum_csv)])
        assert rc == 0
        assert dominant_from_csv(spectrum_csv) == pytest.approx(136.0)

    def test_time_scale_half_doubles_dominant_frequency(self, tmp_path):
        wave_csv = tmp_path / "wave.csv"
        # Compression pushes the 408 Hz harmonic past Nyquist; the CLI
        # surfaces the library's warning rather than hiding it.
        with pytest.warns(AliasingWarning):
            rc = main(
                ["synth", "--out", str(wave_csv), "--seed", "3",
                 "--time-scale", "0.5"]
            )
        assert rc == 0
        spectrum_csv = tmp_path / "spec.csv"
        main(["export-plot", str(wave_csv), "--out", str(spectrum_csv)])
        assert dominant_from_csv(spectrum_csv) == pytest.approx(272.0)

    def test_spectrum_of_a_waveform_of_any_length(self, tmp_path, capsys):
        # a 1,000-sample CSV once failed: the FFT took only powers of two
        t = np.arange(1000) / DEFAULT_SAMPLE_RATE
        wave_csv = tmp_path / "wave.csv"
        write_waveform_csv(Waveform(np.sin(2 * np.pi * 102.4 * t)), wave_csv)
        spectrum_csv = tmp_path / "spec.csv"
        assert main(["export-plot", str(wave_csv), "--out", str(spectrum_csv)]) == 0
        assert capsys.readouterr().out == "spectrum csv: %s (501 rows)\n" % spectrum_csv
        assert len(spectrum_csv.read_text().splitlines()) == 1 + 501
        assert dominant_from_csv(spectrum_csv) == pytest.approx(102.4)

    def test_synth_is_seed_deterministic(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        main(["synth", "--out", str(a), "--seed", "9"])
        main(["synth", "--out", str(b), "--seed", "9"])
        main(["synth", "--out", str(c), "--seed", "10"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_synth_frame_output(self, tmp_path):
        out = tmp_path / "synth.frames"
        rc = main(
            ["synth", "--out", str(out), "--seed", "4", "--axes", "3",
             "--sawtooth-freq", "136", "--sawtooth-peak", "0.04"]
        )
        assert rc == 0
        frames = read_frames(out)
        assert (len(frames), frames.axes) == (1, 3)
        assert frames.timestamps.tolist() == [0]

    def test_sawtooth_flags_must_pair(self, tmp_path, capsys):
        rc = main(
            ["synth", "--out", str(tmp_path / "w.csv"), "--sawtooth-freq", "136"]
        )
        assert rc == 1
        assert "error: ConfigurationError:" in capsys.readouterr().err

    def test_export_plot_on_report_log(self, checkpoint, tmp_path, capsys):
        frames = frames_file(tmp_path / "f.frames", seed=11, count=5)
        log = tmp_path / "r.log"
        main(
            ["score", "--checkpoint", checkpoint, "--frames", frames,
             "--out", str(log)]
        )
        capsys.readouterr()
        out_csv = tmp_path / "timeline.csv"
        rc = main(["export-plot", str(log), "--out", str(out_csv)])
        assert rc == 0
        header, rows = read_csv_rows(out_csv)
        assert header == "ts,predictor,location,total_mse,score,level,alarm"
        assert len(rows) == 5
        assert [r[0] for r in rows] == [str(1000 + i) for i in range(5)]


class TestIngestNasa:
    def test_builds_split_files(self, tmp_path, capsys):
        root = tmp_path / "ims"
        make_mini_ims(root)
        out = tmp_path / "splits"
        with pytest.warns(Warning):
            rc = main(
                ["ingest-nasa", str(root), "--out", str(out), "--seed", "0"]
            )
        assert rc == 0
        assert len(read_frames(out / "train.frames")) == 44
        assert len(read_frames(out / "test_Set1_Ch5.frames")) == 4
        assert len(read_frames(out / "test_Set1_Ch7.frames")) == 4
        assert len(read_frames(out / "test_Set2_Ch1.frames")) == 4
        assert "train: 44 frames" in capsys.readouterr().out

    def test_train_split_calibrates(self, tmp_path, capsys):
        # the channels of one recording share its timestamp, so train.frames
        # repeats timestamps; calibrate takes it, as the README's workflow does
        root = tmp_path / "ims"
        make_mini_ims(root)
        out = tmp_path / "splits"
        with pytest.warns(Warning):
            assert main(["ingest-nasa", str(root), "--out", str(out), "--seed", "0"]) == 0
        stamps = read_frames(out / "train.frames").timestamps
        assert len(np.unique(stamps)) < len(stamps)
        ckpt = tmp_path / "model.ckpt"
        stats = StandardizationStats(np.zeros(1, np.float32), np.ones(1, np.float32))
        save_checkpoint(dcan.build(dcan.DcanConfig(axes=1), seed=21), stats, ckpt)
        capsys.readouterr()
        rc = main(["calibrate", "--checkpoint", str(ckpt), "--frames", str(out / "train.frames")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["sigma"] > 0

    def test_seed_determinism(self, tmp_path):
        root = tmp_path / "ims"
        make_mini_ims(root)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        with pytest.warns(Warning):
            main(["ingest-nasa", str(root), "--out", str(out_a), "--seed", "5"])
        with pytest.warns(Warning):
            main(["ingest-nasa", str(root), "--out", str(out_b), "--seed", "5"])
        assert (out_a / "train.frames").read_bytes() == (
            out_b / "train.frames"
        ).read_bytes()


class TestErrorSurface:
    def one_error_line(self, capsys, argv, kind):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: %s: " % kind)
        return lines[0]

    @pytest.mark.parametrize("command", ["monitor", "score"])
    def test_non_utf8_config(self, checkpoint, tmp_path, capsys, command):
        config = tmp_path / "fleet.json"
        config.write_bytes(b'{"predictors": "\xff\xfe"}\n')
        if command == "monitor":
            (tmp_path / "streams").mkdir()
            argv = ["monitor", "--frames", str(tmp_path / "streams")]
        else:
            frames = frames_file(tmp_path / "s.frames", seed=6, count=3)
            argv = ["score", "--checkpoint", checkpoint, "--frames", frames]
        line = self.one_error_line(
            capsys, argv + ["--config", str(config)], "ConfigurationError"
        )
        assert str(config) in line

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe\x00binary\n", b"index,value\r\n0,\xff\r\n"],
        ids=["report-log", "waveform"],
    )
    def test_export_plot_non_utf8_input(self, tmp_path, capsys, content):
        source = tmp_path / "input.bin"
        source.write_bytes(content)
        out = tmp_path / "out.csv"
        line = self.one_error_line(
            capsys, ["export-plot", str(source), "--out", str(out)], "ParseError"
        )
        assert str(source) in line
        assert not out.exists()

    def test_export_plot_over_long_csv_field(self, tmp_path, capsys):
        source = tmp_path / "wave.csv"
        source.write_text("index,value\n0,1.5\n1," + "7" * 200_000 + "\n")
        out = tmp_path / "out.csv"
        line = self.one_error_line(
            capsys, ["export-plot", str(source), "--out", str(out)], "ParseError"
        )
        assert line.startswith("error: ParseError: %s:3: field larger than field limit" % source)
        assert not out.exists()

    def test_export_plot_refuses_a_non_finite_sample(self, tmp_path, capsys):
        # a nan sample once gave a spectrum of 2,049 nan rows and exit 0
        source = tmp_path / "wave.csv"
        source.write_text("index,value\n0,1.5\n1,nan\n2,0.5\n")
        out = tmp_path / "out.csv"
        line = self.one_error_line(
            capsys, ["export-plot", str(source), "--out", str(out)], "ParseError"
        )
        assert line == "error: ParseError: %s:3: non-finite value 'nan'" % source
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, lineno, message",
        [([REPORT % ("none", 1, 0)], 1, "a fired alarm requires at least the low level"),
         ([REPORT % ("none", 0, -3)], 1, "anomalous_in_window must be >= 0, got -3"),
         ([REPORT % ("low", 1, 20), "", REPORT % ("purple", 0, 0)], 3,
          "unknown alarm level 'purple'")],
        ids=["alarm-below-low", "negative-window-count", "bad-third-line"],
    )
    def test_report_log_line_format_report_could_not_write(
        self, tmp_path, capsys, lines, lineno, message
    ):
        # the first once ended export-plot in a ConfigurationError naming
        # no file, and the second was accepted
        log = tmp_path / "r.log"
        log.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as raised:
            fleet.read_report_log(log)
        assert str(raised.value).startswith("%s:%d: " % (log, lineno))
        assert message in str(raised.value)
        out = tmp_path / "out.csv"
        line = self.one_error_line(
            capsys, ["export-plot", str(log), "--out", str(out)], "ParseError"
        )
        assert line == "error: ParseError: %s" % raised.value
        assert not out.exists()

    @pytest.mark.parametrize(
        "metadata, message",
        [(b"[]", "metadata block is not a JSON object"),
         (b'{"config": ' + b"1" * 5000 + b"}", "unreadable metadata block")],
        ids=["list", "over-long-int"],
    )
    def test_unusable_checkpoint_metadata(self, tmp_path, capsys, metadata, message):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(
            b"DCAN" + struct.pack("<II", 1, len(metadata)) + metadata + struct.pack("<I", 0)
        )
        frames = frames_file(tmp_path / "s.frames", seed=6, count=3)
        line = self.one_error_line(
            capsys, ["score", "--checkpoint", str(ckpt), "--frames", frames],
            "CheckpointFormatError",
        )
        assert message in line

    @pytest.mark.parametrize(
        "tensor, index, value, message",
        [("fc2.weight", 7, np.nan, "non-finite"),
         ("deconv3.bias", 0, np.inf, "non-finite"),
         ("stats.mean", 1, np.nan, "non-finite"),
         ("stats.std", 2, 0.0, "below 1e-08"),
         ("stats.std", 0, np.inf, "non-finite"),
         ("stats.std", 1, np.nan, "non-finite"),
         ("stats.mean", None, None, "has shape (1,), expected (3,)")],
        ids=["nan-weight", "inf-bias", "nan-mean", "zero-std", "inf-std", "nan-std",
             "stats-axes"],
    )
    def test_monitor_refuses_bad_checkpoint_contents(
        self, tmp_path, capsys, tensor, index, value, message
    ):
        # each of these once scored every frame as nan and never alarmed
        model = dcan.build(dcan.DcanConfig(), seed=21)
        mean, std = np.zeros(3, np.float32), np.ones(3, np.float32)
        arrays = {**model.named_parameters(), "stats.mean": mean, "stats.std": std}
        if index is None:  # one-axis stats for a three-axis model
            mean, std = mean[:1], std[:1]
        else:
            arrays[tensor].reshape(-1)[index] = value
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(model, StandardizationStats(mean, std), ckpt)
        spec = PredictorSpec(id="a", location="a", checkpoint=str(ckpt),
                             normalization=ScoreNormalization(mu=1.0, sigma=0.5))
        save_fleet_config(FleetConfig(predictors=(spec,)), tmp_path / "fleet.json")
        (tmp_path / "streams").mkdir()
        frames_file(tmp_path / "streams" / "a.frames", seed=6, count=3)
        log = tmp_path / "out.log"
        argv = ["monitor", "--config", str(tmp_path / "fleet.json"),
                "--frames", str(tmp_path / "streams"), "--out", str(log)]
        line = self.one_error_line(capsys, argv, "CheckpointFormatError")
        assert "tensor '%s'" % tensor in line and message in line
        assert not log.exists()

    @pytest.mark.parametrize(
        "where, value",
        [(("frame_len",), 16 * 10**13 + 64),
         (("conv_specs", 0, 2), [2, 64]),
         (("conv_specs", 1, 2), [3, 13]),
         (("conv_specs", 0, 2), [3, 0]),
         (("conv_specs",), [[1, 8, [3, 64], [1, 16]], [8, 16, [1, 13], [1, 4]]]),
         (("fc_widths",), [200, 200, 200]),
         (("fc_widths", 1), 0),
         (("conv_specs", 0, 0), 2),
         (("conv_specs", 1, 0), 9),
         (("conv_specs", 2, 2), [1, 62]),
         (("conv_specs", 1, 3), [1, 7]),
         (("frame_len",), 0),
         (("conv_specs", 0, 2), [3, 64, 1]),
         (("conv_specs",), None),
         (("conv_specs", 2, 1), 0),
         (("conv_specs", 1, 0), 0),
         (("axes",), 0),
         (("leaky_slope",), "0.01")],
        ids=["vast-frame-len", "conv1-short-kernel", "conv2-tall-kernel", "zero-width-kernel",
             "two-conv-specs", "three-fc-widths", "zero-fc-width", "conv1-two-channels",
             "conv2-channel-chain", "conv3-wide-kernel", "conv2-stride-7", "zero-frame-len",
             "three-element-kernel", "no-conv-specs", "zero-conv3-out-channels",
             "zero-conv2-in-channels", "zero-axes", "string-leaky-slope"],
    )
    def test_calibrate_refuses_checkpoint_architecture(self, tmp_path, capsys, where, value):
        # the tensors of the default 3-axis model under other metadata, its
        # config entry at where set to value (None: deleted); a vast
        # frame_len once made load_checkpoint try to allocate 28.4 PiB, and
        # a zero conv3.out_channels loaded and then ended in a traceback
        ckpt = tmp_path / "bad.ckpt"
        stats = StandardizationStats(np.zeros(3, np.float32), np.ones(3, np.float32))
        save_checkpoint(dcan.build(dcan.DcanConfig(), seed=21), stats, ckpt)

        def edit(entry):
            for key in where[:-1]:
                entry = entry[key]
            if value is None:
                del entry[where[-1]]
            else:
                entry[where[-1]] = value

        rewrite_architecture(ckpt, edit)
        frames = frames_file(tmp_path / "s.frames", seed=6, count=3)
        out = tmp_path / "norm.json"
        line = self.one_error_line(
            capsys, ["calibrate", "--checkpoint", str(ckpt), "--frames", frames,
                     "--out", str(out)], "CheckpointFormatError",
        )
        assert line == "error: CheckpointFormatError: " + ARCHITECTURE_REFUSED
        assert not out.exists()

    def test_calibrate_refuses_an_overflowing_tensor_shape(self, tmp_path, capsys):
        # conv1.weight's stored shape rewritten to (65535,) * 4, whose
        # element count overflows int64; it once ended calibrate in a
        # ValueError traceback from a negative read length
        ckpt = tmp_path / "bad.ckpt"
        stats = StandardizationStats(np.zeros(3, np.float32), np.ones(3, np.float32))
        save_checkpoint(dcan.build(dcan.DcanConfig(), seed=21), stats, ckpt)
        data = bytearray(ckpt.read_bytes())
        offset = 12 + struct.unpack_from("<I", data, 8)[0] + 4  # the first tensor
        name_len = struct.unpack_from("<H", data, offset)[0]
        assert data[offset + 2:offset + 2 + name_len] == b"conv1.weight"
        assert data[offset + 2 + name_len] == 4  # its rank
        struct.pack_into("<4I", data, offset + 3 + name_len, *(65535,) * 4)
        ckpt.write_bytes(bytes(data))
        frames = frames_file(tmp_path / "s.frames", seed=6, count=3)
        out = tmp_path / "norm.json"
        line = self.one_error_line(
            capsys, ["calibrate", "--checkpoint", str(ckpt), "--frames", frames,
                     "--out", str(out)], "CheckpointFormatError",
        )
        assert line.endswith(
            "tensor 'conv1.weight' has shape (65535, 65535, 65535, 65535), expected (8, 1, 3, 64)"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "part, field",
        [("normalization", "mu"), ("normalization", "sigma"), ("alarm", "level_thresholds")],
    )
    def test_monitor_config_with_an_over_large_integer(
        self, checkpoint, tmp_path, capsys, part, field
    ):
        entry = {"id": "a", "location": "a", "checkpoint": checkpoint,
                 "normalization": {"mu": 1.0, "sigma": 0.5}, "alarm": {}}
        huge = 10**400
        entry[part][field] = [3.0, 5.0, huge] if field == "level_thresholds" else huge
        config = tmp_path / "fleet.json"
        config.write_text(json.dumps({"predictors": [entry]}))
        (tmp_path / "streams").mkdir()
        argv = ["monitor", "--config", str(config), "--frames", str(tmp_path / "streams"),
                "--out", str(tmp_path / "out.log")]
        line = self.one_error_line(capsys, argv, "ConfigurationError")
        assert "too large" in line

    @pytest.mark.parametrize("where", ["--out", "config"])
    def test_monitor_refuses_an_empty_report_log_path(self, checkpoint, tmp_path, capsys, where):
        # both once printed "report log:  (3 reports appended)" or named
        # the config's log, exited 0 and wrote no log at all
        spec = PredictorSpec(id="a", location="a", checkpoint=checkpoint,
                             normalization=ScoreNormalization(mu=1.0, sigma=0.5))
        config = tmp_path / "fleet.json"
        log = "" if where == "config" else str(tmp_path / "fleet.log")
        save_fleet_config(FleetConfig(predictors=(spec,), report_log=log), config)
        streams = tmp_path / "streams"
        streams.mkdir()
        frames_file(streams / "a.frames", seed=6, count=3)
        before = sorted(tmp_path.rglob("*"))
        argv = ["monitor", "--config", str(config), "--frames", str(streams)]
        if where == "--out":
            argv += ["--out", ""]
        line = self.one_error_line(capsys, argv, "ConfigurationError")
        assert "empty report log path" in line
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["score", "calibrate", "ingest-nasa"])
    def test_empty_out_path_is_refused(self, checkpoint, tmp_path, capsys, monkeypatch, command):
        # score and calibrate once wrote nothing and exited 0; ingest-nasa
        # wrote its splits into the current directory
        if command == "ingest-nasa":
            make_mini_ims(tmp_path / "ims")
            argv = ["ingest-nasa", str(tmp_path / "ims")]
        else:
            frames = frames_file(tmp_path / "f.frames", seed=6, count=3)
            argv = [command, "--checkpoint", checkpoint, "--frames", frames]
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        line = self.one_error_line(capsys, argv + ["--out", ""], "ConfigurationError")
        assert line == "error: ConfigurationError: empty --out path"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("out", ["", "missing/model.ckpt"], ids=["empty", "missing-dir"])
    def test_train_refuses_an_unwritable_out_before_training(
        self, tmp_path, capsys, monkeypatch, out
    ):
        # both once trained to the end, then failed to rename the checkpoint
        frames = frames_file(tmp_path / "f.frames", seed=6, count=3)

        def no_training(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "train", no_training)
        monkeypatch.setattr(cli, "read_frames", no_training)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        line = self.one_error_line(
            capsys, ["train", "--frames", frames, "--out", out], "ConfigurationError"
        )
        assert line == "error: ConfigurationError: " + (
            "empty --out path" if out == "" else "--out directory missing not found"
        )
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "command, kind",
        [(command, kind)
         for command in ["train", "score", "calibrate", "monitor", "synth", "export-plot"]
         for kind in ["missing-dir", "directory", "input"]
         if (command, kind) != ("synth", "input")],  # synth reads no file
    )
    def test_unwritable_out_is_refused_before_any_work(
        self, checkpoint, tmp_path, capsys, monkeypatch, command, kind
    ):
        # score, calibrate and monitor once scored every frame (and score and
        # calibrate printed their output), and train trained to the end,
        # before failing to write; train only checked a missing directory.
        # An output onto an input once replaced or corrupted that input:
        # the frames by a checkpoint or report lines, the checkpoint by
        # calibrate's JSON, the fleet config by report lines
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        frames = frames_file(tmp_path / "f.frames", seed=6, count=3)
        Path("m.ckpt").write_bytes(Path(checkpoint).read_bytes())

        def no_work(*args, **kwargs):
            raise AssertionError("the work started")

        what, source, out = "--out", frames, "f.frames"  # out: the input kind's
        if command == "monitor":
            spec = PredictorSpec(id="a", location="a", checkpoint="m.ckpt",
                                 normalization=ScoreNormalization(mu=1.0, sigma=0.5))
            save_fleet_config(FleetConfig(predictors=(spec,), report_log="r.log"), "fleet.json")
            (tmp_path / "streams").mkdir()
            frames_file(tmp_path / "streams" / "a.frames", seed=6, count=3)
            argv = ["monitor", "--config", "fleet.json", "--frames", "streams"]
            monkeypatch.setattr(fleet, "read_frames", no_work)
            monkeypatch.setattr(fleet, "evaluate_stream", no_work)
            what, source, out = "report log", "fleet.json", "fleet.json"
        elif command == "synth":
            argv = ["synth"]
            monkeypatch.setattr(cli, "synth_normal", no_work)
        elif command == "export-plot":
            (tmp_path / "w.csv").write_text("index,value\n0,1.0\n1,0.5\n")
            argv = ["export-plot", "w.csv"]
            monkeypatch.setattr(cli, "read_waveform_csv", no_work)
            monkeypatch.setattr(cli, "read_report_log", no_work)
            source = out = "w.csv"
        else:
            argv = [command, "--frames", frames]
            if command != "train":
                argv += ["--checkpoint", "m.ckpt"]
            if command == "calibrate":
                source = out = "m.ckpt"
            monkeypatch.setattr(cli, "read_frames", no_work)
        out = {"missing-dir": "missing/out", "directory": "adir"}.get(kind, out)
        before = {p: p.is_file() and p.read_bytes() for p in sorted(tmp_path.rglob("*"))}
        line = self.one_error_line(capsys, argv + ["--out", out], "ConfigurationError")
        assert line == "error: ConfigurationError: " + {
            "missing-dir": "%s directory missing not found" % what,
            "directory": "%s adir is a directory" % what,
            "input": "%s %s is also the input %s" % (what, out, source),
        }[kind]
        assert {p: p.is_file() and p.read_bytes() for p in sorted(tmp_path.rglob("*"))} == before

    def test_train_refuses_a_loss_curve_path_that_is_a_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        frames = frames_file(tmp_path / "f.frames", seed=6, count=3)

        def no_training(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "read_frames", no_training)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.ckpt.loss.csv").mkdir()
        before = sorted(tmp_path.rglob("*"))
        line = self.one_error_line(
            capsys, ["train", "--frames", frames, "--out", "m.ckpt"], "ConfigurationError"
        )
        assert line == "error: ConfigurationError: loss curve m.ckpt.loss.csv is a directory"
        assert sorted(tmp_path.rglob("*")) == before

    def test_train_refuses_a_loss_curve_path_that_is_its_input(
        self, tmp_path, capsys, monkeypatch
    ):
        # the frames, named as --out's loss curve, were once replaced by it
        frames = frames_file(tmp_path / "m.ckpt.loss.csv", seed=6, count=3)

        def no_training(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "read_frames", no_training)
        monkeypatch.chdir(tmp_path)
        before = Path(frames).read_bytes()
        line = self.one_error_line(
            capsys, ["train", "--frames", frames, "--out", "m.ckpt"], "ConfigurationError"
        )
        assert line == (
            "error: ConfigurationError: loss curve m.ckpt.loss.csv is also the input %s" % frames
        )
        assert sorted(tmp_path.rglob("*")) == [Path(frames)]
        assert Path(frames).read_bytes() == before

    @pytest.mark.parametrize("command", ["synth", "synth-axes", "train", "ingest-nasa"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        # each once ended in a ValueError traceback from numpy's seeding
        if command == "train":
            argv = ["train", "--frames", frames_file(tmp_path / "f.frames", seed=6, count=3)]
        elif command == "ingest-nasa":
            make_mini_ims(tmp_path / "ims")
            argv = ["ingest-nasa", str(tmp_path / "ims")]
        else:
            argv = ["synth"] + (["--axes", "3"] if command == "synth-axes" else [])
        out = tmp_path / "out"
        argv += ["--out", str(out), "--seed", "-1"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be >= 0, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--time-scale", "nan"], "time-scale factor must be finite and positive, got nan"),
         (["--time-scale", "inf"], "time-scale factor must be finite and positive, got inf"),
         (["--sawtooth-freq", "136", "--sawtooth-peak", "nan"],
          "sawtooth peak must be finite and >= 0, got nan")],
        ids=["nan-time-scale", "inf-time-scale", "nan-sawtooth-peak"],
    )
    def test_synth_refuses_a_non_finite_number(self, tmp_path, capsys, flags, message):
        # nan and inf time scales once ended in tracebacks, and a nan peak
        # wrote a CSV of nan samples
        out = tmp_path / "w.csv"
        line = self.one_error_line(
            capsys, ["synth", "--out", str(out)] + flags, "SignalSpecError"
        )
        assert line == "error: SignalSpecError: " + message
        assert not out.exists()

    def test_train_on_header_only_frame_file(self, tmp_path, capsys):
        frames = tmp_path / "empty.frames"
        frames.write_bytes(b"FRME" + struct.pack("<IBI", 1, 3, FRAME_LEN))
        out = tmp_path / "model.ckpt"
        line = self.one_error_line(
            capsys, ["train", "--frames", str(frames), "--out", str(out)], "DimensionError"
        )
        assert line == "error: DimensionError: %s: the frame file has no frames" % frames
        assert not out.exists()

    @pytest.mark.parametrize(
        "part, field",
        [("alarm", "trigger_sensitized"), ("alarm", "window_len"),
         ("alarm", "level_thresholds"), ("normalization", "mu"),
         ("normalization", "sigma")],
    )
    def test_monitor_config_with_a_bool_field(self, checkpoint, tmp_path, capsys, part, field):
        entry = {"id": "a", "location": "a", "checkpoint": checkpoint,
                 "normalization": {"mu": 1.0, "sigma": 0.5}, "alarm": {}}
        entry[part][field] = [True, 5.0, 8.0] if field == "level_thresholds" else True
        config = tmp_path / "fleet.json"
        config.write_text(json.dumps({"predictors": [entry]}))
        (tmp_path / "streams").mkdir()
        argv = ["monitor", "--config", str(config), "--frames", str(tmp_path / "streams"),
                "--out", str(tmp_path / "out.log")]
        line = self.one_error_line(capsys, argv, "ConfigurationError")
        assert "%s must be" % field in line

    def test_missing_input_file(self, checkpoint, tmp_path, capsys):
        rc = main(
            ["score", "--checkpoint", checkpoint, "--frames",
             str(tmp_path / "absent.frames")]
        )
        assert rc == 1
        assert "error: FileNotFoundError:" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--bogus"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["florp"])
        assert excinfo.value.code == 2
