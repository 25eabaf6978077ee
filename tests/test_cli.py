"""CLI wiring tests driven through main(argv).

Subcommands run against tiny real inputs: an untrained full-size
checkpoint, small FRME files of noise frames, and a miniature IMS tree.
"""

import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vibanom import cli, dcan, fleet
from vibanom.cli import main
from vibanom.errors import AliasingWarning, DataWarning
from vibanom.fleet import (
    FleetConfig,
    PredictorSpec,
    parse_report,
    save_fleet_config,
)
from vibanom.ingest import FRAME_LEN, Frame, FrameBlock, read_frames, write_frames
from vibanom.scoring import AlarmLevel, ScoreNormalization
from vibanom.signals import DEFAULT_SAMPLE_RATE
from vibanom.training import StandardizationStats, load_checkpoint, save_checkpoint

from helpers import make_mini_ims


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

    @pytest.mark.parametrize(
        "field, value",
        [("frame_len", "4096"), ("axes", 3.0), ("fc_widths", (200, "200", 200, 200))],
    )
    def test_mistyped_checkpoint_metadata_fails_cleanly(self, tmp_path, capsys, field, value):
        model = dcan.build(dcan.DcanConfig(), seed=21)
        model.config = replace(model.config, **{field: value})
        stats = StandardizationStats(np.zeros(3, np.float32), np.ones(3, np.float32))
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(model, stats, bad)
        frames = frames_file(tmp_path / "s.frames", seed=6, count=3)
        rc = main(["score", "--checkpoint", str(bad), "--frames", frames])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ConfigurationError: ")
        assert field in lines[0] and "must be an int" in lines[0]

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
            monkeypatch.setattr(fleet, "_worker_count", lambda count=count: count)
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
                monkeypatch.setattr(fleet, "_worker_count", lambda count=count: count)
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
            "error: IngestError: %s: frame 37 (timestamp %d) contains non-finite values"
            % (second, stamps[37])
        ]
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
        assert len(frames) == 1
        assert frames[0].axes == 3

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
