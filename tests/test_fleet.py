"""Fleet orchestration tests.

The checkpoint fixture saves an untrained full-size model with identity
standardization: unit-scale noise frames then reconstruct to roughly
nothing (MSE near 1), while 10x-amplitude frames land near 100, giving
a clean, deterministic normal/anomaly split without training.

Alarm sequences are checked against the brute-force hysteresis replay
from helpers.
"""

import os
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vibanom import blas, dcan, parallel
from vibanom.errors import (
    CalibrationError,
    ConfigurationError,
    DataWarning,
    DimensionError,
    IngestError,
    ParseError,
    RoutingError,
)
from vibanom.fleet import (
    DEFAULT_LOCATIONS,
    FleetConfig,
    PredictorSpec,
    StatusReport,
    calibrate_predictor,
    evaluate_self_calibrated,
    evaluate_stream,
    fleet_config_from_dict,
    format_report,
    load_fleet_config,
    parse_report,
    read_report_log,
    run_fleet,
    save_fleet_config,
    write_report_log,
)
from vibanom.ingest import FRAME_LEN, Frame, FrameBlock, read_frames, stack_frames, write_frames
from vibanom.scoring import AlarmConfig, AlarmLevel, ScoreNormalization
from vibanom.training import (
    StandardizationStats,
    load_checkpoint,
    save_checkpoint,
    standardize,
)

from helpers import reference_alarm_replay


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet") / "model.ckpt"
    model = dcan.build(dcan.DcanConfig(), seed=11)
    stats = StandardizationStats(
        per_axis_mean=np.zeros(3, dtype=np.float32),
        per_axis_std=np.ones(3, dtype=np.float32),
    )
    save_checkpoint(model, stats, path)
    return str(path)


def make_frames(seed, count, scale=1.0, start_ts=1000, axes=3, source="s"):
    rng = np.random.default_rng(seed)
    return [
        Frame(
            data=rng.normal(0.0, scale, (axes, FRAME_LEN)).astype(np.float32),
            timestamp=start_ts + i,
            source=source,
        )
        for i in range(count)
    ]


def total_mses(checkpoint_path, frames):
    """Recompute standardized-space MSEs through the public API."""
    model, stats = load_checkpoint(checkpoint_path)
    batch = standardize(stack_frames(frames), stats)
    _, total = dcan.reconstruction_report(batch, dcan.reconstruct(model, batch))
    return total.tolist()


class TestPredictorSpec:
    def test_valid(self):
        spec = PredictorSpec(id="motor-left", location="motor/left", checkpoint="m.ckpt")
        assert spec.normalization is None
        assert spec.alarm == AlarmConfig()

    @pytest.mark.parametrize("bad", ["has space", "has:colon", ""])
    def test_bad_tokens_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            PredictorSpec(id=bad, location="loc", checkpoint="m.ckpt")
        with pytest.raises(ConfigurationError):
            PredictorSpec(id="ok", location=bad, checkpoint="m.ckpt")

    def test_checkpoint_required(self):
        with pytest.raises(ConfigurationError, match="checkpoint"):
            PredictorSpec(id="ok", location="loc", checkpoint="")


class TestFleetConfig:
    def test_needs_a_predictor(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(predictors=())

    def test_duplicate_ids_rejected(self):
        spec = PredictorSpec(id="a", location="l", checkpoint="c")
        with pytest.raises(ConfigurationError, match="duplicate.*a"):
            FleetConfig(predictors=(spec, spec))


class TestReportSerialization:
    def sample(self):
        return StatusReport(
            timestamp=1076581959,
            predictor_id="motor-left",
            location="motor/left",
            per_axis_mse=(0.1, 0.25000000000000017, 3e-07),
            total_mse=0.11666666700000001,
            score=-1.2247448713915892,
            level=AlarmLevel.NONE,
            alarm_fired=False,
            anomalous_in_window=3,
        )

    def test_field_order_is_fixed(self):
        line = format_report(self.sample())
        keys = [token.split(":")[0] for token in line.split(" ")]
        assert keys == [
            "ts",
            "predictor",
            "location",
            "axis_mse",
            "total_mse",
            "score",
            "level",
            "alarm",
            "window_anomalous",
        ]

    def test_lossless_round_trip(self):
        report = self.sample()
        back = parse_report(format_report(report))
        assert back == report  # exact, including float bits via repr

    def test_alarm_line(self):
        report = StatusReport(
            timestamp=5,
            predictor_id="p",
            location="l",
            per_axis_mse=(9.0,),
            total_mse=9.0,
            score=12.5,
            level=AlarmLevel.HIGH,
            alarm_fired=True,
            anomalous_in_window=17,
        )
        line = format_report(report)
        assert "level:high" in line
        assert "alarm:1" in line
        assert parse_report(line) == report

    def test_non_finite_mse_is_kept(self):
        # a frame whose reconstruction overflows logs nan or inf; only a
        # negative MSE is refused
        line = format_report(replace(self.sample(), per_axis_mse=(np.nan, np.inf, 0.5),
                                     total_mse=np.inf))
        assert " axis_mse:nan,inf,0.5 total_mse:inf " in line
        assert format_report(parse_report(line)) == line

    def test_fired_alarm_requires_low_level(self):
        with pytest.raises(ConfigurationError):
            StatusReport(
                timestamp=0,
                predictor_id="p",
                location="l",
                per_axis_mse=(0.0,),
                total_mse=0.0,
                score=0.0,
                level=AlarmLevel.NONE,
                alarm_fired=True,
                anomalous_in_window=0,
            )

    @pytest.mark.parametrize(
        "line",
        [
            "ts:1 predictor:p location:l",  # too few fields
            "ts:1 location:l predictor:p axis_mse:1.0 total_mse:1.0 "
            "score:0.0 level:none alarm:0 window_anomalous:0",  # wrong order
            "ts:1 predictor:p location:l axis_mse:1.0 total_mse:1.0 "
            "score:0.0 level:purple alarm:0 window_anomalous:0",
            "ts:1 predictor:p location:l axis_mse:1.0 total_mse:1.0 "
            "score:0.0 level:none alarm:2 window_anomalous:0",
            "ts:x predictor:p location:l axis_mse:1.0 total_mse:1.0 "
            "score:0.0 level:none alarm:0 window_anomalous:0",
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ParseError):
            parse_report(line)

    def test_log_append_and_read(self, tmp_path):
        path = tmp_path / "reports.log"
        report = self.sample()
        write_report_log([report], path)
        write_report_log([report], path)
        loaded = read_report_log(path)
        assert loaded == [report, report]


class TestFleetConfigFile:
    def test_json_round_trip(self, tmp_path):
        predictors = tuple(
            PredictorSpec(id=name, location=name, checkpoint="ck/%s.ckpt" % name)
            for name in DEFAULT_LOCATIONS
        )
        # give one predictor a calibration to cover the non-null branch
        calibrated = PredictorSpec(
            id="extra",
            location="extra",
            checkpoint="ck/extra.ckpt",
            normalization=ScoreNormalization(mu=0.25, sigma=0.03125),
            alarm=AlarmConfig(level_thresholds=(2.0, 4.0, 6.0)),
        )
        fleet = FleetConfig(predictors=predictors + (calibrated,), report_log="r.log")
        path = tmp_path / "fleet.json"
        save_fleet_config(fleet, path)
        assert load_fleet_config(path) == fleet

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_fleet_config(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text('{"predictors": [{"id": "a"}]}')
        with pytest.raises(ConfigurationError, match="malformed"):
            load_fleet_config(path)

    @pytest.mark.parametrize(
        "blob", [b'{"predictors": "\xff\xfe"}', b'{"report_log": ' + b"1" * 5000 + b"}"],
        ids=["not-utf8", "over-long-int"],
    )
    def test_unreadable_json_rejected(self, tmp_path, blob):
        path = tmp_path / "fleet.json"
        path.write_bytes(blob)
        with pytest.raises(ConfigurationError, match="fleet config .*fleet.json is not valid JSON"):
            load_fleet_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_fleet_config(path)

    def test_alarm_defaults_when_omitted(self):
        fleet = fleet_config_from_dict(
            {
                "predictors": [
                    {"id": "a", "location": "l", "checkpoint": "c.ckpt"}
                ]
            }
        )
        assert fleet.predictors[0].alarm == AlarmConfig()
        assert fleet.predictors[0].normalization is None

    def test_null_alarm_and_normalization(self):
        fleet = fleet_config_from_dict(
            {
                "predictors": [
                    {"id": "a", "location": "l", "checkpoint": "c.ckpt",
                     "normalization": None, "alarm": None}
                ]
            }
        )
        assert fleet.predictors[0].alarm == AlarmConfig()
        assert fleet.predictors[0].normalization is None

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"predictors": [{"id": "a", "location": "l", "checkpoint": "c",
                              "chekpoint": "x"}]}, "chekpoint"),
            ({"predictors": [{"id": "a", "location": "l", "checkpoint": "c"}],
              "reportlog": "r.log"}, "reportlog"),
            ({"predictors": [{"id": "a", "location": "l", "checkpoint": "c",
                              "normalization": {"mu": 1.0, "sigma": 0.5,
                                                "n": 3}}]}, "'n'"),
            ({"predictors": [{"id": "a", "location": "l", "checkpoint": "c",
                              "alarm": {"window": 30}}]}, "window"),
        ],
    )
    def test_unknown_keys_rejected(self, data, message):
        with pytest.raises(ConfigurationError, match="malformed.*" + message):
            fleet_config_from_dict(data)


class TestCalibratePredictor:
    def test_mu_inside_observed_range(self, checkpoint):
        frames = make_frames(seed=1, count=8)
        norm = calibrate_predictor(checkpoint, frames)
        mses = total_mses(checkpoint, frames)
        assert min(mses) < norm.mu < max(mses)
        assert norm.sigma > 0

    def test_identical_frames_degenerate(self, checkpoint):
        frame = make_frames(seed=2, count=1)[0]
        frames = [
            Frame(data=frame.data, timestamp=i, source="s") for i in range(3)
        ]
        with pytest.raises(CalibrationError, match="all equal"):
            calibrate_predictor(checkpoint, frames)

    def test_axes_mismatch(self, checkpoint):
        frames = make_frames(seed=3, count=4, axes=1)
        with pytest.raises(ConfigurationError, match="axes"):
            calibrate_predictor(checkpoint, frames)


class TestBatchInvariance:
    """A frame scores alike wherever it sits in the stream.

    calibrate() treats MSEs that agree to float32 resolution as equal;
    this pins that reconstruction rounding stays within that bound at
    every batch position, including across the 16-frame task boundary,
    and that distinct frames score as if alone at any batch size.
    """

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 65])
    def test_identical_frames_agree_to_float32_eps(self, checkpoint, count):
        model, stats = load_checkpoint(checkpoint)
        spec = PredictorSpec(
            id="p",
            location="p",
            checkpoint=checkpoint,
            normalization=ScoreNormalization(mu=1.0, sigma=0.1),
        )
        frame = make_frames(seed=2, count=1)[0]
        alone = evaluate_stream(spec, model, stats, [frame])[0].total_mse
        frames = [
            Frame(data=frame.data, timestamp=i, source="s")
            for i in range(count)
        ]
        mses = [r.total_mse for r in evaluate_stream(spec, model, stats, frames)]
        assert len(mses) == count
        eps = float(np.finfo(np.float32).eps)
        for mse in mses:
            assert abs(mse - alone) <= eps * abs(alone)

    @pytest.mark.parametrize("batch_size", [2, 5, 64, 65])
    def test_distinct_frames_score_as_if_alone(self, checkpoint, batch_size):
        model, stats = load_checkpoint(checkpoint)
        frames = standardize(stack_frames(make_frames(seed=9, count=70)), stats)

        def scores(batch):
            return dcan.reconstruction_report(batch, dcan.reconstruct(model, batch))[1].tolist()

        alone = np.array([scores(frames[i : i + 1])[0] for i in range(len(frames))])
        for shift in sorted({0, 1, batch_size // 2, batch_size - 1}):
            # Rolling the stream moves every frame to another batch position.
            order = np.roll(np.arange(len(frames)), -shift)
            batched = []
            for start in range(0, len(order), batch_size):
                batched.extend(scores(frames[order[start : start + batch_size]]))
            assert np.all(np.abs(np.array(batched) - alone[order]) <= 1e-6 * alone[order])


class TestChunkWalk:
    """evaluate_stream holds one 64-frame chunk at a time, never the stream."""

    def spec(self, checkpoint):
        return PredictorSpec(
            id="p",
            location="p",
            checkpoint=checkpoint,
            normalization=ScoreNormalization(mu=1.0, sigma=0.5),
        )

    def peak(self, checkpoint, frames):
        model, stats = load_checkpoint(checkpoint)
        tracemalloc.start()
        try:
            evaluate_stream(self.spec(checkpoint), model, stats, frames)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_bounded_by_chunk_not_stream(self, checkpoint):
        block = FrameBlock.of(make_frames(seed=15, count=256))
        assert self.peak(checkpoint, block) <= 1.2 * self.peak(checkpoint, block[:64])

    def test_list_peak_memory_is_one_stacked_copy(self, checkpoint):
        # a list is stacked once where it comes in; beyond that copy the
        # walk holds what a block's does
        frames = make_frames(seed=15, count=256)
        block = FrameBlock.of(frames)
        walk = self.peak(checkpoint, block)
        assert self.peak(checkpoint, frames) <= block.data.nbytes + 1.2 * walk

    def test_empty_stream_names_predictor(self, checkpoint):
        model, stats = load_checkpoint(checkpoint)
        with pytest.raises(DimensionError, match="predictor p: .*no frames"):
            evaluate_stream(self.spec(checkpoint), model, stats, [])

    def test_nan_frame_in_a_list_names_predictor(self, checkpoint):
        frames = make_frames(seed=24, count=3, start_ts=1)
        frames[1].data[2, 100] = np.nan
        model, stats = load_checkpoint(checkpoint)
        with pytest.raises(IngestError) as caught:
            evaluate_stream(self.spec(checkpoint), model, stats, frames)
        assert str(caught.value) == (
            "predictor p: frame 1 (timestamp 2) contains non-finite values"
        )

    @pytest.mark.parametrize("head, tail", [(70, 3), (64, 64)])
    def test_mixed_axes_name_the_stream_index(self, checkpoint, head, tail):
        # the odd frames sit past the first chunk; the message must give
        # their index in the whole stream and, for a predictor, its id
        frames = make_frames(seed=16, count=head) + make_frames(
            seed=17, count=tail, axes=1, start_ts=1000 + head
        )
        message = r"frame %d \(timestamp %d\) has 1 axes, expected 3" % (
            head, 1000 + head,
        )
        model, stats = load_checkpoint(checkpoint)
        with pytest.raises(DimensionError, match="^predictor p: " + message):
            evaluate_stream(self.spec(checkpoint), model, stats, frames)
        with pytest.raises(DimensionError, match="^" + message):
            calibrate_predictor(checkpoint, frames)


needs_openblas = pytest.mark.skipif(
    blas.thread_count() is None, reason="no OpenBLAS found to pin"
)


def bounded(fn, *args, timeout=60):
    """fn(*args) on a helper thread joined with a timeout, so a walk that
    hangs fails the test instead of stalling the suite."""
    box = {}

    def run():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "scoring still running after %d s" % timeout
    if "error" in box:
        raise box["error"]
    return box["value"]


class Boom(Exception):
    pass


class TestScoringTasks:
    """The scoring walk: _TASK-frame tasks on one thread per usable CPU,
    with OpenBLAS pinned to one thread while they run."""

    def spec(self, checkpoint):
        return PredictorSpec(
            id="p", location="p", checkpoint=checkpoint,
            normalization=ScoreNormalization(mu=1.0, sigma=0.5),
        )

    def lines(self, checkpoint, frames):
        model, stats = load_checkpoint(checkpoint)
        return [format_report(r) for r in evaluate_stream(self.spec(checkpoint), model, stats, frames)]

    @pytest.mark.parametrize(
        "cpus, found, want", [(1, True, 1), (3, True, 3), (8, True, 4), (8, False, 1)]
    )
    def test_worker_count_rule(self, monkeypatch, cpus, found, want):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(blas, "thread_count", lambda: 2 if found else None)
        assert parallel._worker_count() == want

    def test_worker_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(blas, "thread_count", lambda: 2)
        assert parallel._worker_count() == 3

    def test_fixed_tasks_in_order_under_fast_thread_switching(self, checkpoint, monkeypatch):
        # 203 frames in shuffled timestamp order: twelve 16-frame tasks and
        # one of 11, each standardized and reconstructed once, on more
        # workers than cores, switching threads as often as the interpreter
        # allows; the reports are those of one worker
        frames = make_frames(seed=18, count=203)
        order = np.random.default_rng(19).permutation(203)
        frames = [frames[k] for k in order]
        monkeypatch.setattr(parallel, "_worker_count", lambda: 1)
        alone = self.lines(checkpoint, frames)
        sizes = []
        real = dcan.reconstruct

        def counting(model, batch):
            sizes.append(batch.shape[0])
            return real(model, batch)

        monkeypatch.setattr(parallel, "_worker_count", lambda: 4)
        monkeypatch.setattr(dcan, "reconstruct", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            lines = bounded(self.lines, checkpoint, frames)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(sizes) == [11] + [16] * 12
        assert lines == alone
        assert [parse_report(line).timestamp for line in lines] == list(range(1000, 1203))

    @needs_openblas
    def test_independent_of_blas_threads_before_the_call(self, checkpoint):
        frames = make_frames(seed=20, count=40)
        before = blas.thread_count()
        try:
            blas.set_thread_count(1)
            one = self.lines(checkpoint, frames)
            assert blas.thread_count() == 1
            blas.set_thread_count(2)
            two = self.lines(checkpoint, frames)
            assert blas.thread_count() == 2
        finally:
            blas.set_thread_count(before)
        assert one == two

    def test_failing_task_stops_the_walk_cleanly(self, checkpoint, monkeypatch):
        lock = threading.Lock()
        state = {"calls": 0, "running": 0, "most": 0, "blas": set()}
        real = dcan.reconstruct

        def failing(model, batch):
            with lock:
                state["calls"] += 1
                call = state["calls"]
                state["running"] += 1
                state["most"] = max(state["most"], state["running"])
                state["blas"].add(blas.thread_count())
            try:
                if call == 3:
                    raise Boom("task 3")
                time.sleep(0.05)  # still running when task 3 fails
                return real(model, batch)
            finally:
                with lock:
                    state["running"] -= 1

        monkeypatch.setattr(parallel, "_worker_count", lambda: 4)
        monkeypatch.setattr(dcan, "reconstruct", failing)
        threads, blas_threads = threading.active_count(), blas.thread_count()
        with pytest.raises(Boom, match="task 3"):
            bounded(self.lines, checkpoint, make_frames(seed=21, count=16 * 12))
        assert state["running"] == 0
        assert 1 < state["most"] <= 4
        assert state["calls"] < 12  # tasks not yet started were dropped
        assert threading.active_count() == threads
        assert blas.thread_count() == blas_threads
        if blas_threads is not None:
            assert state["blas"] == {1}

    def test_first_error_in_task_order_wins(self, checkpoint, monkeypatch):
        # identity standardization keeps each frame's first sample, which
        # here numbers the frame, so a batch names its task; task 3 fails
        # at once while task 2 is still running, then task 2 fails too
        frames = make_frames(seed=22, count=16 * 8)
        for k, frame in enumerate(frames):
            frame.data[0, 0] = k
        real = dcan.reconstruct

        def failing(model, batch):
            task = int(batch[0, 0, 0, 0]) // 16
            if task == 2:
                time.sleep(0.1)
                raise Boom("task 2")
            if task == 3:
                raise Boom("task 3")
            return real(model, batch)

        monkeypatch.setattr(parallel, "_worker_count", lambda: 2)
        monkeypatch.setattr(dcan, "reconstruct", failing)
        with pytest.raises(Boom, match="task 2"):
            bounded(self.lines, checkpoint, frames)


def one_predictor_fleet(checkpoint, norm, log_path, alarm=None):
    spec = PredictorSpec(
        id="motor-left",
        location="motor-left",
        checkpoint=checkpoint,
        normalization=norm,
        alarm=alarm or AlarmConfig(),
    )
    return FleetConfig(predictors=(spec,), report_log=str(log_path))


class TestRunFleet:
    def test_unknown_stream_id(self, checkpoint, tmp_path):
        norm = ScoreNormalization(mu=1.0, sigma=0.1)
        fleet = one_predictor_fleet(checkpoint, norm, tmp_path / "r.log")
        with pytest.raises(RoutingError, match="mystery"):
            run_fleet(fleet, {"mystery": make_frames(seed=4, count=1)})

    def test_empty_streams_leave_log_unchanged(self, checkpoint, tmp_path):
        log = tmp_path / "r.log"
        log.write_text("existing line\n")
        norm = ScoreNormalization(mu=1.0, sigma=0.1)
        fleet = one_predictor_fleet(checkpoint, norm, log)
        reports = run_fleet(fleet, {})
        assert reports == []
        assert log.read_text() == "existing line\n"

    def test_missing_calibration(self, checkpoint, tmp_path):
        fleet = one_predictor_fleet(checkpoint, None, tmp_path / "r.log")
        with pytest.raises(ConfigurationError, match="no calibration"):
            run_fleet(fleet, {"motor-left": make_frames(seed=5, count=2)})

    def test_a_saturated_frame_is_scored_high(self, checkpoint):
        # samples of +-3e38 g are finite, but the reconstruction overflows:
        # a NaN score is no sign of health, and the frame counts toward the
        # window (compared as log lines, since NaN != NaN)
        model, stats = load_checkpoint(checkpoint)
        frames = make_frames(seed=8, count=3)
        saturated = np.where(np.arange(FRAME_LEN) % 2, -3e38, 3e38).astype(np.float32)
        frames[1] = Frame(data=np.tile(saturated, (3, 1)), timestamp=frames[1].timestamp, source="s")
        spec = PredictorSpec(id="p", location="p", checkpoint=checkpoint,
                             normalization=ScoreNormalization(mu=1.0, sigma=0.5))
        with np.errstate(over="ignore", invalid="ignore"):
            lines = [format_report(r) for r in evaluate_stream(spec, model, stats, frames)]
        assert lines[1] == (
            "ts:1001 predictor:p location:p axis_mse:nan,nan,nan total_mse:nan score:nan "
            "level:high alarm:0 window_anomalous:1"
        )
        assert lines[2].endswith(" level:none alarm:0 window_anomalous:1")

    def test_duplicate_timestamps_rejected(self, checkpoint, tmp_path):
        norm = ScoreNormalization(mu=1.0, sigma=0.1)
        fleet = one_predictor_fleet(checkpoint, norm, tmp_path / "r.log")
        frames = make_frames(seed=6, count=2, start_ts=50)
        clash = [frames[0], Frame(data=frames[1].data, timestamp=50, source="s")]
        with pytest.raises(RoutingError, match="^predictor motor-left: two frames for timestamp 50; one report per sampling time$"):
            run_fleet(fleet, {"motor-left": clash})
        # calibration gives no report per frame: the channels of one IMS
        # recording share its timestamp in ingest-nasa's train.frames
        assert calibrate_predictor(checkpoint, clash).sigma > 0

    def test_axes_mismatch_names_predictor(self, checkpoint, tmp_path):
        norm = ScoreNormalization(mu=1.0, sigma=0.1)
        fleet = one_predictor_fleet(checkpoint, norm, tmp_path / "r.log")
        with pytest.raises(ConfigurationError, match="motor-left.*axes"):
            run_fleet(fleet, {"motor-left": make_frames(seed=7, count=2, axes=1)})

    def test_anomaly_burst_first_alarm_matches_oracle(self, checkpoint, tmp_path):
        # 10 normal frames then 30 anomalous; calibration on the normal
        # frames themselves bounds their |z| by (N-1)/sqrt(N) < 3, so the
        # flag sequence is exactly 10 normals followed by 30 anomalies
        log = tmp_path / "r.log"
        normal = make_frames(seed=8, count=10, start_ts=0)
        anomalous = make_frames(seed=9, count=30, scale=10.0, start_ts=10)
        norm = calibrate_predictor(checkpoint, normal)
        fleet = one_predictor_fleet(checkpoint, norm, log)
        reports = run_fleet(fleet, {"motor-left": normal + anomalous})
        assert len(reports) == 40
        flags = [r.level >= AlarmLevel.LOW for r in reports]
        assert flags == [False] * 10 + [True] * 30
        fired = [r.alarm_fired for r in reports]
        assert fired == reference_alarm_replay(flags)
        # 17th anomalous sample sits at index 26
        assert fired.index(True) == 26
        assert all(r.level == AlarmLevel.HIGH for r in reports[10:])
        assert reports[26].anomalous_in_window == 17
        # the log carries the same records
        assert read_report_log(log) == reports

    def test_reports_follow_timestamp_order(self, checkpoint, tmp_path):
        norm = ScoreNormalization(mu=1.0, sigma=0.5)
        fleet = one_predictor_fleet(checkpoint, norm, tmp_path / "r.log")
        frames = make_frames(seed=10, count=5, start_ts=100)
        shuffled = [frames[3], frames[0], frames[4], frames[2], frames[1]]
        reports = run_fleet(fleet, {"motor-left": shuffled})
        assert [r.timestamp for r in reports] == [100, 101, 102, 103, 104]

    def test_composition_equals_individual_runs(self, checkpoint, tmp_path):
        norm = ScoreNormalization(mu=1.0, sigma=0.5)
        spec_a = PredictorSpec(
            id="gear-left", location="gear-left", checkpoint=checkpoint,
            normalization=norm,
        )
        spec_b = PredictorSpec(
            id="gear-right", location="gear-right", checkpoint=checkpoint,
            normalization=norm,
        )
        streams = {
            "gear-left": make_frames(seed=11, count=4),
            "gear-right": make_frames(seed=12, count=4, scale=10.0),
        }
        both = FleetConfig(
            predictors=(spec_a, spec_b), report_log=str(tmp_path / "both.log")
        )
        together = run_fleet(both, streams)
        solo_a = run_fleet(
            FleetConfig(predictors=(spec_a,), report_log=str(tmp_path / "a.log")),
            {"gear-left": streams["gear-left"]},
        )
        solo_b = run_fleet(
            FleetConfig(predictors=(spec_b,), report_log=str(tmp_path / "b.log")),
            {"gear-right": streams["gear-right"]},
        )
        assert together == solo_a + solo_b

    def test_replay_reproduces_log_bytes(self, checkpoint, tmp_path):
        norm = ScoreNormalization(mu=1.0, sigma=0.5)
        frames = make_frames(seed=13, count=6)
        for name in ("first.log", "second.log"):
            fleet = one_predictor_fleet(checkpoint, norm, tmp_path / name)
            run_fleet(fleet, {"motor-left": frames})
        assert (tmp_path / "first.log").read_bytes() == (
            tmp_path / "second.log"
        ).read_bytes()

    def test_log_path_override(self, checkpoint, tmp_path):
        norm = ScoreNormalization(mu=1.0, sigma=0.5)
        fleet = one_predictor_fleet(checkpoint, norm, tmp_path / "default.log")
        override = tmp_path / "override.log"
        run_fleet(fleet, {"motor-left": make_frames(seed=14, count=2)}, log_path=str(override))
        assert override.exists()
        assert not (tmp_path / "default.log").exists()

    @pytest.mark.parametrize(
        "report_log, log_path, message",
        [("r.log", "", "empty report log path"),
         ("", None, "empty report log path"),
         ("r.log", "missing/r.log", "report log directory missing not found"),
         ("missing/r.log", None, "report log directory missing not found"),
         ("r.log", "adir", "report log adir is a directory"),
         ("r.log", "m.ckpt", "report log m.ckpt is also the input m.ckpt"),
         ("s.frames", None, "report log s.frames is also the input s.frames")],
        ids=["empty-log-path", "empty-report-log", "missing-dir", "config-missing-dir",
             "directory", "onto-checkpoint", "onto-stream"],
    )
    def test_unwritable_log_is_refused_before_scoring(
        self, checkpoint, tmp_path, monkeypatch, report_log, log_path, message
    ):
        # log_path="" once scored every stream and wrote no log; a missing
        # directory failed only after every stream was scored; a log onto
        # a checkpoint or a stream file was once appended to it
        def no_scoring(*args, **kwargs):
            raise AssertionError("scoring started")

        monkeypatch.setattr("vibanom.fleet.read_frames", no_scoring)
        monkeypatch.setattr("vibanom.fleet.load_checkpoint", no_scoring)
        monkeypatch.setattr("vibanom.fleet.evaluate_stream", no_scoring)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        Path("m.ckpt").write_bytes(Path(checkpoint).read_bytes())
        write_frames("s.frames", make_frames(seed=14, count=2))
        fleet = one_predictor_fleet("m.ckpt", ScoreNormalization(mu=1.0, sigma=0.5), report_log)
        before = {p: p.is_file() and p.read_bytes() for p in sorted(tmp_path.rglob("*"))}
        with pytest.raises(ConfigurationError) as raised:
            run_fleet(fleet, {"motor-left": "s.frames"}, log_path=log_path)
        assert str(raised.value) == message
        assert {p: p.is_file() and p.read_bytes() for p in sorted(tmp_path.rglob("*"))} == before


class TestStreamForms:
    """A list of Frames, a FrameBlock and a FRME file score alike.

    The counts sit at and across 16-frame task boundaries; the file is
    written in shuffled order, so each scoring task gathers its frames.
    """

    def outcome(self, fn, *args):
        try:
            return fn(*args)
        except CalibrationError as exc:
            return ("CalibrationError", str(exc))

    @pytest.mark.parametrize("count", [1, 64, 65, 203])
    def test_list_block_and_shuffled_file_agree(self, checkpoint, tmp_path, count):
        model, stats = load_checkpoint(checkpoint)
        frames = make_frames(seed=20, count=count)
        block = FrameBlock.of(frames)
        shuffled = [frames[k] for k in np.random.default_rng(21).permutation(count)]
        write_frames(tmp_path / "in_order.frames", frames)
        write_frames(tmp_path / "shuffled.frames", shuffled)
        from_file = read_frames(tmp_path / "shuffled.frames")
        spec = PredictorSpec(
            id="motor-left", location="motor-left", checkpoint=checkpoint,
            normalization=ScoreNormalization(mu=1.0, sigma=0.5),
        )
        for score in (evaluate_stream, evaluate_self_calibrated):
            want = self.outcome(score, spec, model, stats, frames)
            for form in (block, shuffled, from_file):
                assert self.outcome(score, spec, model, stats, form) == want
        # calibration walks in timestamp order too: every form and order
        # gives the normalization that self-calibrated scoring fits
        want = self.outcome(calibrate_predictor, checkpoint, frames)
        for form in (block, shuffled, read_frames(tmp_path / "in_order.frames"), from_file):
            assert self.outcome(calibrate_predictor, checkpoint, form) == want
        fitted = self.outcome(evaluate_self_calibrated, spec, model, stats, frames)
        if isinstance(want, ScoreNormalization):
            want = evaluate_stream(replace(spec, normalization=want), model, stats, frames)
        assert fitted == want
        fleet = one_predictor_fleet(checkpoint, spec.normalization, tmp_path / "r.log")
        want = run_fleet(fleet, {"motor-left": frames}, log_path=tmp_path / "x.log")
        assert want == evaluate_stream(spec, model, stats, frames)
        for form in (block, from_file, tmp_path / "shuffled.frames", str(tmp_path / "shuffled.frames")):
            assert run_fleet(fleet, {"motor-left": form}, log_path=tmp_path / "x.log") == want

    def test_header_only_file_is_an_empty_stream(self, checkpoint, tmp_path):
        path = tmp_path / "empty.frames"
        path.write_bytes(b"FRME\x01\x00\x00\x00\x03\x00\x10\x00\x00")
        fleet = one_predictor_fleet(checkpoint, ScoreNormalization(mu=1.0, sigma=0.5), tmp_path / "r.log")
        assert run_fleet(fleet, {"motor-left": path}) == []


class TestTornLog:
    """A report log whose last write was cut short mid-line."""

    def torn_log(self, checkpoint, tmp_path):
        log = tmp_path / "r.log"
        fleet = one_predictor_fleet(checkpoint, ScoreNormalization(mu=1.0, sigma=0.5), log)
        reports = run_fleet(fleet, {"motor-left": make_frames(seed=30, count=12)})
        whole = log.read_bytes()
        lines = whole.splitlines(keepends=True)
        cut = sum(len(line) for line in lines[:9]) + len(lines[9]) // 2
        log.write_bytes(whole[:cut])
        return log, reports, cut - len(lines[9]) // 2

    def test_reader_drops_the_torn_line(self, checkpoint, tmp_path):
        log, reports, offset = self.torn_log(checkpoint, tmp_path)
        with pytest.warns(DataWarning, match="torn last line at byte %d" % offset):
            assert read_report_log(log) == reports[:9]

    def test_reader_still_rejects_a_malformed_complete_line(self, checkpoint, tmp_path):
        log, _, _ = self.torn_log(checkpoint, tmp_path)
        log.write_bytes(log.read_bytes() + b"\n")
        with pytest.raises(ParseError):
            read_report_log(log)

    def test_whole_log_reads_without_warning(self, checkpoint, tmp_path):
        log = tmp_path / "r.log"
        fleet = one_predictor_fleet(checkpoint, ScoreNormalization(mu=1.0, sigma=0.5), log)
        reports = run_fleet(fleet, {"motor-left": make_frames(seed=31, count=3)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_report_log(log) == reports

    def test_writer_cuts_the_torn_line_before_appending(self, checkpoint, tmp_path):
        log, reports, offset = self.torn_log(checkpoint, tmp_path)
        with pytest.warns(DataWarning, match="byte %d" % offset):
            write_report_log(reports[9:], log)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_report_log(log) == reports

    def test_log_of_one_torn_line(self, tmp_path):
        log = tmp_path / "r.log"
        log.write_bytes(b"ts:1 predictor")
        with pytest.warns(DataWarning, match="byte 0"):
            assert read_report_log(log) == []
        with pytest.warns(DataWarning, match="byte 0"):
            write_report_log([], log)
        assert log.read_bytes() == b""

    @pytest.mark.parametrize("whole_lines", [0, 1, 30])
    def test_torn_line_longer_than_4096_bytes(self, tmp_path, whole_lines):
        reports = [TestReportSerialization().sample()] * whole_lines
        log = tmp_path / "r.log"
        write_report_log(reports, log)
        offset = log.stat().st_size
        log.write_bytes(log.read_bytes() + b"ts:1 predictor:" + b"p" * 4985)
        with pytest.warns(DataWarning, match="torn last line at byte %d " % offset):
            assert read_report_log(log) == reports
        with pytest.warns(DataWarning, match="cut the torn last line at byte %d " % offset):
            write_report_log(reports[:1], log)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_report_log(log) == reports + reports[:1]

    def test_empty_log_is_not_torn(self, tmp_path):
        log = tmp_path / "r.log"
        log.write_bytes(b"")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_report_log(log) == []
            write_report_log([], log)
        assert log.read_bytes() == b""

    def test_non_utf8_log_rejected(self, tmp_path):
        log = tmp_path / "r.log"
        log.write_bytes(b"ts:1 predictor:\xff\n")
        with pytest.raises(ParseError, match="report log .*r.log: not UTF-8 text"):
            read_report_log(log)
