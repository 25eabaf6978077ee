"""Inputs, stages and correctness checks of the vibanom benchmark.

Every workload runs the offline pipeline on its own inputs: train a model on
healthy frames, publish one checkpoint and calibration per predictor, and
score each predictor's frame stream with ``vibanom monitor``. A workload is
defined by its shape and by which of the two stages, train or monitor, it
measures as its main stage (see README.md).

Inputs are made from the seed alone. The program receives only the generated
arrays and files. Checks run outside the timed regions and compare the
program's outputs with a reference computed by ``fleet.evaluate_stream``
with the unmodified functions.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vibanom import dcan, fleet, ingest, signals, training

HERE = Path(__file__).resolve().parent

SPEC = signals.NormalSignalSpec()
FAULT_FREQ_HZ = 136.0
FAULT_PEAK_G = 0.04
CALIBRATION_FRAMES = 64
TIMESTAMP_BASE = 1_000_000
# Model initialisation and shuffling use this fixed seed, as the A3 gate
# does; the workload seed picks the data. A model seed that varied per run
# would spread train_val_mse and the fault margin far more than the data do.
MODEL_SEED = 0
BATCH_SIZE = training.TrainConfig().batch_size
# A run repeats set-up and both stages this many times, interleaved, so each
# metric samples the whole run and not one stretch of a shared machine.
ROUNDS = 3
REL_TOL = 1e-6
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    axes: int
    predictors: tuple
    faulty: tuple  # indices into predictors whose stream carries the fault
    stream_len: int
    train_frames: int
    train_epochs: int
    main_stage: str  # "train", or "monitor" with training done in set-up

    @property
    def trains_in_setup(self) -> bool:
        return self.main_stage != "train"

    @property
    def fault_start(self) -> int:
        """First faulty frame: the fault covers the last third of a stream."""
        return self.stream_len - self.stream_len // 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-3axis", axes=3, predictors=("motor-left", "motor-right"),
            faulty=(1,), stream_len=240, train_frames=2000, train_epochs=2,
            main_stage="train",
        ),
        Workload(
            name="fleet-monitor", axes=3, predictors=fleet.DEFAULT_LOCATIONS,
            faulty=(1, 4), stream_len=240, train_frames=512, train_epochs=3,
            main_stage="monitor",
        ),
    )
}


class Tally:
    """Operations attempted and failed, plus a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, failed=0, problem=None):
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)


@dataclass
class TrainRun:
    history: list
    step_seconds: list  # one per full batch, hand-over to next hand-over


@dataclass
class Predictor:
    spec: fleet.PredictorSpec
    model: dcan.DcanModel
    stats: training.StandardizationStats


@dataclass
class Fixture:
    workload: Workload
    work: Path
    seed: int
    train_frames: np.ndarray
    train_stats: training.StandardizationStats
    calibration: list
    streams: list
    timestamps: np.ndarray
    train_runs: list = field(default_factory=list)
    model: dcan.DcanModel | None = None
    config_path: Path | None = None
    predictors: list = field(default_factory=list)

    @property
    def stream_dir(self) -> Path:
        return self.work / "streams"

    def frames(self, index) -> list:
        return [
            ingest.Frame(data=row[0], timestamp=int(ts), source=self.workload.predictors[index])
            for row, ts in zip(self.streams[index], self.timestamps)
        ]

    def digest(self) -> str:
        """Hash of every file the set-up wrote, to prove set-up repeats exactly."""
        h = hashlib.sha256()
        for path in sorted(self.work.rglob("*")):
            if path.suffix in (".ckpt", ".frames", ".json") and path.is_file():
                h.update(path.name.encode())
                h.update(path.read_bytes())
        return h.hexdigest()


# -- set-up -------------------------------------------------------------------


def make_inputs(wl: Workload, seed: int, work: Path) -> Fixture:
    """Synthesize training, calibration and stream frames from the seed."""
    n = len(wl.predictors)
    # one entropy sequence per input set: (seed, role, predictor)
    train_frames = signals.synth_normal_frames(SPEC, wl.train_frames, wl.axes, [seed, 0, 0])
    calibration = [
        signals.synth_normal_frames(SPEC, CALIBRATION_FRAMES, wl.axes, [seed, 1, i])
        for i in range(n)
    ]
    saw = signals.inject_sawtooth(
        signals.Waveform(np.zeros(signals.MODEL_FRAME_LEN)), FAULT_FREQ_HZ, FAULT_PEAK_G
    ).samples
    streams = []
    for i in range(n):
        stream = signals.synth_normal_frames(SPEC, wl.stream_len, wl.axes, [seed, 2, i])
        if i in wl.faulty:
            tail = stream[wl.fault_start:].astype(np.float64) + saw
            stream[wl.fault_start:] = tail.astype(np.float32)
        streams.append(stream)
    fix = Fixture(
        workload=wl, work=work, seed=seed, train_frames=train_frames,
        train_stats=training.fit_standardization(train_frames),
        calibration=calibration, streams=streams,
        timestamps=TIMESTAMP_BASE + np.arange(wl.stream_len, dtype=np.int64),
    )
    fix.stream_dir.mkdir(parents=True, exist_ok=True)
    for i, pid in enumerate(wl.predictors):
        ingest.write_frames(fix.stream_dir / (pid + ".frames"), fix.frames(i))
    return fix


def train_once(fix: Fixture, tally: Tally) -> TrainRun:
    """One training run from the seeded initial model; checks it afterwards.

    max_epochs and patience are equal, so early stopping never ends the run
    before the last epoch.
    """
    wl = fix.workload
    model = dcan.build(dcan.DcanConfig(axes=wl.axes), seed=MODEL_SEED)
    config = training.TrainConfig(seed=MODEL_SEED, max_epochs=wl.train_epochs, patience=wl.train_epochs)
    n_val = max(1, int(round(wl.train_frames * config.validation_fraction)))
    planned = wl.train_epochs * -(-(wl.train_frames - n_val) // config.batch_size)
    steps = []
    last = [None]

    def on_batch(epoch, batch_index, batch):
        now = time.perf_counter()
        if last[0] is not None and last[0][0] == epoch and last[0][1] == BATCH_SIZE:
            steps.append(now - last[0][2])
        last[0] = (epoch, batch.shape[0], now)

    # train() updates the model in place, so later stages can go on with it
    # even when training raises
    fix.model = model
    try:
        _, history = training.train(model, fix.train_frames, fix.train_stats, config, on_batch=on_batch)
    except Exception as exc:
        tally.add(planned, planned, "%s: training raised %s: %s" % (wl.name, type(exc).__name__, exc))
        return TrainRun([], steps)
    run = TrainRun(history, steps)
    losses = [v for h in history for v in (h.train_mse, h.val_mse)]
    if len(history) != wl.train_epochs:
        problem = "%d of %d epochs ran" % (len(history), wl.train_epochs)
    elif not all(np.isfinite(losses)):
        problem = "non-finite loss"
    elif not history[-1].val_mse < history[0].val_mse:
        problem = "validation MSE %r did not fall below epoch 1's %r" % (
            history[-1].val_mse, history[0].val_mse)
    else:
        problem = None
    tally.add(planned, planned if problem else 0, problem and "%s: training: %s" % (wl.name, problem))
    fix.train_runs.append(run)
    return run


def publish(fix: Fixture) -> None:
    """Write each predictor's checkpoint, calibration and the fleet config.

    All predictors share the trained weights; each has its own
    standardization and calibration, fitted on its own healthy frames.
    """
    wl = fix.workload
    specs = []
    for i, pid in enumerate(wl.predictors):
        calib = fix.calibration[i]
        ckpt = fix.work / (pid + ".ckpt")
        training.save_checkpoint(
            fix.model, training.fit_standardization(calib), ckpt,
            training_meta={"seed": fix.seed, "workload": wl.name},
        )
        frames = [ingest.Frame(data=row[0], timestamp=k) for k, row in enumerate(calib)]
        specs.append(fleet.PredictorSpec(
            id=pid, location=pid, checkpoint=str(ckpt),
            normalization=fleet.calibrate_predictor(ckpt, frames),
        ))
    config = fleet.FleetConfig(predictors=tuple(specs), report_log=str(fix.work / "fleet.log"))
    fix.config_path = fix.work / "fleet.json"
    fleet.save_fleet_config(config, fix.config_path)
    fix.predictors = []
    for spec in specs:
        model, stats = training.load_checkpoint(spec.checkpoint)
        fix.predictors.append(Predictor(spec, model, stats))


def set_up(wl: Workload, seed: int, work: Path, tally: Tally, stage) -> Fixture:
    """Inputs, plus the trained and published predictors when the workload
    trains in set-up. ``stage(name)`` gives the context the train stage runs
    in (tracing phase, or a self-test stand-in)."""
    fix = make_inputs(wl, seed, work)
    if wl.trains_in_setup:
        with stage("train"):
            train_once(fix, tally)
        publish(fix)
    return fix


# -- reference and checks -------------------------------------------------------


def reference_reports(fix: Fixture) -> list:
    """Batch scoring of every stream, per predictor, by fleet.evaluate_stream."""
    return [
        fleet.evaluate_stream(p.spec, p.model, p.stats, fix.frames(i))
        for i, p in enumerate(fix.predictors)
    ]


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _same(got, want) -> bool:
    return (
        got is not None
        and got.timestamp == want.timestamp
        and got.predictor_id == want.predictor_id
        and got.location == want.location
        and got.level == want.level
        and got.alarm_fired == want.alarm_fired
        and got.anomalous_in_window == want.anomalous_in_window
        and len(got.per_axis_mse) == len(want.per_axis_mse)
        and all(_close(g, w) for g, w in zip(got.per_axis_mse, want.per_axis_mse))
        and _close(got.total_mse, want.total_mse)
    )


def check_stream(fix: Fixture, index: int, got: list, reference: list, tally: Tally):
    """Count one stream's scored frames; a frame fails when it differs from
    the reference, and every frame fails when the stream's alarms are wrong."""
    wl = fix.workload
    want = reference[index]
    pid = wl.predictors[index]
    bad = sum(1 for k, w in enumerate(want) if k >= len(got) or not _same(got[k], w))
    bad += max(0, len(got) - len(want))
    problems = []
    if bad:
        problems.append("%d of %d reports differ from the batch reference" % (bad, len(want)))
    fired = [k for k, r in enumerate(got) if r is not None and r.alarm_fired]
    if index in wl.faulty:
        if not fired:
            problems.append("no alarm on the faulty stream")
        elif fired[0] < wl.fault_start:
            problems.append("alarm at frame %d, before the fault starts at %d" % (fired[0], wl.fault_start))
    elif fired:
        problems.append("%d alarms on a clean stream" % len(fired))
    alarms_wrong = len(problems) > (1 if bad else 0)
    failed = len(want) if alarms_wrong else min(bad, len(want))
    tally.add(len(want), failed, problems and "%s: monitor %s: %s" % (wl.name, pid, "; ".join(problems)))


# -- monitor stage ----------------------------------------------------------------


@dataclass
class MonitorCall:
    seconds: float
    frames: int
    peak_rss_mb: float
    spans: dict


def monitor_call(fix: Fixture, reference: list, tally: Tally, trace=False, sabotage=None) -> MonitorCall:
    """Run ``vibanom monitor`` over every stream in a fresh process; check its log."""
    wl = fix.workload
    log = fix.work / "monitor.log"
    result = fix.work / "monitor_result.json"
    for path in (log, result):
        if path.exists():
            path.unlink()
    cmd = [
        sys.executable, str(HERE / "monitor_child.py"), str(result), "1" if trace else "0",
        sabotage or "-", "--config", str(fix.config_path), "--frames", str(fix.stream_dir),
        "--out", str(log),
    ]
    with open(fix.work / "monitor.stderr", "wb") as err:
        try:
            code = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            code = "timeout"
    total = wl.stream_len * len(wl.predictors)
    outcome = json.loads(result.read_text()) if result.exists() else None
    if code != 0 or outcome is None or outcome["exit_code"] != 0:
        stderr = (fix.work / "monitor.stderr").read_text(errors="replace").strip()
        tally.add(total, total, "%s: monitor failed (exit %s): %s" % (wl.name, code, stderr[-500:]))
        return MonitorCall(float("nan"), total, float("nan"), {})

    got = {pid: [] for pid in wl.predictors}
    for line in log.read_text(encoding="utf-8").splitlines():
        try:
            report = fleet.parse_report(line)
            round_trip = fleet.format_report(report) == line
        except Exception:
            report, round_trip = None, False
        if report is not None and report.predictor_id in got:
            got[report.predictor_id].append(report if round_trip else None)
    for i, pid in enumerate(wl.predictors):
        check_stream(fix, i, got[pid], reference, tally)
    return MonitorCall(outcome["seconds"], total, outcome["peak_rss_mb"], outcome["spans"])
