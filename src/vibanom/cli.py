"""Command-line interface for the vibration anomaly toolkit.

Subcommands:
  train        fit standardization and train a model on a frame file
  calibrate    compute score normalization for a checkpoint
  score        batch-score a frame file, emitting status report lines
  monitor      run a predictor fleet over a directory of frame streams
  synth        generate a synthetic normal or anomalous waveform
  ingest-nasa  build train/test splits from a NASA IMS dataset tree
  export-plot  convert a report log or waveform to plottable CSV series

Every subcommand is deterministic given --seed. Failures print one line
`error: <kind>: <message>` to stderr and exit 1; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import dcan, ingest
from .errors import ConfigurationError, DimensionError, RoutingError, VibanomError
from .fleet import (
    PredictorSpec,
    calibrate_predictor,
    evaluate_self_calibrated,
    evaluate_stream,
    format_report,
    load_fleet_config,
    read_report_log,
    run_fleet,
    write_report_log,
)
from .ingest import FrameBlock, build_nasa_splits, read_frames, stack_frames, write_frames
from .signals import (
    NormalSignalSpec,
    Waveform,
    fft_magnitude,
    inject_sawtooth,
    read_waveform_csv,
    synth_normal,
    time_scale,
    write_waveform_csv,
)
from .training import (
    TrainConfig,
    fit_standardization,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_csv,
)

WAVEFORM_CSV_HEADER = b"index,value"


def _read_some_frames(path):
    """read_frames(path), refusing a file with no frames by its path."""
    frames = read_frames(path)
    if len(frames) == 0:
        raise DimensionError("%s: the frame file has no frames" % path)
    return frames


def cmd_train(args) -> int:
    loss_csv = str(args.out) + ".loss.csv"
    ingest._destination(args.out, "--out", [args.frames])
    ingest._destination(loss_csv, "loss curve", [args.frames])
    frames = _read_some_frames(args.frames)
    batch = stack_frames(frames)
    stats = fit_standardization(batch)
    model = dcan.build(dcan.DcanConfig(axes=frames.axes), seed=args.seed)
    model, history = train(model, batch, stats, TrainConfig(seed=args.seed))
    meta = {
        "seed": args.seed,
        "frames": len(frames),
        "epochs": len(history),
        "source": str(args.frames),
    }
    save_checkpoint(model, stats, args.out, training_meta=meta)
    write_loss_csv(history, loss_csv)
    last = history[-1]
    print(
        "trained %d epochs on %d frames: train_mse %r val_mse %r"
        % (len(history), len(frames), last.train_mse, last.val_mse)
    )
    print("checkpoint: %s" % args.out)
    print("loss curve: %s" % loss_csv)
    return 0


def cmd_calibrate(args) -> int:
    if args.out is not None:
        ingest._destination(args.out, "--out", [args.checkpoint, args.frames])
    frames = _read_some_frames(args.frames)
    norm = calibrate_predictor(args.checkpoint, frames)
    line = '{"mu": %r, "sigma": %r}' % (norm.mu, norm.sigma)
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n", encoding="utf-8")
    return 0


def _config_spec(args) -> PredictorSpec:
    fleet = load_fleet_config(args.config)
    mine = Path(args.checkpoint).resolve()
    matches = [p for p in fleet.predictors if Path(p.checkpoint).resolve() == mine]
    if len(matches) != 1:
        raise RoutingError(
            "%d predictors in %s use checkpoint %s; need exactly 1"
            % (len(matches), args.config, args.checkpoint)
        )
    return matches[0]


def cmd_score(args) -> int:
    if args.out is not None:
        ingest._destination(args.out, "--out", [args.checkpoint, args.frames, args.config])
    frames = _read_some_frames(args.frames)
    spec = _config_spec(args) if args.config else None
    model, stats = load_checkpoint(args.checkpoint)
    if spec is not None:
        reports = evaluate_stream(spec, model, stats, frames)
    else:
        # no fleet context: self-calibrate on the scored frames
        spec = PredictorSpec(id="adhoc", location="adhoc", checkpoint=str(args.checkpoint))
        reports = evaluate_self_calibrated(spec, model, stats, frames)
    for report in reports:
        print(format_report(report))
    if args.out:
        write_report_log(reports, args.out)
    return 0


def cmd_monitor(args) -> int:
    fleet = load_fleet_config(args.config)
    log_path = fleet.report_log if args.out is None else args.out
    ingest._destination(log_path, "report log", [args.config])
    stream_dir = Path(args.frames)
    if not stream_dir.is_dir():
        raise ConfigurationError("stream directory %s not found" % stream_dir)
    known = {p.id for p in fleet.predictors}
    stray = sorted(
        f.name for f in stream_dir.glob("*.frames") if f.stem not in known
    )
    if stray:
        raise RoutingError(
            "no predictor for stream file(s): %s" % ", ".join(stray)
        )
    # paths, not frames: run_fleet reads each stream when its turn comes
    streams = {}
    for spec in fleet.predictors:
        path = stream_dir / (spec.id + ".frames")
        if path.exists():
            streams[spec.id] = path
    reports = run_fleet(fleet, streams, log_path=log_path)
    for predictor_id, run in itertools.groupby(reports, lambda r: r.predictor_id):
        mine = list(run)
        fired = sum(r.alarm_fired for r in mine)
        print("%s: %d frames, %d alarms" % (predictor_id, len(mine), fired))
    print("report log: %s (%d reports appended)" % (log_path, len(reports)))
    return 0


def _synth_waveform(seed, args) -> Waveform:
    wave = synth_normal(NormalSignalSpec(), seed)
    if args.time_scale is not None:
        wave = time_scale(wave, args.time_scale)
    if args.sawtooth_freq is not None:
        wave = inject_sawtooth(wave, args.sawtooth_freq, args.sawtooth_peak)
    return wave


def cmd_synth(args) -> int:
    has_freq = args.sawtooth_freq is not None
    has_peak = args.sawtooth_peak is not None
    if has_freq != has_peak:
        raise ConfigurationError(
            "--sawtooth-freq and --sawtooth-peak must be given together"
        )
    ingest._destination(args.out, "--out")
    if args.axes is None:
        wave = _synth_waveform(args.seed, args)
        write_waveform_csv(wave, args.out)
        print("waveform csv: %s (%d samples)" % (args.out, len(wave.samples)))
        return 0
    children = np.random.SeedSequence(args.seed).spawn(args.axes)
    rows = [_synth_waveform(child, args).samples for child in children]
    write_frames(args.out, FrameBlock(np.zeros(1, np.int64), np.stack(rows)[None]))
    print("frame file: %s (1 frame, %d axes)" % (args.out, args.axes))
    return 0


def cmd_ingest_nasa(args) -> int:
    if args.out == "":
        raise ConfigurationError("empty --out path")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_path = out_dir / "train.frames"
    test_paths = {
        label: out_dir / ("test_%s.frames" % label.replace("/", "_"))
        for label in ingest._TEST_LABELS
    }
    for path in [train_path, *test_paths.values()]:
        ingest._destination(path, "output file")
    train_frames, test_sequences = build_nasa_splits(args.root, seed=args.seed)
    write_frames(train_path, train_frames)
    print("train: %d frames -> %s" % (len(train_frames), train_path))
    for label in sorted(test_sequences):
        frames, path = test_sequences[label], test_paths[label]
        write_frames(path, frames)
        print("%s: %d frames -> %s" % (label, len(frames), path))
    return 0


def cmd_export_plot(args) -> int:
    ingest._destination(args.out, "--out", [args.input])
    # sniff the first line only; each reader decodes and checks the rest
    with open(args.input, "rb") as fh:
        first = fh.readline().strip()
    lines = []
    if first == WAVEFORM_CSV_HEADER:
        spectrum = fft_magnitude(read_waveform_csv(args.input))
        lines.append("freq_hz,magnitude")
        for freq, mag in zip(spectrum.bin_freqs, spectrum.magnitudes):
            lines.append("%r,%r" % (float(freq), float(mag)))
        kind = "spectrum"
    else:
        reports = read_report_log(args.input)
        lines.append("ts,predictor,location,total_mse,score,level,alarm")
        for r in reports:
            lines.append(
                "%d,%s,%s,%r,%r,%s,%d"
                % (
                    r.timestamp,
                    r.predictor_id,
                    r.location,
                    r.total_mse,
                    r.score,
                    r.level.name.lower(),
                    1 if r.alarm_fired else 0,
                )
            )
        kind = "mse timeline"
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("%s csv: %s (%d rows)" % (kind, args.out, len(lines) - 1))
    return 0


def _seed(text: str) -> int:
    """--seed's type: an integer >= 0, as numpy's seeding needs."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibanom",
        description="Vibration anomaly detection with a convolutional "
        "auto-encoding network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a frame file")
    p.add_argument("--frames", required=True, help="FRME input file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="fit score normalization")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--frames", required=True, help="normal FRME file")
    p.add_argument("--out", help="write the normalization JSON here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("score", help="batch-score a frame file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--frames", required=True, help="FRME input file")
    p.add_argument("--config", help="fleet config supplying calibration")
    p.add_argument("--out", help="append report lines to this log")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("monitor", help="run a fleet over stream files")
    p.add_argument("--config", required=True, help="fleet config JSON")
    p.add_argument(
        "--frames", required=True,
        help="directory of <predictor-id>.frames stream files",
    )
    p.add_argument("--out", help="report log path (overrides config)")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("synth", help="generate synthetic waveforms")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--axes", type=int, choices=(1, 3),
        help="write a FRME frame with this many axes instead of a CSV",
    )
    p.add_argument("--time-scale", type=float, dest="time_scale")
    p.add_argument("--sawtooth-freq", type=float, dest="sawtooth_freq")
    p.add_argument("--sawtooth-peak", type=float, dest="sawtooth_peak")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest-nasa", help="build NASA IMS splits")
    p.add_argument("root", help="dataset root directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_ingest_nasa)

    p = sub.add_parser(
        "export-plot", help="report log or waveform to plottable CSV"
    )
    p.add_argument("input", help="report log or waveform CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VibanomError, OSError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
