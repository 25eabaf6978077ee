#!/usr/bin/env python3
"""Fleet monitoring and the replayable report log.

Builds a two-predictor fleet around one shared checkpoint, runs the same
frame streams through it twice, and shows that the two report logs are
byte-identical: every report is derived from frame content and frame
timestamps, never from wall-clock time.
"""

import tempfile
from pathlib import Path

import numpy as np

from vibanom import dcan
from vibanom.fleet import (
    FleetConfig,
    PredictorSpec,
    calibrate_predictor,
    parse_report,
    run_fleet,
    save_fleet_config,
)
from vibanom.ingest import Frame, stack_frames
from vibanom.training import fit_standardization, save_checkpoint


def noise_frames(seed, count, start_ts=1000):
    rng = np.random.default_rng(seed)
    return [
        Frame(
            data=rng.standard_normal((3, 4096)).astype(np.float32),
            timestamp=start_ts + k,
            source="demo",
        )
        for k in range(count)
    ]


with tempfile.TemporaryDirectory(prefix="vibanom-fleet-demo-") as tmp:
    workdir = Path(tmp)
    print("working directory: %s (removed when the demo ends)" % workdir)

    # An untrained model is a perfectly good fleet citizen for a replay demo;
    # its reconstruction error is just uniformly high.
    model = dcan.build(dcan.DcanConfig(), seed=0)
    stats = fit_standardization(stack_frames(noise_frames(0, 8)))
    checkpoint = workdir / "shared.ckpt"
    save_checkpoint(model, stats, checkpoint)

    fleet = FleetConfig(
        predictors=(
            PredictorSpec(
                id="motor-left",
                location="mill-1/motor/left",
                checkpoint=str(checkpoint),
                normalization=calibrate_predictor(checkpoint, noise_frames(1, 10)),
            ),
            PredictorSpec(
                id="gear-right",
                location="mill-1/gear/right",
                checkpoint=str(checkpoint),
                normalization=calibrate_predictor(checkpoint, noise_frames(2, 10)),
            ),
        ),
        report_log=str(workdir / "reports.log"),
    )
    save_fleet_config(fleet, workdir / "fleet.json")
    print("fleet config saved: %s" % (workdir / "fleet.json"))
    print()

    streams = {
        "motor-left": noise_frames(3, 5),
        "gear-right": noise_frames(4, 5, start_ts=9000),
    }

    log_a = workdir / "run_a.log"
    log_b = workdir / "run_b.log"
    reports = run_fleet(fleet, streams, log_path=log_a)
    run_fleet(fleet, streams, log_path=log_b)

    print("run A produced %d reports; first line of the log:" % len(reports))
    first_line = log_a.read_text().splitlines()[0]
    print("  %s" % first_line)
    print()
    print("parsed back: %s" % (parse_report(first_line),))
    print()

    identical = log_a.read_bytes() == log_b.read_bytes()
    print("replaying the same streams -> logs byte-identical: %s" % identical)
