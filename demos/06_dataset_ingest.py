#!/usr/bin/env python3
"""Run-to-failure dataset ingestion: windowing, splits, frame files.

Without arguments this builds a miniature directory tree in the layout of
the public run-to-failure bearing archive (three set directories of
timestamp-named, tab-separated channel files) and ingests it. Point
VIBANOM_IMS_ROOT at a real download to ingest that instead; the real
archive yields a 30,000-frame training split.
"""

import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from vibanom.ingest import DEFAULT_TRAIN_SIZE, build_nasa_splits, read_frames, write_frames

# Everything the demo writes lives in one directory, removed when it ends.
with tempfile.TemporaryDirectory(prefix="vibanom-ingest-demo-") as tmp:
    workdir = Path(tmp)
    root = os.environ.get("VIBANOM_IMS_ROOT", "")
    if root:
        print("ingesting real archive at %s" % root)
        train_size = DEFAULT_TRAIN_SIZE
    else:
        print("VIBANOM_IMS_ROOT not set; building a miniature stand-in tree")
        base = workdir / "ims"
        rng = np.random.default_rng(0)
        layout = [
            ("1st_test", 8, ["2004.02.12.10.32.39", "2004.02.12.10.42.39"]),
            ("2nd_test", 4, ["2004.02.12.10.32.39", "2004.02.12.10.42.39"]),
            ("3rd_test", 4, ["2004.03.04.09.27.46"]),
        ]
        for dirname, channels, filenames in layout:
            directory = base / dirname
            directory.mkdir(parents=True)
            for name in filenames:
                matrix = rng.standard_normal((2 * 4096, channels)) * 0.1
                body = "\n".join("\t".join("%.5f" % v for v in row) for row in matrix)
                (directory / name).write_text(body + "\n")
        root = str(base)
        print("stand-in tree at %s" % root)
        # The miniature tree only has 44 candidate windows; ask for 32.
        train_size = 32

    print()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        train_frames, test_sequences = build_nasa_splits(root, train_size=train_size, seed=0)

    print("training split: %d single-axis frames (reservoir-sampled from all" % len(train_frames))
    print("                non-test channels into one preallocated block)")
    for label, block in sorted(test_sequences.items()):
        stamps = block.timestamps
        print("test channel %-8s: %3d frames, chronological %s"
              % (label, len(block), bool(np.all(stamps[1:] > stamps[:-1]))))
    print()

    # Frames travel between tools as a compact binary file.
    out = workdir / "train.frames"
    write_frames(out, train_frames)
    restored = read_frames(out)
    print("wrote %s (%d bytes), read back %d frames"
          % (out, out.stat().st_size, len(restored)))
    block = restored[:]
    same = np.array_equal(block.data, train_frames.data) and np.array_equal(
        block.timestamps, train_frames.timestamps
    )
    print("bit-exact round trip: %s" % same)
