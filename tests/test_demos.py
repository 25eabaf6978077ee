"""Smoke test: the fast demos run to completion against the current API.

Each demo runs as its own process, as a user would start it. Demo 02 trains
a model for about 18 s and is left out. TMPDIR points at the test's own
directory, where no `vibanom-*` temporary directory may be left after a
demo ends: demos 05 and 06 remove theirs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_architecture_tour.py",
        "03_spectral_lab.py",
        "04_alarm_walkthrough.py",
        "05_fleet_replay.py",
        "06_dataset_ingest.py",
    ],
)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.glob("vibanom-*")) == []
