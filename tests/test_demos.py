"""Every demo runs to completion as a script and prints its walk-through."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import duosc

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(duosc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
