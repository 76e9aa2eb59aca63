"""The benchmark's runner still runs against this package.

`perfbench/run.py` calls `simulate(ic, times, threads)` with a positional
thread count, and counts every point of a call that raises as failed;
a change to that contract must fail here, not only when the benchmark
runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from duosc.engine import simulate

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["fig3-driven", "wideband-undriven",
                                      "sampled-drive", "fig3-driven-mt"])
def test_every_workload_runs_and_passes_its_gate(workload):
    """A short traced run (no set-up interpreters; it writes only under
    perfbench/out/) exits 0 and reports every point correct."""
    run = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0.05", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_a_thread_count_is_accepted_and_changes_no_bit(ic_fig3):
    """`simulate` takes a positional thread count and runs every chunk on
    the calling thread: 2 or the usable cores give the same bytes."""
    times = np.linspace(0.0, ic_fig3.t_end, 300)
    want = simulate(ic_fig3, times)
    for threads in (2, len(os.sched_getaffinity(0))):
        got = simulate(ic_fig3, times, threads)
        assert got.means.tobytes() == want.means.tobytes()
        assert got.cov.tobytes() == want.cov.tobytes()
