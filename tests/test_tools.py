"""The scripts under tools/ still run against the package they measure."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from duosc.engine import simulate

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name, monkeypatch):
    """Import tools/<name>.py by path.  The environment variables and
    sys.path entries it sets on import are undone after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bath_phase_tool_runs_every_per_call_function(monkeypatch):
    """bath_phase_ms times functions that reach into `duosc.influence`; a
    renamed name there must fail here, not only when the tool is run."""
    tool = load_tool("bath_phase_ms", monkeypatch)
    for name in tool.configs():
        fns = tool.per_call_fns(name)
        assert fns
        for fn in fns.values():
            fn()


def test_fingerprint_tool_on_one_small_case(monkeypatch, ic_fig3):
    """fingerprint builds its fixed cases against the package and hashes
    each result array: equal results hash equal, a different grid does
    not, and the cov change of a result against itself is 0."""
    tool = load_tool("fingerprint", monkeypatch)
    sys.path.insert(0, str(tool.ROOT / "perfbench"))
    assert len(tool.cases()) == 5 + 4 * len(tool.SEEDS)
    times = np.linspace(0.0, ic_fig3.t_end, 8)
    res = simulate(ic_fig3, times)
    hashes = tool.array_hashes(res)
    assert sorted(hashes) == sorted(tool.ARRAYS)
    assert all(len(h) == 64 for h in hashes.values())
    assert tool.array_hashes(simulate(ic_fig3, times)) == hashes
    assert tool.array_hashes(simulate(ic_fig3, times[1:]))["cov"] \
        != hashes["cov"]
    assert tool.cov_change(res.cov, res.cov) == 0.0
