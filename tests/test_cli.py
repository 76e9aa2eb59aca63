import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from duosc import engine
from duosc.cli import build_parser, main, preset_config
from duosc.errors import NotNormalizable


def read_csv(path):
    with open(path) as fh:
        rdr = csv.DictReader(fh)
        rows = list(rdr)
    return rows


def run_cli(args):
    return main(args)


def test_preset_scenarios_differ():
    f2 = preset_config("fig2")
    f3 = preset_config("fig3")
    f4 = preset_config("fig4")
    assert f2.coupling_dimensionless == 0.0
    assert f3.coupling_dimensionless == 0.3
    assert f4.bath2.temperature == 900.0
    assert f3.bath2.temperature == 300.0
    # second force pushes opposite to the first (whose amplitude comes
    # from the impulse heuristic at validation time, hence None here)
    assert f3.force2.amplitude < 0
    assert f3.force1.amplitude is None


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset_config("fig9")


def test_run_fig2_writes_artifacts(tmp_path):
    out = tmp_path / "fig2"
    rc = run_cli(["run", "fig2", str(out), "--grid", "24",
                  "--dump-state", "--dump-action"])
    assert rc == 0
    for name in ("report.csv", "means_normalized.csv", "forces.csv",
                 "state_params.csv", "action_form.csv"):
        assert (out / name).exists()
    rows = read_csv(out / "report.csv")
    assert len(rows) == 24
    header = list(rows[0].keys())
    assert header == ["t", "x1_mean", "x2_mean", "p1_mean", "p2_mean",
                      "var_x1", "var_x2", "var_p1", "var_p2", "cov_x1x2",
                      "sym_xp1", "sym_xp2", "herm_residual"]
    # physical CGS magnitudes: var_x1 starts at hbar/(2 m omega) ~ 5e-18
    assert math.isclose(float(rows[0]["var_x1"]),
                        1.0545718e-27 / (2 * 1e-23 * 1e13), rel_tol=1e-3)
    # oscillator 2 idle before its own force at 1e-12 s (fig2: no coupling)
    for r in rows:
        if float(r["t"]) < 0.9e-12:
            assert abs(float(r["x2_mean"])) < 1e-30


def test_runs_are_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run_cli(["run", "fig3", str(out), "--grid", "8"]) == 0
        outs.append((out / "report.csv").read_bytes())
    assert outs[0] == outs[1]


def test_custom_requires_config(tmp_path, capsys):
    rc = run_cli(["run", "custom", str(tmp_path / "x")])
    assert rc == 2
    assert "config" in capsys.readouterr().err


def test_custom_config_roundtrip(tmp_path):
    cfgd = {
        "m1": 1e-23, "m2": 5e-23, "omega01": 1e13, "omega02": 3e13,
        "gamma1": 1e11, "gamma2": 1e11, "lambda_tilde": 0.2,
        "T1": 300.0, "T2": 300.0, "t_end": 5e-13, "n_points": 6,
        "f1_kind": "exponential_step", "f1_onset": 1e-13, "f1_decay": 1e12,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfgd))
    out = tmp_path / "run"
    assert run_cli(["run", "custom", str(out), "--config", str(p)]) == 0
    assert len(read_csv(out / "report.csv")) == 6


def test_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text("{broken")
    rc = run_cli(["run", "custom", str(tmp_path / "o"), "--config", str(p)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_strong_coupling_exit_code(tmp_path, capsys):
    cfgd = {
        "m1": 1e-23, "m2": 5e-23, "omega01": 1e13, "omega02": 3e13,
        "gamma1": 1e11, "gamma2": 1e11, "lambda_tilde": 1.2,
        "T1": 300.0, "T2": 300.0, "t_end": 5e-13, "n_points": 4,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfgd))
    rc = run_cli(["run", "custom", str(tmp_path / "o"), "--config", str(p)])
    assert rc == 2


def test_verify_small_grid(tmp_path, capsys):
    out = tmp_path / "v"
    rc = run_cli(["run", "fig3", str(out), "--grid", "12", "--verify",
                  "--threads", "2"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in captured and "FAIL" not in captured
    assert (out / "verify_summary.txt").exists()
    assert (out / "oracle_means.csv").exists()


def test_grid_and_tend_overrides(tmp_path):
    out = tmp_path / "o"
    rc = run_cli(["run", "fig2", str(out), "--grid", "5",
                  "--t-end", "1e-12"])
    assert rc == 0
    rows = read_csv(out / "report.csv")
    assert len(rows) == 5
    assert math.isclose(float(rows[-1]["t"]), 1e-12, rel_tol=1e-9)


def test_parser_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fig9", "out"])


def test_normalized_means_scale(tmp_path):
    out = tmp_path / "n"
    assert run_cli(["run", "fig3", str(out), "--grid", "40"]) == 0
    rows = read_csv(out / "means_normalized.csv")
    peak = max(abs(float(r["x1_mean_over_sigma01"])) for r in rows)
    # the demonstration drive is tuned to displace by roughly one packet
    # width, so the normalized mean is O(1), not O(sigma) or O(1/sigma)
    assert 0.05 < peak < 50.0


def test_unequal_damping_exit_code(tmp_path, capsys):
    cfgd = {
        "m1": 1e-23, "m2": 5e-23, "omega01": 1e13, "omega02": 3e13,
        "gamma1": 1e11, "gamma2": 2e11, "lambda_tilde": 0.0,
        "T1": 300.0, "T2": 300.0, "t_end": 5e-13, "n_points": 4,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfgd))
    rc = run_cli(["run", "custom", str(tmp_path / "o"), "--config", str(p)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "damping" in err


def test_engine_error_exit_code(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise NotNormalizable("beta determinant <= 0")
    monkeypatch.setattr(engine, "simulate", fail)
    rc = run_cli(["run", "fig2", str(tmp_path / "o"), "--grid", "4"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: beta determinant")


def test_import_does_not_load_scipy():
    # a fresh interpreter that imports this same copy of the package
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, duosc, duosc.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
