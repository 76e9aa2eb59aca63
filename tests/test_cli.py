import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

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
                      "sym_xp1", "sym_xp2"]
    # physical CGS magnitudes: var_x1 starts at hbar/(2 m omega) ~ 5e-18
    assert math.isclose(float(rows[0]["var_x1"]),
                        1.0545718e-27 / (2 * 1e-23 * 1e13), rel_tol=1e-3)
    # oscillator 2 idle before its own force at 1e-12 s (fig2: no coupling)
    for r in rows:
        if float(r["t"]) < 0.9e-12:
            assert abs(float(r["x2_mean"])) < 1e-30


def _sampled_config_file(tmp_path):
    """A custom config with a sampled force on oscillator 1 (CGS)."""
    t_end = 2e-12
    ts = np.linspace(0.0, t_end, 41)
    samples = tmp_path / "f1.csv"
    np.savetxt(samples, np.column_stack(
        [ts, 3e-10 * np.sin(2.1e13 * ts) * np.sin(math.pi * ts / t_end)]),
        delimiter=",")
    cfgd = {
        "m1": 1e-23, "m2": 5e-23, "omega01": 1e13, "omega02": 3e13,
        "gamma1": 1e11, "gamma2": 1e11, "lambda_tilde": 0.3,
        "T1": 300.0, "T2": 600.0, "t_end": t_end, "n_points": 40,
        "f1_kind": "sampled", "f1_samples": str(samples),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfgd))
    return str(path)


@pytest.mark.parametrize("scenario", ["fig3", "custom"])
def test_csvs_hold_the_result_arrays_in_physical_units(tmp_path, scenario):
    """report.csv, forces.csv and state_params.csv are `simulate`'s arrays
    times their unit factors, column by column, to the printed 13 digits."""
    from duosc.config import load_config, to_internal, validate_config
    from duosc.forcing import force_value
    from duosc.reduction import STATE_FIELDS
    if scenario == "custom":
        path = _sampled_config_file(tmp_path)
        args = ["--config", path]
        cfg = load_config(path)
    else:
        args = ["--grid", "40"]
        cfg = preset_config("fig3")
        cfg = replace(cfg, time_grid=replace(cfg.time_grid, n_points=40))
    out = tmp_path / "run"
    assert run_cli(["run", scenario, str(out), "--dump-state"] + args) == 0
    ic = to_internal(validate_config(cfg))
    res = engine.simulate(ic)
    u = ic.units
    L, P, F = u.length_unit, u.momentum_unit, u.force_unit
    ts = res.times * u.time_unit
    col = res.column
    want = {
        "report.csv": {
            "t": ts, "x1_mean": col("mean_x1") * L,
            "x2_mean": col("mean_x2") * L, "p1_mean": col("mean_p1") * P,
            "p2_mean": col("mean_p2") * P, "var_x1": col("var_x1") * L * L,
            "var_x2": col("var_x2") * L * L, "var_p1": col("var_p1") * P * P,
            "var_p2": col("var_p2") * P * P,
            "cov_x1x2": col("cov_x1x2") * L * L,
            "sym_xp1": col("cov_x1p1") * L * P,
            "sym_xp2": col("cov_x2p2") * L * P},
        "forces.csv": {"t": ts, "f1": force_value(ic.force1, res.times) * F,
                       "f2": force_value(ic.force2, res.times) * F},
        "state_params.csv": {
            name: res.state_array[:, STATE_FIELDS.index(name)]
            for name in STATE_FIELDS[:STATE_FIELDS.index("log_norm") + 1]},
    }
    assert np.any(want["forces.csv"]["f1"] != 0.0)
    for name, columns in want.items():
        with open(out / name) as fh:
            header = fh.readline().strip().split(",")
        assert header == list(columns), name
        got = np.loadtxt(out / name, delimiter=",", skiprows=1)
        assert got.shape == (40, len(columns))
        for k, (key, value) in enumerate(columns.items()):
            np.testing.assert_allclose(got[:, k], value, rtol=5e-13, atol=0,
                                       err_msg=f"{name}:{key}")


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
    rc = run_cli(["run", "fig3", str(out), "--grid", "12", "--verify"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in captured and "FAIL" not in captured
    assert (out / "verify_summary.txt").exists()
    assert (out / "oracle_means.csv").exists()


def test_verify_passes_a_heavy_second_oscillator(tmp_path):
    """fig3 with m2 = 1e8 m1 and force 1 alone is physical at every time.
    Unbalanced, rounding read the uncertainty eigenvalue as -1.09e-9 and
    failed --verify (exit 3)."""
    cfgd = {
        "m1": 1e-23, "m2": 1e-15, "omega01": 1e13, "omega02": 3e13,
        "gamma1": 1e11, "gamma2": 1e11, "lambda_tilde": 0.3,
        "T1": 300.0, "T2": 300.0, "t_end": 3e-12, "n_points": 2000,
        "f1_kind": "exponential_step", "f1_onset": 1e-13, "f1_decay": 1e12,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfgd))
    out = tmp_path / "v"
    assert run_cli(["run", "custom", str(out), "--config", str(p),
                    "--verify"]) == 0
    assert "FAIL" not in (out / "verify_summary.txt").read_text()


def test_verify_coarse_grid_after_the_means_decayed(tmp_path):
    """All grid times but t = 0 lie where the means have decayed by e^-40
    and more: the mean checks take their scale from the oracle over
    [0, t_end], not from the grid times alone, and pass."""
    out = tmp_path / "v"
    rc = run_cli(["run", "fig3", str(out), "--t-end", "8e-10", "--grid",
                  "3", "--verify"])
    assert rc == 0
    assert "FAIL" not in (out / "verify_summary.txt").read_text()
    assert len(read_csv(out / "oracle_means.csv")) == 3


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


def test_threads_is_no_longer_an_option(tmp_path):
    """Every run is on the calling thread: `--threads` is a usage error
    (exit 2), and nothing is written."""
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "fig3", str(tmp_path / "o"), "--threads", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


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


def test_nonfinite_config_exit_code(tmp_path, capsys):
    # json reads NaN and Infinity; validation must stop them
    cfgd = {
        "m1": 1e-23, "m2": 5e-23, "omega01": 1e13, "omega02": 3e13,
        "gamma1": 1e11, "gamma2": 1e11, "lambda_tilde": 0.2,
        "T1": 300.0, "T2": 300.0, "t_end": 5e-13, "n_points": 6,
        "f1_kind": "exponential_step", "f1_amplitude": float("nan"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfgd))
    assert "NaN" in p.read_text()
    rc = run_cli(["run", "custom", str(tmp_path / "o"), "--config", str(p)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: amplitude")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("decay, onset", [(1e15, 1e-9), (0.0, 1e-13)])
def test_amplitude_heuristic_exit_code(tmp_path, capsys, decay, onset):
    """A heuristic step amplitude that overflows (decay*onset = 1e6) or has
    no positive decay rate is a configuration error: exit 2 with one error
    line and nothing written.  An explicit amplitude runs."""
    cfgd = {
        "m1": 1e-23, "m2": 5e-23, "omega01": 1e13, "omega02": 3e13,
        "gamma1": 1e11, "gamma2": 1e11, "lambda_tilde": 0.3,
        "T1": 300.0, "T2": 300.0, "t_end": 3e-12, "n_points": 6,
        "f1_kind": "exponential_step", "f1_onset": onset, "f1_decay": decay,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfgd))
    out = tmp_path / "o"
    assert run_cli(["run", "custom", str(out), "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: force1: amplitude heuristic")
    assert err.count("\n") == 1
    assert not out.exists()
    p.write_text(json.dumps(dict(cfgd, f1_amplitude=1e-6)))
    assert run_cli(["run", "custom", str(out), "--config", str(p)]) == 0


def test_fractional_n_points_exit_code(tmp_path, capsys):
    cfgd = {
        "m1": 1e-23, "m2": 5e-23, "omega01": 1e13, "omega02": 3e13,
        "gamma1": 1e11, "gamma2": 1e11, "lambda_tilde": 0.2,
        "T1": 300.0, "T2": 300.0, "t_end": 5e-13, "n_points": 6.5,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfgd))
    rc = run_cli(["run", "custom", str(tmp_path / "o"), "--config", str(p)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: n_points")
    assert not (tmp_path / "o").exists()


def test_engine_error_exit_code(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise NotNormalizable("beta determinant <= 0")
    monkeypatch.setattr(engine, "simulate", fail)
    rc = run_cli(["run", "fig2", str(tmp_path / "o"), "--grid", "4"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: beta determinant")
    assert not (tmp_path / "o").exists()


def test_oversized_cutoff_exit_code(tmp_path, capsys):
    """A cutoff just above the cap is a configuration error (exit 2), found
    before the engine runs."""
    from duosc.config import MAX_CUTOFF_MULTIPLE
    out = tmp_path / "o"
    cutoff = repr(MAX_CUTOFF_MULTIPLE * (1.0 + 1e-9))
    assert run_cli(["run", "fig3", str(out), "--cutoff", cutoff]) == 2
    assert capsys.readouterr().err.startswith("error: bath1 cutoff")
    assert not out.exists()


def test_horizon_past_the_supported_gamma_t_exit_code(tmp_path, capsys):
    """gamma t_end = 400 would overflow exp(2 gamma t) in the bath noise:
    validation refuses it (exit 2) with one error line, before any float
    warning can arise."""
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["run", "fig3", str(out), "--t-end", "4e-9",
                      "--grid", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t_end") and err.count("\n") == 1
    assert "at most gamma t = 300" in err
    assert not out.exists()


def test_dump_action_on_a_caustic_exit_code(tmp_path, capsys):
    """The grid ends on a caustic: the states are computed, but the
    endpoint form of the action does not exist there, so the run exits 2
    without writing anything."""
    from duosc.config import to_internal, validate_config
    from duosc.modes import solve_determinant
    ic = to_internal(validate_config(preset_config("fig3")))
    t_end = 3.0 * math.pi / solve_determinant(ic).Omega1 * ic.units.time_unit
    out = tmp_path / "o"
    args = ["run", "fig3", str(out), "--grid", "8", "--t-end", repr(t_end)]
    assert run_cli(args + ["--dump-action"]) == 2
    assert capsys.readouterr().err.startswith("error: sin(Omega*t)")
    assert not out.exists()
    assert run_cli(args) == 0


def test_import_does_not_load_scipy():
    # a fresh interpreter that imports this same copy of the package and
    # runs a small simulation: scipy and the oracle stay off the
    # production path
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, numpy, duosc, duosc.cli\n"
            "from duosc.config import to_internal, validate_config\n"
            "cfg = validate_config(duosc.cli.preset_config('fig3'))\n"
            "ic = to_internal(cfg)\n"
            "times = numpy.linspace(0.0, ic.t_end, 4)\n"
            "assert len(duosc.engine.simulate(ic, times).states) == 4\n"
            "assert 'duosc.oracle' not in sys.modules\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
