import logging
import math

import numpy as np
import pytest

from duosc.engine import simulate, simulate_validated, state_at
from duosc.errors import ConfigError

from test_modes import make_ic


def test_simulation_grid_and_columns(ic_fig3):
    times = np.linspace(0.0, 6.0, 7)
    res = simulate(ic_fig3, times=times)
    assert res.times.shape == (7,)
    assert len(res.states) == 7 and len(res.reports) == 7
    col = res.column("var_x1")
    assert col.shape == (7,)
    assert math.isclose(col[0], ic_fig3.sigma01_sq, rel_tol=1e-12)


def test_threaded_equals_serial(ic_fig3):
    times = np.linspace(0.0, 9.0, 13)
    a = simulate(ic_fig3, times=times, threads=1)
    b = simulate(ic_fig3, times=times, threads=4)
    for name in ("mean_x1", "mean_p2", "var_x1", "var_p2", "cov_x1x2"):
        np.testing.assert_array_equal(a.column(name), b.column(name))


def test_caustic_grid_point_is_nudged_not_dropped(ic_fig3, modes_fig3,
                                                  caplog):
    t_caustic = math.pi / modes_fig3.Omega1
    with caplog.at_level(logging.WARNING, logger="duosc"):
        res = simulate(ic_fig3, times=np.array([1.0, t_caustic]))
    assert len(res.states) == 2
    s = res.states[1]
    assert np.isfinite(s.g1) and s.g1 > 0
    # nudge is ~1e-6 of a period, so the state is still "at" that time
    assert abs(s.t - t_caustic) < 1e-5
    # the nudge is recorded and logged, not silent
    assert res.nudged == (1,)
    assert s.t != t_caustic and res.states[0].t == 1.0
    assert [r.name for r in caplog.records] == ["duosc"]
    assert "caustic" in caplog.records[0].getMessage()


def test_regular_grid_has_no_nudges(ic_fig3):
    res = simulate(ic_fig3, times=np.linspace(0.0, 6.0, 4))
    assert res.nudged == ()


def test_simulate_validated_roundtrip():
    from duosc.cli import preset_config
    from duosc.config import TimeGrid, validate_config
    from dataclasses import replace
    cfg = preset_config("fig2")
    cfg = replace(cfg, time_grid=TimeGrid(t_end=3e-13, n_points=5))
    res = simulate_validated(validate_config(cfg))
    assert len(res.states) == 5
    assert res.times[0] == 0.0


def test_state_at_negative_time_returns_initial(ic_fig3, modes_fig3):
    s = state_at(ic_fig3, modes_fig3, -1.0)
    assert s.t == 0.0 and s.mx1 == 0.0
