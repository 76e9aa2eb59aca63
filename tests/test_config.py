import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duosc.config import (HBAR, KB, BathParams, ForceSpec, OscillatorParams,
                          SystemConfig, TimeGrid, config_from_dict,
                          from_internal, load_config, to_internal,
                          validate_config)
from duosc.errors import ConfigError, CouplingTooStrong


def make_cfg(**kw):
    base = dict(
        osc1=OscillatorParams(mass=1e-23, eigenfrequency=1e13,
                              damping_rate=1e11),
        osc2=OscillatorParams(mass=5e-23, eigenfrequency=3e13,
                              damping_rate=1e11),
        bath1=BathParams(temperature=300.0),
        bath2=BathParams(temperature=300.0),
        coupling_dimensionless=0.3,
        force1=ForceSpec(kind="zero"),
        force2=ForceSpec(kind="zero"),
        time_grid=TimeGrid(t_end=3e-12, n_points=100),
    )
    base.update(kw)
    return SystemConfig(**base)


def test_validation_rejects_nonpositive_mass():
    with pytest.raises(ConfigError):
        OscillatorParams(mass=0.0, eigenfrequency=1e13, damping_rate=0.0)


def test_validation_rejects_negative_temperature():
    with pytest.raises(ConfigError):
        BathParams(temperature=-1.0)


def test_strong_coupling_rejected():
    with pytest.raises(CouplingTooStrong):
        validate_config(make_cfg(coupling_dimensionless=1.0))


def test_coupling_at_limit_keeps_constant_term_positive():
    vc = validate_config(make_cfg(coupling_dimensionless=0.999))
    o1, o2 = vc.cfg.osc1, vc.cfg.osc2
    d = (o1.eigenfrequency * o2.eigenfrequency) ** 2 \
        - vc.coupling ** 2 / (o1.mass * o2.mass)
    assert d > 0


def test_internal_temperature_scale():
    # kB * 300 K / (hbar * 1e13 rad/s)
    ic = to_internal(validate_config(make_cfg()))
    expected = KB * 300.0 / (HBAR * 1e13)
    assert math.isclose(ic.T1, expected, rel_tol=1e-12)
    assert math.isclose(ic.T1, 3.9276101762161924, rel_tol=1e-12)


def test_ground_state_variance_is_half_internal():
    ic = to_internal(validate_config(make_cfg()))
    assert math.isclose(ic.sigma01_sq, 0.5, rel_tol=1e-12)
    # second oscillator: hbar / (2 m2 w02) in its own units
    assert math.isclose(ic.sigma02_sq, 0.5 / (5.0 * 3.0), rel_tol=1e-12)


def test_internal_coupling_value():
    ic = to_internal(validate_config(make_cfg()))
    assert math.isclose(ic.lam, 0.3 * 1.0 * 3.0 * math.sqrt(5.0),
                        rel_tol=1e-12)


def test_amplitude_heuristic_internal_value():
    cfg = make_cfg(force1=ForceSpec(kind="exponential_step",
                                    onset=1e-13, decay=1e12))
    ic = to_internal(validate_config(cfg))
    # decay * exp(decay*t0) * m * w0 * sigma0, all internal
    expected = 0.1 * math.exp(0.1) * 1.0 * 1.0 * math.sqrt(0.5)
    assert math.isclose(ic.force1.f0, expected, rel_tol=1e-12)
    assert math.isclose(ic.force1.f0, 0.07814738505414529, rel_tol=1e-12)


def test_round_trip_internal_physical():
    cfg = make_cfg(force1=ForceSpec(kind="exponential_step",
                                    amplitude=2.5e-10, onset=1e-13,
                                    decay=1e12))
    ic = to_internal(validate_config(cfg))
    back = from_internal(ic)
    assert math.isclose(back.osc1.mass, cfg.osc1.mass, rel_tol=1e-12)
    assert math.isclose(back.osc2.eigenfrequency, cfg.osc2.eigenfrequency,
                        rel_tol=1e-12)
    assert math.isclose(back.force1.amplitude, 2.5e-10, rel_tol=1e-12)
    assert math.isclose(back.time_grid.t_end, 3e-12, rel_tol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    m2=st.floats(1e-24, 1e-21),
    w2=st.floats(2e12, 8e13),
    lt=st.floats(0.0, 0.9),
    T=st.floats(0.0, 2000.0),
)
def test_round_trip_property(m2, w2, lt, T):
    cfg = make_cfg(
        osc2=OscillatorParams(mass=m2, eigenfrequency=w2, damping_rate=1e11),
        bath2=BathParams(temperature=T),
        coupling_dimensionless=lt,
    )
    ic = to_internal(validate_config(cfg))
    back = from_internal(ic)
    assert math.isclose(back.osc2.mass, m2, rel_tol=1e-10)
    assert math.isclose(back.osc2.eigenfrequency, w2, rel_tol=1e-10)
    assert math.isclose(back.bath2.temperature, T, rel_tol=1e-10,
                        abs_tol=1e-12)
    assert math.isclose(ic.lam_tilde, lt, rel_tol=1e-12, abs_tol=0.0)


def test_sampled_force_must_cover_grid():
    cfg = make_cfg(force1=ForceSpec(kind="sampled",
                                    times=(0.0, 1e-12),
                                    values=(0.0, 1e-10)))
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_load_config_json(tmp_path):
    d = {
        "m1": 1e-23, "m2": 5e-23, "omega01": 1e13, "omega02": 3e13,
        "gamma1": 1e11, "gamma2": 1e11, "lambda_tilde": 0.3,
        "T1": 300.0, "T2": 900.0, "t_end": 3e-12, "n_points": 64,
        "f1_kind": "exponential_step", "f1_onset": 1e-13, "f1_decay": 1e12,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))
    cfg = load_config(str(p))
    assert cfg.bath2.temperature == 900.0
    assert cfg.force1.kind == "exponential_step"
    assert cfg.force2.kind == "zero"
    assert cfg.time_grid.n_points == 64


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_config_from_dict_missing_key():
    with pytest.raises(KeyError):
        config_from_dict({"m1": 1e-23})


def test_unequal_damping_rejected_at_validation():
    cfg = make_cfg(osc2=OscillatorParams(mass=5e-23, eigenfrequency=3e13,
                                         damping_rate=2e11))
    with pytest.raises(ConfigError, match="damping"):
        validate_config(cfg)
