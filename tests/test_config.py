import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from duosc.config import (HBAR, KB, MAX_CUTOFF_MULTIPLE, MAX_GAMMA_T,
                          BathParams,
                          ForceSpec, InternalConfig, InternalForce,
                          OscillatorParams, SystemConfig,
                          TimeGrid, config_from_dict, default_amplitude,
                          load_config, to_internal, validate_config)
from duosc.errors import (ConfigError, CouplingTooStrong, DegenerateModes,
                          DuoscError)


def from_internal(ic: InternalConfig) -> SystemConfig:
    """Inverse of to_internal, for round-trip checking."""
    u = ic.units

    def force_back(f: InternalForce) -> ForceSpec:
        if f.kind == "zero":
            return ForceSpec(kind="zero")
        if f.kind == "exponential_step":
            return ForceSpec(
                kind="exponential_step",
                amplitude=f.f0 * u.force_unit,
                onset=f.t0 * u.time_unit,
                decay=f.decay / u.time_unit,
            )
        return ForceSpec(
            kind="sampled",
            times=tuple(f.times * u.time_unit),
            values=tuple(f.values * u.force_unit),
        )

    return SystemConfig(
        osc1=OscillatorParams(
            mass=ic.m1 * u.mass_unit,
            eigenfrequency=ic.w01 * u.frequency_unit,
            damping_rate=ic.gamma1 * u.frequency_unit,
            initial_variance=ic.sigma01_sq * u.length_unit ** 2,
        ),
        osc2=OscillatorParams(
            mass=ic.m2 * u.mass_unit,
            eigenfrequency=ic.w02 * u.frequency_unit,
            damping_rate=ic.gamma2 * u.frequency_unit,
            initial_variance=ic.sigma02_sq * u.length_unit ** 2,
        ),
        bath1=BathParams(temperature=ic.T1 * u.temperature_unit,
                         cutoff=ic.numax1 * u.frequency_unit),
        bath2=BathParams(temperature=ic.T2 * u.temperature_unit,
                         cutoff=ic.numax2 * u.frequency_unit),
        coupling_dimensionless=ic.lam_tilde,
        force1=force_back(ic.force1),
        force2=force_back(ic.force2),
        time_grid=TimeGrid(t_end=ic.t_end * u.time_unit, n_points=ic.n_points),
    )


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


def test_validation_rejects_an_eigenfrequency_whose_square_overflows():
    """omega01 = 1e200 rad/s squared leaves the float range when the
    internal units are formed: a ConfigError naming the field, not a bare
    OverflowError."""
    with pytest.raises(ConfigError, match="^eigenfrequency must be"):
        OscillatorParams(mass=1e-23, eigenfrequency=1e200, damping_rate=0.0)


def test_validation_rejects_negative_temperature():
    cfg = make_cfg(bath1=BathParams(temperature=-1.0))
    with pytest.raises(ConfigError, match="T1 must be non-negative"):
        to_internal(validate_config(cfg))


def test_strong_coupling_rejected():
    with pytest.raises(CouplingTooStrong):
        validate_config(make_cfg(coupling_dimensionless=1.0))


def test_coupling_at_limit_keeps_constant_term_positive():
    ic = to_internal(validate_config(make_cfg(coupling_dimensionless=0.999)))
    d = (ic.w01 * ic.w02) ** 2 - ic.lam ** 2 / (ic.m1 * ic.m2)
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


def test_heuristic_amplitude_is_resolved_at_validation():
    """validate_config fills an amplitude = None step with the impulse
    heuristic and keeps an explicit one; to_internal only rescales."""
    step = ForceSpec(kind="exponential_step", onset=1e-13, decay=1e12)
    explicit = replace(step, amplitude=-2e-6)
    cfg = make_cfg(force1=step, force2=explicit)
    vc = validate_config(cfg)
    assert vc.force1.amplitude == default_amplitude(cfg.osc1, step)
    assert vc.force2 == explicit
    assert replace(vc, force1=step) == cfg
    ic = to_internal(vc)
    assert ic.force1.f0 == vc.force1.amplitude / ic.units.force_unit
    assert ic.force2.f0 == -2e-6 / ic.units.force_unit


@pytest.mark.parametrize("decay, onset, message", [
    (1e15, 1e-9, "overflows at decay\\*onset = 1e\\+06;"),
    (1e13, 7e-11, "overflows at decay\\*onset = 700;"),   # exp is finite
    (0.0, 1e-13, "needs a positive decay rate"),
])
def test_heuristic_amplitude_is_rejected_at_validation(decay, onset,
                                                        message):
    """A heuristic amplitude that is not a finite float, or that has no
    positive decay rate, is a ConfigError naming the force; an explicit
    amplitude is accepted."""
    step = ForceSpec(kind="exponential_step", onset=onset, decay=decay)
    with pytest.raises(ConfigError,
                       match=f"^force2: amplitude heuristic {message}"):
        validate_config(make_cfg(force2=step))
    validate_config(make_cfg(force2=replace(step, amplitude=1e-6)))


def test_heuristic_amplitude_needs_a_positive_initial_variance():
    """The impulse heuristic takes the square root of the initial variance,
    so a negative one is a ConfigError naming the force, not a bare math
    error; with an explicit amplitude the internal config refuses it."""
    osc = OscillatorParams(mass=1e-23, eigenfrequency=1e13,
                           damping_rate=1e11, initial_variance=-1e-20)
    step = ForceSpec(kind="exponential_step", onset=1e-13, decay=1e12)
    with pytest.raises(ConfigError, match="^force1: amplitude heuristic "
                       "needs a positive initial variance"):
        validate_config(make_cfg(osc1=osc, force1=step))
    with pytest.raises(ConfigError, match="^sigma01_sq must be positive"):
        to_internal(validate_config(make_cfg(
            osc1=osc, force1=replace(step, amplitude=1e-10))))


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
    # lam_tilde is read back from lam, which a subnormal coupling leaves
    # with too few significant bits to round-trip
    lt=st.floats(0.0, 0.9, allow_subnormal=False),
    T=st.floats(0.0, 2000.0),
)
def test_round_trip_property(m2, w2, lt, T):
    # w2 within 1e-6 of w1 can make the two modes coincide, which the
    # config refuses (DegenerateModes); further off, coupling only splits
    # them more
    assume(not math.isclose(w2, 1e13, rel_tol=1e-6))
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


NAN, INF = float("nan"), float("inf")
_STEP = ForceSpec(kind="exponential_step", amplitude=1e-10, onset=1e-13,
                  decay=1e12)
_SAMPLED = ForceSpec(kind="sampled", times=(0.0, 1e-12, 4e-12),
                     values=(0.0, 1e-10, 0.0))


@pytest.mark.parametrize("build", [
    lambda: make_cfg(force1=replace(_STEP, amplitude=NAN)),
    lambda: make_cfg(force1=replace(_STEP, amplitude=INF)),
    lambda: make_cfg(force1=replace(_STEP, onset=INF)),
    lambda: make_cfg(force1=replace(_STEP, decay=NAN)),
    lambda: make_cfg(force1=replace(_STEP, decay=INF)),
    lambda: make_cfg(force1=replace(_SAMPLED, times=(0.0, NAN, 4e-12))),
    lambda: make_cfg(force1=replace(_SAMPLED, values=(0.0, INF, 0.0))),
    lambda: make_cfg(bath1=BathParams(temperature=NAN)),
    lambda: make_cfg(bath2=BathParams(temperature=INF)),
    lambda: make_cfg(bath1=BathParams(temperature=300.0, cutoff=INF)),
    lambda: make_cfg(osc1=OscillatorParams(
        mass=1e-23, eigenfrequency=1e13, damping_rate=1e11,
        initial_variance=INF)),
    lambda: make_cfg(osc2=OscillatorParams(
        mass=5e-23, eigenfrequency=3e13, damping_rate=NAN)),
    lambda: make_cfg(time_grid=TimeGrid(t_end=INF)),
    lambda: make_cfg(coupling_dimensionless=NAN),
], ids=["amplitude-nan", "amplitude-inf", "onset-inf", "decay-nan",
        "decay-inf", "times-nan", "values-inf", "T-nan", "T-inf",
        "cutoff-inf", "initial_variance-inf", "damping-nan", "t_end-inf",
        "coupling-nan"])
def test_nonfinite_fields_are_rejected(build):
    with pytest.raises(ConfigError, match="finite"):
        validate_config(build())


@pytest.mark.parametrize("n_points", [6.5, 2.0, True, "64", None, 1, 0, -3])
def test_n_points_must_be_an_integer_of_at_least_two(n_points):
    cfg = make_cfg(time_grid=TimeGrid(t_end=3e-12, n_points=n_points))
    with pytest.raises(ConfigError, match="n_points"):
        to_internal(validate_config(cfg))


@pytest.mark.parametrize("n_points", [2, 64, np.int64(5)])
def test_integer_n_points_are_accepted(n_points):
    cfg = make_cfg(time_grid=TimeGrid(t_end=3e-12, n_points=n_points))
    assert to_internal(validate_config(cfg)).n_points == n_points


def test_sampled_force_must_cover_grid():
    cfg = make_cfg(force1=ForceSpec(kind="sampled",
                                    times=(0.0, 1e-12),
                                    values=(0.0, 1e-10)))
    with pytest.raises(ConfigError):
        to_internal(validate_config(cfg))


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
        to_internal(validate_config(cfg))


@pytest.mark.parametrize("bath", ["bath1", "bath2"])
def test_bath_cutoff_above_the_cap_is_rejected_at_validation(bath):
    """A cutoff above MAX_CUTOFF_MULTIPLE omega01 would ask the small-t
    layout for gigabytes; validation refuses it and accepts the cap."""
    w = make_cfg().osc1.eigenfrequency
    at_cap = MAX_CUTOFF_MULTIPLE * w
    ok = make_cfg(**{bath: BathParams(temperature=300.0, cutoff=at_cap)})
    assert to_internal(validate_config(ok)).numax1 > 0
    over = make_cfg(**{bath: BathParams(temperature=300.0,
                                        cutoff=at_cap * (1.0 + 1e-12))})
    with pytest.raises(ConfigError, match=f"{bath} cutoff"):
        to_internal(validate_config(over))


@pytest.mark.parametrize("horizon", ["t_end", "sampled", "onset"])
def test_horizon_past_max_gamma_t_is_rejected_at_validation(horizon):
    """exp(gamma t) leaves the float range near gamma t = 350: a grid end,
    a sampled force's last sample or a step's onset past MAX_GAMMA_T is a
    ConfigError naming the limit, and one at the limit is accepted."""
    limit = MAX_GAMMA_T / make_cfg().osc1.damping_rate

    def cfg(t):
        if horizon == "t_end":
            return make_cfg(time_grid=TimeGrid(t_end=t, n_points=5))
        if horizon == "sampled":
            return make_cfg(force1=ForceSpec(kind="sampled", times=(0.0, t),
                                             values=(0.0, 1e-10)))
        return make_cfg(force1=ForceSpec(kind="exponential_step",
                                         amplitude=1e-10, onset=t))

    to_internal(validate_config(cfg(limit)))
    with pytest.raises(ConfigError,
                       match=f"at most gamma t = {MAX_GAMMA_T:g} is"):
        to_internal(validate_config(cfg(limit * (1.0 + 1e-9))))


P = pytest.param
_BAD_INTERNAL = [
    P(dict(m2=-1.0), ConfigError, "m2", id="m2=-1"),
    P(dict(numax1=0.0), ConfigError, "numax1", id="numax1=0"),
    P(dict(numax1=-5.0), ConfigError, "numax1", id="numax1=-5"),
    P(dict(numax1=1e7, numax2=1e7), ConfigError, "numax1", id="numax=1e7"),
    P(dict(sigma01_sq=0.0), ConfigError, "sigma01_sq", id="sigma01_sq=0"),
    P(dict(sigma01_sq=-1.0), ConfigError, "sigma01_sq",
      id="sigma01_sq=-1"),
    P(dict(w02=NAN), ConfigError, "w02", id="w02=nan"),
    P(dict(T1=NAN), ConfigError, "T1", id="T1=nan"),
    P(dict(T1=-1.0), ConfigError, "T1", id="T1=-1"),
    P(dict(gamma1=-0.01, gamma2=-0.01), ConfigError, "gamma1",
      id="gamma=-0.01"),
    P(dict(gamma2=0.02), ConfigError, "gamma2", id="gamma2=0.02"),
    P(dict(gamma1=2.0, gamma2=2.0), DegenerateModes, "gamma1", id="gamma=2"),
    # below a float spacing of Omega2 = 3.0166 the bath layout's
    # bisection never ended
    P(dict(gamma1=1e-16, gamma2=1e-16), ConfigError, "gamma1",
      id="gamma=1e-16"),
    P(dict(gamma1=3e-16, gamma2=3e-16), ConfigError, "gamma1",
      id="gamma=3e-16"),
    P(dict(w02=1e200), ConfigError, "w02", id="w02=1e200"),
    P(dict(lam=100.0), CouplingTooStrong, "lam", id="lam=100"),
    P(dict(t_end=1e5), ConfigError, "t_end", id="t_end=1e5"),
    P(dict(force1=InternalForce(kind="exponential_step", f0=1.0, t0=-1.0)),
      ConfigError, "force1.t0", id="t0=-1"),
    P(dict(force2=InternalForce(kind="exponential_step", f0=1.0,
                                decay=-1.0)),
      ConfigError, "force2.decay", id="decay=-1"),
    P(dict(force1=InternalForce(kind="sampled",
                                times=np.array([0.0, 400.0, 200.0]),
                                values=np.zeros(3))),
      ConfigError, "force1.times", id="knots-out-of-order"),
    P(dict(force2=InternalForce(kind="sampled", times=np.zeros(0),
                                values=np.zeros(0))),
      ConfigError, "force2.times", id="no-knots"),
    P(dict(force1=InternalForce(kind="ramp")), ConfigError, "force1",
      id="kind=ramp"),
]


@pytest.mark.parametrize("changes, error, field", _BAD_INTERNAL)
def test_a_replaced_internal_config_checks_itself(ic_fig3, changes, error,
                                                  field):
    """An InternalConfig made by `dataclasses.replace` of a validated one
    passes through the same checks as `to_internal`: `replace` itself
    raises the typed error, naming the field, before any float warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DuoscError, match=rf"\b{re.escape(field)}\b") \
                as exc:
            replace(ic_fig3, **changes)
    assert type(exc.value) is error
