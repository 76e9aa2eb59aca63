"""Physical parameters, validation, and normalization to internal units.

All user-facing quantities are CGS (g, cm, s, rad/s, K, dyn).  Internally the
package works in units where hbar = M1 = omega01 = 1, so that every quantity
fed to the numerics is O(1) instead of O(1e-27).  Temperatures enter the
dynamics only through the dimensionless ratio hbar*omega / (2 kB T).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, CouplingTooStrong

# CODATA 2018, CGS
HBAR = 1.054571817e-27  # erg s
KB = 1.380649e-16       # erg / K

#: default bath cutoff, as a multiple of omega01
DEFAULT_CUTOFF_MULTIPLE = 50.0
#: largest accepted bath cutoff, as a multiple of omega01: the small-t
#: layout grows linearly with it, and a 64-time call at this cutoff already
#: peaks at about 0.1 GB
MAX_CUTOFF_MULTIPLE = 1e5
#: largest supported damping rate times time.  The bath noise carries
#: exp(2 gamma t), the flow exp(-gamma t), and a sampled force's knots and
#: an exponential step's onset exp(gamma t); near gamma t = 350 they leave
#: the float range.  Every cutoff up to the cap runs clean at this limit,
#: where the state has long been stationary.
MAX_GAMMA_T = 300.0


def _finite_real(value) -> bool:
    """A real number, not a bool, within the float range."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _require_finite(*, optional=(), sequences=(), **fields) -> None:
    """ConfigError unless every given value is a finite real number.  A
    field named in `optional` may be None instead, and one named in
    `sequences` is a sequence of such numbers."""
    for name, value in fields.items():
        if value is None and name in optional:
            continue
        if name not in sequences:
            if not _finite_real(value):
                raise ConfigError(
                    f"{name} must be a finite real number, got {value!r}")
        elif (isinstance(value, str)
              or not isinstance(value, (Sequence, np.ndarray))
              or not all(map(_finite_real, value))):
            raise ConfigError(
                f"every entry of {name} must be a finite real number")


@dataclass(frozen=True)
class OscillatorParams:
    """One oscillator: mass (g), eigenfrequency (rad/s), damping rate (rad/s),
    optional initial spatial variance (cm^2, defaults to hbar/2*m*omega)."""
    mass: float
    eigenfrequency: float
    damping_rate: float
    initial_variance: Optional[float] = None

    def __post_init__(self):
        _require_finite(mass=self.mass, eigenfrequency=self.eigenfrequency,
                        damping_rate=self.damping_rate,
                        initial_variance=self.initial_variance,
                        optional=("initial_variance",))
        if not (self.mass > 0):
            raise ConfigError(f"mass must be positive, got {self.mass}")
        if not (self.eigenfrequency > 0):
            raise ConfigError(
                f"eigenfrequency must be positive, got {self.eigenfrequency}")
        if self.damping_rate < 0:
            raise ConfigError(
                f"damping_rate must be non-negative, got {self.damping_rate}")
        if self.initial_variance is not None and not (self.initial_variance > 0):
            raise ConfigError(
                f"initial_variance must be positive, got {self.initial_variance}")

    @property
    def ground_state_variance(self) -> float:
        return HBAR / (2.0 * self.mass * self.eigenfrequency)

    @property
    def sigma0_sq(self) -> float:
        if self.initial_variance is not None:
            return self.initial_variance
        return self.ground_state_variance


@dataclass(frozen=True)
class BathParams:
    """One heat bath: temperature (K) and cutoff frequency (rad/s).

    T = 0 is allowed; the thermal coth factor is then taken to 1 analytically.
    cutoff = None means "use the package default multiple of omega01".
    """
    temperature: float
    cutoff: Optional[float] = None

    def __post_init__(self):
        _require_finite(temperature=self.temperature, cutoff=self.cutoff,
                        optional=("cutoff",))
        if self.temperature < 0:
            raise ConfigError(
                f"temperature must be non-negative, got {self.temperature}")
        if self.cutoff is not None and not (self.cutoff > 0):
            raise ConfigError(f"cutoff must be positive, got {self.cutoff}")


@dataclass(frozen=True)
class ForceSpec:
    """External force on one oscillator.

    kind = "zero":             no force.
    kind = "exponential_step": f(tau) = f0 * theta(tau - t0) * exp(-decay*tau),
                               amplitudes in dyn, times in s, decay in rad/s.
                               amplitude = None picks the impulse heuristic
                               (`default_amplitude`), which
                               `validate_config` fills in.
    kind = "sampled":          linear interpolation of (times, values) samples;
                               zero outside the sampled range.
    """
    kind: str = "zero"
    amplitude: Optional[float] = None
    onset: float = 0.0
    decay: float = 0.0
    times: Optional[Tuple[float, ...]] = None
    values: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in ("zero", "exponential_step", "sampled"):
            raise ConfigError(f"unknown force kind {self.kind!r}")
        _require_finite(amplitude=self.amplitude, onset=self.onset,
                        decay=self.decay, times=self.times,
                        values=self.values,
                        optional=("amplitude", "times", "values"),
                        sequences=("times", "values"))
        if self.onset < 0:
            raise ConfigError(f"onset must be non-negative, got {self.onset}")
        if self.decay < 0:
            raise ConfigError(f"decay must be non-negative, got {self.decay}")
        if self.kind == "sampled":
            if self.times is None or self.values is None:
                raise ConfigError("sampled force needs times and values")
            if len(self.times) != len(self.values) or len(self.times) < 2:
                raise ConfigError("sampled force needs >= 2 (time, value) pairs")
            if any(b <= a for a, b in zip(self.times, self.times[1:])):
                raise ConfigError("sampled force times must increase strictly")


def default_amplitude(osc: OscillatorParams, force: ForceSpec) -> float:
    """Amplitude (dyn) making the integrated impulse of an exponential step
    equal the oscillator's momentum scale.

    The impulse is approximately f0 * exp(-decay*t0) / decay; setting it to
    mass*w0*sigma0 gives f0 = decay * exp(decay*t0) * mass * w0 * sigma0.
    (The heuristic as printed in the source material equates a force
    amplitude with length*rate, which is dimensionally short one
    mass*frequency factor; this is the impulse reading of it.  An explicit
    amplitude bypasses the heuristic entirely.)  ConfigError unless the
    decay rate is positive and the amplitude a finite float.
    """
    if not (force.decay > 0):
        raise ConfigError("amplitude heuristic needs a positive decay rate")
    try:
        amp = (force.decay * math.exp(force.decay * force.onset)
               * osc.mass * osc.eigenfrequency * math.sqrt(osc.sigma0_sq))
    except OverflowError:
        amp = math.inf
    if not math.isfinite(amp):
        raise ConfigError(
            "amplitude heuristic overflows at decay*onset = "
            f"{force.decay * force.onset:.6g}; give an explicit amplitude")
    return amp


@dataclass(frozen=True)
class TimeGrid:
    t_end: float
    n_points: int = 2000

    def __post_init__(self):
        # bool is an int subclass; numpy integers are not
        if (isinstance(self.n_points, bool)
                or not isinstance(self.n_points, (int, np.integer))
                or self.n_points < 2):
            raise ConfigError(
                f"n_points must be an integer >= 2, got {self.n_points!r}")
        _require_finite(t_end=self.t_end)
        if not (self.t_end > 0):
            raise ConfigError(f"t_end must be positive, got {self.t_end}")


@dataclass(frozen=True)
class SystemConfig:
    osc1: OscillatorParams
    osc2: OscillatorParams
    bath1: BathParams
    bath2: BathParams
    coupling_dimensionless: float
    force1: ForceSpec
    force2: ForceSpec
    time_grid: TimeGrid


@dataclass(frozen=True)
class InternalUnits:
    """Scale factors between CGS and internal (hbar = M1 = omega01 = 1) units.

    The length unit is sqrt(hbar / M1 omega01), which is the unique choice
    that sets hbar itself to 1; note the oscillator ground-state variance is
    then 0.5 internal, not 1.
    """
    time_unit: float     # s
    mass_unit: float     # g
    length_unit: float   # cm
    frequency_unit: float  # rad/s
    force_unit: float    # dyn
    momentum_unit: float  # g cm/s
    energy_unit: float   # erg
    temperature_unit: float  # K, so that internal T = kB*T/(hbar*omega01)

    @classmethod
    def for_reference(cls, mass: float, frequency: float) -> "InternalUnits":
        length = math.sqrt(HBAR / (mass * frequency))
        return cls(
            time_unit=1.0 / frequency,
            mass_unit=mass,
            length_unit=length,
            frequency_unit=frequency,
            force_unit=mass * frequency ** 2 * length,
            momentum_unit=mass * frequency * length,
            energy_unit=HBAR * frequency,
            temperature_unit=HBAR * frequency / KB,
        )


@dataclass(frozen=True)
class ValidatedConfig:
    """A SystemConfig whose invariants have been checked and whose heuristic
    force amplitudes are filled in, with the physical coupling constant and
    unit scales attached."""
    cfg: SystemConfig
    coupling: float        # lambda, CGS (dyn/cm = g/s^2)
    units: InternalUnits


@dataclass(frozen=True)
class InternalForce:
    kind: str
    f0: float = 0.0
    t0: float = 0.0
    decay: float = 0.0
    times: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    @property
    def is_zero(self) -> bool:
        if self.kind == "zero":
            return True
        if self.kind == "exponential_step":
            return self.f0 == 0.0
        return bool(np.all(self.values == 0.0))


@dataclass(frozen=True)
class InternalConfig:
    """Everything in hbar = M1 = omega01 = 1 units."""
    m1: float
    m2: float
    w01: float
    w02: float
    gamma1: float
    gamma2: float
    lam: float
    lam_tilde: float
    T1: float          # kB T1 / (hbar omega01)
    T2: float
    numax1: float
    numax2: float
    sigma01_sq: float
    sigma02_sq: float
    force1: InternalForce
    force2: InternalForce
    t_end: float
    n_points: int
    units: InternalUnits = field(repr=False, default=None)

    @property
    def hbar(self) -> float:
        return 1.0


def validate_config(cfg: SystemConfig) -> ValidatedConfig:
    """Check all invariants, resolve every heuristic force amplitude and
    compute the physical coupling constant."""
    lt = cfg.coupling_dimensionless
    _require_finite(coupling_dimensionless=lt)
    if not (0.0 <= lt):
        raise ConfigError(f"coupling_dimensionless must be >= 0, got {lt}")
    if lt >= 1.0:
        raise CouplingTooStrong(
            f"coupling_dimensionless = {lt} >= 1: the bilinear-coupling model "
            "breaks down (quartic constant term d would be non-positive)")
    o1, o2 = cfg.osc1, cfg.osc2
    for name, bath in (("bath1", cfg.bath1), ("bath2", cfg.bath2)):
        if bath.cutoff is not None \
                and bath.cutoff > MAX_CUTOFF_MULTIPLE * o1.eigenfrequency:
            raise ConfigError(
                f"{name} cutoff is {bath.cutoff / o1.eigenfrequency:.6g} "
                f"omega01; at most {MAX_CUTOFF_MULTIPLE:g} omega01 is "
                "supported")
    if not math.isclose(o1.damping_rate, o2.damping_rate, rel_tol=1e-12):
        raise ConfigError(
            "damping rates must be equal (got "
            f"{o1.damping_rate} and {o2.damping_rate}); the closed-form "
            "engine does not support unequal damping")
    lam = lt * o1.eigenfrequency * o2.eigenfrequency * math.sqrt(o1.mass * o2.mass)
    # d = w01^2 w02^2 - lam^2/(M1 M2) must stay positive
    d = (o1.eigenfrequency * o2.eigenfrequency) ** 2 - lam ** 2 / (o1.mass * o2.mass)
    if not (d > 0):
        raise CouplingTooStrong(f"quartic constant term d = {d} <= 0")
    gamma = max(o1.damping_rate, o2.damping_rate)
    horizons = [("t_end", cfg.time_grid.t_end)]
    for name, spec in (("force1", cfg.force1), ("force2", cfg.force2)):
        if spec.kind == "sampled":
            if spec.times[0] > 0.0 or spec.times[-1] < cfg.time_grid.t_end:
                raise ConfigError(
                    "sampled force grid must cover [0, t_end]")
            horizons.append((f"{name}'s last sample time", spec.times[-1]))
        elif spec.kind == "exponential_step":
            horizons.append((f"{name}'s onset", spec.onset))
    for name, t in horizons:
        if gamma * t > MAX_GAMMA_T:
            raise ConfigError(
                f"{name} is {t:.6g} s, gamma t = {gamma * t:.6g}; at most "
                f"gamma t = {MAX_GAMMA_T:g} is supported")
    for name, osc in (("force1", o1), ("force2", o2)):
        spec = getattr(cfg, name)
        if spec.kind == "exponential_step" and spec.amplitude is None:
            try:
                amp = default_amplitude(osc, spec)
            except ConfigError as exc:
                raise ConfigError(f"{name}: {exc}") from None
            cfg = replace(cfg, **{name: replace(spec, amplitude=amp)})
    units = InternalUnits.for_reference(o1.mass, o1.eigenfrequency)
    return ValidatedConfig(cfg=cfg, coupling=lam, units=units)


def _force_to_internal(spec: ForceSpec, units: InternalUnits) -> InternalForce:
    if spec.kind == "zero":
        return InternalForce(kind="zero")
    if spec.kind == "exponential_step":
        return InternalForce(
            kind="exponential_step",
            f0=spec.amplitude / units.force_unit,
            t0=spec.onset / units.time_unit,
            decay=spec.decay * units.time_unit,
        )
    times = np.asarray(spec.times, dtype=float) / units.time_unit
    values = np.asarray(spec.values, dtype=float) / units.force_unit
    return InternalForce(kind="sampled", times=times, values=values)


def to_internal(v: ValidatedConfig) -> InternalConfig:
    """Rescale a validated config to hbar = M1 = omega01 = 1 units; every
    force amplitude is a number by then (`validate_config`)."""
    cfg, units = v.cfg, v.units
    o1, o2, b1, b2 = cfg.osc1, cfg.osc2, cfg.bath1, cfg.bath2
    w = units.frequency_unit
    m = units.mass_unit
    numax1 = (b1.cutoff / w) if b1.cutoff is not None else DEFAULT_CUTOFF_MULTIPLE
    numax2 = (b2.cutoff / w) if b2.cutoff is not None else DEFAULT_CUTOFF_MULTIPLE
    return InternalConfig(
        m1=o1.mass / m,
        m2=o2.mass / m,
        w01=o1.eigenfrequency / w,
        w02=o2.eigenfrequency / w,
        gamma1=o1.damping_rate / w,
        gamma2=o2.damping_rate / w,
        lam=v.coupling / (m * w ** 2),
        lam_tilde=cfg.coupling_dimensionless,
        T1=b1.temperature / units.temperature_unit,
        T2=b2.temperature / units.temperature_unit,
        numax1=numax1,
        numax2=numax2,
        sigma01_sq=o1.sigma0_sq / units.length_unit ** 2,
        sigma02_sq=o2.sigma0_sq / units.length_unit ** 2,
        force1=_force_to_internal(cfg.force1, units),
        force2=_force_to_internal(cfg.force2, units),
        t_end=cfg.time_grid.t_end / units.time_unit,
        n_points=cfg.time_grid.n_points,
        units=units,
    )


# ---------------------------------------------------------------------------
# flat key-value config files (JSON-compatible, CGS units)

def _force_from_dict(d: dict, prefix: str) -> ForceSpec:
    kind = d.get(f"{prefix}_kind", "zero")
    if kind == "zero":
        return ForceSpec(kind="zero")
    if kind == "exponential_step":
        return ForceSpec(
            kind="exponential_step",
            amplitude=d.get(f"{prefix}_amplitude"),
            onset=d.get(f"{prefix}_onset", 0.0),
            decay=d.get(f"{prefix}_decay", 0.0),
        )
    if kind == "sampled":
        path = d[f"{prefix}_samples"]
        times, values = load_force_samples(path)
        return ForceSpec(kind="sampled", times=times, values=values)
    raise ConfigError(f"unknown force kind {kind!r} for {prefix}")


def load_force_samples(path: str) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Read a two-column (time, value) CSV in CGS units."""
    try:
        data = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: not a numeric CSV ({exc})") from None
    if data.shape[1] != 2:
        raise ConfigError(f"{path}: expected two columns (time, value)")
    return tuple(data[:, 0]), tuple(data[:, 1])


def load_config(path: str) -> SystemConfig:
    """Load a SystemConfig from a flat JSON key-value file (CGS units)."""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: top level must be a key-value mapping")
    try:
        return config_from_dict(d)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing required key {exc}") from exc


def config_from_dict(d: dict) -> SystemConfig:
    return SystemConfig(
        osc1=OscillatorParams(
            mass=d["m1"], eigenfrequency=d["omega01"],
            damping_rate=d["gamma1"],
            initial_variance=d.get("sigma01_sq")),
        osc2=OscillatorParams(
            mass=d["m2"], eigenfrequency=d["omega02"],
            damping_rate=d["gamma2"],
            initial_variance=d.get("sigma02_sq")),
        bath1=BathParams(temperature=d["T1"], cutoff=d.get("cutoff1")),
        bath2=BathParams(temperature=d["T2"], cutoff=d.get("cutoff2")),
        coupling_dimensionless=d.get("lambda_tilde", 0.0),
        force1=_force_from_dict(d, "f1"),
        force2=_force_from_dict(d, "f2"),
        time_grid=TimeGrid(t_end=d["t_end"], n_points=d.get("n_points", 2000)),
    )
