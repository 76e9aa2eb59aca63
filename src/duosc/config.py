"""Physical parameters, validation, and normalization to internal units.

All user-facing quantities are CGS (g, cm, s, rad/s, K, dyn).  Internally the
package works in units where hbar = M1 = omega01 = 1, so that every quantity
fed to the numerics is O(1) instead of O(1e-27).  Temperatures enter the
dynamics only through the dimensionless ratio hbar*omega / (2 kB T).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, CouplingTooStrong

# CODATA 2018, CGS
HBAR = 1.054571817e-27  # erg s
KB = 1.380649e-16       # erg / K

#: default bath cutoff, as a multiple of omega01
DEFAULT_CUTOFF_MULTIPLE = 50.0


@dataclass(frozen=True)
class OscillatorParams:
    """One oscillator: mass (g), eigenfrequency (rad/s), damping rate (rad/s),
    optional initial spatial variance (cm^2, defaults to hbar/2*m*omega)."""
    mass: float
    eigenfrequency: float
    damping_rate: float
    initial_variance: Optional[float] = None

    def __post_init__(self):
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
                               (see forcing.default_amplitude).
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


@dataclass(frozen=True)
class TimeGrid:
    t_end: float
    n_points: int = 2000

    def __post_init__(self):
        if not (self.t_end > 0):
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if self.n_points < 2:
            raise ConfigError(f"n_points must be >= 2, got {self.n_points}")


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
    """A SystemConfig whose invariants have been checked, with the physical
    coupling constant and unit scales attached."""
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
    """Check all invariants and compute the physical coupling constant."""
    lt = cfg.coupling_dimensionless
    if not (0.0 <= lt):
        raise ConfigError(f"coupling_dimensionless must be >= 0, got {lt}")
    if lt >= 1.0:
        raise CouplingTooStrong(
            f"coupling_dimensionless = {lt} >= 1: the bilinear-coupling model "
            "breaks down (quartic constant term d would be non-positive)")
    o1, o2 = cfg.osc1, cfg.osc2
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
    for spec in (cfg.force1, cfg.force2):
        if spec.kind == "sampled":
            if spec.times[0] > 0.0 or spec.times[-1] < cfg.time_grid.t_end:
                raise ConfigError(
                    "sampled force grid must cover [0, t_end]")
    units = InternalUnits.for_reference(o1.mass, o1.eigenfrequency)
    return ValidatedConfig(cfg=cfg, coupling=lam, units=units)


def _force_to_internal(spec: ForceSpec, units: InternalUnits) -> InternalForce:
    if spec.kind == "zero":
        return InternalForce(kind="zero")
    if spec.kind == "exponential_step":
        f0 = None if spec.amplitude is None else spec.amplitude / units.force_unit
        return InternalForce(
            kind="exponential_step",
            f0=f0,
            t0=spec.onset / units.time_unit,
            decay=spec.decay * units.time_unit,
        )
    times = np.asarray(spec.times, dtype=float) / units.time_unit
    values = np.asarray(spec.values, dtype=float) / units.force_unit
    return InternalForce(kind="sampled", times=times, values=values)


def to_internal(v: ValidatedConfig) -> InternalConfig:
    """Rescale a validated config to hbar = M1 = omega01 = 1 units.

    Amplitude heuristics (force amplitude = None) are resolved here so that
    the downstream numerics only ever see concrete numbers.
    """
    from .forcing import default_amplitude_internal

    cfg, units = v.cfg, v.units
    o1, o2, b1, b2 = cfg.osc1, cfg.osc2, cfg.bath1, cfg.bath2
    w = units.frequency_unit
    m = units.mass_unit
    numax1 = (b1.cutoff / w) if b1.cutoff is not None else DEFAULT_CUTOFF_MULTIPLE
    numax2 = (b2.cutoff / w) if b2.cutoff is not None else DEFAULT_CUTOFF_MULTIPLE
    ic = InternalConfig(
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
    # resolve amplitude heuristics
    f1, f2 = ic.force1, ic.force2
    if f1.kind == "exponential_step" and f1.f0 is None:
        f1 = replace(f1, f0=default_amplitude_internal(
            ic.m1, ic.w01, math.sqrt(ic.sigma01_sq), f1))
    if f2.kind == "exponential_step" and f2.f0 is None:
        f2 = replace(f2, f0=default_amplitude_internal(
            ic.m2, ic.w02, math.sqrt(ic.sigma02_sq), f2))
    return replace(ic, force1=f1, force2=f2)


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


# ---------------------------------------------------------------------------
# flat key-value config files (JSON-compatible, CGS units)

_FORCE_KEYS = ("kind", "amplitude", "onset", "decay", "samples")


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
    data = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
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
