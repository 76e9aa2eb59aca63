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
import warnings
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
#: largest eigenfrequency or damping rate (rad/s as given, omega01 inside):
#: the unit scales and the mode solve multiply two squares of them
MAX_FREQUENCY = 1e75
#: smallest nonzero damping rate, in float spacings of the larger mode
#: frequency: the bath layout bisects panels there to widths of about
#: gamma, and below one spacing a bisection never ends
MIN_GAMMA_SPACINGS = 16


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
        if not (0 < self.eigenfrequency <= MAX_FREQUENCY):
            raise ConfigError(
                f"eigenfrequency must be positive and at most "
                f"{MAX_FREQUENCY:g} rad/s, got {self.eigenfrequency}")

    @property
    def sigma0_sq(self) -> float:
        if self.initial_variance is not None:
            return self.initial_variance
        return HBAR / (2.0 * self.mass * self.eigenfrequency)


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
        if self.kind == "sampled" and (
                self.times is None or self.values is None
                or len(self.times) != len(self.values)):
            raise ConfigError("sampled force needs as many times as values")


def default_amplitude(osc: OscillatorParams, force: ForceSpec) -> float:
    """Amplitude (dyn) making the integrated impulse of an exponential step
    equal the oscillator's momentum scale.

    The impulse is approximately f0 * exp(-decay*t0) / decay; setting it to
    mass*w0*sigma0 gives f0 = decay * exp(decay*t0) * mass * w0 * sigma0.
    (The heuristic as printed in the source material equates a force
    amplitude with length*rate, which is dimensionally short one
    mass*frequency factor; this is the impulse reading of it.  An explicit
    amplitude bypasses the heuristic entirely.)  ConfigError unless the
    decay rate and the initial variance are positive and the amplitude a
    finite float.
    """
    if not (force.decay > 0):
        raise ConfigError("amplitude heuristic needs a positive decay rate")
    if not (osc.sigma0_sq > 0):     # its square root is the length scale
        raise ConfigError("amplitude heuristic needs a positive initial "
                          f"variance, got {osc.sigma0_sq}")
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
        _require_finite(t_end=self.t_end)


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

    def __post_init__(self):
        _require_finite(coupling_dimensionless=self.coupling_dimensionless)


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
            temperature_unit=HBAR * frequency / KB,
        )


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


def _knot_horizon(name: str, f: InternalForce, t_end: float) -> list:
    """ConfigError naming force `name` unless its kind is known and, if it
    is sampled, its knots are finite and increase strictly over [0, t_end];
    else its last knot, where a sampled force needs exp(gamma t)."""
    if f.kind != "sampled":
        if f.kind not in ("zero", "exponential_step"):
            raise ConfigError(f"{name} has unknown kind {f.kind!r}")
        return []
    keys = (f"{name}.times", f"{name}.values")
    _require_finite(**dict(zip(keys, (f.times, f.values))), sequences=keys)
    if (len(f.times) < 2 or len(f.times) != len(f.values)
            or f.times[0] > 0.0 or f.times[-1] < t_end
            or np.any(np.diff(f.times) <= 0.0)):
        raise ConfigError(f"{name}.times must increase strictly from <= 0 "
                          f"to >= t_end, one per entry of {name}.values")
    return [(f"{name}'s last knot", f.times[-1])]


@dataclass(frozen=True)
class InternalConfig:
    """A physical configuration in hbar = M1 = omega01 = 1 units.

    However it is made (`to_internal`, by hand, `dataclasses.replace`), it
    checks on construction every invariant of the closed-form state (README,
    Library use), raising a typed error that names the field: ConfigError,
    CouplingTooStrong (d = w01^2 w02^2 - lam^2 / (m1 m2) <= 0), or
    DegenerateModes (`modes.solve_determinant`).
    """
    m1: float
    m2: float
    w01: float
    w02: float
    gamma1: float
    gamma2: float
    lam: float
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

    def __post_init__(self):
        v = dict(vars(self), **{f"{n}.{k}": getattr(getattr(self, n), k)
                                for n in ("force1", "force2")
                                for k in ("f0", "t0", "decay")})
        positive = ("m1", "m2", "w01", "w02", "sigma01_sq", "sigma02_sq",
                    "numax1", "numax2", "t_end")
        non_negative = ("gamma1", "gamma2", "lam", "T1", "T2", "force1.t0",
                        "force1.decay", "force2.t0", "force2.decay")
        _require_finite(**{k: v[k] for k in positive + non_negative
                           + ("force1.f0", "force2.f0")})
        for k in positive:
            if not (v[k] > 0):
                raise ConfigError(f"{k} must be positive, got {v[k]}")
        for k in non_negative:
            if v[k] < 0:
                raise ConfigError(f"{k} must be non-negative, got {v[k]}")
        for k in ("w01", "w02", "gamma1", "gamma2"):
            if v[k] > MAX_FREQUENCY:
                raise ConfigError(f"{k} is {v[k]:.6g} omega01; at most "
                                  f"{MAX_FREQUENCY:g} is supported")
        for k in (1, 2):
            if v[f"numax{k}"] > MAX_CUTOFF_MULTIPLE:
                raise ConfigError(
                    f"bath{k} cutoff numax{k} is {v[f'numax{k}']:.6g} "
                    f"omega01; at most {MAX_CUTOFF_MULTIPLE:g} is supported")
        if not math.isclose(self.gamma1, self.gamma2, rel_tol=1e-12):
            raise ConfigError(f"damping rates must be equal, got gamma1 = "
                              f"{self.gamma1} and gamma2 = {self.gamma2}")
        w1w2 = self.w01 * self.w02
        d = w1w2 * w1w2 - self.lam * self.lam / (self.m1 * self.m2)
        if not (d > 0):
            raise CouplingTooStrong(
                f"lam = {self.lam:.6g} breaks the bilinear-coupling model: "
                f"quartic constant term d = {d:.6g} <= 0")
        n = self.n_points
        # bool is an Integral too
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
            raise ConfigError(f"n_points must be an integer >= 2, got {n!r}")
        horizons = [(k, v[k]) for k in ("t_end", "force1.t0", "force2.t0")]
        for name in ("force1", "force2"):
            horizons += _knot_horizon(name, v[name], self.t_end)
        for name, t in horizons:
            if self.gamma1 * t > MAX_GAMMA_T:
                raise ConfigError(
                    f"{name} gives gamma t = {self.gamma1 * t:.6g}; at most "
                    f"gamma t = {MAX_GAMMA_T:g} is supported")
        from .modes import solve_determinant    # modes imports this module
        modes = solve_determinant(self)
        floor = MIN_GAMMA_SPACINGS * math.ulp(max(modes.Omega1, modes.Omega2))
        if 0.0 < self.gamma1 < floor:
            raise ConfigError(f"gamma1 = {self.gamma1:.6g} is below "
                              f"{floor:.6g}, {MIN_GAMMA_SPACINGS} float "
                              "spacings of Omega")

    @property
    def hbar(self) -> float:
        return 1.0

    @property
    def lam_tilde(self) -> float:
        """The dimensionless coupling lam / (w01 w02 sqrt(m1 m2))."""
        return self.lam / (self.w01 * self.w02 * math.sqrt(self.m1 * self.m2))


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """The config with every heuristic force amplitude resolved, once
    0 <= coupling_dimensionless < 1 (CouplingTooStrong from 1 on: at 1 the
    internal d can round to > 0); `to_internal` checks the rest."""
    lt = cfg.coupling_dimensionless
    if not (0.0 <= lt):
        raise ConfigError(f"coupling_dimensionless must be >= 0, got {lt}")
    if lt >= 1.0:
        raise CouplingTooStrong(
            f"coupling_dimensionless = {lt} >= 1: the bilinear-coupling model "
            "breaks down (quartic constant term d would be non-positive)")
    for name, osc in (("force1", cfg.osc1), ("force2", cfg.osc2)):
        spec = getattr(cfg, name)
        if spec.kind == "exponential_step" and spec.amplitude is None:
            try:
                amp = default_amplitude(osc, spec)
            except ConfigError as exc:
                raise ConfigError(f"{name}: {exc}") from None
            cfg = replace(cfg, **{name: replace(spec, amplitude=amp)})
    return cfg


def _force_to_internal(name: str, spec: ForceSpec,
                       units: InternalUnits) -> InternalForce:
    if spec.kind == "zero":
        return InternalForce(kind="zero")
    if spec.kind == "exponential_step":
        if spec.amplitude is None:
            raise ConfigError(f"{name}: no amplitude; validate_config sets it")
        return InternalForce(
            kind="exponential_step",
            f0=spec.amplitude / units.force_unit,
            t0=spec.onset / units.time_unit,
            decay=spec.decay * units.time_unit,
        )
    times = np.asarray(spec.times, dtype=float) / units.time_unit
    values = np.asarray(spec.values, dtype=float) / units.force_unit
    return InternalForce(kind="sampled", times=times, values=values)


def to_internal(cfg: SystemConfig) -> InternalConfig:
    """Rescale a validated config (`validate_config`) to hbar = M1 = omega01
    = 1 units; the InternalConfig checks every other invariant."""
    o1, o2, b1, b2 = cfg.osc1, cfg.osc2, cfg.bath1, cfg.bath2
    units = InternalUnits.for_reference(o1.mass, o1.eigenfrequency)
    w = units.frequency_unit
    m = units.mass_unit
    lam = (cfg.coupling_dimensionless * o1.eigenfrequency * o2.eigenfrequency
           * math.sqrt(o1.mass * o2.mass))      # CGS, g/s^2
    numax1 = (b1.cutoff / w) if b1.cutoff is not None else DEFAULT_CUTOFF_MULTIPLE
    numax2 = (b2.cutoff / w) if b2.cutoff is not None else DEFAULT_CUTOFF_MULTIPLE
    return InternalConfig(
        m1=o1.mass / m,
        m2=o2.mass / m,
        w01=o1.eigenfrequency / w,
        w02=o2.eigenfrequency / w,
        gamma1=o1.damping_rate / w,
        gamma2=o2.damping_rate / w,
        lam=lam / (m * w ** 2),
        T1=b1.temperature / units.temperature_unit,
        T2=b2.temperature / units.temperature_unit,
        numax1=numax1,
        numax2=numax2,
        sigma01_sq=o1.sigma0_sq / units.length_unit ** 2,
        sigma02_sq=o2.sigma0_sq / units.length_unit ** 2,
        force1=_force_to_internal("force1", cfg.force1, units),
        force2=_force_to_internal("force2", cfg.force2, units),
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
        with warnings.catch_warnings():
            # an empty file is the shape error below, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
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
