"""Normal modes of the coupled damped pair and the classical boundary paths.

The characteristic (determinant) equation of the coupled linear system is the
quartic  w^4 + i*a*w^3 + b*w^2 + i*c*w + d = 0  with real a, b, c, d.  For
equal damping rates gamma its four roots pair up as  -+Omega1 - i*gamma  and
-+Omega2 - i*gamma.  The sum-variable (damped) sector evolves with envelopes
exp(-delta*tau); the difference-variable sector is the time-reversed, anti-
damped partner with envelopes exp(+delta*tau).

Boundary-value paths are represented on the four elementary mode functions
sin/cos(Omega_k tau) * exp(-+delta_k tau); the coefficient solve is singular
at the isolated "caustic" times where sin(Omega_k t) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .config import InternalConfig
from .errors import CausticTime, ConfigError, DegenerateModes, NonRealRatio

ROOT_RESIDUAL_TOL = 1e-10
CAUSTIC_TOL = 1e-8
RATIO_IMAG_TOL = 1e-8
DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class QuarticCoefficients:
    """Real coefficients of w^4 + i*a*w^3 + b*w^2 + i*c*w + d."""
    a: float
    b: float
    c: float
    d: float

    @classmethod
    def from_config(cls, cfg: InternalConfig) -> "QuarticCoefficients":
        g1, g2 = cfg.gamma1, cfg.gamma2
        w1sq, w2sq = cfg.w01 ** 2, cfg.w02 ** 2
        return cls(
            a=2.0 * (g1 + g2),
            b=-(w1sq + w2sq + 4.0 * g1 * g2),
            c=-2.0 * (g2 * w1sq + g1 * w2sq),
            d=w1sq * w2sq - cfg.lam ** 2 / (cfg.m1 * cfg.m2),
        )

    def poly(self) -> np.ndarray:
        return np.array([1.0, 1j * self.a, self.b, 1j * self.c, self.d],
                        dtype=complex)

    def value(self, w: complex) -> complex:
        return np.polyval(self.poly(), w)

    def derivative(self, w: complex) -> complex:
        return np.polyval(np.polyder(self.poly()), w)


@dataclass(frozen=True)
class NormalModes:
    """Roots and mode data of the coupled damped pair.

    r1 is the mode-1 amplitude ratio (oscillator-2 amplitude over
    oscillator-1 amplitude), r2 the mode-2 ratio (oscillator 1 over 2).
    Mode 1 is the one continuously connected to oscillator 1 as the
    coupling goes to zero.
    """
    roots: Tuple[complex, complex, complex, complex]
    Omega1: float
    Omega2: float
    delta1: float
    delta2: float
    r1: float
    r2: float
    # carried along for path/derivative evaluation
    m1: float = 1.0
    m2: float = 1.0
    w01: float = 1.0
    w02: float = 1.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    lam: float = 0.0

    @property
    def one_minus_r1r2(self) -> float:
        return 1.0 - self.r1 * self.r2


def _amplitude_ratio_mode1(cfg: InternalConfig, Omega: float, delta: float) -> complex:
    """Oscillator-2 over oscillator-1 amplitude for a mode exp(s*tau),
    s = -delta + i*Omega, from the first equation of the damped system."""
    s = complex(-delta, Omega)
    return (cfg.m1 / cfg.lam) * (s * s + 2.0 * cfg.gamma1 * s + cfg.w01 ** 2)


def _amplitude_ratio_mode2(cfg: InternalConfig, Omega: float, delta: float) -> complex:
    """Oscillator-1 over oscillator-2 amplitude, from the second equation."""
    s = complex(-delta, Omega)
    return (cfg.m2 / cfg.lam) * (s * s + 2.0 * cfg.gamma2 * s + cfg.w02 ** 2)


def solve_determinant(cfg: InternalConfig) -> NormalModes:
    """Solve the quartic determinant equation and label the two modes.

    Restricted to gamma1 == gamma2: the root pairing and the real amplitude
    ratios rely on it.  `config.validate_config` rejects unequal damping
    up front; this check guards configs built by hand.
    """
    if not math.isclose(cfg.gamma1, cfg.gamma2, rel_tol=1e-12, abs_tol=1e-15):
        raise ConfigError(
            "the closed-form engine requires equal damping rates "
            f"(gamma1={cfg.gamma1}, gamma2={cfg.gamma2}); "
            "unequal damping is not supported")
    q = QuarticCoefficients.from_config(cfg)
    roots = np.roots(q.poly())
    poly = q.poly()
    dpoly = np.polyder(poly)
    for _ in range(2):
        roots = roots - np.polyval(poly, roots) / np.polyval(dpoly, roots)
    residual = np.max(np.abs(np.polyval(poly, roots)))
    scale = max(1.0, abs(q.d))
    if residual > ROOT_RESIDUAL_TOL * scale:
        raise ConfigError(f"quartic root residual {residual} too large")

    # pair by sign of the real part; each pair shares |Re| and Im = -gamma
    order = np.argsort(roots.real)
    roots = roots[order]                    # [-O2, -O1, +O1, +O2] roughly
    pos = sorted([w for w in roots if w.real > 0], key=lambda w: w.real)
    if len(pos) != 2:
        raise DegenerateModes(f"unexpected root layout: {roots}")
    cands = [(float(w.real), float(-w.imag)) for w in pos]
    (Oa, da), (Ob, db) = cands
    if abs(Oa - Ob) < DEGENERACY_TOL * max(Oa, Ob):
        raise DegenerateModes(f"mode frequencies coincide: {Oa} vs {Ob}")

    if cfg.lam == 0.0:
        # decoupled: label by proximity to the bare frequencies, ratios 0
        f1 = math.sqrt(max(cfg.w01 ** 2 - cfg.gamma1 ** 2, 0.0))
        if abs(Oa - f1) <= abs(Ob - f1):
            Omega1, delta1, Omega2, delta2 = Oa, da, Ob, db
        else:
            Omega1, delta1, Omega2, delta2 = Ob, db, Oa, da
        r1 = r2 = 0.0
    else:
        # label by eigenvector overlap: mode 1 is the one whose amplitude
        # lives mostly on oscillator 1, i.e. |x2/x1| < |for the other mode|
        rho_a = _amplitude_ratio_mode1(cfg, Oa, da)
        rho_b = _amplitude_ratio_mode1(cfg, Ob, db)
        if abs(rho_a) <= abs(rho_b):
            Omega1, delta1, rho1 = Oa, da, rho_a
            Omega2, delta2 = Ob, db
        else:
            Omega1, delta1, rho1 = Ob, db, rho_b
            Omega2, delta2 = Oa, da
        rho2 = _amplitude_ratio_mode2(cfg, Omega2, delta2)
        for name, rho in (("r1", rho1), ("r2", rho2)):
            # absolute floor: at weak coupling |rho| ~ lam while its rounding
            # noise ~ eps/lam, so a purely relative gate trips spuriously
            if abs(rho.imag) > RATIO_IMAG_TOL * max(abs(rho), 1.0):
                raise NonRealRatio(
                    f"{name} = {rho} has a non-negligible imaginary part")
        r1, r2 = float(rho1.real), float(rho2.real)
        if abs(1.0 - r1 * r2) < 1e-12:
            raise DegenerateModes(f"1 - r1*r2 vanished (r1={r1}, r2={r2})")

    root_tuple = tuple(
        complex(s * O, -d)
        for (O, d) in ((Omega1, delta1), (Omega2, delta2)) for s in (-1.0, 1.0)
    )
    return NormalModes(
        roots=root_tuple, Omega1=Omega1, Omega2=Omega2,
        delta1=delta1, delta2=delta2, r1=r1, r2=r2,
        m1=cfg.m1, m2=cfg.m2, w01=cfg.w01, w02=cfg.w02,
        gamma1=cfg.gamma1, gamma2=cfg.gamma2, lam=cfg.lam,
    )


def check_caustic(modes: NormalModes, t: float, tol: float = CAUSTIC_TOL) -> None:
    for O in (modes.Omega1, modes.Omega2):
        if abs(math.sin(O * t)) < tol:
            raise CausticTime(
                f"sin(Omega*t) = {math.sin(O * t):.3e} at Omega={O}, t={t}; "
                "boundary-value representation is singular here")


# ---------------------------------------------------------------------------
# elementary mode functions and endpoint-coefficient matrices

def mode_functions(modes: NormalModes, tau: np.ndarray, sign: float
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of the 4 elementary envelope-trig functions.

    sign=-1 gives the damped (sum-variable) set exp(-delta*tau)*{sin, cos},
    sign=+1 the anti-damped set.  Returns (phi, dphi), each of shape (4, n),
    rows ordered [sin1, cos1, sin2, cos2].
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    out = np.empty((4, tau.size))
    dout = np.empty((4, tau.size))
    for k, (O, d) in enumerate(((modes.Omega1, modes.delta1),
                                (modes.Omega2, modes.delta2))):
        env = np.exp(sign * d * tau)
        s, c = np.sin(O * tau), np.cos(O * tau)
        out[2 * k] = s * env
        out[2 * k + 1] = c * env
        dout[2 * k] = (O * c + sign * d * s) * env
        dout[2 * k + 1] = (-O * s + sign * d * c) * env
    return out, dout


def _coefficient_matrix(modes: NormalModes, t: float, sign: float) -> np.ndarray:
    """4x4 matrix mapping endpoints -> elementary-function coefficients.

    Endpoint order is (final_1, final_2, initial_1, initial_2).  sign=-1 is
    the damped sector (envelope exp(-delta*tau)), sign=+1 the anti-damped one;
    the final-value rows carry the compensating exp(+-delta*t) factors.
    """
    check_caustic(modes, t)
    r1, r2 = modes.r1, modes.r2
    q = modes.one_minus_r1r2
    W = np.zeros((4, 4))
    S1, C1 = math.sin(modes.Omega1 * t), math.cos(modes.Omega1 * t)
    S2, C2 = math.sin(modes.Omega2 * t), math.cos(modes.Omega2 * t)
    E1 = math.exp(-sign * modes.delta1 * t)
    E2 = math.exp(-sign * modes.delta2 * t)
    # coefficient of sin(Omega1 tau): from finals and the cot correction
    W[0, 0] = E1 / (q * S1)
    W[0, 1] = -r2 * E1 / (q * S1)
    W[0, 2] = -(C1 / S1) / q
    W[0, 3] = r2 * (C1 / S1) / q
    # coefficient of cos(Omega1 tau): initial values only
    W[1, 2] = 1.0 / q
    W[1, 3] = -r2 / q
    # mode 2
    W[2, 1] = E2 / (q * S2)
    W[2, 0] = -r1 * E2 / (q * S2)
    W[2, 3] = -(C2 / S2) / q
    W[2, 2] = r1 * (C2 / S2) / q
    W[3, 3] = 1.0 / q
    W[3, 2] = -r1 / q
    return W


def x_coefficient_matrix(modes: NormalModes, t: float) -> np.ndarray:
    """Endpoint (X_f1, X_f2, X_i1, X_i2) -> damped-sector coefficients."""
    return _coefficient_matrix(modes, t, sign=-1.0)


def xi_coefficient_matrix(modes: NormalModes, t: float) -> np.ndarray:
    """Endpoint (xi_f1, xi_f2, xi_i1, xi_i2) -> anti-damped coefficients."""
    return _coefficient_matrix(modes, t, sign=+1.0)


# row weights turning elementary-function coefficients into the two
# oscillator components: component 1 uses [1, 1, r2, r2], component 2
# uses [r1, r1, 1, 1]
def component_weights(modes: NormalModes) -> Tuple[np.ndarray, np.ndarray]:
    c1 = np.array([1.0, 1.0, modes.r2, modes.r2])
    c2 = np.array([modes.r1, modes.r1, 1.0, 1.0])
    return c1, c2


def basis_paths(modes: NormalModes, t: float, tau: np.ndarray, sign: float
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Paths (and derivatives) for the four unit endpoint basis vectors.

    Returns (P1, P2, dP1, dP2), each of shape (4, n): row j is the
    oscillator-1 (resp. 2) component of the classical path whose endpoint
    vector is the j-th unit vector in (f1, f2, i1, i2) order.
    """
    W = _coefficient_matrix(modes, t, sign)
    phi, dphi = mode_functions(modes, tau, sign)
    c1, c2 = component_weights(modes)
    P1 = (W * c1[:, None]).T @ phi
    P2 = (W * c2[:, None]).T @ phi
    dP1 = (W * c1[:, None]).T @ dphi
    dP2 = (W * c2[:, None]).T @ dphi
    return P1, P2, dP1, dP2


# ---------------------------------------------------------------------------
# user-facing path evaluation

def homogeneous_X_paths(modes: NormalModes,
                        endpoints: Tuple[float, float, float, float],
                        t: float, tau) -> Tuple[np.ndarray, np.ndarray]:
    """Damped-sector boundary path through the given endpoints.

    endpoints = (X_i1, X_i2, X_f1, X_f2); returns (X1(tau), X2(tau)).
    """
    X_i1, X_i2, X_f1, X_f2 = endpoints
    e = np.array([X_f1, X_f2, X_i1, X_i2])
    P1, P2, _, _ = basis_paths(modes, t, np.asarray(tau, dtype=float), sign=-1.0)
    return e @ P1, e @ P2


def homogeneous_xi_paths(modes: NormalModes,
                         endpoints: Tuple[float, float, float, float],
                         partials: Optional[Tuple[Callable, Callable]],
                         t: float, tau) -> Tuple[np.ndarray, np.ndarray]:
    """Anti-damped-sector path through the given endpoints.

    endpoints = (xi_i1, xi_i2, xi_f1, xi_f2).  partials, if given, are two
    callables for the driven particular solution; they must vanish at both
    tau=0 and tau=t so the endpoint conditions stay exact.
    """
    xi_i1, xi_i2, xi_f1, xi_f2 = endpoints
    e = np.array([xi_f1, xi_f2, xi_i1, xi_i2])
    tau = np.asarray(tau, dtype=float)
    P1, P2, _, _ = basis_paths(modes, t, tau, sign=+1.0)
    xi1, xi2 = e @ P1, e @ P2
    if partials is not None:
        xi1 = xi1 + partials[0](tau)
        xi2 = xi2 + partials[1](tau)
    return xi1, xi2


def decoupled_reference(cfg: InternalConfig) -> Tuple[float, float, float, float]:
    """Closed-form mode data at zero coupling, for continuity checks."""
    O1 = math.sqrt(cfg.w01 ** 2 - cfg.gamma1 ** 2)
    O2 = math.sqrt(cfg.w02 ** 2 - cfg.gamma2 ** 2)
    return O1, O2, cfg.gamma1, cfg.gamma2
