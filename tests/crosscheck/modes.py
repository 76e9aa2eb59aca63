"""Classical boundary paths of the coupled damped pair, and references for
the mode data.

Boundary-value paths on the four elementary mode functions
sin/cos(Omega_k tau) * exp(-+delta_k tau): `coefficient_matrices` maps the
endpoints to their coefficients, and raises CausticTime at the isolated
times where sin(Omega_k t) = 0.  The sum-variable (damped) sector
has envelopes exp(-delta*tau); the difference-variable sector is the
time-reversed, anti-damped partner with envelopes exp(+delta*tau).

The characteristic (determinant) equation of the coupled linear system is
the quartic  w^4 + i*a*w^3 + b*w^2 + i*c*w + d = 0  with real a, b, c, d
(`QuarticCoefficients`), whose roots `duosc.modes.solve_determinant` gives
in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from duosc.config import InternalConfig
from duosc.modes import NormalModes, check_caustic, component_weights


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


def decoupled_reference(cfg: InternalConfig) -> Tuple[float, float, float, float]:
    """Closed-form mode data at zero coupling, for continuity checks."""
    O1 = math.sqrt(cfg.w01 ** 2 - cfg.gamma1 ** 2)
    O2 = math.sqrt(cfg.w02 ** 2 - cfg.gamma2 ** 2)
    return O1, O2, cfg.gamma1, cfg.gamma2


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
    d = modes.delta
    env = np.exp(sign * d * tau)
    for k, O in enumerate((modes.Omega1, modes.Omega2)):
        s, c = np.sin(O * tau), np.cos(O * tau)
        out[2 * k] = s * env
        out[2 * k + 1] = c * env
        dout[2 * k] = (O * c + sign * d * s) * env
        dout[2 * k + 1] = (-O * s + sign * d * c) * env
    return out, dout


def coefficient_matrices(modes: NormalModes, times: np.ndarray,
                         sign: float) -> np.ndarray:
    """(n, 4, 4) matrices mapping endpoints -> elementary-function
    coefficients, one per time (CausticTime if any time is on a caustic).

    Endpoint order is (final_1, final_2, initial_1, initial_2).  sign=-1 is
    the damped sector (envelope exp(-delta*tau)), sign=+1 the anti-damped one;
    the final-value rows carry the compensating exp(+-delta*t) factors.
    """
    times = np.ascontiguousarray(times, dtype=float)
    check_caustic(modes, times)
    r1, r2 = modes.r1, modes.r2
    q = modes.one_minus_r1r2
    W = np.zeros((times.size, 4, 4))
    S1, C1 = np.sin(modes.Omega1 * times), np.cos(modes.Omega1 * times)
    S2, C2 = np.sin(modes.Omega2 * times), np.cos(modes.Omega2 * times)
    E1 = E2 = np.exp(-sign * modes.delta * times)
    # coefficient of sin(Omega1 tau): from finals and the cot correction
    W[:, 0, 0] = E1 / (q * S1)
    W[:, 0, 1] = -r2 * E1 / (q * S1)
    W[:, 0, 2] = -(C1 / S1) / q
    W[:, 0, 3] = r2 * (C1 / S1) / q
    # coefficient of cos(Omega1 tau): initial values only
    W[:, 1, 2] = 1.0 / q
    W[:, 1, 3] = -r2 / q
    # mode 2
    W[:, 2, 1] = E2 / (q * S2)
    W[:, 2, 0] = -r1 * E2 / (q * S2)
    W[:, 2, 3] = -(C2 / S2) / q
    W[:, 2, 2] = r1 * (C2 / S2) / q
    W[:, 3, 3] = 1.0 / q
    W[:, 3, 2] = -r1 / q
    return W


def x_coefficient_matrix(modes: NormalModes, t: float) -> np.ndarray:
    """Endpoint (X_f1, X_f2, X_i1, X_i2) -> damped-sector coefficients."""
    return coefficient_matrices(modes, np.array([t]), sign=-1.0)[0]


def xi_coefficient_matrix(modes: NormalModes, t: float) -> np.ndarray:
    """Endpoint (xi_f1, xi_f2, xi_i1, xi_i2) -> anti-damped coefficients."""
    return coefficient_matrices(modes, np.array([t]), sign=+1.0)[0]


def basis_paths(modes: NormalModes, t: float, tau: np.ndarray, sign: float
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Paths (and derivatives) for the four unit endpoint basis vectors.

    Returns (P1, P2, dP1, dP2), each of shape (4, n): row j is the
    oscillator-1 (resp. 2) component of the classical path whose endpoint
    vector is the j-th unit vector in (f1, f2, i1, i2) order.
    """
    W = coefficient_matrices(modes, np.array([t]), sign)[0]
    phi, dphi = mode_functions(modes, tau, sign)
    c1, c2 = component_weights(modes)
    P1 = (W * c1[:, None]).T @ phi
    P2 = (W * c2[:, None]).T @ phi
    dP1 = (W * c1[:, None]).T @ dphi
    dP2 = (W * c2[:, None]).T @ dphi
    return P1, P2, dP1, dP2


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
