"""Normal modes of the coupled damped pair and its phase-space flow.

With one damping rate gamma (`InternalConfig` refuses two) the four roots
of the characteristic (determinant) equation pair up as -+Omega1 - i*delta
and -+Omega2 - i*delta, delta = gamma, and `solve_determinant` gives
them, and the amplitude ratios, in closed form.

The phase-space point at time t is B(t) times mode amplitudes
(`response_matrices`), with B regular at every t, and the free flow is
B(t) K0 (`initial_amplitude_map`).  Both `engine.simulate` and the action's
endpoint form (`action.endpoint_action_arrays`) are built on it.  The
endpoint form inverts the flow's position-momentum block, whose
determinant is proportional to sin(Omega1 t) sin(Omega2 t); it is singular
at those isolated "caustic" times and raises CausticTime there
(`check_caustic`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .config import InternalConfig
from .errors import CausticTime, DegenerateModes

CAUSTIC_TOL = 1e-8
DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class NormalModes:
    """Mode frequencies, their one damping rate delta, ratios and masses.

    r1 is the mode-1 amplitude ratio (oscillator-2 amplitude over
    oscillator-1 amplitude), r2 the mode-2 ratio (oscillator 1 over 2).
    Mode 1 is the one continuously connected to oscillator 1 as the
    coupling goes to zero.  The masses fix the norms n_k = m_k (1 - r1 r2).
    """
    Omega1: float
    Omega2: float
    delta: float
    r1: float
    r2: float
    m1: float
    m2: float

    @property
    def roots(self) -> Tuple[complex, complex, complex, complex]:
        """The determinant's roots -+Omega_k - i delta, mode 1 first."""
        return tuple(complex(s * O, -self.delta)
                     for O in (self.Omega1, self.Omega2) for s in (-1, 1))

    @property
    def one_minus_r1r2(self) -> float:
        return 1.0 - self.r1 * self.r2


def solve_determinant(cfg: InternalConfig) -> NormalModes:
    """Mode frequencies, damping rate and amplitude ratios in closed form.

    With one damping rate gamma1 == gamma2 the quartic's roots are +-Omega_k
    - i delta, delta = gamma, with Omega_k^2 = w_k^2 - gamma^2, where w_k^2
    are the eigenvalues of the mass-weighted stiffness matrix.  With a =
    (w01^2 + w02^2) / 2, b = (w01^2 - w02^2) / 2, kappa = lam / sqrt(m1 m2)
    and h = hypot(b, kappa) they are a + h and d / (a + h), d = w01^2 w02^2
    - kappa^2 (> 0 below the breakdown coupling).  Mode 1 is the one
    nearer w01^2.  Its ratio r1 = (m1 / lam) (w01^2 - w1^2) = -lam / (m2
    (b +- h)), with the sign of b, does not cancel at weak coupling, and
    r2 = -(m2 / m1) r1 makes the modes orthogonal under the mass matrix.
    Every InternalConfig has equal damping and d > 0, and calls this when
    it is built: DegenerateModes unless both modes are underdamped and
    their frequencies distinct.
    """
    gamma = cfg.gamma1
    w1sq, w2sq = cfg.w01 ** 2, cfg.w02 ** 2
    a, b = 0.5 * (w1sq + w2sq), 0.5 * (w1sq - w2sq)
    h = math.hypot(b, cfg.lam / math.sqrt(cfg.m1 * cfg.m2))
    d = w1sq * w2sq - cfg.lam ** 2 / (cfg.m1 * cfg.m2)
    upper, lower = a + h, d / (a + h)
    # mode 1 is the eigenvalue nearer w01^2: the upper one when b >= 0
    sign = 1.0 if b >= 0.0 else -1.0
    wsq = (upper, lower) if sign > 0.0 else (lower, upper)
    if min(wsq) <= gamma ** 2:
        raise DegenerateModes(
            f"gamma1 = gamma2 = {gamma} overdamps a mode: w^2 = {min(wsq)} "
            f"<= gamma^2 = {gamma ** 2}")
    Omega1, Omega2 = (math.sqrt(w - gamma ** 2) for w in wsq)
    if abs(Omega1 - Omega2) < DEGENERACY_TOL * max(Omega1, Omega2):
        raise DegenerateModes(
            f"mode frequencies coincide: {Omega1} vs {Omega2}")
    r1 = -cfg.lam / (cfg.m2 * (b + sign * h))
    r2 = -(cfg.m2 / cfg.m1) * r1
    return NormalModes(Omega1=Omega1, Omega2=Omega2, delta=gamma, r1=r1,
                       r2=r2, m1=cfg.m1, m2=cfg.m2)


def check_caustic(modes: NormalModes, times, tol: float = CAUSTIC_TOL) -> None:
    """CausticTime naming the first of `times` (one or many) on a caustic."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    sines = np.sin(np.outer((modes.Omega1, modes.Omega2), times))
    bad = np.abs(sines) < tol
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=0))[0])
        k = int(np.flatnonzero(bad[:, i])[0])
        O = (modes.Omega1, modes.Omega2)[k]
        raise CausticTime(
            f"sin(Omega*t) = {sines[k, i]:.3e} at Omega={O}, "
            f"t={float(times[i])}; boundary-value representation is "
            "singular here")


def component_weights(modes: NormalModes) -> np.ndarray:
    """u, (2, 4): row i weighs the elementary functions [sin1, cos1, sin2,
    cos2] into oscillator i, [1, 1, r2, r2] and [r1, r1, 1, 1]; so u_k[i],
    the mode vectors' entries, sit in the columns of mode k."""
    return np.array([[1.0, 1.0, modes.r2, modes.r2],
                     [modes.r1, modes.r1, 1.0, 1.0]])


# ---------------------------------------------------------------------------
# phase-space flow
#
# Every solution of the damped pair under a force F is x = sum_k u_k q_k with
# u_1 = (1, r1), u_2 = (r2, 1) and q_k'' + 2 delta q_k' + w_k^2 q_k =
# u_k . F / n_k, n_k = u_k^T M u_k = m_k (1 - r1 r2).  The retarded Green's
# function splits as e^(-delta (t-s)) sin Omega (t-s) = e^(-delta t)
# [sin Omega t psi_cos(s) - cos Omega t psi_sin(s)], psi = e^(delta s)
# {sin, cos}(Omega s), so the phase-space point (x1, x2, p1, p2) at time t is
# B(t) a: a holds amplitudes on [sin1, cos1, sin2, cos2] that accumulate
# u_k . F against psi, plus K0 times the initial point.  B has no 1/sin.

def response_matrices(modes: NormalModes, times) -> np.ndarray:
    """B(t), (n, 4, 4): amplitudes on [sin1, cos1, sin2, cos2] -> the
    phase-space point (x1, x2, p1, p2) at each time.

    Column (sin_k, cos_k) of row x_i is u_k[i] e^(-delta t) (-cos, sin)
    (Omega_k t) / (Omega_k n_k); row p_i is m_i times its time derivative
    at fixed amplitudes, u_k[i] m_i e^(-delta t) (Omega_k sin + delta cos,
    Omega_k cos - delta sin) / (Omega_k n_k).
    """
    t = np.asarray(times, dtype=float).reshape(-1, 1)
    O = np.array([modes.Omega1, modes.Omega2])
    d = modes.delta
    m = np.array([modes.m1, modes.m2])
    s, c = np.sin(O * t), np.cos(O * t)
    e = np.exp(-d * t) / (O * (m * modes.one_minus_r1r2))
    x_row = np.empty((t.shape[0], 4))
    p_row = np.empty((t.shape[0], 4))
    x_row[:, 0::2], x_row[:, 1::2] = -c * e, s * e
    p_row[:, 0::2] = (O * s + d * c) * e
    p_row[:, 1::2] = (O * c - d * s) * e
    u = component_weights(modes)
    return np.concatenate([x_row[:, None, :] * u,
                           p_row[:, None, :] * (m[:, None] * u)], axis=1)


def initial_amplitude_map(modes: NormalModes) -> np.ndarray:
    """K0, (4, 4): the initial point (x1, x2, p1, p2) -> amplitudes, so that
    B(t) K0 is the free flow (B(0) K0 = 1).

    Row sin_k carries -Omega_k m_j u_k[j] on x_j; row cos_k carries
    delta m_j u_k[j] on x_j and u_k[j] on p_j.
    """
    u = component_weights(modes)
    O = np.repeat([modes.Omega1, modes.Omega2], 2)
    sin_row = np.array([True, False, True, False])
    K0 = np.empty((4, 4))
    K0[:, :2] = (np.where(sin_row, -O, modes.delta)[:, None]
                 * (np.array([[modes.m1], [modes.m2]]) * u).T)
    K0[:, 2:] = np.where(sin_row, 0.0, 1.0)[:, None] * u.T
    return K0
