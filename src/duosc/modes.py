"""Normal modes of the coupled damped pair and its phase-space flow.

For equal damping rates gamma the four roots of the characteristic
(determinant) equation pair up as  -+Omega1 - i*gamma  and
-+Omega2 - i*gamma, and `solve_determinant` gives them, and the amplitude
ratios, in closed form.

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


def solve_determinant(cfg: InternalConfig) -> NormalModes:
    """Mode frequencies, damping rates and amplitude ratios in closed form.

    Restricted to gamma1 == gamma2: then the quartic's roots are
    +-Omega_k - i gamma with Omega_k^2 = w_k^2 - gamma^2, where w_k^2 are
    the eigenvalues of the mass-weighted stiffness matrix.  With a =
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
    roots = (complex(-Omega1, -gamma), complex(Omega1, -gamma),
             complex(-Omega2, -gamma), complex(Omega2, -gamma))
    return NormalModes(
        roots=roots, Omega1=Omega1, Omega2=Omega2,
        delta1=gamma, delta2=gamma, r1=r1, r2=r2,
        m1=cfg.m1, m2=cfg.m2, w01=cfg.w01, w02=cfg.w02,
        gamma1=cfg.gamma1, gamma2=cfg.gamma2, lam=cfg.lam,
    )


def _caustic_sines(modes: NormalModes, times: np.ndarray) -> np.ndarray:
    """sin(Omega_k t) for k = 1, 2 at each time, (2, n); 0 on a caustic."""
    return np.sin(np.outer((modes.Omega1, modes.Omega2), times))


def check_caustic(modes: NormalModes, times, tol: float = CAUSTIC_TOL) -> None:
    """CausticTime naming the first of `times` (one or many) on a caustic."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    sines = _caustic_sines(modes, times)
    bad = np.abs(sines) < tol
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=0))[0])
        k = int(np.flatnonzero(bad[:, i])[0])
        O = (modes.Omega1, modes.Omega2)[k]
        raise CausticTime(
            f"sin(Omega*t) = {sines[k, i]:.3e} at Omega={O}, "
            f"t={float(times[i])}; boundary-value representation is "
            "singular here")


# row weights turning elementary-function coefficients into the two
# oscillator components: component 1 uses [1, 1, r2, r2], component 2
# uses [r1, r1, 1, 1]
def component_weights(modes: NormalModes) -> Tuple[np.ndarray, np.ndarray]:
    c1 = np.array([1.0, 1.0, modes.r2, modes.r2])
    c2 = np.array([modes.r1, modes.r1, 1.0, 1.0])
    return c1, c2


# ---------------------------------------------------------------------------
# phase-space flow
#
# Every solution of the damped pair under a force F is x = sum_k u_k q_k with
# u_1 = (1, r1), u_2 = (r2, 1) and q_k'' + 2 delta_k q_k' + w_k^2 q_k =
# u_k . F / n_k, n_k = u_k^T M u_k = m_k (1 - r1 r2).  The retarded Green's
# function splits as e^(-delta (t-s)) sin Omega (t-s) = e^(-delta t)
# [sin Omega t psi_cos(s) - cos Omega t psi_sin(s)], psi = e^(delta s)
# {sin, cos}(Omega s), so the phase-space point (x1, x2, p1, p2) at time t is
# B(t) a: a holds amplitudes on [sin1, cos1, sin2, cos2] that accumulate
# u_k . F against psi, plus K0 times the initial point.  B has no 1/sin.

def response_matrices(modes: NormalModes, times) -> np.ndarray:
    """B(t), (n, 4, 4): amplitudes on [sin1, cos1, sin2, cos2] -> the
    phase-space point (x1, x2, p1, p2) at each time.

    Column (sin_k, cos_k) of row x_i is u_k[i] e^(-delta_k t) (-cos, sin)
    (Omega_k t) / (Omega_k n_k); row p_i is m_i times its time derivative
    at fixed amplitudes, u_k[i] m_i e^(-delta_k t) (Omega_k sin + delta_k
    cos, Omega_k cos - delta_k sin) / (Omega_k n_k).
    """
    t = np.asarray(times, dtype=float).reshape(-1, 1)
    O = np.array([modes.Omega1, modes.Omega2])
    d = np.array([modes.delta1, modes.delta2])
    n_k = np.array([modes.m1, modes.m2]) * modes.one_minus_r1r2
    s, c = np.sin(O * t), np.cos(O * t)
    e = np.exp(-d * t) / (O * n_k)
    x_row = np.empty((t.shape[0], 4))
    p_row = np.empty((t.shape[0], 4))
    x_row[:, 0::2], x_row[:, 1::2] = -c * e, s * e
    p_row[:, 0::2] = (O * s + d * c) * e
    p_row[:, 1::2] = (O * c - d * s) * e
    u, mu = _mode_weights(modes)
    return np.concatenate([x_row[:, None, :] * u, p_row[:, None, :] * mu],
                          axis=1)


def initial_amplitude_map(modes: NormalModes) -> np.ndarray:
    """K0, (4, 4): the initial point (x1, x2, p1, p2) -> amplitudes, so that
    B(t) K0 is the free flow (B(0) K0 = 1).

    Row sin_k carries -Omega_k m_j u_k[j] on x_j; row cos_k carries
    delta_k m_j u_k[j] on x_j and u_k[j] on p_j.
    """
    u, mu = _mode_weights(modes)
    O = np.repeat([modes.Omega1, modes.Omega2], 2)
    d = np.repeat([modes.delta1, modes.delta2], 2)
    sin_row = np.array([True, False, True, False])
    K0 = np.empty((4, 4))
    K0[:, :2] = np.where(sin_row, -O, d)[:, None] * mu.T
    K0[:, 2:] = np.where(sin_row, 0.0, 1.0)[:, None] * u.T
    return K0


def _mode_weights(modes: NormalModes) -> Tuple[np.ndarray, np.ndarray]:
    """u (2, 4) with u_k[i] in the columns of mode k, and M u."""
    u = np.stack(component_weights(modes))
    return u, np.array([[modes.m1], [modes.m2]]) * u
