"""The classical action's endpoint form, from the phase-space flow.

The classical Lagrangian of the sum/difference variables is strictly
bilinear in (X-path, xi-path) plus a term linear in xi (the drive), so the
integrated action is an exact bilinear-plus-xi-linear form over the eight
endpoint variables, up to a constant that a trace-1 normalization absorbs.

On a classical X path, integrating the kinetic term by parts leaves
-1/2 xi.(damped equation of motion of X), which vanishes, plus the boundary
term sum_k m_k/2 [dX_k xi_k]_0^t.  The bilinear block is therefore half the
endpoint momenta of the classical path through given endpoints: the
boundary-value map of the damped flow B(t) K0 (`modes`) that `engine`
evaluates.  The xi-linear drive terms are the endpoint momenta of the
driven path that vanishes at both ends, from the same flow and the drive's
amplitudes (`forcing.drive_amplitudes`).

The engine does not use this module: it builds each state from its
phase-space moments, which are regular at every time.  The form is the
paper's boundary-value quantity, which `duosc run --dump-action` writes;
it raises CausticTime where sin(Omega_k t) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import InternalConfig
from .errors import ConfigError
from .forcing import drive_amplitudes
from .modes import (NormalModes, check_caustic, initial_amplitude_map,
                    response_matrices)

X_LABELS = ("Xf1", "Xf2", "Xi1", "Xi2")
XI_LABELS = ("xif1", "xif2", "xii1", "xii2")


@dataclass(frozen=True)
class ActionForm:
    """Endpoint structure of the integrated classical action at time t.

    action(e) = x^T B xi + linear_xi . xi + const, with
    x = (X_f1, X_f2, X_i1, X_i2) and xi = (xi_f1, xi_f2, xi_i1, xi_i2).
    There are provably no X-X or xi-xi couplings.  The drive enters only
    via linear_xi (the lambda1/lambda2 slots on initial xi and the phi
    coefficients on final xi) and the constant, which is not kept.  The
    X-linear drive block vanishes by the integration by parts above.
    """
    t: float
    bilinear: np.ndarray       # (4, 4): X rows, xi columns
    linear_xi: np.ndarray      # (4,)

    @property
    def lambda1(self) -> float:
        return float(self.linear_xi[2])

    @property
    def lambda2(self) -> float:
        return float(self.linear_xi[3])

    @property
    def phi_f1(self) -> float:
        return float(self.linear_xi[0])

    @property
    def phi_f2(self) -> float:
        return float(self.linear_xi[1])

    def labeled_entries(self):
        """(name, value) pairs for the diagnostic dump."""
        out = []
        for i, xl in enumerate(X_LABELS):
            for j, xil in enumerate(XI_LABELS):
                out.append((f"bilinear[{xl},{xil}]", self.bilinear[i, j]))
        for j, xil in enumerate(XI_LABELS):
            out.append((f"linear[{xil}]", self.linear_xi[j]))
        return out


def endpoint_action_arrays(cfg: InternalConfig, modes: NormalModes,
                           times: np.ndarray) -> tuple:
    """Endpoint structure of the action at each time, from the phase-space
    flow: (bilinear (n, 4, 4), linear_xi (n, 4)).

    With the free flow Phi = B(t) K0 in (x, p) blocks, the boundary path
    through (X_f, X_i) starts with P_0 = Phi_xp^-1 (X_f - Phi_xx X_i) and
    ends with P_t = Phi_px X_i + Phi_pp P_0; its row of the bilinear block
    is 1/2 (P_t, -P_0).  The drive's path from rest, (x_d, p_d) = B(t) m(t),
    is pulled back to zero at t by p_0 = -Phi_xp^-1 x_d, which ends at p_t
    = Phi_pp p_0 + p_d, and linear_xi = (p_t, -p_0).  det Phi_xp is
    proportional to sin(Omega1 t) sin(Omega2 t): CausticTime on a caustic.
    """
    times = np.ascontiguousarray(times, dtype=float)
    if not np.all(times > 0.0):
        raise ConfigError("endpoint_action_form needs t > 0")
    check_caustic(modes, times)
    B = response_matrices(modes, times)
    flow = B @ initial_amplitude_map(modes)
    xx, xp = flow[:, :2, :2], flow[:, :2, 2:]
    px, pp = flow[:, 2:, :2], flow[:, 2:, 2:]
    # P_0 and P_t as maps of (X_f1, X_f2, X_i1, X_i2), (n, 2, 4) each
    eye = np.broadcast_to(np.eye(2), xx.shape)
    p0 = np.linalg.solve(xp, np.concatenate([eye, -xx], axis=2))
    pt = pp @ p0
    pt[:, :, 2:] += px
    bilinear = 0.5 * np.swapaxes(np.concatenate([pt, -p0], axis=1), 1, 2)
    linear_xi = np.zeros((times.size, 4))
    if not (cfg.force1.is_zero and cfg.force2.is_zero):
        drive = B @ drive_amplitudes(modes, cfg.force1, cfg.force2, times
                                     )[:, :, None]
        p0 = -np.linalg.solve(xp, drive[:, :2])
        pt = pp @ p0 + drive[:, 2:]
        linear_xi = np.concatenate([pt, -p0], axis=1)[:, :, 0]
    return bilinear, linear_xi


def endpoint_action_form(cfg: InternalConfig, modes: NormalModes,
                         t: float) -> ActionForm:
    """Endpoint structure of the action at time t, in closed form: one row
    of `endpoint_action_arrays`."""
    if t <= 0.0:
        raise ConfigError(f"endpoint_action_form needs t > 0, got {t}")
    bilinear, linear_xi = endpoint_action_arrays(cfg, modes, np.array([t]))
    return ActionForm(t=t, bilinear=bilinear[0], linear_xi=linear_xi[0])
