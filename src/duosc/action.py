"""The classical action's endpoint form, in closed form.

The classical Lagrangian of the sum/difference variables is strictly
bilinear in (X-path, xi-path) plus a term linear in xi (the drive), so the
integrated action is an exact bilinear-plus-xi-linear form over the eight
endpoint variables, up to a constant that a trace-1 normalization absorbs.

On a classical X path, integrating the kinetic term by parts leaves
-1/2 xi.(damped equation of motion of X), which vanishes, plus the boundary
term sum_k m_k/2 [dX_k xi_k]_0^t.  The bilinear block is therefore eight
endpoint derivatives of the X basis paths, and the xi-linear drive terms
are the closed-form force moments of `forcing.force_moment_table`.

The engine does not use this module: it builds each state from its
phase-space moments (`engine`), which are regular at every time.  The form
is the paper's boundary-value quantity, which `duosc run --dump-action`
writes; it raises CausticTime where sin(Omega_k t) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import InternalConfig
from .errors import ConfigError
from .forcing import force_moment_table
from .modes import NormalModes, coefficient_matrices, component_weights

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
    """Endpoint structure of the action at each time, in closed form:
    (bilinear (n, 4, 4), linear_xi (n, 4)).

    bilinear[a, f_k] = m_k/2 dX_k^a(t) and bilinear[a, i_k] = -m_k/2
    dX_k^a(0), where X^a is the X basis path of endpoint slot a; the
    xi-linear terms are (phi_f1, phi_f2, lambda1, lambda2) of the force
    moments.  The X-linear block vanishes by the same integration by
    parts.
    """
    times = np.ascontiguousarray(times, dtype=float)
    if not np.all(times > 0.0):
        raise ConfigError("endpoint_action_form needs t > 0")
    W = coefficient_matrices(modes, times, sign=-1.0)
    # derivatives of the damped [sin1, cos1, sin2, cos2] at tau = 0 and t
    dphi = np.empty((times.size, 4, 2))
    for k, (O, d) in enumerate(((modes.Omega1, modes.delta1),
                                (modes.Omega2, modes.delta2))):
        env = np.exp(-d * times)
        s, c = np.sin(O * times), np.cos(O * times)
        dphi[:, 2 * k, 0] = O
        dphi[:, 2 * k + 1, 0] = -d
        dphi[:, 2 * k, 1] = (O * c - d * s) * env
        dphi[:, 2 * k + 1, 1] = (-O * s - d * c) * env
    c1, c2 = component_weights(modes)
    # endpoint derivatives of the X basis paths, (n, slot, tau)
    dX1 = np.swapaxes(W * c1[:, None], 1, 2) @ dphi
    dX2 = np.swapaxes(W * c2[:, None], 1, 2) @ dphi
    bilinear = np.empty((times.size, 4, 4))
    bilinear[:, :, 0] = 0.5 * cfg.m1 * dX1[:, :, 1]
    bilinear[:, :, 1] = 0.5 * cfg.m2 * dX2[:, :, 1]
    bilinear[:, :, 2] = -0.5 * cfg.m1 * dX1[:, :, 0]
    bilinear[:, :, 3] = -0.5 * cfg.m2 * dX2[:, :, 0]
    linear_xi = np.zeros((times.size, 4))
    if not (cfg.force1.is_zero and cfg.force2.is_zero):
        table = force_moment_table(modes, cfg.force1, cfg.force2, times)
        linear_xi = table[:, [10, 11, 8, 9]]
    return bilinear, linear_xi


def endpoint_action_form(cfg: InternalConfig, modes: NormalModes,
                         t: float) -> ActionForm:
    """Endpoint structure of the action at time t, in closed form: one row
    of `endpoint_action_arrays`."""
    if t <= 0.0:
        raise ConfigError(f"endpoint_action_form needs t > 0, got {t}")
    bilinear, linear_xi = endpoint_action_arrays(cfg, modes, np.array([t]))
    return ActionForm(t=t, bilinear=bilinear[0], linear_xi=linear_xi[0])
