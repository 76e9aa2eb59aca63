"""The classical action's endpoint form by quadrature and polarization: the
independent check of `duosc.action.endpoint_action_form`.

The form is extracted by polarization: evaluate the action integral on the
sixteen unit-endpoint basis pairs (bilinear block) and on single unit
endpoints with the drive on (xi-linear terms), with composite quadrature
over smooth trig-times-exponential integrands.  Given the particular
solution, it also measures the X-linear drive block that integration by
parts makes vanish.  Like the basis paths it rests on, it raises
CausticTime where sin(Omega_k t) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from duosc.action import ActionForm
from duosc.config import InternalConfig
from duosc.errors import ConfigError
from duosc.forcing import force_value
from duosc.modes import NormalModes, check_caustic

from .modes import basis_paths
from .particular import ParticularSolution

_GL16 = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class QuadratureActionForm(ActionForm):
    """An ActionForm with the measured magnitude of the X-linear drive
    block.  An integration-by-parts identity makes the block vanish exactly
    (the driven particular path is orthogonal to every homogeneous
    sum-variable path under the action's bilinear form), so its computed
    value is a pure quadrature-error diagnostic and the block itself is not
    kept."""
    linear_X_residual: float = 0.0


def quadrature_nodes(t: float, n_min: int = 2048, max_freq: float = 4.0,
                     breakpoints: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre nodes/weights on [0, t].

    Panel count scales with the number of oscillation periods so long
    horizons stay resolved.  Breakpoints (e.g. force onsets, where the
    integrand has a jump) become panel edges, which keeps panelwise
    smoothness and hence spectral accuracy.
    """
    panels = max(n_min // 16, int(math.ceil(8.0 * t * max_freq / (2.0 * math.pi))))
    cuts = sorted({0.0, t, *(b for b in breakpoints if 0.0 < b < t)})
    edge_list = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        n_seg = max(1, int(math.ceil(panels * (b - a) / t)))
        edge_list.append(np.linspace(a, b, n_seg + 1)[:-1])
    edges = np.concatenate(edge_list + [np.array([t])])
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halfs[:, None] * _GL16[0]).ravel()
    weights = (halfs[:, None] * _GL16[1]).ravel()
    return nodes, weights


def force_breakpoints(*forces) -> tuple:
    """Locations where the drive profiles jump or kink.

    An exponential step jumps at its onset; a sampled profile is piecewise
    linear, so every sample time is a kink.
    """
    pts = []
    for f in forces:
        if f is None or f.is_zero:
            continue
        if f.kind == "exponential_step":
            pts.append(f.t0)
        elif f.kind == "sampled":
            pts.extend(float(x) for x in f.times)
    return tuple(pts)


def classical_action_form(cfg: InternalConfig, modes: NormalModes,
                          partic: Optional[ParticularSolution],
                          t: float, n_min: int = 2048
                          ) -> QuadratureActionForm:
    """Extract the full endpoint structure of the action at time t."""
    if t <= 0.0:
        raise ConfigError(f"classical_action_form needs t > 0, got {t}")
    check_caustic(modes, t)
    max_freq = max(modes.Omega1 + modes.Omega2,
                   2.0 * modes.delta, 1.0)

    m1, m2 = cfg.m1, cfg.m2
    g1, g2 = cfg.gamma1, cfg.gamma2
    w1sq, w2sq = cfg.w01 ** 2, cfg.w02 ** 2
    lam = cfg.lam

    def bilinear_block(w, A1, A2, dA1, dA2, B1, B2, dB1, dB2):
        """x^T-side arrays against xi-side arrays -> (4, 4) action block."""
        Wt = w[None, :]
        return (0.5 * m1 * (dA1 * Wt) @ dB1.T
                - 0.5 * m1 * w1sq * (A1 * Wt) @ B1.T
                - m1 * g1 * (dA1 * Wt) @ B1.T
                + 0.5 * m2 * (dA2 * Wt) @ dB2.T
                - 0.5 * m2 * w2sq * (A2 * Wt) @ B2.T
                - m2 * g2 * (dA2 * Wt) @ B2.T
                + 0.5 * lam * ((A1 * Wt) @ B2.T + (A2 * Wt) @ B1.T))

    # the bilinear block never sees the drive, so it is integrated on the
    # breakpoint-free panel layout; this keeps the dispersion parameters
    # bitwise identical whether or not a drive is present
    nodes0, w0 = quadrature_nodes(t, n_min=n_min, max_freq=max_freq)
    X1, X2, dX1, dX2 = basis_paths(modes, t, nodes0, sign=-1.0)    # (4, n)
    Y1, Y2, dY1, dY2 = basis_paths(modes, t, nodes0, sign=+1.0)    # xi basis
    bilinear = bilinear_block(w0, X1, X2, dX1, dX2, Y1, Y2, dY1, dY2)

    driven = not (cfg.force1.is_zero and cfg.force2.is_zero)

    linear_xi = np.zeros(4)
    lin_X_res = 0.0
    if driven:
        # drive-linear pieces use panels split at the force onsets, where
        # the integrand jumps
        nodes, w = quadrature_nodes(
            t, n_min=n_min, max_freq=max_freq,
            breakpoints=force_breakpoints(cfg.force1, cfg.force2))
        f1v = force_value(cfg.force1, nodes)
        f2v = force_value(cfg.force2, nodes)
        Xb1, Xb2, dXb1, dXb2 = basis_paths(modes, t, nodes, sign=-1.0)
        Yb1, Yb2, _, _ = basis_paths(modes, t, nodes, sign=+1.0)
        # xi-linear: only the drive couples to a pure xi path
        linear_xi = Yb1 @ (w * f1v) + Yb2 @ (w * f2v)
        if partic is not None:
            p1, p2, dp1, dp2 = partic._eval(nodes)
            # X-linear block: identically zero by integration by parts
            # (homogeneous damped paths annihilate the driven xi path under
            # the bilinear form); computed anyway as a quadrature diagnostic
            col = bilinear_block(
                w, Xb1, Xb2, dXb1, dXb2,
                p1[None, :], p2[None, :], dp1[None, :], dp2[None, :])
            lin_X_res = float(np.max(np.abs(col[:, 0])))
    return QuadratureActionForm(t=t, bilinear=bilinear, linear_xi=linear_xi,
                                linear_X_residual=lin_X_res)
