"""Classical action on boundary paths and its exact endpoint structure.

The classical Lagrangian of the sum/difference variables is strictly
bilinear in (X-path, xi-path) plus a term linear in xi (the drive), so the
integrated action is an exact bilinear-plus-xi-linear form over the eight
endpoint variables, up to a constant that the reduction's trace-1
normalization absorbs.

The engine does not use this module: it builds each state from its
phase-space moments (`engine`), which are regular at every time.  Both
routes here are the paper's endpoint form, kept as cross-checks; like the
basis paths they rest on, they raise CausticTime where sin(Omega_k t) = 0.

Closed-form cross-check (`endpoint_action_arrays`, `endpoint_action_form`):
pure endpoint algebra.  On a classical X path, integrating the kinetic term
by parts leaves -1/2 xi.(damped equation of motion of X), which vanishes,
plus the boundary term sum_k m_k/2 [dX_k xi_k]_0^t.  The bilinear block is
therefore eight endpoint derivatives of the X basis paths, and the xi-linear
drive terms are the closed-form force moments of
`forcing.force_moment_table`.

Quadrature cross-check (`classical_action_form`): the form is extracted by
polarization: evaluate the action integral on the sixteen unit-endpoint
basis pairs (bilinear block) and on single unit endpoints with the drive on
(xi-linear terms), with composite quadrature over smooth
trig-times-exponential integrands.  Given the particular solution, it also
measures the X-linear drive block that integration by parts makes vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .config import InternalConfig
from .errors import ConfigError
from .forcing import force_moment_table, force_value
from .modes import (NormalModes, basis_paths, check_caustic,
                    coefficient_matrices, component_weights)

if TYPE_CHECKING:       # the cross-check's input; kept off the engine path
    from .particular import ParticularSolution

X_LABELS = ("Xf1", "Xf2", "Xi1", "Xi2")
XI_LABELS = ("xif1", "xif2", "xii1", "xii2")

_GL16 = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class ActionForm:
    """Endpoint structure of the integrated classical action at time t.

    action(e) = x^T B xi + linear_xi . xi + const, with
    x = (X_f1, X_f2, X_i1, X_i2) and xi = (xi_f1, xi_f2, xi_i1, xi_i2).
    There are provably no X-X or xi-xi couplings.  The drive enters only
    via linear_xi (the lambda1/lambda2 slots on initial xi and the phi
    coefficients on final xi) and the constant, which is not kept: the
    reduced state's normalization is imposed, not inherited.
    """
    t: float
    bilinear: np.ndarray       # (4, 4): X rows, xi columns
    linear_xi: np.ndarray      # (4,)
    #: measured magnitude of the X-linear drive block; an
    #: integration-by-parts identity makes it vanish exactly (the driven
    #: particular path is orthogonal to every homogeneous sum-variable path
    #: under the action's bilinear form), so its computed value is a pure
    #: quadrature-error diagnostic and the block itself is not kept
    linear_X_residual: float = 0.0

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


def classical_action_form(cfg: InternalConfig, modes: NormalModes,
                          partic: Optional[ParticularSolution],
                          t: float, n_min: int = 2048) -> ActionForm:
    """Extract the full endpoint structure of the action at time t.

    Quadrature and polarization; the independent check of
    `endpoint_action_form`.
    """
    if t <= 0.0:
        raise ConfigError(f"classical_action_form needs t > 0, got {t}")
    check_caustic(modes, t)
    max_freq = max(modes.Omega1 + modes.Omega2,
                   modes.delta1 + modes.delta2, 1.0)

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
    return ActionForm(t=t, bilinear=bilinear, linear_xi=linear_xi,
                      linear_X_residual=lin_X_res)
