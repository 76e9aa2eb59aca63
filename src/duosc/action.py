"""Classical action on boundary paths and its exact endpoint structure.

The classical Lagrangian of the sum/difference variables is strictly
bilinear in (X-path, xi-path) plus a term linear in xi (the drive), so the
integrated action is an exact bilinear-plus-linear-plus-constant form over
the eight endpoint variables.

Production route (`endpoint_action_form`): pure endpoint algebra.  On a
classical X path, integrating the kinetic term by parts leaves
-1/2 xi.(damped equation of motion of X), which vanishes, plus the boundary
term sum_k m_k/2 [dX_k xi_k]_0^t.  The bilinear block is therefore eight
endpoint derivatives of the X basis paths, and the xi-linear drive terms
are the closed-form force moments of `forcing.force_moments`.

Cross-check route (`classical_action_form`): the form is extracted by
polarization: evaluate the action integral on the sixteen unit-endpoint
basis pairs (bilinear block), on single unit endpoints with the drive on
(linear terms), and at all-zero endpoints (constant), with composite
quadrature over smooth trig-times-exponential integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import InternalConfig, InternalForce
from .errors import ConfigError
from .forcing import force_moments, force_value
from .modes import NormalModes, basis_paths, check_caustic
from .particular import ParticularSolution

X_LABELS = ("Xf1", "Xf2", "Xi1", "Xi2")
XI_LABELS = ("xif1", "xif2", "xii1", "xii2")

_GL16 = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class EndpointVector:
    """Free endpoint coordinates of the boundary-value problem."""
    X_f1: float = 0.0
    X_f2: float = 0.0
    X_i1: float = 0.0
    X_i2: float = 0.0
    xi_f1: float = 0.0
    xi_f2: float = 0.0
    xi_i1: float = 0.0
    xi_i2: float = 0.0

    @property
    def x_vec(self) -> np.ndarray:
        return np.array([self.X_f1, self.X_f2, self.X_i1, self.X_i2])

    @property
    def xi_vec(self) -> np.ndarray:
        return np.array([self.xi_f1, self.xi_f2, self.xi_i1, self.xi_i2])


@dataclass(frozen=True)
class ActionForm:
    """Endpoint structure of the integrated classical action at time t.

    action(e) = x^T B xi + linear_X . x + linear_xi . xi + constant, with
    x = (X_f1, X_f2, X_i1, X_i2) and xi = (xi_f1, xi_f2, xi_i1, xi_i2).
    There are provably no X-X or xi-xi couplings.  The drive enters only
    through linear_X (interior-drive cross terms, initial-X slots), via
    linear_xi (the lambda1/lambda2 slots on initial xi and the phi
    coefficients on final xi), and the constant.
    """
    t: float
    bilinear: np.ndarray       # (4, 4): X rows, xi columns
    linear_X: np.ndarray       # (4,)
    linear_xi: np.ndarray      # (4,)
    constant: float
    #: measured magnitude of the X-linear drive block before it is zeroed;
    #: an integration-by-parts identity makes it vanish exactly (the driven
    #: particular path is orthogonal to every homogeneous sum-variable path
    #: under the action's bilinear form), so its computed value is a pure
    #: quadrature-error diagnostic
    linear_X_residual: float = 0.0

    @property
    def U1(self) -> float:
        return float(self.linear_X[2])

    @property
    def U2(self) -> float:
        return float(self.linear_X[3])

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

    def value(self, e: EndpointVector) -> float:
        return float(self.x_value(e.x_vec, e.xi_vec))

    def x_value(self, x: np.ndarray, xi: np.ndarray) -> float:
        return (x @ self.bilinear @ xi + self.linear_X @ x
                + self.linear_xi @ xi + self.constant)

    def labeled_entries(self):
        """(name, value) pairs for the diagnostic dump."""
        out = []
        for i, xl in enumerate(X_LABELS):
            for j, xil in enumerate(XI_LABELS):
                out.append((f"bilinear[{xl},{xil}]", self.bilinear[i, j]))
        for i, xl in enumerate(X_LABELS):
            out.append((f"linear[{xl}]", self.linear_X[i]))
        for j, xil in enumerate(XI_LABELS):
            out.append((f"linear[{xil}]", self.linear_xi[j]))
        out.append(("constant", self.constant))
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


def lagrangian_value(cfg: InternalConfig, X1, X2, dX1, dX2,
                     xi1, xi2, dxi1, dxi2, f1val=0.0, f2val=0.0):
    """Pointwise Lagrangian of the sum/difference variables."""
    return (cfg.m1 * dX1 * dxi1 / 2.0 - cfg.m1 * cfg.w01 ** 2 * X1 * xi1 / 2.0
            - cfg.m1 * cfg.gamma1 * dX1 * xi1
            + cfg.m2 * dX2 * dxi2 / 2.0 - cfg.m2 * cfg.w02 ** 2 * X2 * xi2 / 2.0
            - cfg.m2 * cfg.gamma2 * dX2 * xi2
            + (cfg.lam / 2.0) * (X1 * xi2 + X2 * xi1)
            + xi1 * f1val + xi2 * f2val)


def endpoint_action_form(cfg: InternalConfig, modes: NormalModes,
                         t: float) -> ActionForm:
    """Endpoint structure of the action at time t, in closed form.

    bilinear[a, f_k] = m_k/2 dX_k^a(t) and bilinear[a, i_k] = -m_k/2
    dX_k^a(0), where X^a is the X basis path of endpoint slot a; the
    xi-linear terms are (phi_f1, phi_f2, lambda1, lambda2) of the force
    moments.  linear_X is zero by the same integration by parts, and the
    constant is left at zero because the reduction fixes the normalization
    itself.
    """
    if t <= 0.0:
        raise ConfigError(f"endpoint_action_form needs t > 0, got {t}")
    _, _, dX1, dX2 = basis_paths(modes, t, np.array([0.0, t]), sign=-1.0)
    bilinear = np.empty((4, 4))
    bilinear[:, 0] = 0.5 * cfg.m1 * dX1[:, 1]
    bilinear[:, 1] = 0.5 * cfg.m2 * dX2[:, 1]
    bilinear[:, 2] = -0.5 * cfg.m1 * dX1[:, 0]
    bilinear[:, 3] = -0.5 * cfg.m2 * dX2[:, 0]
    linear_xi = np.zeros(4)
    if not (cfg.force1.is_zero and cfg.force2.is_zero):
        fm = force_moments(modes, cfg.force1, cfg.force2, t)
        linear_xi = np.array([fm.phi_f1, fm.phi_f2, fm.lambda1, fm.lambda2])
    return ActionForm(t=t, bilinear=bilinear, linear_X=np.zeros(4),
                      linear_xi=linear_xi, constant=0.0)


def classical_action_form(cfg: InternalConfig, modes: NormalModes,
                          partic: Optional[ParticularSolution],
                          t: float, n_min: int = 2048) -> ActionForm:
    """Extract the full endpoint structure of the action at time t.

    Quadrature and polarization; the independent cross-check of
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
    linear_X = np.zeros(4)
    constant = 0.0
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
            constant = float(np.sum(w * (p1 * f1v + p2 * f2v)))
    return ActionForm(t=t, bilinear=bilinear, linear_X=linear_X,
                      linear_xi=linear_xi, constant=constant,
                      linear_X_residual=lin_X_res)
