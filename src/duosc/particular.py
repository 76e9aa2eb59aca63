"""Particular solutions of the driven anti-damped sector.

The difference-variable sector obeys

    xi1'' - 2*gamma*xi1' + w01^2*xi1 - (lam/m1)*xi2 = 2*f1(tau)/m1
    xi2'' - 2*gamma*xi2' + w02^2*xi2 - (lam/m2)*xi1 = 2*f2(tau)/m2

and the construction needs the unique particular solution vanishing at BOTH
tau=0 and tau=t.  For equal dampings the substitution xi = exp(gamma*tau)*u
removes the anti-damping, and the residual 2x2 stiffness matrix is
diagonalized by the mode-ratio vectors (1, r1) and (r2, 1); each scalar mode
is then solved by variation of parameters (a Duhamel integral) and endpoint-
corrected with a sine term.  For exponential-step forces every integral in
sight is elementary, so the solution is exact at every requested point; the
Fourier-spectrum route is kept as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .config import InternalForce
from .errors import CausticTime, ConfigError, QuadratureNonConvergence
from .forcing import force_value
from .modes import NormalModes, check_caustic, homogeneous_xi_paths

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

DEFAULT_GRID_POINTS = 8192


def _cumulative_oscillatory(f: InternalForce, rate: float, omega: float,
                            tau: np.ndarray) -> np.ndarray:
    """int_0^tau_j f(s) exp(rate*s) exp(i*omega*s) ds, for every tau_j.

    Closed form for exponential-step forces; panel Gauss-Legendre with
    cumulative accumulation for sampled ones (tau must be sorted for the
    sampled branch to be efficient; it is handled either way).
    """
    tau = np.asarray(tau, dtype=float)
    if f.is_zero:
        return np.zeros(tau.shape, dtype=complex)
    if f.kind == "exponential_step":
        alpha = complex(rate - f.decay, omega)
        out = np.zeros(tau.shape, dtype=complex)
        mask = tau > f.t0
        if abs(alpha) < 1e-9:
            out[mask] = f.f0 * (tau[mask] - f.t0) * (
                1.0 + alpha * (tau[mask] + f.t0) / 2.0)
        else:
            out[mask] = f.f0 * (np.exp(alpha * tau[mask])
                                - np.exp(alpha * f.t0)) / alpha
        return out
    # sampled force: integrate panel by panel in sorted order
    order = np.argsort(tau, kind="stable")
    tau_sorted = tau[order]
    scale = max(abs(omega), abs(rate), 1.0)
    h_max = 0.25 * math.pi / scale
    vals = np.zeros(tau_sorted.shape, dtype=complex)
    acc = 0.0 + 0.0j
    prev = 0.0
    alpha = complex(rate, omega)
    for j, tj in enumerate(tau_sorted):
        if tj > prev:
            nsub = max(1, int(math.ceil((tj - prev) / h_max)))
            edges = np.linspace(prev, tj, nsub + 1)
            mids = 0.5 * (edges[:-1] + edges[1:])
            halfs = 0.5 * (edges[1:] - edges[:-1])
            nodes = (mids[:, None] + halfs[:, None] * _GL_NODES).ravel()
            wts = (halfs[:, None] * _GL_WEIGHTS).ravel()
            fv = force_value(f, nodes)
            acc += np.sum(wts * fv * np.exp(alpha * nodes))
            prev = tj
        vals[j] = acc
    out = np.empty_like(vals)
    out[order] = vals
    return out


@dataclass(frozen=True)
class ParticularSolution:
    """Particular solution on [0, t], vanishing at both endpoints.

    Exact evaluation anywhere via .values / .derivatives; the dense grid and
    spline are the advertised tabulated representation.
    """
    t: float
    grid: np.ndarray
    xi1_grid: np.ndarray
    xi2_grid: np.ndarray
    boundary_residuals: Tuple[float, float, float, float]
    _eval: Callable = None
    _spline1: Callable = None
    _spline2: Callable = None

    def values(self, tau) -> Tuple[np.ndarray, np.ndarray]:
        xi1, xi2, _, _ = self._eval(np.asarray(tau, dtype=float))
        return xi1, xi2

    def derivatives(self, tau) -> Tuple[np.ndarray, np.ndarray]:
        _, _, d1, d2 = self._eval(np.asarray(tau, dtype=float))
        return d1, d2

    def xi1(self, tau):
        return self.values(tau)[0]

    def xi2(self, tau):
        return self.values(tau)[1]

    def interpolated(self, tau) -> Tuple[np.ndarray, np.ndarray]:
        tau = np.asarray(tau, dtype=float)
        return self._spline1(tau), self._spline2(tau)


def particular_solution(modes: NormalModes, f1: InternalForce,
                        f2: InternalForce, t: float,
                        n_grid: int = DEFAULT_GRID_POINTS
                        ) -> ParticularSolution:
    """Build the endpoint-vanishing particular solution on [0, t]."""
    from scipy.interpolate import CubicSpline   # kept off `import duosc`

    if t <= 0.0:
        raise ConfigError(f"particular_solution needs t > 0, got {t}")
    check_caustic(modes, t)
    gamma = modes.gamma1
    r1, r2 = modes.r1, modes.r2
    q = modes.one_minus_r1r2
    O = (modes.Omega1, modes.Omega2)
    m = (modes.m1, modes.m2)
    # mode projections of the de-damped drive exp(-gamma*s) * (2 f_i / m_i):
    # row k of V^{-1} = [[1, -r2], [-r1, 1]]/q applied to (G1, G2)
    proj = np.array([[1.0 / q * 2.0 / m[0], -r2 / q * 2.0 / m[1]],
                     [-r1 / q * 2.0 / m[0], 1.0 / q * 2.0 / m[1]]])
    forces = (f1, f2)

    sin_Ot = (math.sin(O[0] * t), math.sin(O[1] * t))

    def q_modes(tau: np.ndarray, with_end: bool = True):
        """Mode coordinates q_k(tau) and derivatives, endpoint-corrected."""
        qs, dqs = [], []
        for k in range(2):
            # J_k(tau) = int_0^tau g_k(s) e^{i Omega_k s} ds with
            # g_k = sum_i proj[k, i] * f_i(s) * exp(-gamma*s)
            J = np.zeros(tau.shape, dtype=complex)
            for i in range(2):
                if proj[k, i] != 0.0 and not forces[i].is_zero:
                    J = J + proj[k, i] * _cumulative_oscillatory(
                        forces[i], -gamma, O[k], tau)
            C, S = J.real, J.imag
            sn, cs = np.sin(O[k] * tau), np.cos(O[k] * tau)
            q0 = (sn * C - cs * S) / O[k]
            dq0 = cs * C + sn * S
            qs.append(q0)
            dqs.append(dq0)
        if with_end:
            # endpoint correction: q_k -> q_k - q_k(t)*sin(O_k tau)/sin(O_k t)
            tarr = np.array([t])
            q_end = q_modes(tarr, with_end=False)
            for k in range(2):
                amp = q_end[0][k][0] / sin_Ot[k]
                qs[k] = qs[k] - amp * np.sin(O[k] * tau)
                dqs[k] = dqs[k] - amp * O[k] * np.cos(O[k] * tau)
        return qs, dqs

    def evaluate(tau: np.ndarray):
        tau = np.atleast_1d(tau)
        (q1, q2), (dq1, dq2) = q_modes(tau)
        env = np.exp(gamma * tau)
        # xi = e^{gamma tau} V q, V = [[1, r2], [r1, 1]]
        xi1 = env * (q1 + r2 * q2)
        xi2 = env * (r1 * q1 + q2)
        dxi1 = env * ((dq1 + r2 * dq2) + gamma * (q1 + r2 * q2))
        dxi2 = env * ((r1 * dq1 + dq2) + gamma * (r1 * q1 + q2))
        return xi1, xi2, dxi1, dxi2

    # dense grid, refined toward both endpoints (Chebyshev point spacing)
    k = np.arange(n_grid)
    grid = 0.5 * t * (1.0 - np.cos(math.pi * k / (n_grid - 1)))
    xi1g, xi2g, _, _ = evaluate(grid)
    b = (float(xi1g[0]), float(xi2g[0]), float(xi1g[-1]), float(xi2g[-1]))
    return ParticularSolution(
        t=t, grid=grid, xi1_grid=xi1g, xi2_grid=xi2g,
        boundary_residuals=b, _eval=evaluate,
        _spline1=CubicSpline(grid, xi1g), _spline2=CubicSpline(grid, xi2g),
    )


# ---------------------------------------------------------------------------
# independent Fourier-spectrum route (cross-check only)

def _force_transform(f: InternalForce, omega: np.ndarray) -> np.ndarray:
    """F(omega) = int f(s) exp(-i omega s) ds over the force's support."""
    if f.is_zero:
        return np.zeros(omega.shape, dtype=complex)
    if f.kind == "exponential_step":
        return f.f0 * np.exp(-(f.decay + 1j * omega) * f.t0) / (f.decay + 1j * omega)
    # sampled: straightforward panel quadrature over the sample range
    out = np.zeros(omega.shape, dtype=complex)
    edges = f.times
    for a, b2 in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b2), 0.5 * (b2 - a)
        nodes = mid + half * _GL_NODES
        fv = force_value(f, nodes)
        out += half * np.sum(
            _GL_WEIGHTS[None, :] * fv[None, :]
            * np.exp(-1j * np.outer(omega, nodes)), axis=1)
    return out


def fourier_route(modes: NormalModes, f1: InternalForce, f2: InternalForce,
                  t: float, tau: np.ndarray,
                  omega_max: float = None, nodes_per_unit: float = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Particular solution via the frequency-domain spectra, endpoint-fixed.

    Evaluates the free-space spectral integral with composite quadrature
    over a truncated window, then removes the endpoint values with a
    homogeneous solution, which is exactly the role of the spectral
    construction's correction terms.  Cross-check only; much slower than
    particular_solution.
    """
    if modes.gamma1 <= 0.0:
        raise ConfigError("fourier route needs gamma > 0 (poles off the axis)")
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    decay_scales = [f.decay for f in (f1, f2) if f.kind == "exponential_step"]
    if omega_max is None:
        omega_max = 40.0 * max([modes.Omega2] + decay_scales + [1.0])
    if nodes_per_unit is None:
        nodes_per_unit = max(8.0, 10.0 * t / (2.0 * math.pi))
    n = int(math.ceil(omega_max * nodes_per_unit))
    n = max(n, 2048)
    # composite Gauss-Legendre over [0, omega_max]
    panels = max(64, n // 12)
    edges = np.linspace(0.0, omega_max, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    w_nodes = (mids[:, None] + halfs[:, None] * _GL_NODES).ravel()
    w_wts = (halfs[:, None] * _GL_WEIGHTS).ravel()

    m1, m2, lam = modes.m1, modes.m2, modes.lam
    F1 = (2.0 / m1) * _force_transform(f1, w_nodes)
    F2 = (2.0 / m2) * _force_transform(f2, w_nodes)
    D1 = modes.w01 ** 2 - w_nodes ** 2 - 2j * modes.gamma1 * w_nodes
    D2 = modes.w02 ** 2 - w_nodes ** 2 - 2j * modes.gamma2 * w_nodes
    D = D1 * D2 - lam ** 2 / (m1 * m2)
    C1 = ((lam / m1) * F2 + D2 * F1) / D
    C2 = ((lam / m2) * F1 + D1 * F2) / D

    def free(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        phase = np.exp(1j * np.outer(points, w_nodes))
        h1 = (phase @ (w_wts * C1)).real / math.pi
        h2 = (phase @ (w_wts * C2)).real / math.pi
        return h1, h2

    h1, h2 = free(tau)
    ends = np.array([0.0, t])
    e1, e2 = free(ends)
    c1, c2 = homogeneous_xi_paths(
        modes, (-e1[0], -e2[0], -e1[1], -e2[1]), None, t, tau)
    return h1 + c1, h2 + c2


def verify_fourier_route(ps: ParticularSolution, modes: NormalModes,
                         f1: InternalForce, f2: InternalForce,
                         n_check: int = 9, tol: float = 1e-6) -> float:
    """Compare the spectral route against the variation-of-parameters result
    at interior points; raise QuadratureNonConvergence on disagreement.
    Returns the scaled maximum deviation."""
    t = ps.t
    tau = np.linspace(0.1 * t, 0.9 * t, n_check)
    a1, a2 = ps.values(tau)
    b1, b2 = fourier_route(modes, f1, f2, t, tau)
    scale = max(np.max(np.abs(a1)), np.max(np.abs(a2)), 1e-300)
    dev = max(np.max(np.abs(a1 - b1)), np.max(np.abs(a2 - b2))) / scale
    if dev > tol:
        raise QuadratureNonConvergence(
            f"spectral route deviates by {dev:.3e} (tol {tol:.1e})")
    return dev
