"""Independent cross-checks for the engine.

Everything here is computed by routes that share no code with the engine:
mean trajectories from direct ODE integration of the damped classical
equations (exact for the means of a driven bilinear open system), the
covariance matrix at any time from the resolvent of the Langevin drift
with adaptive frequency quadrature, stationary spreads from the
fluctuation-dissipation integral over the exact susceptibility matrix.
Brute-force double integrals of the bath phase functionals live with the
test suite (`tests/crosscheck/brute.py`).  This module must stay
importable on its own; it deliberately does not import the
mode/action/bath machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad, quad_vec, solve_ivp
from scipy.linalg import expm

from .config import InternalConfig
from .errors import ConfigError


def _force_callable(f) -> Callable[[float], float]:
    """Scalar force of one internal force spec; self-contained on purpose."""
    if f.kind == "zero":
        return lambda tau: 0.0
    if f.kind == "exponential_step":
        f0, t0, dec = f.f0, f.t0, f.decay
        return lambda tau: f0 * math.exp(-dec * tau) if tau >= t0 else 0.0
    times = np.asarray(f.times)
    values = np.asarray(f.values)
    return lambda tau: float(np.interp(tau, times, values,
                                       left=0.0, right=0.0))


def _breakpoints(cfg: InternalConfig, t_end: float) -> list:
    pts = []
    for f in (cfg.force1, cfg.force2):
        if f.kind == "exponential_step" and 0.0 < f.t0 < t_end:
            pts.append(f.t0)
        elif f.kind == "sampled":
            # every knot is a kink of the interpolated force
            pts.extend(float(x) for x in f.times if 0.0 < x < t_end)
    return sorted(set(pts))


@dataclass(frozen=True)
class MeanTrajectory:
    """Classical mean trajectory: columns over the requested times."""
    times: np.ndarray
    x1: np.ndarray
    p1: np.ndarray
    x2: np.ndarray
    p2: np.ndarray


def mean_ode(cfg: InternalConfig, times: Sequence[float],
             rtol: float = 1e-13, atol: float = 1e-18) -> MeanTrajectory:
    """Integrate the exact mean equations of motion from rest.

        m1 x1'' + 2 m1 gamma1 x1' + m1 w01^2 x1 - lam x2 = f1(t)
        m2 x2'' + 2 m2 gamma2 x2' + m2 w02^2 x2 - lam x1 = f2(t)

    The drive onsets are integration breakpoints so the discontinuities
    never sit inside a step.  atol is absolute in internal units, so it is
    set far below the smallest mean amplitude of the presets: at the
    defaults the integration error stays near 1e-12 of each mean's scale.
    """
    times = np.asarray(times, dtype=float)
    t_end = float(times[-1])
    f1 = _force_callable(cfg.force1)
    f2 = _force_callable(cfg.force2)

    def rhs(t, y):
        x1, v1, x2, v2 = y
        a1 = (-cfg.w01 ** 2 * x1 - 2.0 * cfg.gamma1 * v1
              + (cfg.lam * x2 + f1(t)) / cfg.m1)
        a2 = (-cfg.w02 ** 2 * x2 - 2.0 * cfg.gamma2 * v2
              + (cfg.lam * x1 + f2(t)) / cfg.m2)
        return (v1, a1, v2, a2)

    edges = [0.0] + _breakpoints(cfg, t_end) + [t_end]
    y = np.zeros(4)
    out = np.zeros((4, times.size))
    done = np.zeros(times.size, dtype=bool)
    if times[0] == 0.0:
        done[0] = True
    for a, b in zip(edges[:-1], edges[1:]):
        mask = (~done) & (times > a) & (times <= b)
        sol = solve_ivp(rhs, (a, b), y, method="DOP853",
                        rtol=rtol, atol=atol, dense_output=True)
        if np.any(mask):
            out[:, mask] = sol.sol(times[mask])
            done[mask] = True
        y = sol.y[:, -1]
    return MeanTrajectory(times=times,
                          x1=out[0], p1=cfg.m1 * out[1],
                          x2=out[2], p2=cfg.m2 * out[3])


def _drift(cfg: InternalConfig) -> np.ndarray:
    """A, (4, 4): the drift of the Langevin equations over (x1, x2, p1, p2)
    (x_k at index k, p_k at 2 + k), x_k' = p_k / m_k,
    p_k' = -m_k w0k^2 x_k - 2 gamma_k p_k + lam x_other (the equations
    `mean_ode` integrates, plus each bath's noise force on p_k)."""
    A = np.zeros((4, 4))
    for k, (m, w0, g) in enumerate(((cfg.m1, cfg.w01, cfg.gamma1),
                                    (cfg.m2, cfg.w02, cfg.gamma2))):
        p = 2 + k
        A[k, p] = 1.0 / m
        A[p, k] = -m * w0 ** 2
        A[p, p] = -2.0 * g
        A[p, 1 - k] = cfg.lam
    return A


def phase_space_covariance(cfg: InternalConfig, t: float) -> np.ndarray:
    """Covariance matrix over (x1, x2, p1, p2) at time t >= 0, the ordering
    of `SimulationResult.cov`, by the resolvent route.

    The moments obey z' = A z + forces + noise on p_k, where bath k's
    symmetrized noise correlation is (2 m_k gamma_k / pi) int_0^numax_k
    omega coth(omega / 2T_k) cos(omega s) d omega (hbar = 1).  With C0 the
    initial packets' covariance,

        cov(t) = e^{At} C0 e^{A^T t} + sum_k (2 m_k gamma_k / pi)
                 int_0^numax_k omega coth(omega / 2T_k) Re[F F^H] d omega,
        F = (i omega - A)^-1 (e^{i omega t} - e^{At}) e_{p_k},

    F being int_0^t e^{A(t-s)} e_{p_k} e^{i omega s} ds.  Adaptive
    Gauss-Kronrod quadrature in omega (`quad_vec`), with breakpoints at the
    mode frequencies |Im eig A|.  The drive shifts the means only.  Slow:
    0.03-2 s per time up to t = 30 on the presets, about 9 s at t = 2000.
    """
    if not t >= 0.0:
        raise ConfigError(f"phase_space_covariance needs t >= 0, got {t}")
    A = _drift(cfg)
    flow = expm(A * t)
    var_x = np.array([cfg.sigma01_sq, cfg.sigma02_sq])
    c0 = np.concatenate([var_x, 0.25 * cfg.hbar ** 2 / var_x])
    cov = (flow * c0) @ flow.T
    freqs = sorted(set(np.abs(np.linalg.eigvals(A).imag)))
    for k, (m, g, T, numax) in enumerate(
            ((cfg.m1, cfg.gamma1, cfg.T1, cfg.numax1),
             (cfg.m2, cfg.gamma2, cfg.T2, cfg.numax2))):
        if g == 0.0:
            continue
        e_p = np.zeros(4)
        e_p[2 + k] = 1.0
        end = flow @ e_p

        def integrand(w, e_p=e_p, end=end, T=T):
            F = np.linalg.solve(1j * w * np.eye(4) - A,
                                np.exp(1j * w * t) * e_p - end)
            weight = w * _coth(w / (2.0 * T)) if T > 0 else w
            return weight * np.outer(F, F.conj()).real

        noise, _ = quad_vec(integrand, 0.0, numax, epsrel=1e-13,
                            points=[w for w in freqs if 0.0 < w < numax])
        cov += (2.0 * m * g / math.pi) * noise
    return 0.5 * (cov + cov.T)


def _coth(theta: float) -> float:
    if theta < 1e-4:
        return 1.0 / theta + theta / 3.0
    return 1.0 / math.tanh(theta)


def susceptibility(cfg: InternalConfig, omega: float) -> np.ndarray:
    """Exact 2x2 response matrix of the coupled damped pair."""
    d1 = cfg.m1 * (cfg.w01 ** 2 - omega ** 2 - 2j * cfg.gamma1 * omega)
    d2 = cfg.m2 * (cfg.w02 ** 2 - omega ** 2 - 2j * cfg.gamma2 * omega)
    A = np.array([[d1, -cfg.lam], [-cfg.lam, d2]], dtype=complex)
    return np.linalg.inv(A)


def fdt_stationary_variance(cfg: InternalConfig) -> dict:
    """Late-time spreads from the fluctuation-dissipation integral.

    Exact for equal bath temperatures.  For unequal temperatures the same
    integral taken at each bath temperature gives a soft bracket, returned
    as (low, high); the true stationary value need not sit strictly inside,
    so treat it as a sanity range, not a bound.
    """
    numax = min(cfg.numax1, cfg.numax2)
    temps = sorted({cfg.T1, cfg.T2})

    def spread(T, which, momentum):
        def integrand(w):
            chi = susceptibility(cfg, w)[which, which].imag
            th = _coth(w / (2.0 * T)) if T > 0 else 1.0
            extra = (cfg.m1 if which == 0 else cfg.m2) ** 2 * w ** 2 \
                if momentum else 1.0
            return th * chi * extra / math.pi
        pts = [w for w in (cfg.w01, cfg.w02) if w < numax]
        val, _ = quad(integrand, 0.0, numax, points=pts, limit=400)
        return val

    out = {}
    for which, name in ((0, "x1"), (1, "x2")):
        vx = [spread(T, which, False) for T in temps]
        vp = [spread(T, which, True) for T in temps]
        out[f"var_{name}"] = tuple(vx) if len(vx) > 1 else vx[0]
        out[f"var_p{name[1]}"] = tuple(vp) if len(vp) > 1 else vp[0]
    out["equal_temperatures"] = len(temps) == 1
    return out
