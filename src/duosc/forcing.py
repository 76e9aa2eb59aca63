"""External forces and their mode-projected moment functionals.

The driven sector of the dynamics only ever sees the forces through eight
weighted integrals of the form  int_0^t f(tau) {sin,cos}(Omega_k tau)
exp(delta_k tau) dtau  and the linear-in-endpoint combinations built from
them.  For exponential-step forces these integrals have elementary
antiderivatives, evaluated here in closed form; sampled forces are handled
with Gauss-Legendre panels (the integrand grows like exp(delta*tau), so
panel quadrature on the sample grid beats any global uniform rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import InternalForce, ForceSpec, OscillatorParams
from .errors import ConfigError
from .modes import NormalModes, check_caustic

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def force_value(f, tau):
    """Force value(s) at time(s) tau (internal units).

    Accepts an InternalForce; scalar tau in, scalar out.
    """
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    if f.kind == "zero":
        out = np.zeros_like(tau_arr)
    elif f.kind == "exponential_step":
        out = np.where(tau_arr >= f.t0, f.f0 * np.exp(-f.decay * tau_arr), 0.0)
    elif f.kind == "sampled":
        out = np.interp(tau_arr, f.times, f.values, left=0.0, right=0.0)
    else:  # pragma: no cover
        raise ConfigError(f"unknown force kind {f.kind!r}")
    if np.isscalar(tau) or np.ndim(tau) == 0:
        return float(out[0])
    return out


def default_amplitude_internal(mass: float, w0: float, sigma0: float,
                               f: InternalForce) -> float:
    """Amplitude making the integrated impulse equal the momentum scale.

    The impulse of an exponential-step force is approximately
    f0 * exp(-decay*t0) / decay; setting it to mass*w0*sigma0 gives
    f0 = decay * exp(decay*t0) * mass * w0 * sigma0.  (The heuristic as
    printed in the source material equates a force amplitude with
    length*rate, which is dimensionally short one mass*frequency factor;
    this is the impulse reading of it.  An explicit amplitude bypasses
    the heuristic entirely.)
    """
    if f.decay <= 0:
        raise ConfigError("amplitude heuristic needs a positive decay rate")
    return f.decay * math.exp(f.decay * f.t0) * mass * w0 * sigma0


def default_amplitude(osc: OscillatorParams, force: ForceSpec) -> float:
    """CGS counterpart of default_amplitude_internal."""
    if force.decay <= 0:
        raise ConfigError("amplitude heuristic needs a positive decay rate")
    sigma0 = math.sqrt(osc.sigma0_sq)
    return (force.decay * math.exp(force.decay * force.onset)
            * osc.mass * osc.eigenfrequency * sigma0)


def _expi_integral(alpha: complex, a: float, b: float) -> complex:
    """int_a^b exp(alpha*tau) dtau for complex alpha, series-safe near 0."""
    h = b - a
    z = alpha * h
    if abs(z) < 1e-8:
        # exp(alpha*a) * h * (1 + z/2 + z^2/6 + ...)
        return np.exp(alpha * a) * h * (1.0 + z / 2.0 + z * z / 6.0)
    return (np.exp(alpha * b) - np.exp(alpha * a)) / alpha


def oscillatory_moment(f, Omega: float, delta: float, t: float
                       ) -> tuple[float, float]:
    """(M, N) = int_0^t f(tau) (sin, cos)(Omega tau) exp(delta tau) dtau."""
    if f.is_zero or t <= 0.0:
        return 0.0, 0.0
    if f.kind == "exponential_step":
        if t <= f.t0:
            return 0.0, 0.0
        alpha = complex(delta - f.decay, Omega)
        val = f.f0 * _expi_integral(alpha, f.t0, t)
        return val.imag, val.real
    # sampled: panels bounded by sample points and a trig/envelope scale;
    # each interval between breaks splits into nsub equal sub-panels, and
    # the nodes of all sub-panels are built as one array
    scale = max(abs(Omega), abs(delta), 1.0)
    h_max = 0.25 * math.pi / scale
    knots = np.asarray(f.times, dtype=float)
    breaks = knots[(knots > 0.0) & (knots < t)]
    edges = np.unique(np.concatenate(([0.0], breaks, [t])))
    a, length = edges[:-1], np.diff(edges)
    nsub = np.maximum(1, np.ceil(length / h_max).astype(int))
    panel = np.repeat(np.arange(a.size), nsub)
    j = np.arange(panel.size) - np.repeat(np.cumsum(nsub) - nsub, nsub)
    h = (length / nsub)[panel]
    sa = a[panel] + j * h
    sb = np.where(j + 1 == nsub[panel], edges[1:][panel], sa + h)
    mid, half = 0.5 * (sa + sb), 0.5 * (sb - sa)
    nodes = mid[:, None] + half[:, None] * _GL_NODES
    fv = force_value(f, nodes.ravel()).reshape(nodes.shape)
    val = np.sum(half[:, None] * _GL_WEIGHTS * fv
                 * np.exp(complex(delta, Omega) * nodes))
    return float(val.imag), float(val.real)


@dataclass(frozen=True)
class ForceMoments:
    """The eight mode-projected force integrals at time t, plus the
    endpoint-linear combinations they enter the classical action through.

    M1, N1, M2, N2 use force 1; the primed set uses force 2.  lambda1 and
    lambda2 multiply the initial difference-variable endpoints; phi_f1 and
    phi_f2 multiply the final ones.
    """
    t: float
    M1: float
    N1: float
    M2: float
    N2: float
    M1p: float
    N1p: float
    M2p: float
    N2p: float
    lambda1: float
    lambda2: float
    phi_f1: float
    phi_f2: float


def force_moments(modes: NormalModes, f1, f2, t: float) -> ForceMoments:
    """Assemble all force moments and their endpoint coefficients at time t."""
    if t <= 0.0:
        raise ConfigError(f"force_moments needs t > 0, got {t}")
    check_caustic(modes, t)
    O1, O2 = modes.Omega1, modes.Omega2
    d1, d2 = modes.delta1, modes.delta2
    M1, N1 = oscillatory_moment(f1, O1, d1, t)
    M2, N2 = oscillatory_moment(f1, O2, d2, t)
    M1p, N1p = oscillatory_moment(f2, O1, d1, t)
    M2p, N2p = oscillatory_moment(f2, O2, d2, t)
    r1, r2 = modes.r1, modes.r2
    q = modes.one_minus_r1r2
    cot1 = math.cos(O1 * t) / math.sin(O1 * t)
    cot2 = math.cos(O2 * t) / math.sin(O2 * t)
    lambda1 = ((-cot1 * M1 + N1 + r1 * r2 * cot2 * M2 - r1 * r2 * N2)
               + (-r1 * cot1 * M1p + r1 * N1p + r1 * cot2 * M2p - r1 * N2p)) / q
    lambda2 = ((r2 * cot1 * M1 - r2 * N1 - r2 * cot2 * M2 + r2 * N2)
               + (r1 * r2 * cot1 * M1p - r1 * r2 * N1p - cot2 * M2p + N2p)) / q
    # final-endpoint coefficients of the driven linear action term
    g1 = (M1 + r1 * M1p) * math.exp(-d1 * t) / (q * math.sin(O1 * t))
    g2 = (M2p + r2 * M2) * math.exp(-d2 * t) / (q * math.sin(O2 * t))
    phi_f1 = g1 - r1 * g2
    phi_f2 = g2 - r2 * g1
    return ForceMoments(
        t=t, M1=M1, N1=N1, M2=M2, N2=N2,
        M1p=M1p, N1p=N1p, M2p=M2p, N2p=N2p,
        lambda1=lambda1, lambda2=lambda2,
        phi_f1=phi_f1, phi_f2=phi_f2,
    )
