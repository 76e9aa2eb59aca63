"""External forces and their mode-projected moment functionals.

The driven sector of the dynamics only ever sees the forces through eight
weighted integrals of the form  int_0^t f(tau) {sin,cos}(Omega_k tau)
exp(delta tau) dtau.  Both force kinds have elementary antiderivatives,
evaluated here in closed form: an exponential step directly, a sampled
force (linear between its knots, zero outside them) per knot interval,
summed over the intervals below t.

`drive_amplitudes` turns the moments of the mode-projected force into the
drive's amplitudes on the phase-space flow (`modes.response_matrices`),
which `engine.simulate` and `action.endpoint_action_arrays` both use.
"""

from __future__ import annotations

import math

import numpy as np

from .modes import NormalModes, component_weights


def force_value(f, tau):
    """Force value(s) at time(s) tau (internal units).

    Accepts an InternalForce; scalar tau in, scalar out.
    """
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    if f.kind == "zero":
        out = np.zeros_like(tau_arr)
    elif f.kind == "exponential_step":
        out = np.where(tau_arr >= f.t0, f.f0 * np.exp(-f.decay * tau_arr), 0.0)
    else:
        out = np.interp(tau_arr, f.times, f.values, left=0.0, right=0.0)
    if np.isscalar(tau) or np.ndim(tau) == 0:
        return float(out[0])
    return out


def oscillatory_moments(f, Omega, delta, times: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(M, N) = int_0^t f(tau) (sin, cos)(Omega tau) exp(delta tau) dtau at
    each of `times`, in closed form for both force kinds.

    Omega may be an array of shape S (one entry per mode), and delta a
    number or an array of that shape; M and N then have shape S +
    (times.size,).
    """
    times = np.ascontiguousarray(times, dtype=float)
    alpha = (np.asarray(delta, dtype=float)
             + 1j * np.asarray(Omega, dtype=float))[..., None]
    if f.is_zero:
        zero = np.zeros(alpha.shape[:-1] + times.shape)
        return zero, zero.copy()
    if f.kind == "exponential_step":
        # f0 int_t0^t exp(alpha tau) dtau, series-safe for small alpha h
        alpha = alpha - f.decay
        h = times - f.t0
        z = alpha * h
        start = np.exp(alpha * f.t0)
        series = np.abs(z) < 1e-8
        val = np.where(series, start * h * (1.0 + z / 2.0 + z * z / 6.0),
                       (np.exp(alpha * times) - start) / alpha)
        val = np.where(times > f.t0, f.f0 * val, 0.0)
    else:
        val = _sampled_moments(f, alpha, times)
    return val.imag, val.real


# Taylor coefficients of E1 / L = (exp(z) - 1) / z = sum z^k / (k+1)! and
# E2 / L^2 = int_0^1 x exp(z x) dx = sum z^k / (k! (k+2)), as columns, highest
# power first: 10 terms reach 1e-17 relative for |z| < _SERIES_Z, where the
# closed form of E2 would lose up to 2 eps / |z| to cancellation
_SERIES_Z = 0.1
_SERIES = np.array([[1.0 / math.factorial(k + 1),
                     1.0 / (math.factorial(k) * (k + 2))]
                    for k in range(9, -1, -1)])[:, :, None]


def _sampled_moments(f, alpha: np.ndarray, times: np.ndarray) -> np.ndarray:
    """int_0^t f(tau) exp(alpha tau) dtau for the linear interpolant f of a
    sampled profile (zero outside its knots), at each of `times`; `alpha`
    has shape S + (1,), the result S + (times.size,).

    On a knot interval [a, a + L] with f = v + s u, u = tau - a, the
    integral is exp(alpha a) (v E1 + s E2), E1 = int_0^L exp(alpha u) du =
    expm1(alpha L) / alpha and E2 = int_0^L u exp(alpha u) du = (L
    exp(alpha L) - E1) / alpha, or their Taylor series where |alpha L| <
    _SERIES_Z.  A prefix sum over the intervals clipped to [0, inf) plus
    one partial interval per time gives every time at once; each value
    depends on the knots, its alpha and its own t only.
    """
    x = np.asarray(f.times, dtype=float)
    v = np.asarray(f.values, dtype=float)
    if x[0] < 0.0:
        keep = x > 0.0
        v = np.concatenate(([np.interp(0.0, x, v)], v[keep]))
        x = np.concatenate(([0.0], x[keep]))
    length = np.diff(x)
    slope = np.append(np.diff(v) / length, 0.0)
    # the interval holding each time, and the part of it below t; a time
    # outside the knots gets a zero part (all or none of the intervals)
    j = np.maximum(np.searchsorted(x, times, side="right") - 1, 0)
    part = np.minimum(np.maximum(times, x[0]), x[-1]) - x[j]
    # one array for the whole intervals and the partial ones
    idx = np.concatenate((np.arange(length.size), j))
    L = np.concatenate((length, part))
    z = alpha * L
    flat = z.reshape(-1)
    small = np.flatnonzero(np.abs(flat) < _SERIES_Z)
    zs = flat[small]
    flat[small] = 1.0                 # keeps the closed form finite there
    inv = 1.0 / np.where(alpha == 0.0, 1.0, alpha)   # alpha = 0: all small
    em1 = np.expm1(z)
    e1 = em1 * inv
    e2 = (L * (em1 + 1.0) - e1) * inv
    if small.size:
        Ls = L[small % L.size]
        acc = _SERIES[0] + 0.0 * zs   # (2, m): E1 / L and E2 / L^2
        for c in _SERIES[1:]:
            acc *= zs
            acc += c
        e1.reshape(-1)[small] = acc[0] * Ls
        e2.reshape(-1)[small] = acc[1] * Ls * Ls
    terms = np.exp(alpha * x[idx]) * (v[idx] * e1 + slope[idx] * e2)
    prefix = np.zeros(alpha.shape[:-1] + (x.size,), dtype=complex)
    np.cumsum(terms[..., :length.size], axis=-1, out=prefix[..., 1:])
    return prefix[..., j] + terms[..., length.size:]


def drive_amplitudes(modes: NormalModes, f1, f2,
                     times: np.ndarray) -> np.ndarray:
    """m(t), (n, 4): the drive's amplitudes on [sin1, cos1, sin2, cos2] of
    the phase-space flow (`modes.response_matrices`): the moments (M, N)
    of u_k . F, M in the sin columns and N in the cos columns."""
    times = np.ascontiguousarray(times, dtype=float)
    Omega = np.array([modes.Omega1, modes.Omega2])
    out = np.zeros((times.size, 4))
    for f, u in zip((f1, f2), component_weights(modes)):
        if f.is_zero:           # its moments are 0: the sum gains only +-0
            continue
        M, N = oscillatory_moments(f, Omega, modes.delta, times)
        out[:, 0::2] += u[0::2] * M.T
        out[:, 1::2] += u[1::2] * N.T
    return out

