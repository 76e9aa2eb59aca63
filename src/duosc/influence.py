"""Bath-induced phase functionals on classical difference-variable paths.

Each bath contributes a real, positive phase

    phi = pref * int_0^numax dw w coth(w / 2T) *
          int_0^t dt' int_0^t' dt'' xi(t') cos[w (t'-t'')] xi(t'')

with pref = 2*m*gamma/(hbar*pi), evaluated on the classical path of the
oscillator that bath touches.  Since the cosine double integral over the
triangle is half the symmetric square integral, it collapses to
(1/2) * Re[F(w) * conj(F(w))] with F the finite-time Fourier transform of
the path, which for the trig-times-exponential boundary paths is elementary.
The endpoint quadratic form is extracted exactly from the four unit-endpoint
basis paths.

Production route (`bath_spectra` + `grid_noise`): whole time grids at once,
one spectrum per distinct (cutoff, temperature).  `grid_noise` returns the
double integral R(t) over the four anti-damped elementary functions, before
any endpoint map; the engine uses it as the noise covariance of the mode
amplitudes, which is regular at every t.  Partial fractions move all
t-dependence of the omega integral into eight transforms, which
Filon-Legendre quadrature on panels graded to the poles gives exactly in t
as one matrix product per time; below t = 1 the phase is summed directly
on a small pole-free layout of its own (section at the end of this module).

Cross-check routes, in the endpoint (boundary-value) form that is singular
on the caustics: `grid_quadratic`, 1/2 V^T R V over the final and initial xi
endpoints, and `influence_form`, one composite omega quadrature per time,
resolving exp(-i w t) anew.  The drive never enters the bath phase
(Feynman & Vernon 1963), so the phase has no linear or constant part.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import InternalConfig
from .errors import ConfigError
from .modes import (NormalModes, check_caustic, coefficient_matrices,
                    component_weights, xi_coefficient_matrix)

log = logging.getLogger("duosc")

_GL16 = np.polynomial.legendre.leggauss(16)
#: panels are bisected until every singularity of the integrand lies
#: outside the panel's Bernstein ellipse of this parameter
BERNSTEIN_RHO = 4.0


def thermal_weight(omega: np.ndarray, T: float) -> np.ndarray:
    """omega * coth(omega / 2T), with T = 0 meaning coth -> 1.

    Finite everywhere: the omega -> 0 limit is 2T.
    """
    omega = np.asarray(omega, dtype=float)
    if T == 0.0:
        return np.abs(omega)
    theta = omega / (2.0 * T)
    small = np.abs(theta) < 1e-4
    out = np.empty_like(omega)
    # omega*coth(omega/2T) = 2T*(1 + theta^2/3 + ...) near zero
    out[small] = 2.0 * T * (1.0 + theta[small] ** 2 / 3.0)
    out[~small] = omega[~small] / np.tanh(theta[~small])
    return out


# ---------------------------------------------------------------------------
# frequency-domain evaluation of the endpoint form

@dataclass(frozen=True)
class InfluenceForm:
    """Endpoint structure of the total bath phase at time t.

    phi(e) = e^T quadratic e over e = (xi_f1, xi_f2, xi_i1, xi_i2); the
    block is drive-independent and positive semidefinite.
    """
    t: float
    quadratic: np.ndarray   # (4, 4) symmetric


def _bernstein_rho(lo: np.ndarray, hi: np.ndarray,
                   s: complex) -> np.ndarray:
    """Bernstein-ellipse parameter of singularity s for panels [lo, hi].

    A function analytic inside the ellipse with foci lo, hi through s has
    Legendre coefficients on the panel decaying like rho^-k.  The layout
    tests the equivalent focal-distance sum (`_graded_panels`); the tests
    check it against this definition.
    """
    z = (s - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
    w = np.sqrt(z * z - 1.0)
    return np.maximum(np.abs(z + w), np.abs(z - w))


#: rho < BERNSTEIN_RHO  <=>  |s - lo| + |s - hi| < _FOCAL_SUM (hi - lo): the
#: ellipse of parameter rho has semi-major axis (rho + 1/rho) (hi - lo) / 4
_FOCAL_SUM = 0.5 * (BERNSTEIN_RHO + 1.0 / BERNSTEIN_RHO)


def _graded_panels(numax: float, panels: int, singular) -> tuple:
    """Centres and half-widths of `panels` uniform panels on [0, numax],
    bisected until no singularity in `singular` lies within a panel's
    Bernstein ellipse of parameter BERNSTEIN_RHO.

    A panel bisected d times gets the half-width h0 / 2^d exactly, with h0
    that of a uniform panel, so panels of one depth share one float however
    their edges round.  The layout depends on its arguments only.
    """
    edges = np.linspace(0.0, numax, panels + 1)
    singular = np.asarray(singular, dtype=complex)[:, None]
    # a panel that passes for every singularity keeps its halves passing
    # (the ellipse of a sub-panel lies inside its parent's), so each round
    # tests only the halves made in the round before
    lo, hi = edges[:-1], edges[1:]
    new = [edges]
    while lo.size:
        bad = (np.abs(singular - lo) + np.abs(singular - hi)
               < _FOCAL_SUM * (hi - lo)).any(0)
        lo, hi = lo[bad], hi[bad]
        mid = 0.5 * (lo + hi)
        new.append(mid)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    edges = np.sort(np.concatenate(new))
    # a panel of depth d spans 2 h0 / 2^d up to rounding, so 3 h0 / width
    # is 0.75 * 2^(d+1) and its binary exponent is d + 1
    h0 = 0.5 * numax / panels
    depth = np.frexp(3.0 * h0 / np.diff(edges))[1] - 1
    return 0.5 * (edges[:-1] + edges[1:]), np.ldexp(h0, -depth)


def _matsubara_pole(T: float) -> tuple:
    """The singularity of w coth(w / 2T) nearest the real axis: 2 pi i T.

    At T = 0 the weight is the polynomial w on [0, numax]."""
    return (2j * math.pi * T,) if T > 0.0 else ()


def _panel_nodes(mids: np.ndarray, halfs: np.ndarray, rule) -> tuple:
    nodes = (mids[:, None] + halfs[:, None] * rule[0]).ravel()
    wts = (halfs[:, None] * rule[1]).ravel()
    return nodes, wts


def _omega_panels(numax: float, t: float, T: float):
    """Composite GL-16 nodes resolving the O(2 pi / t) oscillation in w,
    graded towards w = 0 down to the thermal scale 2 pi T.

    Cross-check route only (`influence_form`).
    """
    panels = max(64, 4 * int(math.ceil(numax * t / (2.0 * math.pi))))
    return _panel_nodes(*_graded_panels(numax, panels, _matsubara_pole(T)),
                        _GL16)


def _elementary_transforms(modes: NormalModes, times,
                           omega: np.ndarray) -> np.ndarray:
    """F_c(t, w) = int_0^t psi_c(tau) exp(-i w tau) dtau for the four
    anti-damped elementary functions [sin1, cos1, sin2, cos2]; (n, 4, N)
    for n times and N frequencies.

    Cross-check route, and the small-t branch of `grid_noise`."""
    t = np.asarray(times, dtype=float).reshape(-1, 1)
    out = np.empty((t.shape[0], 4, omega.size), dtype=complex)
    for k, (O, d) in enumerate(((modes.Omega1, modes.delta1),
                                (modes.Omega2, modes.delta2))):
        ap = d + 1j * (O - omega)
        am = d - 1j * (O + omega)

        def E(alpha):
            # expm1: exp(alpha t) - 1 cancels where |alpha t| << 1, which
            # near w = Omega costs up to 1e-9 relative at t ~ 1e-5
            zero = alpha == 0.0
            res = np.expm1(alpha * t) / np.where(zero, 1.0, alpha)
            res[:, zero] = t
            return res

        Ep, Em = E(ap), E(am)
        out[:, 2 * k] = (Ep - Em) / 2j
        out[:, 2 * k + 1] = (Ep + Em) / 2.0
    return out


def influence_form(cfg: InternalConfig, modes: NormalModes,
                   t: float) -> InfluenceForm:
    """Evaluate the total bath phase structure at time t.

    Cross-check route: the engine uses `grid_noise`.
    """
    if t <= 0.0:
        raise ConfigError(f"influence_form needs t > 0, got {t}")
    check_caustic(modes, t)
    V = xi_coefficient_matrix(modes, t)
    c1, c2 = component_weights(modes)
    baths = (
        (cfg.m1, cfg.gamma1, cfg.T1, cfg.numax1, c1),
        (cfg.m2, cfg.gamma2, cfg.T2, cfg.numax2, c2),
    )
    quadratic = np.zeros((4, 4))
    for mass, gamma, T, numax, comp in baths:
        if gamma == 0.0:
            continue
        omega, wts = _omega_panels(numax, t, T)
        pref = 2.0 * mass * gamma / math.pi
        chunk = 65536
        for lo in range(0, omega.size, chunk):
            om = omega[lo:lo + chunk]
            wt = wts[lo:lo + chunk] * thermal_weight(om, T) * pref
            psi = _elementary_transforms(modes, t, om)[0]
            Fb = (V * comp[:, None]).T @ psi          # (4, n) basis transforms
            Sq = np.real((Fb * wt) @ Fb.conj().T)     # symmetric square form
            quadratic += 0.5 * Sq
    quadratic = 0.5 * (quadratic + quadratic.T)
    return InfluenceForm(t=t, quadratic=quadratic)


# ---------------------------------------------------------------------------
# whole-grid evaluation: t-independent spectral data, Filon quadrature in w
#
# The phase is linear in the spectral density, so baths of one cutoff and
# temperature share one spectrum of g0(w) = w coth(w / 2T): Q(t) = 1/2 V^T
# (Re M(t) . W) V, V the xi coefficient matrix, W = sum_b (2 m_b gamma_b / pi)
# c_b c_b^T over the baths' component weights, M = T Sigma T^H with T the map
# from the mode exponentials E_a(w) = i (exp(-i (w - p_a) t) - 1) / (w - p_a),
# p = +-Omega_k - i delta_k, to the transforms [sin1, cos1, sin2, cos2].
# Partial fractions put the t-dependence of Sigma_ab = int g0 E_a conj(E_b)
# into C_r = int g0 / (w - r) and D_r(t) = int g0 exp(-i w t) / (w - r), r in
# {p, conj p}.  With the Legendre coefficients c_k of g0 / (w - r) on a panel
# of centre m, half-width h, int P_k(x) exp(-i z x) dx = 2 (-i)^k j_k(z) gives
# D_r(t) exactly: the row exp(-i m t) j_k(h t) over (panel, k) times the
# fixed matrix 2 h (-i)^k c_k.  j_k depends on h t alone, so one table over
# the distinct half-widths of all spectra serves every spectrum of a call.
#
# Each sum has its own omega layout, sized for its integrand:
# - Filon panels hold g0 / (w - r) to FILON_ORDER Legendre terms.  Bisection
#   until the mode poles p, conj p and the Matsubara pole 2 pi i T lie
#   outside each panel's Bernstein ellipse guarantees that on any base, and
#   exp(-i w t) is exact whatever the width, so the base is a few panels.
# - The terms cancel as t -> 0, so below FILON_MIN_T M is summed directly.
#   There g0 E_a conj(E_b) has no mode poles (E_a is entire in w), only the
#   Matsubara pole; its GL-16 panels each span at most two periods of
#   exp(-i w t) at t = FILON_MIN_T, graded to 2 pi i T alone.

FILON_ORDER = 24           # GL nodes per panel = Legendre orders kept
FILON_BASE_PANELS = 8      # uniform panels on [0, numax] before grading
FILON_MIN_T = 1.0          # below: direct sum on the small-t layout
_FILON_BLOCK = 8           # times per block: bounds the (block, J*K) temps
# Miller's start: its truncation error falls about 1000-fold per 4 steps and
# reaches 1e-16 at 2n - 4 for z <= n; 2n + 8 leaves a margin of 12 steps.
# From T = 1 at the start a step grows |T| at most (2 start + 1) / z + 1 <=
# 114 fold for z >= 1, so no value exceeds 2^383 and no rescaling is needed
_MILLER_START = 2 * FILON_ORDER + 8
_SERIES_TERMS = 10         # power series of j_k below z = 1: 1e-17 relative


@functools.lru_cache(maxsize=None)
def _filon_rule():
    """GL-K nodes and weights on [-1, 1], and the (K, K) matrix taking
    node values to Legendre coefficients; built on first use, not import."""
    x, w = np.polynomial.legendre.leggauss(FILON_ORDER)
    vander = np.polynomial.legendre.legvander(x, FILON_ORDER - 1)
    return x, w, (np.arange(FILON_ORDER) + 0.5)[:, None] * vander.T * w


@functools.lru_cache(maxsize=None)
def _bessel_tables():
    """Coefficients of the power series of j_k(z) / z^k in z^2, highest
    power first, (terms, K, 1); and Miller's step factors 2k + 1 with the
    normalization weights, (start + 1, 1).  Built on first use."""
    k = np.arange(FILON_ORDER)
    # j_k = z^k / (2k+1)!! sum_m (-z^2/2)^m / (m! (2k+3)(2k+5)...(2k+2m+1))
    series = np.empty((_SERIES_TERMS, FILON_ORDER))
    series[0] = 1.0 / np.cumprod(2 * k + 1.0)
    for m in range(1, _SERIES_TERMS):
        series[m] = series[m - 1] * (-0.5 / (m * (2 * k + 2 * m + 1.0)))
    odd = 2.0 * np.arange(_MILLER_START + 1) + 1.0
    return series[::-1, :, None], odd[:, None]


def spherical_jn_orders(z: np.ndarray) -> np.ndarray:
    """Spherical Bessel functions j_0..j_{n-1} at z >= 1e-30, n =
    FILON_ORDER; shape (n, z.size).

    Below z = 1 the power series; up to z = n Miller's downward recurrence
    from the fixed index 2n + 8, normalized by sum_k (2k+1) j_k^2 = 1 over
    every recurrence term; above n upward recurrence from the closed forms
    of j_0, j_1 (stable for k < z).  Each value is a function of its own z
    only, whatever else is in the array.
    """
    n = FILON_ORDER
    z = np.asarray(z, dtype=float).ravel()
    out = np.empty((n, z.size))
    series, odd = _bessel_tables()
    low = z < 1.0
    if low.any():
        zl = z[low]
        z2 = zl * zl
        acc = series[0] * z2
        for c in series[1:-1]:
            acc += c
            acc *= z2
        acc += series[-1]
        out[:, low] = acc * zl ** np.arange(n)[:, None]
    up = z > n
    mid = ~(low | up)
    if mid.any():
        zm = z[mid]
        # started positive at k = start with j_{start+1} = 0, the recurrence
        # is a positive multiple of j_k (the Wronskian with y_{start+1} < 0)
        c = list(odd / zm)
        T = np.empty((_MILLER_START + 1, zm.size))
        rows = list(T)
        T[-1] = 1.0
        np.multiply(c[-1], rows[-1], out=rows[-2])
        for k in range(_MILLER_START - 1, 0, -1):
            np.multiply(c[k], rows[k], out=rows[k - 1])
            np.subtract(rows[k - 1], rows[k + 1], out=rows[k - 1])
        # the sum runs along rows, in one order for any number of columns
        acc = np.ascontiguousarray((odd * T * T).T).sum(axis=1)
        out[:, mid] = T[:n] / np.sqrt(acc)
    if up.any():
        zu = z[up]
        c = list(odd[:n] / zu)
        tab = np.empty((n, zu.size))
        rows = list(tab)
        np.divide(np.sin(zu), zu, out=rows[0])
        np.divide(rows[0] - np.cos(zu), zu, out=rows[1])
        for k in range(1, n - 1):
            np.multiply(c[k], rows[k], out=rows[k + 1])
            np.subtract(rows[k + 1], rows[k - 1], out=rows[k + 1])
        out[:, up] = tab
    return out


def _mode_poles(modes: NormalModes) -> np.ndarray:
    """p_a in the order [Omega1, -Omega1, Omega2, -Omega2] (minus i delta)."""
    return np.array([s * O - 1j * d
                     for O, d in ((modes.Omega1, modes.delta1),
                                  (modes.Omega2, modes.delta2))
                     for s in (1.0, -1.0)])


# E_a -> [sin1, cos1, sin2, cos2]: sin = (E+ - E-) / 2i, cos = (E+ + E-) / 2
_E_TO_TRIG = np.array([[-0.5j, 0.5j, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                       [0.0, 0.0, -0.5j, 0.5j], [0.0, 0.0, 0.5, 0.5]])


@dataclass(frozen=True)
class BathSpectrum:
    """t-independent spectral data of the baths of one cutoff and
    temperature for the unit weight g0(w) = w coth(w / 2T): Filon data on
    the pole-graded panels, and the nodes of the small-t sum; `W` carries
    the baths' prefactors and component weights.
    """
    W: np.ndarray          # (4, 4) sum_b (2 m_b gamma_b / pi) c_b c_b^T
    small_nodes: np.ndarray    # (N,) GL-16 nodes of the small-t layout
    small_weights: np.ndarray  # (N,) their weights times g0(w)
    mids: np.ndarray       # (J,) Filon panel centres
    widths: np.ndarray     # (U,) sorted distinct Filon half-widths of all
                           #      spectra of one `bath_spectra` call
    width_of: np.ndarray   # (J,) index into `widths` for each panel
    coef: np.ndarray       # (J*K, 8) 2 h (-i)^k c_k, r = (p, conj p)
    C: np.ndarray          # (8,) int g0 / (w - r)

    def transforms(self, times: np.ndarray,
                   bessel: np.ndarray) -> np.ndarray:
        """D_r(t) = int g0 exp(-i w t) / (w - r) dw for t > 0, shape (n, 8):
        per time, the row exp(-i m t) j_k(h t) over (panel, k) times `coef`.
        `bessel` (n, U, K) holds j_k(h t) for these times over `widths`.
        """
        out = np.empty((times.size, 8), dtype=complex)
        for lo in range(0, times.size, _FILON_BLOCK):
            t = times[lo:lo + _FILON_BLOCK]
            phase = np.exp(-1j * np.outer(t, self.mids))[:, :, None]
            rows = phase * bessel[lo:lo + _FILON_BLOCK][:, self.width_of]
            # one identically shaped product per time: batch-independent
            out[lo:lo + t.size] = (rows.reshape(t.size, 1, -1)
                                   @ self.coef)[:, 0]
        return out


def bath_spectra(cfg: InternalConfig, modes: NormalModes) -> tuple:
    """Spectral data of the baths with nonzero damping, one BathSpectrum per
    distinct (cutoff, temperature).

    Filon panels: FILON_BASE_PANELS uniform ones on [0, numax], bisected
    until the poles +-Omega_k -+ i delta_k of g0 / (w - r) and the Matsubara
    pole 2 pi i T of g0 lie outside each panel's Bernstein ellipse
    BERNSTEIN_RHO.  Small-t layout: max(4, ceil(numax FILON_MIN_T / 4 pi))
    uniform GL-16 panels, bisected for the Matsubara pole alone.  Logs each
    spectrum's layout sizes at DEBUG level on the `duosc` logger.
    """
    groups = {}          # (numax, T) -> W
    for mass, gamma, T, numax, c in zip(
            (cfg.m1, cfg.m2), (cfg.gamma1, cfg.gamma2), (cfg.T1, cfg.T2),
            (cfg.numax1, cfg.numax2), component_weights(modes)):
        if gamma != 0.0:
            W = (2.0 * mass * gamma / math.pi) * np.outer(c, c)
            groups[numax, T] = groups.get((numax, T), 0.0) + W
    if not groups:
        return ()
    poles = _mode_poles(modes)
    panels = [_graded_panels(numax, FILON_BASE_PANELS,
                             tuple(poles) + _matsubara_pole(T))
              for numax, T in groups]
    # one sorted width array for all spectra: one Bessel table per call
    widths, width_of = np.unique(np.concatenate([h for _, h in panels]),
                                 return_inverse=True)
    gl_x, gl_w, to_legendre = _filon_rule()
    i_k = np.array([1.0, -1j, -1.0, 1j])[np.arange(FILON_ORDER) % 4]
    out = []
    start = 0
    for ((numax, T), W), (mids, halfs) in zip(groups.items(), panels):
        nodes, wts = _panel_nodes(mids, halfs, (gl_x, gl_w))
        # g0 / (w - p), (4, J*K); g0 / (w - conj p) is its conjugate, and so
        # are its Legendre coefficients and integral
        f = thermal_weight(nodes, T) / (nodes - poles[:, None])
        c = f.reshape(4, halfs.size, FILON_ORDER) @ to_legendre.T
        coef = (np.concatenate([c, c.conj()])
                * (2.0 * halfs)[:, None] * i_k).reshape(8, -1)
        C = f @ wts
        # at most two periods of exp(-i w t) per panel at t = FILON_MIN_T
        small = max(4, math.ceil(numax * FILON_MIN_T / (4.0 * math.pi)))
        s_nodes, s_wts = _panel_nodes(
            *_graded_panels(numax, small, _matsubara_pole(T)), _GL16)
        w_of = width_of[start:start + halfs.size]
        start += halfs.size
        if log.isEnabledFor(logging.DEBUG):
            log.debug("bath spectrum numax=%.6g T=%.6g: %d Filon panels, "
                      "%d nodes, %d distinct widths; %d small-t nodes",
                      numax, T, halfs.size, nodes.size, np.unique(w_of).size,
                      s_nodes.size)
        out.append(BathSpectrum(
            W=W, small_nodes=s_nodes,
            small_weights=s_wts * thermal_weight(s_nodes, T), mids=mids,
            widths=widths, width_of=w_of, coef=np.ascontiguousarray(coef.T),
            C=np.concatenate([C, C.conj()])))
    return tuple(out)


def _sigma(poles: np.ndarray, C: np.ndarray, D: np.ndarray,
           t: np.ndarray) -> np.ndarray:
    """Sigma_ab(t) = int g0 E_a conj(E_b) dw from C and D, shape (n, 4, 4)."""
    p, pc = poles[:, None], poles.conj()[None, :]          # p_a, conj p_b
    den = p - pc
    dC = C[:4, None] - C[None, 4:]
    D_p, D_pc = D[:, :4], D[:, 4:]
    dD = D_p[:, :, None] - D_pc[:, None, :]
    # int g exp(+i w t) / (w - r) = conj(D(conj r))
    dDc = (D_pc[:, :, None] - D_p[:, None, :]).conj()
    tt = t[:, None, None]
    return ((np.exp(1j * den * tt) + 1.0) * dC
            - np.exp(1j * p * tt) * dD
            - np.exp(-1j * pc * tt) * dDc) / den


def grid_noise(cfg: InternalConfig, modes: NormalModes, times,
               spectra: Optional[tuple] = None) -> np.ndarray:
    """Bath noise block R(t) at each time, (n, 4, 4): the sum over spectra
    of Re M(t) . W, the phase's double integral over the anti-damped
    elementary functions [sin1, cos1, sin2, cos2] before any endpoint map.

    Production route: it is also the covariance the bath noise adds to the
    mode amplitudes of `modes.response_matrices`.  `spectra` (from
    `bath_spectra`) may be passed to reuse them across calls.  Every time
    must be positive; the block is regular at every such time.  Each block
    is a function of (cfg, t) only, bit for bit, however the times are
    batched.
    """
    times = np.asarray(times, dtype=float).ravel()
    if not np.all(np.isfinite(times) & (times > 0.0)):
        raise ConfigError("the bath phase needs finite t > 0")
    R = np.zeros((times.size, 4, 4))
    if times.size == 0:
        return R
    if spectra is None:
        spectra = bath_spectra(cfg, modes)
    small = np.flatnonzero(times < FILON_MIN_T)
    filon = np.flatnonzero(times >= FILON_MIN_T)
    poles = _mode_poles(modes)
    tf = times[filon]
    if filon.size and spectra:
        # (n, U, K); the spectra share one width array, so one table
        # serves them all
        bessel = np.moveaxis(spherical_jn_orders(
            np.outer(tf, spectra[0].widths)).reshape(
                FILON_ORDER, tf.size, -1), 0, -1)
    for sp in spectra:
        for lo in range(0, small.size, _FILON_BLOCK):
            idx = small[lo:lo + _FILON_BLOCK]
            F = _elementary_transforms(modes, times[idx], sp.small_nodes)
            M = (F * sp.small_weights) @ np.swapaxes(F.conj(), 1, 2)
            R[idx] += M.real * sp.W
        if filon.size:
            S = _sigma(poles, sp.C, sp.transforms(tf, bessel), tf)
            R[filon] += (_E_TO_TRIG @ S @ _E_TO_TRIG.conj().T).real * sp.W
    return R


def grid_quadratic(cfg: InternalConfig, modes: NormalModes, times,
                   spectra: Optional[tuple] = None) -> np.ndarray:
    """Quadratic block of the total bath phase over the xi endpoints at each
    time, (n, 4, 4): 1/2 V^T R V with R from `grid_noise` and V the xi
    coefficient matrix.

    Cross-check route (the endpoint form of the reduction): every time
    must be off the caustics (CausticTime otherwise).
    """
    R = grid_noise(cfg, modes, times, spectra)
    V = coefficient_matrices(modes, np.asarray(times, dtype=float).ravel(),
                             sign=+1.0)
    out = 0.5 * (np.swapaxes(V, 1, 2) @ R @ V)
    return 0.5 * (out + np.swapaxes(out, 1, 2))
