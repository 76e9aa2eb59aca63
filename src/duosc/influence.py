"""The bath noise block of the influence functional, over whole time grids.

Each bath contributes a real, positive phase

    phi = pref * int_0^numax dw w coth(w / 2T) *
          int_0^t dt' int_0^t' dt'' xi(t') cos[w (t'-t'')] xi(t'')

with pref = 2*m*gamma/(hbar*pi), evaluated on the difference-variable path
of the oscillator that bath touches.  Since the cosine double integral over
the triangle is half the symmetric square integral, it collapses to
(1/2) * Re[F(w) * conj(F(w))] with F the finite-time Fourier transform of
the path, which for the trig-times-exponential mode functions is
elementary.  The drive never enters the bath phase (Feynman & Vernon 1963).

`bath_spectra` builds one spectrum per distinct cutoff, whose omega layouts
the temperatures on that cutoff share.  `grid_noise` returns the double
integral R(t) over the four anti-damped elementary functions, before any
endpoint map; the engine uses it as the noise covariance of the mode
amplitudes, which is regular at every t.  Partial fractions move all
t-dependence of the omega integral into eight transforms, which
Filon-Legendre quadrature on panels graded to the poles gives exactly in t
as one matrix product per time; below t = 1 the phase is summed directly on
a small pole-free layout of its own (section at the end of this module).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import InternalConfig
from .errors import ConfigError
from .modes import NormalModes, component_weights

log = logging.getLogger("duosc")

_GL16 = np.polynomial.legendre.leggauss(16)    # the small-t layout's rule
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
    edges = np.linspace(0.0, numax, panels + 1).tolist()
    singular = [complex(s) for s in singular]
    # a panel that passes for every singularity keeps its halves passing
    # (the ellipse of a sub-panel lies inside its parent's), so each round
    # tests only the halves made in the round before.  A round holds a few
    # panels, so they are tested as Python numbers: a round of array calls
    # costs more than the arithmetic
    todo = list(zip(edges[:-1], edges[1:]))
    while todo:
        halves = []
        for lo, hi in todo:
            limit = _FOCAL_SUM * (hi - lo)
            for s in singular:
                if abs(s - lo) + abs(s - hi) < limit:
                    mid = 0.5 * (lo + hi)
                    edges.append(mid)
                    halves += ((lo, mid), (mid, hi))
                    break
        todo = halves
    edges = np.sort(edges)
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


def _elementary_transforms(modes: NormalModes, times,
                           omega: np.ndarray) -> np.ndarray:
    """F_c(t, w) = int_0^t psi_c(tau) exp(-i w tau) dtau for the four
    anti-damped elementary functions [sin1, cos1, sin2, cos2]; (n, 4, N)
    for n times and N frequencies: the small-t branch of `grid_noise`."""
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


# ---------------------------------------------------------------------------
# whole-grid evaluation: t-independent spectral data, Filon quadrature in w
#
# The phase is linear in the spectral density, so baths of one cutoff and
# temperature share one weight g0(w) = w coth(w / 2T): R(t) = Re M(t) . W,
# W = sum_b (2 m_b gamma_b / pi) c_b c_b^T over the baths' component
# weights, M = T Sigma T^H with T the map from the mode exponentials
# E_a(w) = i (exp(-i (w - p_a) t) - 1) / (w - p_a), p = +-Omega_k - i delta_k,
# to the transforms [sin1, cos1, sin2, cos2].
# Partial fractions put the t-dependence of Sigma_ab = int g0 E_a conj(E_b)
# into C_r = int g0 / (w - r) and D_r(t) = int g0 exp(-i w t) / (w - r), r in
# {p, conj p}.  With the Legendre coefficients c_k of g0 / (w - r) on a panel
# of centre m, half-width h, int P_k(x) exp(-i z x) dx = 2 (-i)^k j_k(z) gives
# D_r(t) exactly: the row exp(-i m t) j_k(h t) over (panel, k) times the
# fixed matrix 2 h (-i)^k c_k.  The row depends on the panels alone, not on
# g0, so the temperatures on one cutoff share one layout and each time's row
# multiplies all their columns at once; j_k depends on h t alone, so one
# table over the distinct half-widths of all layouts serves a whole call.
#
# Each sum has its own omega layout, sized for its integrand:
# - Filon panels hold g0 / (w - r) to FILON_ORDER Legendre terms.  Bisection
#   until the mode poles p, conj p and the Matsubara pole 2 pi i T of every
#   temperature on the cutoff lie outside each panel's Bernstein ellipse
#   guarantees that on any base, and exp(-i w t) is exact whatever the
#   width, so the base is a few panels.
# - The terms cancel as t -> 0, so below FILON_MIN_T M is summed directly.
#   There g0 E_a conj(E_b) has no mode poles (E_a is entire in w), only the
#   Matsubara poles; its GL-16 panels each span at most two periods of
#   exp(-i w t) at t = FILON_MIN_T, graded to those poles alone, and the
#   transforms E_a on its nodes serve every temperature.

FILON_ORDER = 24           # GL nodes per panel = Legendre orders kept
FILON_BASE_PANELS = 8      # uniform panels on [0, numax] before grading
FILON_MIN_T = 1.0          # below: direct sum on the small-t layout
# Times per Filon product: bounds the (block, J*K) complex rows to about
# 130 KB on fig3.  One product per 64-time chunk gives the same numbers and
# runs faster back to back, but its 1 MB of rows is faulted in afresh on
# every call once the caller's own work has run in between: the
# fig3-driven benchmark ran 14.5k-15.2k against 18.3k-19.2k points/s
# (two seeds, 6 s runs, 2-vCPU host)
_FILON_BLOCK = 8
# Miller's start: its truncation error falls about 1000-fold per 4 steps and
# reaches 1e-16 at 2n - 4 for z <= n; 2n + 8 leaves a margin of 12 steps.
# From T = 1 at the start a step grows |T| at most (2 start + 1) / z + 1 <=
# 114 fold for z >= 1, so no value exceeds 2^383 and no rescaling is needed
_MILLER_START = 2 * FILON_ORDER + 8
_SERIES_TERMS = 10         # power series of j_k below z = 1: 1e-17 relative


@functools.lru_cache(maxsize=None)
def _filon_rule():
    """GL-K nodes and weights on [-1, 1], the (K, K) matrix taking node
    values to Legendre coefficients, and (-i)^k, (K,); built on first use,
    not import."""
    x, w = np.polynomial.legendre.leggauss(FILON_ORDER)
    vander = np.polynomial.legendre.legvander(x, FILON_ORDER - 1)
    i_k = np.array([1.0, -1j, -1.0, 1j])[np.arange(FILON_ORDER) % 4]
    return x, w, (np.arange(FILON_ORDER) + 0.5)[:, None] * vander.T * w, i_k


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
    z = np.asarray(z, dtype=float).ravel()
    out = np.empty((FILON_ORDER, z.size))
    low = z < 1.0
    up = z > FILON_ORDER
    # one function per branch: its temporaries are freed before the next
    for branch, on in ((_jn_series, low), (_jn_miller, ~(low | up)),
                       (_jn_upward, up)):
        if on.any():
            out[:, on] = branch(z[on])
    return out


def _jn_series(z: np.ndarray) -> np.ndarray:
    series, _ = _bessel_tables()
    z2 = z * z
    acc = series[0] * z2
    for c in series[1:-1]:
        acc += c
        acc *= z2
    acc += series[-1]
    acc *= z ** np.arange(FILON_ORDER)[:, None]
    return acc


def _jn_miller(z: np.ndarray) -> np.ndarray:
    _, odd = _bessel_tables()
    # started positive at k = start with j_{start+1} = 0, the recurrence
    # is a positive multiple of j_k (the Wronskian with y_{start+1} < 0)
    c = list(odd / z)
    T = np.empty((_MILLER_START + 1, z.size))
    rows = list(T)
    T[-1] = 1.0
    np.multiply(c[-1], rows[-1], out=rows[-2])
    for k in range(_MILLER_START - 1, 0, -1):
        np.multiply(c[k], rows[k], out=rows[k - 1])
        np.subtract(rows[k - 1], rows[k + 1], out=rows[k - 1])
    del c                   # freed before the normalization's buffer
    # the sum runs along rows, in one order for any number of columns
    terms = np.empty((z.size, _MILLER_START + 1))
    np.multiply(odd.T, T.T, out=terms)
    np.multiply(terms, T.T, out=terms)
    j = T[:FILON_ORDER]
    np.divide(j, np.sqrt(terms.sum(axis=1)), out=j)
    return j


def _jn_upward(z: np.ndarray) -> np.ndarray:
    _, odd = _bessel_tables()
    n = FILON_ORDER
    c = list(odd[:n] / z)
    tab = np.empty((n, z.size))
    rows = list(tab)
    np.divide(np.sin(z), z, out=rows[0])
    np.divide(rows[0] - np.cos(z), z, out=rows[1])
    for k in range(1, n - 1):
        np.multiply(c[k], rows[k], out=rows[k + 1])
        np.subtract(rows[k + 1], rows[k - 1], out=rows[k + 1])
    return tab


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
    """t-independent spectral data of the baths of one cutoff, on one omega
    layout that its S distinct temperatures share: Filon data on the
    pole-graded panels, and the nodes of the small-t sum, built on first
    read.  Temperature s has the unit weight g0(w) = w coth(w / 2T_s), and
    `W[s]` carries the prefactors and component weights of its baths.
    """
    numax: float           # the cutoff
    temperatures: tuple    # (S,) distinct temperatures, in bath order
    W: np.ndarray          # (S, 4, 4) sum_b (2 m_b gamma_b / pi) c_b c_b^T
    mids: np.ndarray       # (J,) Filon panel centres
    widths: np.ndarray     # (U,) sorted distinct Filon half-widths of all
                           #      layouts of one `bath_spectra` call
    width_of: np.ndarray   # (J,) index into `widths` for each panel
    coef: np.ndarray       # (J*K, 8S) 2 h (-i)^k c_k, r = (p, conj p);
                           #      columns 8s .. 8s + 7 for temperature s
    C: np.ndarray          # (S, 8) int g0 / (w - r)

    @functools.cached_property
    def small_layout(self) -> tuple:
        """GL-16 nodes (N,) of the small-t layout and their weights times
        g0(w), (S, N): max(4, ceil(numax FILON_MIN_T / 4 pi)) uniform
        panels, each spanning at most two periods of exp(-i w t) at t =
        FILON_MIN_T, bisected for the Matsubara poles alone.  Only times
        below FILON_MIN_T read it."""
        small = max(4, math.ceil(self.numax * FILON_MIN_T / (4.0 * math.pi)))
        nodes, wts = _panel_nodes(*_graded_panels(
            self.numax, small, _matsubara_poles(self.temperatures)), _GL16)
        return nodes, np.array([wts * thermal_weight(nodes, T)
                                for T in self.temperatures])

    @property
    def small_nodes(self) -> np.ndarray:
        return self.small_layout[0]

    @property
    def small_weights(self) -> np.ndarray:
        return self.small_layout[1]

    def transforms(self, times: np.ndarray,
                   bessel: np.ndarray) -> np.ndarray:
        """D_r(t) = int g0 exp(-i w t) / (w - r) dw for t > 0, shape (n, 8S),
        columns as in `coef`: per time, the row exp(-i m t) j_k(h t) over
        (panel, k) times `coef`.  `bessel` (n, U, K) holds j_k(h t) for
        these times over `widths`.
        """
        out = np.empty((times.size, self.coef.shape[1]), dtype=complex)
        rows = np.empty((min(times.size, _FILON_BLOCK), self.mids.size,
                         FILON_ORDER), dtype=complex)
        for lo in range(0, times.size, _FILON_BLOCK):
            t = times[lo:lo + _FILON_BLOCK]
            block = rows[:t.size]
            np.multiply(np.exp(-1j * np.outer(t, self.mids))[:, :, None],
                        bessel[lo:lo + _FILON_BLOCK][:, self.width_of],
                        out=block)
            # one identically shaped product per time: batch-independent
            out[lo:lo + t.size] = (block.reshape(t.size, 1, -1)
                                   @ self.coef)[:, 0]
        return out


def _matsubara_poles(temperatures) -> tuple:
    return tuple(s for T in temperatures for s in _matsubara_pole(T))


def _filon_columns(nodes: np.ndarray, wts: np.ndarray, halfs: np.ndarray,
                   poles: np.ndarray, T: float, out: np.ndarray) -> np.ndarray:
    """Write 2 h (-i)^k c_k of g0 / (w - r), r = (p, conj p), into `out`
    (J, K, 8), and return int g0 / (w - p), (4,), at temperature T.

    g0 / (w - conj p) is the conjugate of g0 / (w - p), and so are its
    Legendre coefficients and integral.  The temporaries are a few arrays
    the size of one temperature's columns, freed on return."""
    _, _, to_legendre, i_k = _filon_rule()
    f = nodes - poles[:, None]
    np.divide(thermal_weight(nodes, T), f, out=f)          # (4, J*K)
    c = f.reshape(4, halfs.size, FILON_ORDER) @ to_legendre.T
    integral = f @ wts
    del f                   # before the conjugate block is allocated
    for cols, block in ((slice(0, 4), c), (slice(4, 8), c.conj())):
        block *= (2.0 * halfs)[:, None]
        block *= i_k
        out[:, :, cols] = np.moveaxis(block, 0, -1)
    return integral


def bath_spectra(cfg: InternalConfig, modes: NormalModes) -> tuple:
    """Spectral data of the baths with nonzero damping, one BathSpectrum per
    distinct cutoff, carrying every distinct temperature on that cutoff.

    Filon panels: FILON_BASE_PANELS uniform ones on [0, numax], bisected
    until the poles +-Omega_k -+ i delta_k of g0 / (w - r) and the Matsubara
    pole 2 pi i T of each temperature lie outside each panel's Bernstein
    ellipse BERNSTEIN_RHO.  The small-t layout is built on first read
    (`BathSpectrum.small_layout`), so a grid with no time below FILON_MIN_T
    never grades it.  Logs each layout's temperatures and sizes at DEBUG
    level on the `duosc` logger.
    """
    groups = {}          # numax -> {T -> W}, both in bath order
    for mass, gamma, T, numax, c in zip(
            (cfg.m1, cfg.m2), (cfg.gamma1, cfg.gamma2), (cfg.T1, cfg.T2),
            (cfg.numax1, cfg.numax2), component_weights(modes)):
        if gamma != 0.0:
            W = (2.0 * mass * gamma / math.pi) * np.outer(c, c)
            temps = groups.setdefault(numax, {})
            temps[T] = temps.get(T, 0.0) + W
    if not groups:
        return ()
    poles = _mode_poles(modes)
    panels = [_graded_panels(numax, FILON_BASE_PANELS,
                             tuple(poles) + _matsubara_poles(temps))
              for numax, temps in groups.items()]
    # one sorted width array for all layouts: one Bessel table per call.
    # A layout has about a dozen distinct widths, which a Python set finds
    # in a fraction of the cost of np.unique
    all_halfs = np.concatenate([h for _, h in panels])
    widths = np.array(sorted(set(all_halfs.tolist())))
    width_of = np.searchsorted(widths, all_halfs)
    gl_x, gl_w, _, _ = _filon_rule()
    out = []
    start = 0
    for (numax, temps), (mids, halfs) in zip(groups.items(), panels):
        nodes, wts = _panel_nodes(mids, halfs, (gl_x, gl_w))
        coef = np.empty((nodes.size, 8 * len(temps)), dtype=complex)
        # coef[(j, k), (s, r)]: panel j, order k, temperature s, column r
        by_panel = coef.reshape(halfs.size, FILON_ORDER, len(temps), 8)
        C = np.empty((len(temps), 8), dtype=complex)
        for s, T in enumerate(temps):
            C[s, :4] = _filon_columns(nodes, wts, halfs, poles, T,
                                      by_panel[:, :, s])
            C[s, 4:] = C[s, :4].conj()
        w_of = width_of[start:start + halfs.size]
        start += halfs.size
        sp = BathSpectrum(
            numax=numax, temperatures=tuple(temps),
            W=np.array(list(temps.values())), mids=mids, widths=widths,
            width_of=w_of, coef=coef, C=C)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("bath layout numax=%.6g T=%s: %d Filon panels, "
                      "%d nodes, %d distinct widths; %d small-t nodes",
                      numax, ", ".join(f"{T:.6g}" for T in temps),
                      halfs.size, nodes.size, np.unique(w_of).size,
                      sp.small_nodes.size)
        out.append(sp)
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


def grid_noise(modes: NormalModes, times, spectra: tuple) -> np.ndarray:
    """Bath noise block R(t) at each time, (n, 4, 4): the sum over spectra
    and their temperatures of Re M(t) . W, the phase's double integral over
    the anti-damped elementary functions [sin1, cos1, sin2, cos2] before any
    endpoint map.

    It is also the covariance the bath noise adds to the mode amplitudes
    of `modes.response_matrices`.  `spectra` come from `bath_spectra` of
    the same config and modes.  Every time must be positive; the block is
    regular at every such time.  Each block is a function of (cfg, t) only,
    bit for bit, however the times are batched.
    """
    times = np.asarray(times, dtype=float).ravel()
    if not np.all(np.isfinite(times) & (times > 0.0)):
        raise ConfigError("the bath phase needs finite t > 0")
    R = np.zeros((times.size, 4, 4))
    if times.size == 0:
        return R
    small = np.flatnonzero(times < FILON_MIN_T)
    filon = np.flatnonzero(times >= FILON_MIN_T)
    poles = _mode_poles(modes)
    tf = times[filon]
    if filon.size and spectra:
        # (n, U, K); the layouts share one width array, so one table
        # serves them all
        bessel = np.moveaxis(spherical_jn_orders(
            np.outer(tf, spectra[0].widths)).reshape(
                FILON_ORDER, tf.size, -1), 0, -1)
    # each time is one branch, and its terms are added in bath order
    for sp in spectra:
        for lo in range(0, small.size, _FILON_BLOCK):
            idx = small[lo:lo + _FILON_BLOCK]
            F = _elementary_transforms(modes, times[idx], sp.small_nodes)
            Fh = np.swapaxes(F.conj(), 1, 2)
            for wts, W in zip(sp.small_weights, sp.W):
                R[idx] += ((F * wts) @ Fh).real * W
        if filon.size:
            D = sp.transforms(tf, bessel)
            for s, (C, W) in enumerate(zip(sp.C, sp.W)):
                S = _sigma(poles, C, D[:, 8 * s:8 * s + 8], tf)
                R[filon] += (_E_TO_TRIG @ S @ _E_TO_TRIG.conj().T).real * W
    return R
