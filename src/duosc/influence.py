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
as one real product per time and panel width, then one complex product per
time; below t = 1 the phase is summed directly on a small pole-free layout
of its own (section at the end of this module).

The Filon branch's large temporaries live on a per-thread scratch that
calls reuse (`_scratch_array`); the small-t sum's are allocated per block
of times and slice of nodes, whose sizes are fixed whatever the cutoff.
"""

from __future__ import annotations

import functools
import logging
import math
import threading
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
    t = np.asarray(times, dtype=float).reshape(-1, 1, 1)
    # E(alpha) = (exp(alpha t) - 1) / alpha for the exponents
    # [d1 + i (O1 - w), d1 - i (O1 + w), d2 + ..., d2 - ...], (4, N)
    alpha = np.empty((4, omega.size), dtype=complex)
    for k, (O, d) in enumerate(((modes.Omega1, modes.delta1),
                                (modes.Omega2, modes.delta2))):
        alpha[2 * k] = d + 1j * (O - omega)
        alpha[2 * k + 1] = d - 1j * (O + omega)
    # expm1: exp(alpha t) - 1 cancels where |alpha t| << 1, which near
    # w = Omega costs up to 1e-9 relative at t ~ 1e-5
    zero = alpha == 0.0
    E = np.expm1(alpha * t)
    E /= np.where(zero, 1.0, alpha)
    E[:, zero] = t[:, 0]
    Ep, Em = E[:, 0::2], E[:, 1::2]
    out = np.empty_like(E)
    out[:, 0::2] = (Ep - Em) / 2j
    out[:, 1::2] = (Ep + Em) / 2.0
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
# D_r(t) exactly: sum over panels of exp(-i m t) sum_k j_k(h t) 2 h (-i)^k
# c_k.  The orders are contracted first: j_k(h t) is real and the panels
# share about a dozen half-widths h0 / 2^d, so each group of equal-width
# panels takes one real product of its Bessel row with the real view of its
# coefficients, and one complex product per time then sums the panels with
# their phases.  The Bessel values and phases depend on the panels alone,
# not on g0, so the temperatures on one cutoff share one layout and each
# product carries all their columns at once; j_k depends on h t alone, so
# one table over the distinct half-widths of all layouts serves a whole
# call.
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
# Times per block, and nodes per slice, of the small-t sum: its (block, 4,
# slice) transforms and their products stay this size whatever the cutoff.
# A layout of at most _SMALL_T_NODES nodes (every preset, and cutoffs up to
# about 1000 omega01) is one slice
_FILON_BLOCK = 8
_SMALL_T_NODES = 2048
# Miller's start: its truncation error falls about 1000-fold per 4 steps and
# reaches 1e-16 at 2n - 4 for z <= n; 2n + 8 leaves a margin of 12 steps.
# From T = 1 at the start a step grows |T| at most (2 start + 1) / z + 1 <=
# 114 fold for z >= 1, so no value exceeds 2^383 and no rescaling is needed
_MILLER_START = 2 * FILON_ORDER + 8
_SERIES_TERMS = 10         # power series of j_k below z = 1: 1e-17 relative


@functools.lru_cache(maxsize=None)
def _filon_rule():
    """GL-K nodes and weights on [-1, 1]; the (K, K) matrix that takes
    node values, as rows, to Legendre coefficients, cast to complex once so
    that no product with the complex integrand casts it again; and (-i)^k,
    (K,).  Built on first use, not import."""
    x, w = np.polynomial.legendre.leggauss(FILON_ORDER)
    vander = np.polynomial.legendre.legvander(x, FILON_ORDER - 1)
    i_k = np.array([1.0, -1j, -1.0, 1j])[np.arange(FILON_ORDER) % 4]
    to_legendre = (np.arange(FILON_ORDER) + 0.5)[:, None] * vander.T * w
    return x, w, to_legendre.T.astype(complex), i_k


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


# Per-thread scratch for the large temporaries of a call: the Filon
# coefficients' set-up, and per chunk of times the Bessel table, its
# recurrences and the Filon product's buffers.  Each buffer grows to the
# largest request, so a warm call reuses pages it has already touched
# instead of having the allocator return them to the system and fault them
# in again on the next call.  "bessel" holds the chunk's Bessel table from
# `grid_noise` through the Filon products; "work" and "aux" hold the two
# working arrays of one step (a temperature's coefficients, a Bessel
# branch, a Filon product), which the next step overwrites.  Holding no
# values, it is no cache: every element a call reads from it was written
# earlier in that call.
_scratch = threading.local()


def _scratch_array(role: str, shape: tuple, dtype=float) -> np.ndarray:
    """A C-contiguous array of `shape` and `dtype` on this thread's buffer
    for `role`, of undefined contents.  The caller writes each element
    before reading it.  No public function returns a view of it, except
    into an `out` its caller passed."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buf = getattr(_scratch, role, None)
    if buf is None or buf.size < nbytes:
        buf = np.empty(nbytes, np.uint8)
        setattr(_scratch, role, buf)
    return buf[:nbytes].view(dtype).reshape(shape)


def spherical_jn_orders(z: np.ndarray, out=None) -> np.ndarray:
    """Spherical Bessel functions j_0..j_{n-1} at z >= 1e-30, n =
    FILON_ORDER; shape (n, z.size), written into `out` if given.

    A new result is the transposed view of a C-contiguous (z.size, n)
    buffer: its `.T` holds each argument's n orders side by side, the
    layout in which `BathSpectrum.transforms` reads them.

    Below z = 1 the power series; up to z = n Miller's downward recurrence
    from the fixed index 2n + 8, normalized by sum_k (2k+1) j_k^2 = 1 over
    every recurrence term; above n upward recurrence from the closed forms
    of j_0, j_1 (stable for k < z).  Each value is a function of its own z
    only, whatever else is in the array.
    """
    z = np.asarray(z, dtype=float).ravel()
    if out is None:
        out = np.empty((z.size, FILON_ORDER)).T
    low = z < 1.0
    up = z > FILON_ORDER
    # each branch returns its (n, m) table on this thread's scratch, which
    # the next branch reuses once it is copied out
    for branch, on in ((_jn_series, low), (_jn_miller, ~(low | up)),
                       (_jn_upward, up)):
        if on.any():
            out[:, on] = branch(z[on])
    return out


def _jn_series(z: np.ndarray) -> np.ndarray:
    series, _ = _bessel_tables()
    z2 = z * z
    acc = np.multiply(series[0], z2,
                      out=_scratch_array("work", (FILON_ORDER, z.size)))
    for c in series[1:-1]:
        acc += c
        acc *= z2
    acc += series[-1]
    # z^k as a running product of exact multiplies: a broadcast np.power
    # rounds a value differently with what else is in the array
    powers = _scratch_array("aux", acc.shape)
    powers[0] = 1.0
    np.multiply.accumulate(np.broadcast_to(z, powers[1:].shape), axis=0,
                           out=powers[1:])
    acc *= powers
    return acc


def _jn_miller(z: np.ndarray) -> np.ndarray:
    _, odd = _bessel_tables()
    shape = (_MILLER_START + 1, z.size)
    # started positive at k = start with j_{start+1} = 0, the recurrence
    # is a positive multiple of j_k (the Wronskian with y_{start+1} < 0)
    c = list(np.divide(odd, z, out=_scratch_array("aux", shape)))
    T = _scratch_array("work", shape)
    rows = list(T)
    T[-1] = 1.0
    np.multiply(c[-1], rows[-1], out=rows[-2])
    for k in range(_MILLER_START - 1, 0, -1):
        np.multiply(c[k], rows[k], out=rows[k - 1])
        np.subtract(rows[k - 1], rows[k + 1], out=rows[k - 1])
    # the sum runs along rows, in one order for any number of columns; the
    # factors are spent, so their buffer takes the terms
    terms = _scratch_array("aux", shape[::-1])
    np.multiply(odd.T, T.T, out=terms)
    np.multiply(terms, T.T, out=terms)
    j = T[:FILON_ORDER]
    np.divide(j, np.sqrt(terms.sum(axis=1)), out=j)
    return j


def _jn_upward(z: np.ndarray) -> np.ndarray:
    _, odd = _bessel_tables()
    n = FILON_ORDER
    c = list(np.divide(odd[:n], z,
                       out=_scratch_array("aux", (n, z.size))))
    tab = _scratch_array("work", (n, z.size))
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
_TRIG_TO_E = _E_TO_TRIG.conj().T


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
    mids: np.ndarray       # (J,) Filon panel centres, ordered by width
    widths: np.ndarray     # (U,) sorted distinct Filon half-widths of all
                           #      layouts of one `bath_spectra` call
    groups: tuple          # (u, lo, hi): panels lo..hi-1 have width
                           #      `widths[u]`, u increasing
    coef: np.ndarray       # (K, J, 8S) 2 h (-i)^k c_k, orders first,
                           #      r = (p, conj p); columns 8s .. 8s + 7
                           #      for temperature s
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
        # thermal_weight's temporaries are several times its argument, so
        # the weights are built over the small-t sum's node slices
        weights = np.empty((len(self.temperatures), nodes.size))
        for a in range(0, nodes.size, _SMALL_T_NODES):
            cut = slice(a, a + _SMALL_T_NODES)
            for row, T in zip(weights, self.temperatures):
                np.multiply(wts[cut], thermal_weight(nodes[cut], T),
                            out=row[cut])
        return nodes, weights

    @property
    def small_nodes(self) -> np.ndarray:
        return self.small_layout[0]

    def transforms(self, times: np.ndarray,
                   bessel: np.ndarray) -> np.ndarray:
        """D_r(t) = int g0 exp(-i w t) / (w - r) dw for t > 0, shape (n, 8S),
        columns as in `coef`.  `bessel`, C-contiguous (n, U, K), holds
        j_k(h t) for these times over `widths`.

        Each width group contracts the orders first: one real product per
        time of its Bessel row with the real view of its coefficients,
        written into one (n, J, 8S) buffer G; then one complex product per
        time of the phases exp(-i m t) with G sums the panels.  Both are
        batches of one-row products, one per time, never one (n, K) matrix
        product, whose rows BLAS rounds differently from a one-row call: so
        each row is a function of its own time alone, whatever the batch.
        """
        n, J = times.size, self.mids.size
        cols = 2 * self.coef.shape[2]         # floats per panel
        G = _scratch_array("work", (n, J * cols))
        coef = self.coef.view(float).reshape(FILON_ORDER, -1)
        for u, lo, hi in self.groups:
            np.matmul(bessel[:, u:u + 1], coef[:, lo * cols:hi * cols],
                      out=G[:, None, lo * cols:hi * cols])
        phase = _scratch_array("aux", (n, 1, J), complex)
        np.multiply(-1j, np.outer(times, self.mids)[:, None], out=phase)
        np.exp(phase, out=phase)
        return (phase @ G.view(complex).reshape(n, J, -1))[:, 0]


def _matsubara_poles(temperatures) -> tuple:
    return tuple(s for T in temperatures for s in _matsubara_pole(T))


def _filon_columns(nodes: np.ndarray, wts: np.ndarray, halfs: np.ndarray,
                   poles: np.ndarray, T: float, out: np.ndarray) -> np.ndarray:
    """Write 2 h (-i)^k c_k of g0 / (w - r), r = (p, conj p), into `out`
    (K, J, 8), and return int g0 / (w - p), (4,), at temperature T.

    g0 / (w - conj p) is the conjugate of g0 / (w - p), and so are its
    Legendre coefficients and integral.  The Legendre matrix and the scale
    2 h are complex, so their products cast nothing; the temporaries the
    size of one temperature's columns are on this thread's scratch."""
    _, _, to_legendre, i_k = _filon_rule()
    shape = (4, halfs.size, FILON_ORDER)
    f = np.subtract(nodes, poles[:, None],
                    out=_scratch_array("work", (4, nodes.size), complex))
    np.divide(thermal_weight(nodes, T), f, out=f)          # (4, J*K)
    c = np.matmul(f.reshape(shape), to_legendre,
                  out=_scratch_array("aux", shape, complex))
    integral = f @ wts
    # f is spent, so its buffer takes the conjugate block
    cc = np.conjugate(c, out=f.reshape(shape))
    scale = (2.0 * halfs).astype(complex)[:, None]
    for cols, block in ((slice(0, 4), c), (slice(4, 8), cc)):
        block *= scale
        block *= i_k
        out[:, :, cols] = block.transpose(2, 1, 0)
    return integral


def bath_spectra(cfg: InternalConfig, modes: NormalModes) -> tuple:
    """Spectral data of the baths with nonzero damping, one BathSpectrum per
    distinct cutoff, carrying every distinct temperature on that cutoff.

    Filon panels: FILON_BASE_PANELS uniform ones on [0, numax], bisected
    until the poles +-Omega_k -+ i delta_k of g0 / (w - r) and the Matsubara
    pole 2 pi i T of each temperature lie outside each panel's Bernstein
    ellipse BERNSTEIN_RHO; of the mode poles only Omega_k - i delta_k is
    tested, since its mirror -Omega_k - i delta_k is farther from both ends
    of every panel on [0, numax].  The small-t layout is built on first read
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
                             tuple(poles[0::2]) + _matsubara_poles(temps))
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
        # panels of one width side by side, in layout order within a width
        w_of = width_of[start:start + halfs.size]
        start += halfs.size
        order = np.argsort(w_of, kind="stable")
        mids, halfs, w_of = mids[order], halfs[order], w_of[order]
        bounds = [0, *(np.flatnonzero(np.diff(w_of)) + 1).tolist(),
                  w_of.size]
        nodes, wts = _panel_nodes(mids, halfs, (gl_x, gl_w))
        coef = np.empty((FILON_ORDER, halfs.size, 8 * len(temps)),
                        dtype=complex)
        # coef[k, j, (s, r)]: order k, panel j, temperature s, column r
        by_order = coef.reshape(FILON_ORDER, halfs.size, len(temps), 8)
        C = np.empty((len(temps), 8), dtype=complex)
        for s, T in enumerate(temps):
            C[s, :4] = _filon_columns(nodes, wts, halfs, poles, T,
                                      by_order[:, :, s])
            C[s, 4:] = C[s, :4].conj()
        sp = BathSpectrum(
            numax=numax, temperatures=tuple(temps),
            W=np.array(list(temps.values())), mids=mids, widths=widths,
            groups=tuple((int(w_of[lo]), lo, hi)
                         for lo, hi in zip(bounds[:-1], bounds[1:])),
            coef=coef, C=C)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("bath layout numax=%.6g T=%s: %d Filon panels, "
                      "%d nodes, %d distinct widths; %d small-t nodes",
                      numax, ", ".join(f"{T:.6g}" for T in temps),
                      halfs.size, nodes.size, len(sp.groups),
                      sp.small_nodes.size)
        out.append(sp)
    return tuple(out)


def _sigma_phases(poles: np.ndarray, t: np.ndarray) -> tuple:
    """The factors of Sigma that depend on t alone, (n, 4, 4) each, shared by
    every spectrum and temperature of a call; and p_a - conj p_b, (4, 4)."""
    p, pc = poles[:, None], poles.conj()[None, :]          # p_a, conj p_b
    den = p - pc
    tt = t[:, None, None]
    return (den, np.exp(1j * den * tt) + 1.0, np.exp(1j * p * tt),
            np.exp(-1j * pc * tt))


def _sigma(C: np.ndarray, D: np.ndarray, phases: tuple) -> np.ndarray:
    """Sigma_ab(t) = int g0 E_a conj(E_b) dw from C, D and `_sigma_phases`,
    shape (n, 4, 4)."""
    den, e_den, e_p, e_pc = phases
    dC = C[:4, None] - C[None, 4:]
    D_p, D_pc = D[:, :4], D[:, 4:]
    dD = D_p[:, :, None] - D_pc[:, None, :]
    # int g exp(+i w t) / (w - r) = conj(D(conj r))
    dDc = (D_pc[:, :, None] - D_p[:, None, :]).conj()
    return (e_den * dC - e_p * dD - e_pc * dDc) / den


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
    tf = times[filon]
    R_filon = np.zeros((tf.size, 4, 4))
    if filon.size and spectra:
        # (n, U, K), C-contiguous, on this thread's scratch; the layouts
        # share one width array, so one table serves them all
        widths = spectra[0].widths
        bessel = _scratch_array("bessel", (tf.size, widths.size, FILON_ORDER))
        spherical_jn_orders(np.outer(tf, widths),
                            out=bessel.reshape(-1, FILON_ORDER).T)
        phases = _sigma_phases(_mode_poles(modes), tf)
    # each time is one branch, and its terms are added in bath order; the
    # small-t sum runs over node slices fixed by the layout alone
    for sp in spectra:
        for lo in range(0, small.size, _FILON_BLOCK):
            idx = small[lo:lo + _FILON_BLOCK]
            nodes, weights = sp.small_layout
            for a in range(0, nodes.size, _SMALL_T_NODES):
                cut = slice(a, a + _SMALL_T_NODES)
                F = _elementary_transforms(modes, times[idx], nodes[cut])
                Fh = np.swapaxes(F.conj(), 1, 2)
                for wts, W in zip(weights[:, cut], sp.W):
                    R[idx] += ((F * wts) @ Fh).real * W
        if filon.size:
            D = sp.transforms(tf, bessel)
            for s, (C, W) in enumerate(zip(sp.C, sp.W)):
                S = _sigma(C, D[:, 8 * s:8 * s + 8], phases)
                R_filon += (_E_TO_TRIG @ S @ _TRIG_TO_E).real * W
    R[filon] = R_filon
    return R
