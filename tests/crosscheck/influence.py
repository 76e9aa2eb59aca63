"""The bath phase in the endpoint (boundary-value) form, singular on the
caustics.

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

`influence_form` does one composite omega quadrature per time, resolving
exp(-i w t) anew; `grid_quadratic` is 1/2 V^T R V over the final and initial
xi endpoints, with R from `duosc.influence.grid_noise`.  The drive never
enters the bath phase (Feynman & Vernon 1963), so the phase has no linear
or constant part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from duosc.config import InternalConfig
from duosc.errors import ConfigError
from duosc.influence import (_GL16, FILON_ORDER, _graded_panels,
                             _matsubara_pole, _panel_nodes, bath_spectra,
                             grid_noise, thermal_weight)
from duosc.modes import NormalModes, check_caustic, component_weights

from .modes import coefficient_matrices, xi_coefficient_matrix


@dataclass(frozen=True)
class InfluenceForm:
    """Endpoint structure of the total bath phase at time t.

    phi(e) = e^T quadratic e over e = (xi_f1, xi_f2, xi_i1, xi_i2); the
    block is drive-independent and positive semidefinite.
    """
    t: float
    quadratic: np.ndarray   # (4, 4) symmetric


def _omega_panels(numax: float, t: float, T: float):
    """Composite GL-16 nodes resolving the O(2 pi / t) oscillation in w,
    graded towards w = 0 down to the thermal scale 2 pi T."""
    panels = max(64, 4 * int(math.ceil(numax * t / (2.0 * math.pi))))
    return _panel_nodes(*_graded_panels(numax, panels, _matsubara_pole(T)),
                        _GL16)


def influence_form(cfg: InternalConfig, modes: NormalModes,
                   t: float) -> InfluenceForm:
    """Evaluate the total bath phase structure at time t."""
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
            psi = pairwise_elementary_transforms(modes, t, om)[0]
            Fb = (V * comp[:, None]).T @ psi          # (4, n) basis transforms
            Sq = np.real((Fb * wt) @ Fb.conj().T)     # symmetric square form
            quadratic += 0.5 * Sq
    quadratic = 0.5 * (quadratic + quadratic.T)
    return InfluenceForm(t=t, quadratic=quadratic)


def grid_quadratic(cfg: InternalConfig, modes: NormalModes, times,
                   spectra: Optional[tuple] = None) -> np.ndarray:
    """Quadratic block of the total bath phase over the xi endpoints at each
    time, (n, 4, 4): 1/2 V^T R V with R from `grid_noise` and V the xi
    coefficient matrix.  Every time must be off the caustics (CausticTime
    otherwise).
    """
    if spectra is None:
        spectra = bath_spectra(cfg, modes)
    R = grid_noise(modes, times, spectra)
    V = coefficient_matrices(modes, np.asarray(times, dtype=float).ravel(),
                             sign=+1.0)
    out = 0.5 * (np.swapaxes(V, 1, 2) @ R @ V)
    return 0.5 * (out + np.swapaxes(out, 1, 2))


def looped_transforms(sp, times: np.ndarray,
                      by_order: np.ndarray) -> np.ndarray:
    """Reference for `BathSpectrum.transforms`, the (n, 8S) transforms D_r(t)
    from a Bessel table laid out orders first, `by_order` (K, n U) with
    column (time, width): per time, and per width group of `sp.groups` a
    contiguous copy of that time's Bessel row times the group's real
    coefficient columns, gathered into that time's (J, 8S) block, then the
    time's phases exp(-i m t) times that block."""
    bessel = np.moveaxis(by_order.reshape(FILON_ORDER, times.size, -1), 0, -1)
    coef = sp.coef.view(float)                     # (K, J, 16S)
    out = np.empty((times.size, sp.coef.shape[2]), dtype=complex)
    for i in range(times.size):
        block = np.empty(sp.coef.shape[1:], dtype=complex)
        for u, lo, hi in sp.groups:
            row = np.ascontiguousarray(bessel[i, u])[None]
            block.view(float)[lo:hi] = (
                row @ coef[:, lo:hi].reshape(FILON_ORDER, -1)
            ).reshape(hi - lo, -1)
        phase = np.exp(-1j * np.outer(times[i:i + 1], sp.mids))
        out[i] = (phase @ block)[0]
    return out


def panel_width_index(sp) -> np.ndarray:
    """Index into `sp.widths` of each panel's half-width, (J,), from the
    runs of equal width in `sp.groups`."""
    return np.concatenate([np.full(hi - lo, u) for u, lo, hi in sp.groups])


def row_product_transforms(sp, times: np.ndarray,
                           bessel: np.ndarray) -> np.ndarray:
    """The retired contraction order of `BathSpectrum.transforms`, (n, 8S):
    per time, the complex row exp(-i m t) j_k(h t) over (panel, order)
    times `coef` as one (J K, 8S) complex matrix; `bessel` is (n, U, K)."""
    rows = (np.exp(-1j * np.outer(times, sp.mids))[:, :, None]
            * bessel[:, panel_width_index(sp)])
    coef = sp.coef.transpose(1, 0, 2).reshape(-1, sp.coef.shape[2])
    return (rows.reshape(times.size, 1, -1) @ coef)[:, 0]


def pairwise_elementary_transforms(modes: NormalModes, times,
                                   omega: np.ndarray) -> np.ndarray:
    """Reference for `duosc.influence._elementary_transforms`, (n, 4, N):
    the transforms of [sin1, cos1, sin2, cos2] one mode at a time, with one
    expm1 call per exponent."""
    t = np.asarray(times, dtype=float).reshape(-1, 1)
    out = np.empty((t.shape[0], 4, omega.size), dtype=complex)
    d = modes.delta
    for k, O in enumerate((modes.Omega1, modes.Omega2)):
        ap = d + 1j * (O - omega)
        am = d - 1j * (O + omega)

        def E(alpha):
            zero = alpha == 0.0
            res = np.expm1(alpha * t) / np.where(zero, 1.0, alpha)
            res[:, zero] = t
            return res

        Ep, Em = E(ap), E(am)
        out[:, 2 * k] = (Ep - Em) / 2j
        out[:, 2 * k + 1] = (Ep + Em) / 2.0
    return out
