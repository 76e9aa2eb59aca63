"""The reduced state by contracting the propagator exponent with the
initial state.

The full exponent of (propagator) x (initial density matrix) is an exact
complex quadratic-plus-linear form over eight endpoint variables, up to an
additive constant that no output needs: the reduced state is normalized to
unit trace here.  The exponents of all times are stacked as (n, 8, 8)
arrays, and integrating out the four initial variables is one stacked
Schur complement; what remains is the final-time Gaussian state,
parametrized by real coefficients of its Hermitian part.  Anti-Hermitian
residue (which would vanish in exact arithmetic for a valid open-system
evolution) is measured and reported, never silently projected away
without record.

Variable order used throughout: (X_f1, X_f2, xi_f1, xi_f2,
X_i1, X_i2, xi_i1, xi_i2), where X = x + y and xi = x - y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from duosc.action import ActionForm
from duosc.config import InternalConfig
from duosc.errors import DuoscError
from duosc.reduction import (GaussianStateParams, _check_normalizable,
                             _log_norm)

from .influence import InfluenceForm

_X_SLOTS = [0, 1, 4, 5]    # Xf1, Xf2, Xi1, Xi2 in the 8-vector
_XI_SLOTS = [2, 3, 6, 7]   # xif1, xif2, xii1, xii2
_INITIAL = [4, 5, 6, 7]    # Xi1, Xi2, xii1, xii2
_X_XI = np.ix_(_X_SLOTS, _XI_SLOTS)
_XI_X = np.ix_(_XI_SLOTS, _X_SLOTS)
_XI_XI = np.ix_(_XI_SLOTS, _XI_SLOTS)

#: largest anti-Hermitian residue, relative to the state's own coefficients,
#: that `reduce_to_state` accepts (NonHermitianLarge beyond it)
NONHERM_TOL = 1e-6


class NonHermitianLarge(DuoscError):
    """Dropped non-Hermitian coefficients exceed the allowed fraction of
    kept ones."""


@dataclass(frozen=True)
class QuadraticExponent:
    """exponent(e) = -1/2 e^T M e + L . e + const over the eight endpoints."""
    matrix: np.ndarray      # (8, 8) complex symmetric
    linear: np.ndarray      # (8,) complex


def _exponents(cfg: InternalConfig, bilinear: np.ndarray,
               linear_xi: np.ndarray, quadratic: np.ndarray) -> tuple:
    """Stacked exponents (M (n, 8, 8), L (n, 8)) from the action blocks
    (n, 4, 4), (n, 4) and the bath-phase blocks (n, 4, 4)."""
    n = bilinear.shape[0]
    M = np.zeros((n, 8, 8), dtype=complex)
    L = np.zeros((n, 8), dtype=complex)
    # i * (classical action): strictly X-xi bilinear plus xi-linear terms
    M[(slice(None),) + _X_XI] = -1j * bilinear
    M[(slice(None),) + _XI_X] = -1j * np.swapaxes(bilinear, 1, 2)
    L[:, _XI_SLOTS] = 1j * linear_xi
    # -(bath phase): real quadratic in xi
    M[(slice(None),) + _XI_XI] = 2.0 * quadratic
    # initial Gaussian wave packets: -(X_i^2 + xi_i^2) / (8 sigma0^2)
    M[:, _INITIAL, _INITIAL] += 1.0 / (4.0 * np.array(
        [cfg.sigma01_sq, cfg.sigma02_sq, cfg.sigma01_sq, cfg.sigma02_sq]))
    return M, L


def propagator_exponent(cfg: InternalConfig, action: ActionForm,
                        infl: InfluenceForm) -> QuadraticExponent:
    """Exponent of propagator times initial state, before reduction."""
    M, L = _exponents(cfg, action.bilinear[None], action.linear_xi[None],
                      infl.quadratic[None])
    return QuadraticExponent(matrix=M[0], linear=L[0])


def _schur_reduce(M: np.ndarray, L: np.ndarray) -> tuple:
    """Integrate out the four initial endpoints of stacked exponents.

    Returns (Qp (n, 4, 4), Lp (n, 4)) with the reduced exponent
    -1/2 f^T Qp f + Lp . f + const over f = (X_f1, X_f2, xi_f1, xi_f2).
    The initial block spans many orders of magnitude at long times (the
    anti-damped paths grow like exp(delta t)), so it is symmetrically
    equilibrated before solving.
    """
    Mff, Mfi, Mii = M[:, :4, :4], M[:, :4, 4:], M[:, 4:, 4:]
    d = 1.0 / np.sqrt(np.maximum(
        np.abs(np.diagonal(Mii, axis1=1, axis2=2)), 1e-300))
    Mii_s = (d[:, :, None] * Mii) * d[:, None, :]
    rhs = np.concatenate([np.swapaxes(Mfi, 1, 2) * d[:, :, None],
                          (d * L[:, 4:])[:, :, None]], axis=2)
    sol = np.linalg.solve(Mii_s, rhs)
    inv_Mfi_T = d[:, :, None] * sol[:, :, :4]      # Mii^-1 Mfi^T
    inv_Li = d * sol[:, :, 4]                      # Mii^-1 Li
    Qp = Mff - Mfi @ inv_Mfi_T
    Qp = 0.5 * (Qp + np.swapaxes(Qp, 1, 2))
    Lp = L[:, :4] - (Mfi @ inv_Li[:, :, None])[:, :, 0]
    return Qp, Lp


def reduce_to_states(cfg: InternalConfig, times: np.ndarray,
                     bilinear: np.ndarray, linear_xi: np.ndarray,
                     quadratic: np.ndarray) -> np.ndarray:
    """Full contraction at each time: stacked exponents -> Schur complement
    -> state table (n, 19), columns `duosc.reduction.STATE_FIELDS`.

    NonHermitianLarge or NotNormalizable, for the first time at which
    either check fails, as if the times were reduced one by one.
    """
    Qp, Lp = _schur_reduce(*_exponents(cfg, bilinear, linear_xi, quadratic))
    Qr, Qi = Qp.real, Qp.imag
    g1, g2, g12 = 0.5 * Qr[:, 0, 0], 0.5 * Qr[:, 1, 1], Qr[:, 0, 1]
    gp1, gp2, gp12 = 0.5 * Qr[:, 2, 2], 0.5 * Qr[:, 3, 3], Qr[:, 2, 3]
    gpp11, gpp12 = -Qi[:, 0, 2], -Qi[:, 0, 3]
    gpp21, gpp22 = -Qi[:, 1, 2], -Qi[:, 1, 3]
    mx1, mx2 = Lp.real[:, 0], Lp.real[:, 1]
    mp1, mp2 = Lp.imag[:, 2], Lp.imag[:, 3]

    # anti-Hermitian residue: imaginary X-X / xi-xi and real X-xi quadratic
    # couplings, imaginary X-linear and real xi-linear coefficients
    n = times.size
    nh_quad = np.max(np.abs(np.concatenate(
        [Qi[:, :2, :2].reshape(n, 4), Qi[:, 2:, 2:].reshape(n, 4),
         Qr[:, :2, 2:].reshape(n, 4)], axis=1)), axis=1)
    nh_lx = np.max(np.abs(Lp.imag[:, :2]), axis=1)
    nh_lxi = np.max(np.abs(Lp.real[:, 2:]), axis=1)
    nh_lin = np.maximum(nh_lx, nh_lxi)
    quad_scale = np.max(np.abs([g1, g2, gp1, gp2]), axis=0, initial=1e-300)
    lin_scale = np.max(np.abs([mx1, mx2, mp1, mp2]), axis=0)
    bad_quad = nh_quad > NONHERM_TOL * quad_scale
    bad_lin = (lin_scale > 0) & (nh_lin > NONHERM_TOL * lin_scale)

    log_norm, delta = _log_norm(g1, g2, g12, mx1, mx2)
    bad = bad_quad | bad_lin | ~((g1 > 0) & (g2 > 0) & (delta > 0))
    if bad.any():
        i = int(np.argmax(bad))
        t = float(times[i])
        if bad_quad[i]:
            raise NonHermitianLarge(
                f"anti-Hermitian quadratic residue {nh_quad[i]:.3e} exceeds "
                f"{NONHERM_TOL:.1e} of scale {quad_scale[i]:.3e} at t={t}")
        if bad_lin[i]:
            raise NonHermitianLarge(
                f"anti-Hermitian linear residue {nh_lin[i]:.3e} "
                f"exceeds {NONHERM_TOL:.1e} of scale {lin_scale[i]:.3e} "
                f"at t={t}")
    _check_normalizable(times, g1, g2, delta)
    return np.stack([times, g1, g2, g12, gp1, gp2, gp12,
                     gpp11, gpp12, gpp21, gpp22, mx1, mx2, mp1, mp2,
                     log_norm, nh_quad, nh_lx, nh_lxi], axis=1)


def reduce_to_state(cfg: InternalConfig, action: ActionForm,
                    infl: InfluenceForm) -> GaussianStateParams:
    """Full contraction at one time: one row of `reduce_to_states`."""
    row = reduce_to_states(cfg, np.array([action.t]), action.bilinear[None],
                           action.linear_xi[None], infl.quadratic[None])[0]
    return GaussianStateParams(*row.tolist())
