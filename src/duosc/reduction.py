"""The reduced Gaussian state: its Hermitian parametrization, built from the
phase-space moments (production) or by contracting the propagator exponent
with the initial state (cross-check).

Production route (`states_from_moments`): a Gaussian state is fixed by its
means and its coordinate-momentum covariance matrix, so the 19
`GaussianStateParams` of a chunk of times follow from those moments in
closed form, as stacked 2x2 algebra; it inverts `observables.report_table`.
The state is Hermitian by construction, so its anti-Hermitian residues
read 0.

Cross-check route (`reduce_to_states`, `reduce_to_state`): the full
exponent of (propagator) x (initial density matrix) is an exact complex
quadratic-plus-linear form over eight endpoint variables, up to an
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

import math
from dataclasses import dataclass, fields

import numpy as np

from .action import ActionForm
from .config import InternalConfig
from .errors import NonHermitianLarge, NotNormalizable
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


@dataclass(frozen=True, slots=True)
class GaussianStateParams:
    """Hermitian parametrization of the reduced state at time t.

    log rho(X1, X2, xi1, xi2) = log_norm
        - g1 X1^2 - g2 X2^2 - g12 X1 X2
        - gp1 xi1^2 - gp2 xi2^2 - gp12 xi1 xi2
        + i (gpp11 X1 xi1 + gpp12 X1 xi2 + gpp21 X2 xi1 + gpp22 X2 xi2)
        + mx1 X1 + mx2 X2 + i (mp1 xi1 + mp2 xi2)

    The m* linear coefficients carry the means; the quadratic block is
    drive-independent.  Anti-Hermitian leftovers of the reduction are kept
    in the diagnostics fields (absolute size of the dropped coefficients).
    """
    t: float
    g1: float
    g2: float
    g12: float
    gp1: float
    gp2: float
    gp12: float
    gpp11: float
    gpp12: float
    gpp21: float
    gpp22: float
    mx1: float
    mx2: float
    mp1: float
    mp2: float
    log_norm: float
    nonherm_quadratic: float
    nonherm_linear_X: float
    nonherm_linear_xi: float

    # marginal-position quadratic coefficients (convenient combinations)
    @property
    def beta11(self) -> float:
        return 8.0 * self.g1

    @property
    def beta22(self) -> float:
        return 8.0 * self.g2

    @property
    def beta12(self) -> float:
        return 4.0 * self.g12

    @property
    def beta_det(self) -> float:
        return self.beta11 * self.beta22 - self.beta12 ** 2

    def log_rho(self, x1, x2, y1, y2):
        """Log of the normalized position-representation matrix element."""
        X1 = np.asarray(x1) + np.asarray(y1)
        X2 = np.asarray(x2) + np.asarray(y2)
        xi1 = np.asarray(x1) - np.asarray(y1)
        xi2 = np.asarray(x2) - np.asarray(y2)
        return (self.log_norm
                - self.g1 * X1 ** 2 - self.g2 * X2 ** 2 - self.g12 * X1 * X2
                - self.gp1 * xi1 ** 2 - self.gp2 * xi2 ** 2
                - self.gp12 * xi1 * xi2
                + 1j * (self.gpp11 * X1 * xi1 + self.gpp12 * X1 * xi2
                        + self.gpp21 * X2 * xi1 + self.gpp22 * X2 * xi2)
                + self.mx1 * X1 + self.mx2 * X2
                + 1j * (self.mp1 * xi1 + self.mp2 * xi2))

    def rho(self, x1, x2, y1, y2):
        return np.exp(self.log_rho(x1, x2, y1, y2))


def initial_state(cfg: InternalConfig) -> GaussianStateParams:
    """The exact t = 0 product state of the two wave packets."""
    g1 = 1.0 / (8.0 * cfg.sigma01_sq)
    g2 = 1.0 / (8.0 * cfg.sigma02_sq)
    # trace = 1 fixes the norm of the two decoupled Gaussians
    beta11, beta22 = 8.0 * g1, 8.0 * g2
    log_norm = 0.5 * math.log(beta11 * beta22) - math.log(2.0 * math.pi)
    return GaussianStateParams(
        t=0.0, g1=g1, g2=g2, g12=0.0, gp1=g1, gp2=g2, gp12=0.0,
        gpp11=0.0, gpp12=0.0, gpp21=0.0, gpp22=0.0,
        mx1=0.0, mx2=0.0, mp1=0.0, mp2=0.0, log_norm=log_norm,
        nonherm_quadratic=0.0, nonherm_linear_X=0.0, nonherm_linear_xi=0.0)


#: the `GaussianStateParams` fields, in order: the columns of a state table
STATE_FIELDS = tuple(f.name for f in fields(GaussianStateParams))


def state_row(state: GaussianStateParams) -> np.ndarray:
    """The state's fields as one row of a state table, (19,)."""
    return np.array([getattr(state, name) for name in STATE_FIELDS])


def _log_norm(g1, g2, g12, mx1, mx2) -> tuple:
    """(log_norm, beta determinant): trace = 1 on the diagonal x = y, with
    X = 2x there (Jacobian 1/4).  Neither route tracks the exponent's
    constant, so the normalization is imposed here rather than inherited."""
    beta11, beta22, beta12 = 8.0 * g1, 8.0 * g2, 4.0 * g12
    delta = beta11 * beta22 - beta12 ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        log_norm = (0.5 * np.log(delta) - math.log(2.0 * math.pi)
                    - 2.0 * (mx1 * mx1 * beta22 - 2.0 * mx1 * mx2 * beta12
                             + mx2 * mx2 * beta11) / delta)
    return log_norm, delta


def _check_normalizable(times, g1, g2, delta) -> None:
    """NotNormalizable naming the first time whose position quadratic form
    is not positive definite."""
    bad = ~((g1 > 0) & (g2 > 0) & (delta > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise NotNormalizable(
            f"position quadratic form not positive definite at "
            f"t={float(times[i])}: g1={g1[i]:.3e} g2={g2[i]:.3e} "
            f"det={delta[i]:.3e}")


def states_from_moments(times: np.ndarray, means: np.ndarray,
                        cov: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """State table (n, 19), columns STATE_FIELDS, of the Gaussian states with
    the given means (n, 4) and covariance matrices (n, 4, 4) over
    (x1, x2, p1, p2).

    With the blocks Cxx, Cxp, Cpp and the means xbar, pbar:
    G = Cxx^-1 / 4, Gamma = (2 / hbar) G Cxp,
    Gp = (Cpp - Cxp^T Cxx^-1 Cxp) / hbar^2, h = 2 G xbar and
    m_p = pbar / hbar - 2 Gamma^T xbar, where G and Gp hold (2 g1, g12,
    2 g2) and (2 gp1, gp12, 2 gp2).  NotNormalizable for the first time at
    which Cxx is not positive definite.
    """
    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    a, b, c = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    Cxp, Cpp = cov[:, :2, 2:], cov[:, 2:, 2:]
    det = a * c - b * b
    # Cxx^-1 = [[c, -b], [-b, a]] / det, exactly symmetric
    inv = np.stack([c, -b, -b, a], axis=-1).reshape(-1, 2, 2) \
        / det[:, None, None]
    G = 0.25 * inv
    Gamma = (2.0 / hbar) * G @ Cxp
    Gp = (Cpp - np.swapaxes(Cxp, 1, 2) @ inv @ Cxp) / hbar ** 2
    xbar, pbar = means[:, :2, None], means[:, 2:]
    h = 2.0 * (G @ xbar)[:, :, 0]
    mp = pbar / hbar - 2.0 * (np.swapaxes(Gamma, 1, 2) @ xbar)[:, :, 0]
    g1, g2, g12 = 0.5 * G[:, 0, 0], 0.5 * G[:, 1, 1], G[:, 0, 1]
    log_norm, delta = _log_norm(g1, g2, g12, h[:, 0], h[:, 1])
    _check_normalizable(times, g1, g2, delta)
    zero = np.zeros(times.size)
    return np.stack([times, g1, g2, g12,
                     0.5 * Gp[:, 0, 0], 0.5 * Gp[:, 1, 1],
                     0.5 * (Gp[:, 0, 1] + Gp[:, 1, 0]),
                     Gamma[:, 0, 0], Gamma[:, 0, 1],
                     Gamma[:, 1, 0], Gamma[:, 1, 1],
                     h[:, 0], h[:, 1], mp[:, 0], mp[:, 1],
                     log_norm, zero, zero, zero], axis=1)


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
    -> state table (n, 19), columns STATE_FIELDS.

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
