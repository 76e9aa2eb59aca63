"""The reduced Gaussian state: its Hermitian parametrization, built from its
phase-space moments.

A Gaussian state is fixed by its means and its coordinate-momentum
covariance matrix, so the 19 `GaussianStateParams` of a grid of times
follow from those moments in closed form, as stacked 2x2 algebra
(`states_from_moments`).  The state is Hermitian by construction, so its
anti-Hermitian residues read 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .config import InternalConfig
from .errors import NotNormalizable


@dataclass(frozen=True, slots=True)
class GaussianStateParams:
    """Hermitian parametrization of the reduced state at time t.

    log rho(X1, X2, xi1, xi2) = log_norm
        - g1 X1^2 - g2 X2^2 - g12 X1 X2
        - gp1 xi1^2 - gp2 xi2^2 - gp12 xi1 xi2
        + i (gpp11 X1 xi1 + gpp12 X1 xi2 + gpp21 X2 xi1 + gpp22 X2 xi2)
        + mx1 X1 + mx2 X2 + i (mp1 xi1 + mp2 xi2)

    The m* linear coefficients carry the means; the quadratic block is
    drive-independent.  The nonherm_* fields hold the absolute size of
    anti-Hermitian coefficients dropped by a reduction; every state built
    from its moments has none, and they read 0.
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


def initial_variances(cfg: InternalConfig) -> np.ndarray:
    """The diagonal of C0, the initial wave packets' minimum-uncertainty
    covariance over (x1, x2, p1, p2)."""
    var = np.array([cfg.sigma01_sq, cfg.sigma02_sq])
    return np.concatenate([var, 0.25 * cfg.hbar ** 2 / var])


def initial_state(cfg: InternalConfig) -> GaussianStateParams:
    """The t = 0 product state of the two wave packets: zero means, C0."""
    return GaussianStateParams(*states_from_moments(
        np.zeros(1), np.zeros((1, 4)), np.diag(initial_variances(cfg))[None],
        cfg.hbar)[0].tolist())


#: the `GaussianStateParams` fields, in order: the columns of a state table
STATE_FIELDS = tuple(f.name for f in fields(GaussianStateParams))


def _log_norm(g1, g2, g12, mx1, mx2) -> tuple:
    """(log_norm, beta determinant): trace = 1 on the diagonal x = y, with
    X = 2x there (Jacobian 1/4)."""
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


def check_normalizable(times: np.ndarray, cov: np.ndarray) -> tuple:
    """(g1, g2, g12) of the position form G = Cxx^-1 / 4 of covariance
    matrices (n, 4, 4), G holding (2 g1, g12, 2 g2); NotNormalizable for the
    first time at which G is not positive definite."""
    a, b, c = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    det = a * c - b * b
    # Cxx^-1 = [[c, -b], [-b, a]] / det, exactly symmetric
    g1 = 0.5 * (0.25 * (c / det))
    g2 = 0.5 * (0.25 * (a / det))
    g12 = 0.25 * (-b / det)
    _check_normalizable(times, g1, g2, (8.0 * g1) * (8.0 * g2)
                        - (4.0 * g12) ** 2)
    return g1, g2, g12


def states_from_moments(times: np.ndarray, means: np.ndarray,
                        cov: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """State table (n, 19), columns STATE_FIELDS, of the Gaussian states with
    the given means (n, 4) and symmetric covariance matrices (n, 4, 4) over
    (x1, x2, p1, p2).

    With the blocks Cxx, Cxp, Cpp and the means xbar, pbar:
    G = Cxx^-1 / 4, Gamma = (2 / hbar) G Cxp,
    Gp = (Cpp - Cxp^T Cxx^-1 Cxp) / hbar^2, h = 2 G xbar and
    m_p = pbar / hbar - 2 Gamma^T xbar, where G and Gp hold (2 g1, g12,
    2 g2) and (2 gp1, gp12, 2 gp2).  NotNormalizable for the first time at
    which Cxx is not positive definite.
    """
    g1, g2, g12 = check_normalizable(times, cov)
    G = np.stack([2.0 * g1, g12, g12, 2.0 * g2], axis=-1).reshape(-1, 2, 2)
    inv = 4.0 * G                                   # Cxx^-1
    Cxp, Cpp = cov[:, :2, 2:], cov[:, 2:, 2:]
    Gamma = (2.0 / hbar) * G @ Cxp
    Gp = (Cpp - np.swapaxes(Cxp, 1, 2) @ inv @ Cxp) / hbar ** 2
    xbar, pbar = means[:, :2, None], means[:, 2:]
    h = 2.0 * (G @ xbar)[:, :, 0]
    mp = pbar / hbar - 2.0 * (np.swapaxes(Gamma, 1, 2) @ xbar)[:, :, 0]
    log_norm = _log_norm(g1, g2, g12, h[:, 0], h[:, 1])[0]
    zero = np.zeros(times.size)
    return np.stack([times, g1, g2, g12,
                     0.5 * Gp[:, 0, 0], 0.5 * Gp[:, 1, 1],
                     0.5 * (Gp[:, 0, 1] + Gp[:, 1, 0]),
                     Gamma[:, 0, 0], Gamma[:, 0, 1],
                     Gamma[:, 1, 0], Gamma[:, 1, 1],
                     h[:, 0], h[:, 1], mp[:, 0], mp[:, 1],
                     log_norm, zero, zero, zero], axis=1)
