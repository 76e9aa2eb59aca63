"""The paper's moments of a state, and the same moments straight from
rho(x, y).

The paper reads the means and covariances off the Hermitian state
parameters by Gaussian algebra.  With G the 2x2 quadratic form of the
diagonal (X1, X2) distribution, h its linear term, Gamma the X-xi phase
couplings and Gp the xi-xi quadratic block,

    <x>      = G^-1 h / 2
    <p>      = hbar (Gamma^T G^-1 h + m_p)
    Cov(x,x) = G^-1 / 4
    Cov(x,p) = (hbar / 2) G^-1 Gamma          (symmetrized)
    Cov(p,p) = hbar^2 (Gp + Gamma^T G^-1 Gamma)

Derivatives with respect to the difference variables hit the density matrix
on its diagonal; total-X derivatives integrate away, which is what makes the
closed forms this short.  `report_table` evaluates them for a table of
states as stacked 2x2 algebra and lays the rows out with
`duosc.observables.reports_from_moments`; `report` is its one-row call.
This inverts `duosc.reduction.states_from_moments`, which builds the
production states from the engine's moments.

`finite_difference_moments` takes the moments straight from rho(x, y):
positions by Gauss-Hermite quadrature on the diagonal distribution, momenta
by finite differences in the off-diagonal direction.  Slow; the independent
check of `report`.  `robertson_schrodinger_min_eig` is the one-matrix call
of the production uncertainty bound.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np

from duosc.observables import (_GH_NODES, _GH_WEIGHTS, CovarianceReport,
                               _blocks, _rs_min_eigs, hermiticity_error,
                               reports_from_moments)
from duosc.reduction import STATE_FIELDS, GaussianStateParams


def _mat2(a, b, c, d) -> np.ndarray:
    """Stacked 2x2 matrices [[a, b], [c, d]] from four (n,) columns."""
    return np.stack([a, b, c, d], axis=-1).reshape(-1, 2, 2)


def report_table(states: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """All first and second moments of each row of a state table,
    (n, 19) -> (n, 16), columns REPORT_FIELDS."""
    s = dict(zip(STATE_FIELDS, states.T))
    G = _mat2(2.0 * s["g1"], s["g12"], s["g12"], 2.0 * s["g2"])
    Gp = _mat2(2.0 * s["gp1"], s["gp12"], s["gp12"], 2.0 * s["gp2"])
    Gamma = _mat2(s["gpp11"], s["gpp12"], s["gpp21"], s["gpp22"])
    GammaT = np.swapaxes(Gamma, 1, 2)
    h = np.stack([s["mx1"], s["mx2"]], axis=-1)[:, :, None]
    mp = np.stack([s["mp1"], s["mp2"]], axis=-1)
    Ginv = np.linalg.inv(G)
    Xbar = Ginv @ h
    pbar = hbar * ((GammaT @ Xbar)[:, :, 0] + mp)
    Cxx = 0.25 * Ginv
    Cxp = 0.5 * hbar * Ginv @ Gamma
    Cpp = hbar * hbar * (Gp + GammaT @ Ginv @ Gamma)
    cov = np.block([[Cxx, Cxp], [np.swapaxes(Cxp, 1, 2), Cpp]])
    return reports_from_moments(
        s["t"], np.concatenate([0.5 * Xbar[:, :, 0], pbar], axis=1), cov,
        hbar)


def report(state: GaussianStateParams, hbar: float = 1.0) -> CovarianceReport:
    """Assemble all first and second moments of the state: one row of
    `report_table`."""
    return CovarianceReport(
        *report_table(np.array([astuple(state)]), hbar)[0].tolist())


def robertson_schrodinger_min_eig(cov: np.ndarray, hbar: float = 1.0) -> float:
    """Smallest eigenvalue of cov + (i hbar / 2) J, one matrix through the
    production table's `_rs_min_eigs`; >= 0 for a valid state."""
    return float(_rs_min_eigs(np.asarray(cov, dtype=float)[None], hbar)[0])


def finite_difference_moments(state: GaussianStateParams,
                              hbar: float = 1.0) -> dict:
    """Momentum moments by finite differences of rho in the off-diagonal
    direction, positions by quadrature."""
    G, h = _blocks(state)
    Ginv = np.linalg.inv(G)
    Xbar = Ginv @ h
    Lc = np.linalg.cholesky(Ginv)
    U1, U2 = np.meshgrid(_GH_NODES, _GH_NODES, indexing="ij")
    W = np.outer(_GH_WEIGHTS, _GH_WEIGHTS).ravel()
    U = np.stack([U1.ravel(), U2.ravel()])
    X = (Lc @ U) + Xbar[:, None]
    jac = abs(np.linalg.det(Lc))
    base_w = 0.25 * jac * W * np.exp(0.5 * np.sum(U * U, axis=0))

    def diag_rho(e1, e2):
        # rho evaluated at xi = (e1, e2) on the sampled X grid
        return state.rho((X[0] + e1) / 2, (X[1] + e2) / 2,
                         (X[0] - e1) / 2, (X[1] - e2) / 2)

    eps = 1e-5 / math.sqrt(max(state.gp1, state.gp2, 1.0))
    r0 = diag_rho(0.0, 0.0)
    trace = float(np.real(np.sum(base_w * r0)))
    mean_x1 = float(np.real(np.sum(base_w * r0 * X[0] / 2))) / trace
    mean_x2 = float(np.real(np.sum(base_w * r0 * X[1] / 2))) / trace
    # <p_j> = -i hbar int (d rho / d xi_j) at xi = 0 over the diagonal
    d1 = (diag_rho(eps, 0.0) - diag_rho(-eps, 0.0)) / (2 * eps)
    d2 = (diag_rho(0.0, eps) - diag_rho(0.0, -eps)) / (2 * eps)
    mean_p1 = float(np.real(np.sum(base_w * (-1j * hbar) * d1))) / trace
    mean_p2 = float(np.real(np.sum(base_w * (-1j * hbar) * d2))) / trace
    # <p_j^2> = -hbar^2 int (d^2 rho / d xi_j^2) at xi = 0
    dd1 = (diag_rho(eps, 0.0) - 2 * r0 + diag_rho(-eps, 0.0)) / eps ** 2
    dd2 = (diag_rho(0.0, eps) - 2 * r0 + diag_rho(0.0, -eps)) / eps ** 2
    var_p1 = float(np.real(np.sum(base_w * (-hbar ** 2) * dd1))) / trace \
        - mean_p1 ** 2
    var_p2 = float(np.real(np.sum(base_w * (-hbar ** 2) * dd2))) / trace \
        - mean_p2 ** 2
    var_x1 = float(np.real(np.sum(base_w * r0 * (X[0] / 2) ** 2))) / trace \
        - mean_x1 ** 2
    var_x2 = float(np.real(np.sum(base_w * r0 * (X[1] / 2) ** 2))) / trace \
        - mean_x2 ** 2
    return {
        "trace": trace,
        "mean_x1": mean_x1, "mean_x2": mean_x2,
        "mean_p1": mean_p1, "mean_p2": mean_p2,
        "var_x1": var_x1, "var_x2": var_x2,
        "var_p1": var_p1, "var_p2": var_p2,
    }


def verify_state(state: GaussianStateParams, hbar: float = 1.0) -> dict:
    """Internal consistency checks; returns named residuals."""
    rep = report(state, hbar=hbar)
    fd = finite_difference_moments(state, hbar=hbar)
    scale_x = math.sqrt(max(rep.var_x1, rep.var_x2))
    scale_p = math.sqrt(max(rep.var_p1, rep.var_p2))
    return {
        "trace_error": abs(fd["trace"] - 1.0),
        "hermiticity_error": hermiticity_error(state),
        "rs_min_eig": rep.rs_min_eig,
        "mean_x_error": max(abs(fd["mean_x1"] - rep.mean_x1),
                            abs(fd["mean_x2"] - rep.mean_x2)) / scale_x,
        "mean_p_error": max(abs(fd["mean_p1"] - rep.mean_p1),
                            abs(fd["mean_p2"] - rep.mean_p2)) / scale_p,
        "var_x_error": max(abs(fd["var_x1"] - rep.var_x1),
                           abs(fd["var_x2"] - rep.var_x2)) / scale_x ** 2,
        "var_p_error": max(abs(fd["var_p1"] - rep.var_p1),
                           abs(fd["var_p2"] - rep.var_p2)) / scale_p ** 2,
    }
