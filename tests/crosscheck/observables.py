"""Moments straight from rho(x, y): positions by Gauss-Hermite quadrature
on the diagonal distribution, momenta by finite differences in the
off-diagonal direction.  Slow; the independent check of
`duosc.observables.report`."""

from __future__ import annotations

import math

import numpy as np

from duosc.observables import (_GH_NODES, _GH_WEIGHTS, _blocks,
                               hermiticity_error, report)
from duosc.reduction import GaussianStateParams


def finite_difference_moments(state: GaussianStateParams,
                              hbar: float = 1.0) -> dict:
    """Momentum moments by finite differences of rho in the off-diagonal
    direction, positions by quadrature."""
    G, _, _, h, _ = _blocks(state)
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
