"""Physical moments of the reduced two-oscillator Gaussian state.

A report row holds the state's first and second moments: its means and
the elements of its covariance matrix over (x1, x2, p1, p2), plus
`rs_min_eig`, the scale-free uncertainty test of `_rs_min_eigs`.  The engine
computes those moments directly, and `reports_from_moments` lays them out
as rows (the Gaussian moment map; Weedbrook et al., RMP 84, 621 (2012)).
`numeric_trace` and `hermiticity_error` re-derive the unit trace and the
Hermiticity straight from rho(x, y), for `duosc run --verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .reduction import GaussianStateParams

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite_e.hermegauss(48)


@dataclass(frozen=True, slots=True)
class CovarianceReport:
    """First and second moments at one time, in internal units."""
    t: float
    mean_x1: float
    mean_x2: float
    mean_p1: float
    mean_p2: float
    var_x1: float
    var_x2: float
    var_p1: float
    var_p2: float
    cov_x1x2: float
    cov_p1p2: float
    cov_x1p1: float
    cov_x2p2: float
    cov_x1p2: float
    cov_x2p1: float
    rs_min_eig: float


#: the `CovarianceReport` fields, in order: the columns of a report table
REPORT_FIELDS = tuple(f.name for f in fields(CovarianceReport))


def _blocks(state: GaussianStateParams):
    """(G, h): the quadratic form and linear term of the state's diagonal
    (X1, X2) distribution."""
    G = np.array([[2.0 * state.g1, state.g12],
                  [state.g12, 2.0 * state.g2]])
    return G, np.array([state.mx1, state.mx2])


# the symplectic form [[0, I], [-I, 0]] over (x1, x2, p1, p2)
_J = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))


def _rs_min_eigs(cov: np.ndarray, hbar: float) -> np.ndarray:
    """Smallest eigenvalue of each D cov D + (i hbar / 2) J, (n, 4, 4) ->
    (n,).  D = diag(1/s1, 1/s2, s1, s2), s_k = (C_xkxk / C_pkpk)^(1/4),
    balances each oscillator and keeps J (Simon, Mukunda & Dutta, PRA 49,
    1567 (1994)), so the sign is that of cov + (i hbar / 2) J (Sylvester's
    law of inertia) and the value does not depend on either one's units."""
    s = (cov[:, [0, 1], [0, 1]] / cov[:, [2, 3], [2, 3]]) ** 0.25
    d = np.concatenate([1.0 / s, s], axis=1)
    balanced = d[:, :, None] * cov * d[:, None, :]
    return np.min(np.linalg.eigvalsh(balanced + 0.5j * hbar * _J), axis=-1)


# the (i, j) element of the covariance over (x1, x2, p1, p2) behind each
# second-moment field of CovarianceReport, in field order
_ROW, _COL = np.array([(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (2, 3),
                       (0, 2), (1, 3), (0, 3), (1, 2)]).T


def reports_from_moments(times: np.ndarray, means: np.ndarray,
                         cov: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """Report table (n, 16), columns REPORT_FIELDS, of the states with the
    given means (n, 4) and covariance matrices (n, 4, 4) over
    (x1, x2, p1, p2); the second moments are read off the upper triangle."""
    out = np.empty((times.size, len(REPORT_FIELDS)))
    out[:, 0] = times
    out[:, 1:5] = means
    out[:, 5:15] = cov[:, _ROW, _COL]
    out[:, 15] = _rs_min_eigs(cov, hbar)                     # rs_min_eig
    return out


# ---------------------------------------------------------------------------
# independent checks straight from rho(x, y)

def numeric_trace(state: GaussianStateParams) -> float:
    """Trace by Gauss-Hermite quadrature on the diagonal distribution."""
    G, h = _blocks(state)
    Ginv = np.linalg.inv(G)
    Xbar = Ginv @ h
    Lc = np.linalg.cholesky(Ginv)
    U1, U2 = np.meshgrid(_GH_NODES, _GH_NODES, indexing="ij")
    W = np.outer(_GH_WEIGHTS, _GH_WEIGHTS)
    U = np.stack([U1.ravel(), U2.ravel()])
    X = (Lc @ U) + Xbar[:, None]
    # ghe weights absorb exp(-u^2/2); undo it, add the Jacobian of X = L u
    logrho = np.real(state.log_rho(X[0] / 2, X[1] / 2, X[0] / 2, X[1] / 2))
    vals = np.exp(logrho + 0.5 * np.sum(U * U, axis=0))
    jac = abs(np.linalg.det(Lc))
    return float(0.25 * jac * np.sum(W.ravel() * vals))


def hermiticity_error(state: GaussianStateParams, n: int = 64,
                      seed: int = 7) -> float:
    """max |rho(x, y) - conj(rho(y, x))| / max |rho| on scattered points."""
    rng = np.random.default_rng(seed)
    scale = 2.0 * math.sqrt(max(1.0 / (8.0 * state.g1),
                                1.0 / (8.0 * state.g2)))
    G, h = _blocks(state)
    center = 0.5 * (np.linalg.inv(G) @ h)
    pts = rng.normal(size=(4, n)) * scale
    x1, x2 = pts[0] + center[0], pts[1] + center[1]
    y1, y2 = pts[2] + center[0], pts[3] + center[1]
    a = state.rho(x1, x2, y1, y2)
    b = np.conj(state.rho(y1, y2, x1, x2))
    ref = float(np.max(np.abs(a)))
    return float(np.max(np.abs(a - b)) / max(ref, 1e-300))
