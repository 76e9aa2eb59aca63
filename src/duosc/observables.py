"""Physical moments of the reduced two-oscillator Gaussian state.

A report row holds the state's first and second moments: its means and
the elements of its covariance matrix over (x1, x2, p1, p2), plus the
smallest eigenvalue of the Robertson-Schrodinger matrix.  The engine
computes those moments directly, and `reports_from_moments` lays them out
as rows (the Gaussian moment map; Weedbrook et al., RMP 84, 621 (2012)).

From the Hermitian state parameters the same moments follow by Gaussian
algebra.  With G the 2x2 quadratic form of the diagonal (X1, X2)
distribution, h its linear term, Gamma the X-xi phase couplings and
Gp the xi-xi quadratic block,

    <x>      = G^-1 h / 2
    <p>      = hbar (Gamma^T G^-1 h + m_p)
    Cov(x,x) = G^-1 / 4
    Cov(x,p) = (hbar / 2) G^-1 Gamma          (symmetrized)
    Cov(p,p) = hbar^2 (Gp + Gamma^T G^-1 Gamma)

Derivatives with respect to the difference variables hit the density matrix
on its diagonal; total-X derivatives integrate away, which is what makes the
closed forms this short.  `report_table` evaluates them for a table of
states as stacked 2x2 algebra and lays the rows out with
`reports_from_moments`; `report` is its one-row call.  `numeric_trace` and
`hermiticity_error` re-derive the unit trace and the Hermiticity straight
from rho(x, y), for `duosc run --verify`.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .reduction import STATE_FIELDS, GaussianStateParams

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

    @property
    def covariance_matrix(self) -> np.ndarray:
        """Symmetrized covariance matrix over (x1, p1, x2, p2)."""
        return np.array([[getattr(self, name) for name in row]
                         for row in _COV_LAYOUT])


# the covariance matrix over (x1, p1, x2, p2) by CovarianceReport field
_COV_LAYOUT = (("var_x1", "cov_x1p1", "cov_x1x2", "cov_x1p2"),
               ("cov_x1p1", "var_p1", "cov_x2p1", "cov_p1p2"),
               ("cov_x1x2", "cov_x2p1", "var_x2", "cov_x2p2"),
               ("cov_x1p2", "cov_p1p2", "cov_x2p2", "var_p2"))

#: the `CovarianceReport` fields, in order: the columns of a report table
REPORT_FIELDS = tuple(f.name for f in fields(CovarianceReport))
_COV_INDEX = np.array([[REPORT_FIELDS.index(name) for name in row]
                       for row in _COV_LAYOUT])


def _blocks(state: GaussianStateParams):
    G = np.array([[2.0 * state.g1, state.g12],
                  [state.g12, 2.0 * state.g2]])
    Gp = np.array([[2.0 * state.gp1, state.gp12],
                   [state.gp12, 2.0 * state.gp2]])
    Gamma = np.array([[state.gpp11, state.gpp12],
                      [state.gpp21, state.gpp22]])
    h = np.array([state.mx1, state.mx2])
    mp = np.array([state.mp1, state.mp2])
    return G, Gp, Gamma, h, mp


_J = np.array([[0.0, 1.0, 0.0, 0.0],
               [-1.0, 0.0, 0.0, 0.0],
               [0.0, 0.0, 0.0, 1.0],
               [0.0, 0.0, -1.0, 0.0]])


def _rs_min_eigs(cov: np.ndarray, hbar: float) -> np.ndarray:
    """Smallest eigenvalue of each cov + (i hbar / 2) J, (n, 4, 4) -> (n,)."""
    return np.min(np.linalg.eigvalsh(cov + 0.5j * hbar * _J), axis=-1)


def robertson_schrodinger_min_eig(cov: np.ndarray, hbar: float = 1.0) -> float:
    """Smallest eigenvalue of cov + (i hbar / 2) J; >= 0 for a valid state."""
    return float(_rs_min_eigs(np.asarray(cov, dtype=float)[None], hbar)[0])


def _mat2(a, b, c, d) -> np.ndarray:
    """Stacked 2x2 matrices [[a, b], [c, d]] from four (n,) columns."""
    return np.stack([a, b, c, d], axis=-1).reshape(-1, 2, 2)


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
    out[:, 15] = _rs_min_eigs(out[:, _COV_INDEX], hbar)      # rs_min_eig
    return out


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


# ---------------------------------------------------------------------------
# independent checks straight from rho(x, y)

def numeric_trace(state: GaussianStateParams) -> float:
    """Trace by Gauss-Hermite quadrature on the diagonal distribution."""
    G, _, _, h, _ = _blocks(state)
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
    G, _, _, h, _ = _blocks(state)
    center = 0.5 * (np.linalg.inv(G) @ h)
    pts = rng.normal(size=(4, n)) * scale
    x1, x2 = pts[0] + center[0], pts[1] + center[1]
    y1, y2 = pts[2] + center[0], pts[3] + center[1]
    a = state.rho(x1, x2, y1, y2)
    b = np.conj(state.rho(y1, y2, x1, x2))
    ref = float(np.max(np.abs(a)))
    return float(np.max(np.abs(a - b)) / max(ref, 1e-300))
