import math

import numpy as np
import pytest

from duosc.engine import simulate
from duosc.observables import (REPORT_FIELDS, hermiticity_error,
                               numeric_trace, reports_from_moments)
from duosc.reduction import initial_state

from crosscheck.observables import (report, robertson_schrodinger_min_eig,
                                    symplectic_min_eigs, verify_state)


def test_initial_moments(ic_fig3):
    rep = report(initial_state(ic_fig3), hbar=ic_fig3.hbar)
    assert math.isclose(rep.var_x1, ic_fig3.sigma01_sq, rel_tol=1e-12)
    assert math.isclose(rep.var_x2, ic_fig3.sigma02_sq, rel_tol=1e-12)
    # minimum-uncertainty packets: var_p = hbar^2 / (4 var_x)
    assert math.isclose(rep.var_p1, 0.25 / ic_fig3.sigma01_sq, rel_tol=1e-12)
    assert math.isclose(rep.var_p2, 0.25 / ic_fig3.sigma02_sq, rel_tol=1e-12)
    assert rep.mean_x1 == 0.0 and rep.mean_p2 == 0.0
    assert rep.cov_x1x2 == 0.0 and rep.cov_x1p1 == 0.0
    # the ground state saturates the uncertainty bound
    assert abs(rep.rs_min_eig) < 1e-12


def test_initial_trace_and_hermiticity(ic_fig3):
    s = initial_state(ic_fig3)
    assert math.isclose(numeric_trace(s), 1.0, rel_tol=1e-10)
    assert hermiticity_error(s) < 1e-12


def test_rs_eig_flags_unphysical_matrix():
    # a classical-looking covariance with spreads below hbar/2 must fail
    cov = np.diag([1e-4, 1e-4, 1e-4, 1e-4])
    assert robertson_schrodinger_min_eig(cov, hbar=1.0) < 0.0
    cov_ok = np.diag([0.5, 0.5, 0.5, 0.5])
    assert robertson_schrodinger_min_eig(cov_ok, hbar=1.0) >= -1e-14


def test_report_against_finite_difference_moments(ic_fig3):
    for s in simulate(ic_fig3, times=[3.7, 12.3]).states:
        res = verify_state(s, hbar=ic_fig3.hbar)
        assert res["trace_error"] < 1e-8
        assert res["hermiticity_error"] < 1e-12
        assert res["rs_min_eig"] > -1e-10
        assert res["mean_x_error"] < 1e-7
        assert res["mean_p_error"] < 1e-6
        assert res["var_x_error"] < 1e-7
        assert res["var_p_error"] < 1e-5


def test_covariance_matrix_layout(ic_fig3):
    """Each second-moment field of a report row is the entry of `cov` over
    (x1, x2, p1, p2) that it names, in both triangles."""
    res = simulate(ic_fig3, times=[5.5])
    rep, cov = res.reports[0], res.cov[0]
    index = {"x1": 0, "x2": 1, "p1": 2, "p2": 3}
    for name in REPORT_FIELDS[5:15]:
        kind, pair = name.split("_")
        a, b = (pair, pair) if kind == "var" else (pair[:2], pair[2:])
        i, j = index[a], index[b]
        assert getattr(rep, name) == cov[i, j] == cov[j, i], name
    # positive-definite covariance
    assert np.min(np.linalg.eigvalsh(cov)) > 0.0


# fig3's and fig4's grids, their short-time windows (t < 0.0075), where
# local damping acts before the band-limited noise builds up and the states
# break the bound, and the badly scaled physical m2 = 1e8 m1 grid
_WINDOW = np.logspace(-6.0, math.log10(0.0075), 60)


@pytest.fixture(scope="module")
def rs_grids(ic_fig3, ic_fig4, ic_fig3_heavy2):
    return {"fig3": simulate(ic_fig3), "fig4": simulate(ic_fig4),
            "fig3-window": simulate(ic_fig3, times=_WINDOW),
            "fig4-window": simulate(ic_fig4, times=_WINDOW),
            "m2=1e8m1": simulate(ic_fig3_heavy2)}


def test_rs_min_eig_sign_matches_the_symplectic_eigenvalue(rs_grids):
    """rs_min_eig >= 0 exactly where the closed-form symplectic eigenvalue
    nu_- >= hbar / 2, wherever their difference exceeds 1e-12."""
    for name, res in rs_grids.items():
        margin = symplectic_min_eigs(res.cov) - 0.5 * res.config.hbar
        resolved = np.abs(margin) > 1e-12
        assert np.array_equal(np.sign(res.column("rs_min_eig")[resolved]),
                              np.sign(margin[resolved])), name
        if name.endswith("window"):
            assert np.sum(margin < -1e-12) >= 50, name


@pytest.mark.parametrize("a, b", [(3.0, 0.2), (1e-3, 1e4)])
def test_rs_min_eig_is_unchanged_by_a_local_rescaling(rs_grids, a, b):
    """x1 / a, x2 / b, p1 a, p2 b change each oscillator's units and keep
    the commutators, so the uncertainty test must not move.  On fig3's
    short times the unbalanced eigenvalue moved by 1.4e-5 at (3, 0.2)."""
    res = rs_grids["fig3-window"]
    scale = np.array([1.0 / a, 1.0 / b, a, b])
    rescaled = reports_from_moments(res.times, res.means * scale,
                                    scale[:, None] * res.cov * scale,
                                    res.config.hbar)
    dev = rescaled[:, REPORT_FIELDS.index("rs_min_eig")] \
        - res.column("rs_min_eig")
    assert np.max(np.abs(dev)) <= 1e-15


def _mixed_moments_fd(state, j, hbar):
    """(<x_j p_j>, <p_j x_j>) straight from rho(x, y) matrix elements.

    Tr(rho x p) = i hbar int dx [rho(x,x) + x_j d/dy_j rho(x,y)|_{y=x}],
    Tr(rho p x) = i hbar int dx  x_j d/dy_j rho(x,y)|_{y=x}.
    """
    from duosc.observables import _GH_NODES, _GH_WEIGHTS, _blocks
    G, h = _blocks(state)
    Ginv = np.linalg.inv(G)
    Lc = np.linalg.cholesky(Ginv)
    U1, U2 = np.meshgrid(_GH_NODES, _GH_NODES, indexing="ij")
    W = np.outer(_GH_WEIGHTS, _GH_WEIGHTS).ravel()
    U = np.stack([U1.ravel(), U2.ravel()])
    X = (Lc @ U) + (Ginv @ h)[:, None]
    w = 0.25 * abs(np.linalg.det(Lc)) * W * np.exp(0.5 * np.sum(U * U, 0))
    x = X / 2.0
    eps = 1e-6

    def rho_shift(dy):
        y1 = x[0] + (dy if j == 0 else 0.0)
        y2 = x[1] + (dy if j == 1 else 0.0)
        return state.rho(x[0], x[1], y1, y2)

    r0 = rho_shift(0.0)
    drho = (rho_shift(eps) - rho_shift(-eps)) / (2 * eps)
    trace = np.sum(w * r0)
    cross = np.sum(w * x[j] * drho)
    xp = 1j * hbar * (trace + cross)
    px = 1j * hbar * cross
    return xp, px, trace


def test_commutator_from_matrix_elements(ic_fig3):
    """Canonical commutator and symmetrized cross moment recovered from
    independent finite differences of the matrix elements."""
    s = simulate(ic_fig3, times=[7.7]).states[0]
    rep = report(s, hbar=ic_fig3.hbar)
    for j, (cov_name, mx, mp) in enumerate(
            (("cov_x1p1", rep.mean_x1, rep.mean_p1),
             ("cov_x2p2", rep.mean_x2, rep.mean_p2))):
        xp, px, trace = _mixed_moments_fd(s, j, ic_fig3.hbar)
        # <[x, p]> = i hbar * trace, trace = 1
        comm = xp - px
        assert abs(comm - 1j * ic_fig3.hbar) < 1e-8 * ic_fig3.hbar
        assert abs(trace - 1.0) < 1e-8
        # symmetrized moment minus mean product = reported covariance
        sym = 0.5 * (xp + px)
        assert abs(sym.imag) < 1e-7 * max(abs(sym), 1.0)
        got = sym.real - mx * mp
        assert math.isclose(got, getattr(rep, cov_name),
                            rel_tol=1e-6, abs_tol=1e-7)
    # uncertainty products never dip below (hbar/2)^2
    assert rep.var_x1 * rep.var_p1 >= 0.25 * (1.0 - 1e-12)
    assert rep.var_x2 * rep.var_p2 >= 0.25 * (1.0 - 1e-12)
