"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
heavy fixtures (full 2000-point production runs of all three bundled
scenarios plus the matching ODE oracle trajectories) are built once per
module.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from duosc.config import InternalForce
from duosc.engine import simulate
from duosc.modes import solve_determinant
from duosc.observables import hermiticity_error, numeric_trace
from duosc.oracle import fdt_stationary_variance, mean_ode

from crosscheck.action import classical_action_form
from crosscheck.forcing import force_moments
from crosscheck.influence import influence_form
from crosscheck.modes import QuarticCoefficients, decoupled_reference
from crosscheck.particular import particular_solution, verify_fourier_route
from test_influence import brute_quadratic
from test_modes import make_ic
from test_particular import fd_residual

N_GRID = 2000
# seconds per 2000-point preset run; a run takes one thread, whatever the
# host's cores
RUNTIME_BUDGET = 120.0


def _report(num, desc, ok, detail):
    line = (f"[criterion {num:02d}] {desc}: "
            f"{'PASS' if ok else 'FAIL'} ({detail})")
    print(line, flush=True)
    assert ok, line


def _zero_forces(ic):
    return replace(ic, force1=InternalForce(kind="zero"),
                   force2=InternalForce(kind="zero"))


@pytest.fixture(scope="module")
def runs(ic_fig2, ic_fig3, ic_fig4):
    """Full production runs + oracle trajectories + wall times."""
    out = {}
    for name, ic in (("fig2", ic_fig2), ("fig3", ic_fig3), ("fig4", ic_fig4)):
        times = np.linspace(0.0, ic.t_end, N_GRID)
        t0 = time.perf_counter()
        res = simulate(ic, times=times)
        wall = time.perf_counter() - t0
        oracle = mean_ode(ic, times)
        out[name] = (ic, res, oracle, wall)
    return out


@pytest.fixture(scope="module")
def run_fig3_off(ic_fig3):
    ic0 = _zero_forces(ic_fig3)
    times = np.linspace(0.0, ic_fig3.t_end, N_GRID)
    return simulate(ic0, times=times)


def test_criterion_01_means_match_ode_oracle(runs):
    worst = 0.0
    slowest = 0.0
    for name, (ic, res, oracle, wall) in runs.items():
        slowest = max(slowest, wall)
        for col, ref in (("mean_x1", oracle.x1), ("mean_x2", oracle.x2),
                         ("mean_p1", oracle.p1), ("mean_p2", oracle.p2)):
            scale = max(np.max(np.abs(ref)), 1e-300)
            worst = max(worst, np.max(np.abs(res.column(col) - ref)) / scale)
    ok = worst <= 1e-3 and slowest <= RUNTIME_BUDGET
    _report(1, "means vs ODE oracle on 2000-point grids",
            ok, f"rel Linf {worst:.2e} <= 1e-3, "
                f"slowest run {slowest:.1f}s <= {RUNTIME_BUDGET:.0f}s")


def test_criterion_02_decoupled_scenario_stays_decoupled(runs):
    ic, res, _, _ = runs["fig2"]
    assert ic.lam == 0.0
    s1 = math.sqrt(ic.sigma01_sq)
    s2 = math.sqrt(ic.sigma02_sq)
    times = res.times
    pre = times < ic.force2.t0
    idle = np.max(np.abs(res.column("mean_x2")[pre])) / s2
    cross = np.max(np.abs(res.column("cov_x1x2"))) / (s1 * s2)
    ok = idle <= 1e-10 and cross <= 1e-10
    _report(2, "zero coupling: oscillator 2 idle, zero cross-covariance",
            ok, f"|mean_x2|/sigma02 {idle:.2e}, "
                f"scaled cov_x1x2 {cross:.2e}, both <= 1e-10")


def test_criterion_03_force_zero_limit(ic_fig3):
    worst_param = 0.0
    worst_lin = 0.0
    ic0 = _zero_forces(ic_fig3)
    times = (4.3, 9.4, 21.7)
    undriven = simulate(ic0, times=times).states  # genuinely undriven config
    zeroed = simulate(_zero_forces(ic_fig3), times=times).states
    for s0, s_ref in zip(undriven, zeroed):
        scale = max(abs(s_ref.g1), abs(s_ref.g2), abs(s_ref.gp1),
                    abs(s_ref.gp2))
        for name in ("g1", "g2", "g12", "gp1", "gp2", "gp12", "gpp11",
                     "gpp12", "gpp21", "gpp22", "mx1", "mx2", "mp1", "mp2",
                     "log_norm"):
            a, b = getattr(s0, name), getattr(s_ref, name)
            worst_param = max(worst_param,
                              abs(a - b) / max(abs(b), scale))
        worst_lin = max(worst_lin, abs(s0.mx1), abs(s0.mx2),
                        abs(s0.mp1), abs(s0.mp2))
    ok = worst_param <= 1e-12 and worst_lin <= 1e-12
    _report(3, "zeroed forces reproduce the undriven state",
            ok, f"param dev {worst_param:.2e}, "
                f"residual linear coeffs {worst_lin:.2e}, both <= 1e-12")


def test_criterion_04_dispersions_drive_independent(runs, run_fig3_off):
    _, res_on, _, _ = runs["fig3"]
    res_off = run_fig3_off
    worst = 0.0
    for col in ("var_x1", "var_x2", "var_p1", "var_p2", "cov_x1x2"):
        a, b = res_on.column(col), res_off.column(col)
        worst = max(worst, np.max(np.abs(a - b)
                                  / np.maximum(np.abs(b), 1e-300)))
    ok = worst <= 1e-12
    _report(4, "dispersions identical with forces on vs off",
            ok, f"pointwise rel dev {worst:.2e} <= 1e-12 "
                f"on all {N_GRID} grid points")


def _commutator_residual(state, hbar):
    """max_j |Tr(rho [x_j, p_j]) - i*hbar| via matrix elements.

    Both trace integrals are done with Gauss-Hermite quadrature matched to
    the diagonal Gaussian; the argument gradients of the (exactly
    quadratic) log density come from central differences, which are exact
    for quadratics, so the whole evaluation is rounding-limited.
    """
    nodes, wts = np.polynomial.hermite_e.hermegauss(48)
    G = np.array([[2.0 * state.g1, state.g12],
                  [state.g12, 2.0 * state.g2]])
    h = np.array([state.mx1, state.mx2])
    Ginv = np.linalg.inv(G)
    Lc = np.linalg.cholesky(Ginv)
    U1, U2 = np.meshgrid(nodes, nodes, indexing="ij")
    W = np.outer(wts, wts).ravel()
    U = np.stack([U1.ravel(), U2.ravel()])
    X = (Lc @ U) + (Ginv @ h)[:, None]
    x1, x2 = X[0] / 2, X[1] / 2
    jac = abs(np.linalg.det(Lc))
    base = 0.25 * jac * W * np.exp(0.5 * np.sum(U * U, axis=0))
    rho0 = np.exp(state.log_rho(x1, x2, x1, x2))
    eps = 0.5 * math.sqrt(float(Ginv[0, 0]))
    worst = 0.0
    for j in (0, 1):
        e1 = eps if j == 0 else 0.0
        e2 = eps if j == 1 else 0.0
        # gradient on the first (bra-side) argument pair
        dbra = (state.log_rho(x1 + e1, x2 + e2, x1, x2)
                - state.log_rho(x1 - e1, x2 - e2, x1, x2)) / (2 * eps)
        # gradient on the second (ket-side) argument pair
        dket = (state.log_rho(x1, x2, x1 + e1, x2 + e2)
                - state.log_rho(x1, x2, x1 - e1, x2 - e2)) / (2 * eps)
        xj = (x1, x2)[j]
        # Tr(rho x p) = -i hbar Int x_j d_bra rho;
        # Tr(rho p x) = +i hbar Int x_j d_ket rho; difference below
        comm = -1j * hbar * np.sum(base * rho0 * xj * (dbra + dket))
        worst = max(worst, abs(comm - 1j * hbar))
    return worst


def test_criterion_05_hermiticity_trace_commutators(runs):
    worst_h, worst_tr, worst_c = 0.0, 0.0, 0.0
    for name in ("fig3", "fig4"):
        ic, res, _, _ = runs[name]
        for idx in (130, 660, 1320, 1999):
            s = res.states[idx]
            worst_h = max(worst_h, hermiticity_error(s))
            worst_tr = max(worst_tr, abs(numeric_trace(s) - 1.0))
            worst_c = max(worst_c, _commutator_residual(s, ic.hbar) / ic.hbar)
    ok = worst_h <= 1e-10 and worst_tr <= 1e-6 and worst_c <= 1e-10
    _report(5, "hermiticity, unit trace, canonical commutators",
            ok, f"herm {worst_h:.2e} <= 1e-10, trace dev {worst_tr:.2e} "
                f"<= 1e-6, commutator dev {worst_c:.2e} <= 1e-10*hbar")


def test_criterion_06_uncertainty_bound(runs):
    worst = math.inf
    for name, (ic, res, _, _) in runs.items():
        worst = min(worst, float(np.min(res.column("rs_min_eig"))))
        # single-oscillator 2x2 bound, in closed form per grid point
        for vx, vp, cxp in (("var_x1", "var_p1", "cov_x1p1"),
                            ("var_x2", "var_p2", "cov_x2p2")):
            a, b, c = (res.column(vx), res.column(vp), res.column(cxp))
            mean = 0.5 * (a + b)
            rad = np.sqrt(0.25 * (a - b) ** 2 + c ** 2 + 0.25 * ic.hbar ** 2)
            worst = min(worst, float(np.min(mean - rad)))
    ok = worst >= -1e-10
    _report(6, "Robertson-Schrodinger bound on every grid point",
            ok, f"min eigenvalue {worst:.2e} >= -1e-10, "
                "3 scenarios, 4x4 and per-oscillator checks")


def test_criterion_07_closed_form_drive_coefficients(ic_fig3, modes_fig3):
    worst = 0.0
    times = 1.17 + (28.6 - 1.17) * np.arange(20) / 19.0
    for t in times:
        fm = force_moments(modes_fig3, ic_fig3.force1, ic_fig3.force2, t)
        ps = particular_solution(modes_fig3, ic_fig3.force1,
                                 ic_fig3.force2, t)
        af = classical_action_form(ic_fig3, modes_fig3, ps, t)
        scale = max(abs(fm.lambda1), abs(fm.lambda2),
                    abs(fm.phi_f1), abs(fm.phi_f2))
        for a, b in ((fm.lambda1, af.lambda1), (fm.lambda2, af.lambda2),
                     (fm.phi_f1, af.phi_f1), (fm.phi_f2, af.phi_f2)):
            worst = max(worst, abs(a - b) / scale)
    ok = worst <= 1e-8
    _report(7, "closed-form drive coefficients vs polarization extraction",
            ok, f"rel dev {worst:.2e} <= 1e-8 at 20 times")


def test_criterion_08_particular_solution(ic_fig3, modes_fig3):
    worst_b, worst_ode, worst_fourier = 0.0, 0.0, 0.0
    for t in (8.1, 12.3, 21.0):
        ps = particular_solution(modes_fig3, ic_fig3.force1,
                                 ic_fig3.force2, t)
        scale = max(np.max(np.abs(ps.xi1_grid)),
                    np.max(np.abs(ps.xi2_grid)), 1e-300)
        worst_b = max(worst_b,
                      max(abs(b) for b in ps.boundary_residuals) / scale)
        worst_ode = max(worst_ode, fd_residual(ic_fig3, modes_fig3, ps, t))
        worst_fourier = max(worst_fourier, verify_fourier_route(
            ps, ic_fig3, ic_fig3.force1, ic_fig3.force2))
    ok = worst_b <= 1e-8 and worst_ode <= 1e-6 and worst_fourier <= 1e-6
    _report(8, "driven two-point solution: boundary, ODE, spectral route",
            ok, f"boundary {worst_b:.2e} <= 1e-8, ODE residual "
                f"{worst_ode:.2e} <= 1e-6, spectral {worst_fourier:.2e} "
                "<= 1e-6")


def test_criterion_09_mode_roots_and_weak_coupling_limit(ic_fig3, modes_fig3):
    q = QuarticCoefficients.from_config(ic_fig3)
    worst_root = max(abs(q.value(w)) for w in modes_fig3.roots)
    O1, O2, d1, d2 = decoupled_reference(make_ic(lam_tilde=0.0))
    lts = (1e-2, 1e-3, 1e-4)
    ms = [solve_determinant(make_ic(lam_tilde=lt)) for lt in lts]
    gaps = [abs(m.Omega1 - O1) + abs(m.Omega2 - O2)
            + abs(m.delta - d1) + abs(m.delta - d2)
            + abs(m.r1) + abs(m.r2) for m in ms]
    monotone = gaps[0] > gaps[1] > gaps[2]
    worst_lim = 0.0
    for attr, power, ref in (("r1", 1, 0.0), ("r2", 1, 0.0),
                             ("Omega1", 2, O1), ("Omega2", 2, O2),
                             ("delta", 2, d1), ("delta", 2, d2)):
        k = (lts[1] / lts[2]) ** power
        extrap = (k * getattr(ms[2], attr) - getattr(ms[1], attr)) / (k - 1.0)
        worst_lim = max(worst_lim, abs(extrap - ref))
    ok = worst_root <= 1e-10 and monotone and worst_lim <= 1e-8
    _report(9, "determinant roots and weak-coupling continuity",
            ok, f"|D(root)| {worst_root:.2e} <= 1e-10, gaps monotone "
                f"{monotone}, extrapolated limit dev {worst_lim:.2e} <= 1e-8")


def test_criterion_10_long_time_fdt(ic_fig3, ic_fig4):
    worst = 0.0
    details = []
    for ic in (ic_fig3, ic_fig4):
        t_long = 50.0 / ic.gamma1
        ic0 = _zero_forces(ic)
        rep = simulate(ic0, times=[t_long]).reports[0]
        fdt = fdt_stationary_variance(ic0)
        if fdt["equal_temperatures"]:
            for col in ("var_x1", "var_x2"):
                dev = abs(getattr(rep, col) - fdt[col]) / fdt[col]
                worst = max(worst, dev)
        else:
            # unequal bath temperatures: soft bracket, report only
            for col in ("var_x1", "var_x2"):
                lo, hi = sorted(fdt[col])
                inside = lo <= getattr(rep, col) <= hi
                details.append(f"{col} in [{lo:.3g}, {hi:.3g}]: {inside}")
    ok = worst <= 0.02
    _report(10, "equilibrium spreads vs fluctuation-dissipation integral",
            ok, f"equal-T rel dev {worst:.2e} <= 2e-2; "
                f"unequal-T soft bracket: {'; '.join(details)}")


def test_criterion_11_influence_vs_brute_force(ic_fig3, modes_fig3):
    worst = 0.0
    for t in (1.0, 2.0, 3.1, 4.2, 5.0):
        inf = influence_form(ic_fig3, modes_fig3, t)
        Q = brute_quadratic(ic_fig3, modes_fig3, t, n=512)
        scale = np.max(np.abs(inf.quadratic))
        rel = np.abs(Q - inf.quadratic) / np.maximum(
            np.abs(inf.quadratic), 1e-9 * scale)
        worst = max(worst, float(np.max(rel)))
    ok = worst <= 1e-5
    _report(11, "thermal-kernel coefficients vs O(n^2) nested quadrature",
            ok, f"slotwise rel dev {worst:.2e} <= 1e-5, "
                "n=512, 5 sampled times")
