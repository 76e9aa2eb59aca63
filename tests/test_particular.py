import math

import numpy as np
import pytest

from duosc.config import InternalForce
from duosc.forcing import force_value
from duosc.modes import solve_determinant

from crosscheck.particular import (QuadratureNonConvergence, fourier_route,
                                   particular_solution, verify_fourier_route)
from test_modes import make_ic


def fd_residual(ic, modes, ps, t):
    """Scaled max residual of the driven difference-variable equations,
    via central differences of the exact first derivatives."""
    tau = np.linspace(0.02 * t, 0.98 * t, 4001)
    h = tau[1] - tau[0]
    xi1, xi2 = ps.values(tau)
    d1, d2 = ps.derivatives(tau)

    def dd4(v):
        # 4th-order 5-point second derivative from the exact values
        return (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1]
                - v[4:]) / (12 * h ** 2)

    dd1, dd2 = dd4(xi1), dd4(xi2)
    mid = slice(2, -2)
    f1 = force_value(ic.force1, tau[mid])
    f2 = force_value(ic.force2, tau[mid])
    r1 = (dd1 - 2 * ic.gamma1 * d1[mid] + ic.w01 ** 2 * xi1[mid]
          - (ic.lam / ic.m1) * xi2[mid] - 2.0 * f1 / ic.m1)
    r2 = (dd2 - 2 * ic.gamma2 * d2[mid] + ic.w02 ** 2 * xi2[mid]
          - (ic.lam / ic.m2) * xi1[mid] - 2.0 * f2 / ic.m2)
    # FD truncation error spikes at the force onset; exclude a neighborhood
    keep = np.abs(tau[mid] - ic.force1.t0) > 3 * h
    if ic.force2.kind == "exponential_step":
        keep &= np.abs(tau[mid] - ic.force2.t0) > 3 * h
    scale = max(np.max(np.abs(xi1)), np.max(np.abs(xi2)), 1e-300)
    return max(np.max(np.abs(r1[keep])), np.max(np.abs(r2[keep]))) / scale


def test_zero_force_gives_zero_solution(modes_fig3):
    zero = InternalForce(kind="zero")
    ps = particular_solution(modes_fig3, zero, zero, 10.0)
    tau = np.linspace(0.0, 10.0, 50)
    xi1, xi2 = ps.values(tau)
    assert np.all(xi1 == 0.0) and np.all(xi2 == 0.0)


def test_boundary_residuals(ic_fig3, modes_fig3):
    for t in (1.7, 8.1, 12.3, 29.0):
        ps = particular_solution(modes_fig3, ic_fig3.force1,
                                 ic_fig3.force2, t)
        xi1, xi2 = ps.values(np.array([0.0, t]))
        scale = max(np.max(np.abs(ps.xi1_grid)),
                    np.max(np.abs(ps.xi2_grid)), 1e-300)
        assert np.max(np.abs([xi1[0], xi2[0], xi1[1], xi2[1]])) < 1e-10 * scale
        assert max(abs(b) for b in ps.boundary_residuals) < 1e-10 * scale


def test_ode_residual(ic_fig3, modes_fig3):
    for t in (8.1, 21.0):
        ps = particular_solution(modes_fig3, ic_fig3.force1,
                                 ic_fig3.force2, t)
        assert fd_residual(ic_fig3, modes_fig3, ps, t) < 1e-5


def test_decoupled_single_oscillator_oracle():
    """lam=0: oscillator 1 alone obeys a scalar anti-damped driven equation
    with an elementary closed-form Duhamel solution."""
    ic = make_ic(lam_tilde=0.0,
                 force1=InternalForce(kind="exponential_step", f0=0.5,
                                      t0=1.0, decay=0.1))
    modes = solve_determinant(ic)
    t = 9.3
    ps = particular_solution(modes, ic.force1, ic.force2, t)

    g = ic.gamma1
    Om = math.sqrt(ic.w01 ** 2 - g ** 2)

    # direct numeric Duhamel on a fine grid as the oracle:
    # int_0^tau exp(gamma*(tau-s)) sin(Om*(tau-s))/Om * 2 f(s) ds,
    # endpoint-corrected to vanish at tau = t
    tau_chk = np.linspace(0.3, t - 0.3, 17)
    t0 = ic.force1.t0

    def duhamel(tau):
        # f vanishes before the onset, so integrate the smooth tail only
        if tau <= t0:
            return 0.0
        s = np.linspace(t0, tau, 40001)
        ker = np.exp(g * (tau - s)) * np.sin(Om * (tau - s)) / Om
        return np.trapezoid(2.0 * force_value(ic.force1, s) * ker, s)

    xi_free = np.array([duhamel(tau) for tau in tau_chk])
    # endpoint correction: remove the value at t with the anti-damped
    # homogeneous solution that vanishes at 0
    xi_at_t = duhamel(t)
    corr = xi_at_t * np.exp(g * tau_chk) * np.sin(Om * tau_chk) \
        / (math.exp(g * t) * math.sin(Om * t))
    oracle = xi_free - corr

    xi1, xi2 = ps.values(tau_chk)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(xi1 - oracle)) < 1e-7 * scale
    assert np.max(np.abs(xi2)) < 1e-12 * scale


def test_superposition_in_forces(ic_fig3, modes_fig3):
    t = 12.3
    zero = InternalForce(kind="zero")
    ps_both = particular_solution(modes_fig3, ic_fig3.force1,
                                  ic_fig3.force2, t)
    ps_1 = particular_solution(modes_fig3, ic_fig3.force1, zero, t)
    ps_2 = particular_solution(modes_fig3, zero, ic_fig3.force2, t)
    tau = np.linspace(0.0, t, 101)
    for idx in (0, 1):
        a = ps_both.values(tau)[idx]
        b = ps_1.values(tau)[idx] + ps_2.values(tau)[idx]
        assert np.max(np.abs(a - b)) < 1e-12 * max(np.max(np.abs(a)), 1e-300)


def test_fourier_route_agreement(ic_fig3, modes_fig3):
    t = 12.3
    ps = particular_solution(modes_fig3, ic_fig3.force1, ic_fig3.force2, t)
    dev = verify_fourier_route(ps, ic_fig3, ic_fig3.force1, ic_fig3.force2)
    assert dev < 1e-6


def test_fourier_route_disagreement_raises(ic_fig3, modes_fig3):
    # truncating the spectral window far too early must be caught
    t = 12.3
    ps = particular_solution(modes_fig3, ic_fig3.force1, ic_fig3.force2, t)
    tau = np.linspace(0.1 * t, 0.9 * t, 9)
    b1, _ = fourier_route(ic_fig3, ic_fig3.force1, ic_fig3.force2, t, tau,
                          omega_max=1.5)
    a1, _ = ps.values(tau)
    assert np.max(np.abs(a1 - b1)) > 1e-4  # the crude window is visibly off
    with pytest.raises(QuadratureNonConvergence):
        verify_fourier_route(ps, ic_fig3, ic_fig3.force1, ic_fig3.force2,
                             tol=1e-14)


def test_spline_matches_exact_eval(ic_fig3, modes_fig3):
    t = 8.1
    ps = particular_solution(modes_fig3, ic_fig3.force1, ic_fig3.force2, t)
    tau = np.linspace(0.0, t, 777)
    e1, e2 = ps.values(tau)
    s1, s2 = ps.interpolated(tau)
    scale = max(np.max(np.abs(e1)), np.max(np.abs(e2)))
    assert np.max(np.abs(e1 - s1)) < 1e-7 * scale
    assert np.max(np.abs(e2 - s2)) < 1e-7 * scale
