import math
from dataclasses import replace

import numpy as np
import pytest

from duosc.action import endpoint_action_form
from duosc.config import InternalForce
from duosc.errors import ConfigError
from duosc.forcing import force_value
from duosc.modes import solve_determinant

from crosscheck.action import (classical_action_form, force_breakpoints,
                               quadrature_nodes)
from crosscheck.forcing import force_moments
from crosscheck.modes import homogeneous_xi_paths
from crosscheck.particular import particular_solution
from test_modes import homogeneous_X_paths, make_ic

ZERO = InternalForce(kind="zero")


def lagrangian_value(cfg, X1, X2, dX1, dX2, xi1, xi2, dxi1, dxi2,
                     f1val=0.0, f2val=0.0):
    """Pointwise Lagrangian of the sum/difference variables."""
    return (cfg.m1 * dX1 * dxi1 / 2.0 - cfg.m1 * cfg.w01 ** 2 * X1 * xi1 / 2.0
            - cfg.m1 * cfg.gamma1 * dX1 * xi1
            + cfg.m2 * dX2 * dxi2 / 2.0 - cfg.m2 * cfg.w02 ** 2 * X2 * xi2 / 2.0
            - cfg.m2 * cfg.gamma2 * dX2 * xi2
            + (cfg.lam / 2.0) * (X1 * xi2 + X2 * xi1)
            + xi1 * f1val + xi2 * f2val)


def x_value(form, x, xi):
    """The endpoint form x^T B xi + linear_xi . xi of an ActionForm."""
    return x @ form.bilinear @ xi + form.linear_xi @ xi


def direct_action_integral(ic, modes, partic, x_ends, xi_ends, t):
    """Independent route: assemble the boundary paths and integrate the
    Lagrangian with composite quadrature split at the force onsets."""
    nodes, w = quadrature_nodes(
        t, n_min=16384, max_freq=modes.Omega1 + modes.Omega2,
        breakpoints=force_breakpoints(ic.force1, ic.force2))
    # x_ends/xi_ends in (f1, f2, i1, i2) order
    X1, X2 = homogeneous_X_paths(
        modes, (x_ends[2], x_ends[3], x_ends[0], x_ends[1]), t, nodes)
    partials = None
    if partic is not None:
        partials = (lambda s: partic.values(s)[0],
                    lambda s: partic.values(s)[1])
    xi1, xi2 = homogeneous_xi_paths(
        modes, (xi_ends[2], xi_ends[3], xi_ends[0], xi_ends[1]),
        partials, t, nodes)
    h = 1e-6
    Xp1, Xp2 = homogeneous_X_paths(
        modes, (x_ends[2], x_ends[3], x_ends[0], x_ends[1]), t, nodes + h)
    Xm1, Xm2 = homogeneous_X_paths(
        modes, (x_ends[2], x_ends[3], x_ends[0], x_ends[1]), t, nodes - h)
    xp1, xp2 = homogeneous_xi_paths(
        modes, (xi_ends[2], xi_ends[3], xi_ends[0], xi_ends[1]),
        partials, t, nodes + h)
    xm1, xm2 = homogeneous_xi_paths(
        modes, (xi_ends[2], xi_ends[3], xi_ends[0], xi_ends[1]),
        partials, t, nodes - h)
    dX1, dX2 = (Xp1 - Xm1) / (2 * h), (Xp2 - Xm2) / (2 * h)
    dxi1, dxi2 = (xp1 - xm1) / (2 * h), (xp2 - xm2) / (2 * h)
    L = lagrangian_value(ic, X1, X2, dX1, dX2, xi1, xi2, dxi1, dxi2,
                         force_value(ic.force1, nodes),
                         force_value(ic.force2, nodes))
    return float(np.sum(w * L))


def test_rejects_nonpositive_time(ic_fig3, modes_fig3):
    with pytest.raises(ConfigError):
        classical_action_form(ic_fig3, modes_fig3, None, 0.0)


def test_zero_force_has_no_linear_terms():
    ic = make_ic()  # coupled but undriven
    af = classical_action_form(ic, solve_determinant(ic), None, 6.0)
    assert np.all(af.linear_xi == 0.0)


def test_undamped_decoupled_matches_textbook_form():
    """gamma = lam = 0: oscillator-1 block must be the classic boundary
    coefficients m*Omega/2 * {cot(Omega t) diagonal, -1/sin(Omega t) cross}.
    """
    ic = make_ic(lam_tilde=0.0, gamma=0.0)
    modes = solve_determinant(ic)
    t = 2.6
    af = classical_action_form(ic, modes, None, t)
    O = ic.w01
    pref = ic.m1 * O / (2.0 * math.sin(O * t))
    # slots: rows (X_f1, X_f2, X_i1, X_i2), cols (xi_f1, xi_f2, xi_i1, xi_i2)
    assert math.isclose(af.bilinear[0, 0], pref * math.cos(O * t),
                        rel_tol=1e-9)
    assert math.isclose(af.bilinear[2, 2], pref * math.cos(O * t),
                        rel_tol=1e-9)
    assert math.isclose(af.bilinear[0, 2], -pref, rel_tol=1e-9)
    assert math.isclose(af.bilinear[2, 0], -pref, rel_tol=1e-9)
    O2 = ic.w02
    pref2 = ic.m2 * O2 / (2.0 * math.sin(O2 * t))
    assert math.isclose(af.bilinear[1, 1], pref2 * math.cos(O2 * t),
                        rel_tol=1e-9)
    assert math.isclose(af.bilinear[1, 3], -pref2, rel_tol=1e-9)


def test_decoupled_cross_blocks_vanish():
    ic = make_ic(lam_tilde=0.0)
    modes = solve_determinant(ic)
    af = classical_action_form(ic, modes, None, 5.1)
    scale = np.max(np.abs(af.bilinear))
    # oscillator-1 endpoints never couple to oscillator-2 endpoints
    for i in (0, 2):
        for j in (1, 3):
            assert abs(af.bilinear[i, j]) < 1e-12 * scale
            assert abs(af.bilinear[j, i]) < 1e-12 * scale


def test_form_matches_direct_path_integral(ic_fig3, modes_fig3):
    t = 12.3
    partic = particular_solution(modes_fig3, ic_fig3.force1,
                                 ic_fig3.force2, t)
    af = classical_action_form(ic_fig3, modes_fig3, partic, t)
    # the form leaves out the endpoint-independent drive work, which the
    # direct route gives at all-zero endpoints
    zeros = np.zeros(4)
    work = direct_action_integral(ic_fig3, modes_fig3, partic, zeros, zeros,
                                  t)
    rng = np.random.default_rng(7)
    for _ in range(4):
        x_ends = rng.normal(size=4)
        xi_ends = rng.normal(size=4)
        direct = direct_action_integral(ic_fig3, modes_fig3, partic,
                                        x_ends, xi_ends, t)
        form = x_value(af, x_ends, xi_ends) + work
        assert math.isclose(direct, form, rel_tol=2e-6, abs_tol=2e-6)


def test_drive_linear_block_is_structurally_zero(ic_fig3, modes_fig3):
    # an integration-by-parts identity kills the sum-variable drive terms;
    # the block is not stored and its measured residual is pure quadrature
    # noise
    t = 12.3
    partic = particular_solution(modes_fig3, ic_fig3.force1,
                                 ic_fig3.force2, t)
    af = classical_action_form(ic_fig3, modes_fig3, partic, t)
    scale = np.max(np.abs(af.bilinear))
    assert af.linear_X_residual < 1e-6 * scale


def test_quadrature_refinement_converged(ic_fig3, modes_fig3):
    t = 8.1
    partic = particular_solution(modes_fig3, ic_fig3.force1,
                                 ic_fig3.force2, t)
    a = classical_action_form(ic_fig3, modes_fig3, partic, t, n_min=2048)
    b = classical_action_form(ic_fig3, modes_fig3, partic, t, n_min=8192)
    scale = np.max(np.abs(b.bilinear))
    assert np.max(np.abs(a.bilinear - b.bilinear)) < 1e-10 * scale
    assert np.max(np.abs(a.linear_xi - b.linear_xi)) < 1e-10 * max(
        np.max(np.abs(b.linear_xi)), 1e-300)


def test_breakpoints_are_panel_edges():
    nodes, w = quadrature_nodes(10.0, breakpoints=(3.3,))
    assert not np.any(np.isclose(nodes, 3.3))     # open GL panels
    # weights integrate 1 exactly
    assert math.isclose(float(np.sum(w)), 10.0, rel_tol=1e-13)
    # a step integrand is integrated exactly when its jump is an edge
    f = np.where(nodes >= 3.3, 1.0, 0.0)
    assert math.isclose(float(np.sum(w * f)), 6.7, rel_tol=1e-12)


def test_labeled_entries_cover_all_slots(ic_fig2, modes_fig2):
    af = classical_action_form(ic_fig2, modes_fig2, None, 4.0)
    names = [n for n, _ in af.labeled_entries()]
    assert len(names) == 16 + 4
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "sampled"])
def test_endpoint_form_matches_quadrature(name, request):
    """The bilinear block and drive terms from the phase-space flow equal
    the polarization-quadrature ones, also 1e-3 off the first caustic of
    mode 2.  Near a caustic the quadrature cancels O(1/sin^2) integrands
    down to an O(1/sin) result: there it is the limit, measured at 6.2e-13
    of scale on fig3 and at up to 2.8e-12 off later caustics."""
    if name == "sampled":
        ic = request.getfixturevalue("ic_fig3")
        ic = replace(ic, force1=_sampled_drive(ic.t_end), force2=ZERO)
    else:
        ic = request.getfixturevalue(f"ic_{name}")
    modes = solve_determinant(ic)
    near = (math.pi + 1e-3) / modes.Omega2
    sines = np.sin(np.array([modes.Omega1, modes.Omega2]) * near)
    assert math.isclose(np.min(np.abs(sines)), 1e-3, rel_tol=1e-6)
    for t in (0.00111, 1.3, 7.7, 21.1, 29.5, near):
        ep = endpoint_action_form(ic, modes, t)
        quad = classical_action_form(ic, modes, None, t)
        for got, want in ((ep.bilinear, quad.bilinear),
                          (ep.linear_xi, quad.linear_xi)):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, t


def test_endpoint_form_undriven_has_no_linear_terms():
    ic = make_ic()
    ep = endpoint_action_form(ic, solve_determinant(ic), 6.0)
    assert np.all(ep.linear_xi == 0.0)


def test_endpoint_form_rejects_nonpositive_time(ic_fig3, modes_fig3):
    with pytest.raises(ConfigError):
        endpoint_action_form(ic_fig3, modes_fig3, 0.0)


def _sampled_drive(t_end, n=257):
    # piecewise-linear profile with a kink at every sample time
    times = np.linspace(0.0, t_end, n)
    values = 0.05 * np.sin(math.pi * times / t_end) ** 2 * (
        np.sin(0.8 * times) - 0.6 * np.cos(1.3 * times + 0.4))
    return InternalForce(kind="sampled", times=times, values=values)


def test_sampled_force_breakpoints_are_every_knot():
    f = _sampled_drive(10.0, n=11)
    assert force_breakpoints(f) == tuple(float(x) for x in f.times)


def test_sampled_drive_quadrature_matches_force_moments(ic_fig3, modes_fig3):
    """With every knot a panel edge, the quadrature cross-check integrates
    a sampled drive as exactly as the closed-form force moments."""
    ic = replace(ic_fig3, force1=_sampled_drive(ic_fig3.t_end), force2=ZERO)
    for t in (5.3, 14.9, 29.1):
        fm = force_moments(modes_fig3, ic.force1, ic.force2, t)
        want = np.array([fm.phi_f1, fm.phi_f2, fm.lambda1, fm.lambda2])
        got = classical_action_form(ic, modes_fig3, None, t).linear_xi
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
