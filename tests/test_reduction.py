import math

import numpy as np
import pytest

from duosc.action import endpoint_action_arrays
from duosc.engine import simulate
from duosc.errors import NotNormalizable
from duosc.modes import solve_determinant
from duosc.observables import REPORT_FIELDS
from duosc.reduction import initial_state, states_from_moments

from crosscheck.action import classical_action_form
from crosscheck.influence import grid_quadratic, influence_form
from crosscheck.observables import report_table
from crosscheck.particular import particular_solution
from crosscheck.reduction import (NonHermitianLarge, propagator_exponent,
                                  reduce_to_state, reduce_to_states)
from test_action import x_value
from test_modes import make_ic


def build_state(ic, modes, t, with_force=True):
    if not with_force:
        from dataclasses import replace
        from duosc.config import InternalForce
        ic = replace(ic, force1=InternalForce(kind="zero"),
                     force2=InternalForce(kind="zero"))
    partic = None
    if not (ic.force1.is_zero and ic.force2.is_zero):
        partic = particular_solution(modes, ic.force1, ic.force2, t)
    action = classical_action_form(ic, modes, partic, t)
    infl = influence_form(ic, modes, t)
    return reduce_to_state(ic, action, infl)


def test_initial_state_parameters(ic_fig3):
    s = initial_state(ic_fig3)
    assert math.isclose(s.g1, 1.0 / (8.0 * ic_fig3.sigma01_sq), rel_tol=1e-14)
    assert math.isclose(s.g2, 1.0 / (8.0 * ic_fig3.sigma02_sq), rel_tol=1e-14)
    assert s.g12 == 0.0 and s.mx1 == 0.0 and s.mp2 == 0.0
    # pure product of ground-state-width packets: rho(0,0,0,0) is the peak
    peak = s.rho(0.0, 0.0, 0.0, 0.0)
    ref = 1.0 / (2.0 * math.pi
                 * math.sqrt(ic_fig3.sigma01_sq * ic_fig3.sigma02_sq))
    assert math.isclose(float(np.real(peak)), ref, rel_tol=1e-12)


def test_exponent_value_definition(ic_fig3, modes_fig3):
    t = 6.2
    partic = particular_solution(modes_fig3, ic_fig3.force1,
                                 ic_fig3.force2, t)
    action = classical_action_form(ic_fig3, modes_fig3, partic, t)
    infl = influence_form(ic_fig3, modes_fig3, t)
    exp8 = propagator_exponent(ic_fig3, action, infl)
    rng = np.random.default_rng(3)
    for _ in range(5):
        e = rng.normal(size=8)
        x = e[[0, 1, 4, 5]]
        xi = e[[2, 3, 6, 7]]
        expected = (1j * x_value(action, x, xi)
                    - xi @ infl.quadratic @ xi
                    - (e[4] ** 2 + e[6] ** 2) / (8.0 * ic_fig3.sigma01_sq)
                    - (e[5] ** 2 + e[7] ** 2) / (8.0 * ic_fig3.sigma02_sq))
        got = complex(-0.5 * e @ exp8.matrix @ e + exp8.linear @ e)
        assert abs(got - expected) < 1e-10 * max(1.0, abs(expected))


def test_scalar_gaussian_reduction_identity():
    """One decoupled, undamped, undriven oscillator starting in its ground
    state must stay exactly in its ground state."""
    ic = make_ic(lam_tilde=0.0, gamma=0.0)
    modes = solve_determinant(ic)
    for t in (0.9, 2.6):
        s = build_state(ic, modes, t)
        assert math.isclose(s.g1, 1.0 / (8.0 * ic.sigma01_sq), rel_tol=1e-9)
        assert math.isclose(s.gp1, 1.0 / (8.0 * ic.sigma01_sq), rel_tol=1e-9)
        assert abs(s.g12) < 1e-12
        assert abs(s.gpp11) < 1e-9
        assert math.isclose(s.g2, 1.0 / (8.0 * ic.sigma02_sq), rel_tol=1e-9)


def test_nonherm_residues_are_exactly_zero(ic_fig3, modes_fig3):
    # on the cross-check route the checkerboard reality pattern of the
    # 8-variable exponent survives the Schur complement, so the residues are
    # structural zeros; the production route builds a Hermitian state from
    # its moments (t = 0.5: direct-sum bath phase; t = 12.3: Filon)
    states = [build_state(ic_fig3, modes_fig3, 12.3),
              *simulate(ic_fig3, times=[0.5, 12.3]).states]
    for s in states:
        assert s.nonherm_quadratic == 0.0
        assert s.nonherm_linear_X == 0.0
        assert s.nonherm_linear_xi == 0.0


def test_decoupled_states_factorize():
    ic = make_ic(lam_tilde=0.0)
    modes = solve_determinant(ic)
    s = build_state(ic, modes, 5.1)
    assert abs(s.g12) < 1e-12 * max(s.g1, s.g2)
    assert abs(s.gp12) < 1e-12 * max(s.gp1, s.gp2)
    assert abs(s.gpp12) < 1e-10 * max(abs(s.gpp11), 1e-300)
    assert abs(s.gpp21) < 1e-10 * max(abs(s.gpp22), 1e-300)


def test_quadratic_params_are_drive_independent(ic_fig3, modes_fig3):
    t = 9.4
    s_on = build_state(ic_fig3, modes_fig3, t, with_force=True)
    s_off = build_state(ic_fig3, modes_fig3, t, with_force=False)
    scale = max(abs(s_off.g1), abs(s_off.g2), abs(s_off.gp1),
                abs(s_off.gp2))
    for name in ("g1", "g2", "g12", "gp1", "gp2", "gp12",
                 "gpp11", "gpp12", "gpp21", "gpp22"):
        a, b = getattr(s_on, name), getattr(s_off, name)
        # the driven run integrates on a breakpoint-split quadrature grid,
        # so tiny slots only agree to the quadrature level of the block
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-11 * scale)
    # and the undriven state has no linear part at all
    assert s_off.mx1 == 0.0 and s_off.mp1 == 0.0


def test_force_zero_limit_matches_undriven_params(ic_fig3, modes_fig3):
    """Zeroing the forces of a driven config reproduces the undriven state
    exactly, including a vanishing linear part."""
    from dataclasses import replace
    from duosc.config import InternalForce
    t = 9.4
    ic0 = replace(ic_fig3, force1=InternalForce(kind="zero"),
                  force2=InternalForce(kind="zero"))
    s0 = build_state(ic0, solve_determinant(ic0), t)
    s_ref = build_state(ic_fig3, modes_fig3, t, with_force=False)
    for name in ("g1", "g2", "g12", "gp1", "gp2", "gp12", "gpp11",
                 "gpp22", "mx1", "mx2", "mp1", "mp2", "log_norm"):
        assert getattr(s0, name) == getattr(s_ref, name)
    assert max(abs(s0.mx1), abs(s0.mx2), abs(s0.mp1), abs(s0.mp2)) <= 1e-12


def test_long_time_conditioning(ic_fig3, modes_fig3):
    # anti-damped entries reach ~exp(100); the equilibrated solve must
    # still produce a normalizable state
    t = 50.0 / ic_fig3.gamma1
    s = build_state(ic_fig3, modes_fig3, t, with_force=False)
    assert s.g1 > 0 and s.g2 > 0 and s.beta_det > 0
    assert np.isfinite(s.log_norm)


def test_state_at_t_zero_is_initial_state(ic_fig3):
    s = simulate(ic_fig3, times=[0.0]).states[0]
    assert s == initial_state(ic_fig3)


@pytest.mark.parametrize("order", ["norm-first", "herm-first"])
def test_batch_raises_at_its_first_bad_time(order, ic_fig3, modes_fig3):
    """A stacked reduction raises what a one-by-one loop would: the error
    of the earliest bad row, naming its time."""
    times = np.array([2.0, 5.0, 9.0])
    bilinear, linear_xi = endpoint_action_arrays(ic_fig3, modes_fig3, times)
    quadratic = grid_quadratic(ic_fig3, modes_fig3, times)
    norm_row, herm_row = (1, 2) if order == "norm-first" else (2, 1)
    # a strongly negative bath phase leaves no normalizable state
    quadratic[norm_row] *= -10.0
    # an imaginary drive term puts a real part on the xi-linear exponent
    linear_xi = linear_xi.astype(complex)
    linear_xi[herm_row, 2] += 1j * np.max(np.abs(linear_xi))
    err, message = ((NotNormalizable, "not positive definite at t=5.0:")
                    if order == "norm-first" else
                    (NonHermitianLarge, "linear residue .* at t=5.0$"))
    with pytest.raises(err, match=message):
        reduce_to_states(ic_fig3, times, bilinear, linear_xi, quadratic)


def _random_moments(rng, n):
    """n random means (n, 4) and positive definite covariances (n, 4, 4)."""
    A = rng.normal(size=(n, 4, 4))
    return rng.normal(size=(n, 4)), A @ np.swapaxes(A, 1, 2) + 0.5 * np.eye(4)


def test_states_from_moments_inverts_the_report():
    """The moments of the state built from (means, cov) are those moments."""
    rng = np.random.default_rng(11)
    means, cov = _random_moments(rng, 6)
    times = np.arange(1.0, 7.0)
    for hbar in (1.0, 0.3):
        rep = report_table(states_from_moments(times, means, cov, hbar), hbar)
        col = {name: rep[:, k] for k, name in enumerate(REPORT_FIELDS)}
        got_means = np.stack([col[n] for n in ("mean_x1", "mean_x2",
                                               "mean_p1", "mean_p2")], 1)
        np.testing.assert_allclose(got_means, means, rtol=1e-12, atol=1e-12)
        for (i, j), name in {(0, 0): "var_x1", (1, 1): "var_x2",
                             (2, 2): "var_p1", (3, 3): "var_p2",
                             (0, 1): "cov_x1x2", (2, 3): "cov_p1p2",
                             (0, 2): "cov_x1p1", (1, 3): "cov_x2p2",
                             (0, 3): "cov_x1p2", (1, 2): "cov_x2p1"}.items():
            np.testing.assert_allclose(col[name], cov[:, i, j], rtol=1e-12,
                                       atol=1e-12)
        assert np.array_equal(col["t"], times)


def test_states_from_moments_raises_at_its_first_bad_time():
    rng = np.random.default_rng(5)
    means, cov = _random_moments(rng, 3)
    cov[1, :2, :2] = [[1.0, 2.0], [2.0, 1.0]]      # indefinite Cxx
    cov[2, 0, 0] = -1.0
    with pytest.raises(NotNormalizable, match="at t=5.0:"):
        states_from_moments(np.array([2.0, 5.0, 9.0]), means, cov)
