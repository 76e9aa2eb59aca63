import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duosc.config import InternalConfig, InternalForce
from duosc.errors import CausticTime, ConfigError, DegenerateModes
from duosc.modes import (check_caustic, initial_amplitude_map,
                         response_matrices, solve_determinant)

from crosscheck.modes import (QuarticCoefficients, basis_paths,
                              decoupled_reference, homogeneous_xi_paths,
                              mode_functions, x_coefficient_matrix,
                              xi_coefficient_matrix)

ZERO = InternalForce(kind="zero")


def homogeneous_X_paths(modes, endpoints, t, tau):
    """Damped-sector boundary path through the given endpoints.

    endpoints = (X_i1, X_i2, X_f1, X_f2); returns (X1(tau), X2(tau)).
    """
    X_i1, X_i2, X_f1, X_f2 = endpoints
    e = np.array([X_f1, X_f2, X_i1, X_i2])
    P1, P2, _, _ = basis_paths(modes, t, np.asarray(tau, dtype=float),
                               sign=-1.0)
    return e @ P1, e @ P2


def make_ic(lam_tilde=0.3, gamma=0.01, m2=5.0, w02=3.0, **kw):
    lam = lam_tilde * math.sqrt(m2) * w02
    base = dict(
        m1=1.0, m2=m2, w01=1.0, w02=w02, gamma1=gamma, gamma2=gamma,
        lam=lam, T1=1.0, T2=1.0,
        numax1=50.0, numax2=50.0,
        sigma01_sq=0.5, sigma02_sq=0.5 / (m2 * w02),
        force1=ZERO, force2=ZERO, t_end=30.0, n_points=16, units=None,
    )
    base.update(kw)
    return InternalConfig(**base)


def test_quartic_roots_satisfy_polynomial(ic_fig3, modes_fig3):
    q = QuarticCoefficients.from_config(ic_fig3)
    for w in modes_fig3.roots:
        assert abs(q.value(w)) < 1e-10 * max(1.0, abs(q.d))


def test_frozen_mode_values(modes_fig3):
    # frozen from an independent evaluation of the companion-matrix roots
    assert math.isclose(modes_fig3.Omega1, 0.9486305919587454, rel_tol=1e-12)
    assert math.isclose(modes_fig3.Omega2, 3.0166040509155327, rel_tol=1e-12)
    assert math.isclose(modes_fig3.delta, 0.01, rel_tol=1e-9)
    assert math.isclose(modes_fig3.r1, 0.04969039949999543, rel_tol=1e-10)
    assert math.isclose(modes_fig3.r2, -0.24845199749998018, rel_tol=1e-10)


def test_root_pairing_structure(modes_fig3):
    # roots come in +-Omega - i*gamma pairs for equal dampings
    res = sorted(modes_fig3.roots, key=lambda w: w.real)
    assert math.isclose(res[0].real, -res[3].real, rel_tol=1e-10)
    assert math.isclose(res[1].real, -res[2].real, rel_tol=1e-10)
    for w in res:
        assert math.isclose(w.imag, -0.01, rel_tol=1e-8)


def test_decoupled_limit_matches_closed_form():
    ic = make_ic(lam_tilde=0.0)
    m = solve_determinant(ic)
    O1, O2, d1, d2 = decoupled_reference(ic)
    assert math.isclose(m.Omega1, O1, rel_tol=1e-12)
    assert math.isclose(m.Omega2, O2, rel_tol=1e-12)
    assert m.r1 == 0.0 and m.r2 == 0.0


def test_weak_coupling_continuity():
    """Mode data converge monotonically to the decoupled closed forms.

    Frequencies deviate ~ coupling^2 and ratios ~ coupling; extrapolating
    those leading powers to zero must land on the decoupled values.
    """
    O1, O2, d1, d2 = decoupled_reference(make_ic(lam_tilde=0.0))
    lts = (1e-2, 1e-3, 1e-4)
    ms = [solve_determinant(make_ic(lam_tilde=lt)) for lt in lts]
    gaps = [abs(m.Omega1 - O1) + abs(m.Omega2 - O2)
            + abs(m.delta - d1) + abs(m.delta - d2)
            + abs(m.r1) + abs(m.r2) for m in ms]
    assert gaps[0] > gaps[1] > gaps[2]
    # Richardson in lam_tilde (ratios) and lam_tilde^2 (frequencies)
    for attr, power, ref in (("r1", 1, 0.0), ("r2", 1, 0.0),
                             ("Omega1", 2, O1), ("Omega2", 2, O2),
                             ("delta", 2, d1), ("delta", 2, d2)):
        v_mid, v_small = getattr(ms[1], attr), getattr(ms[2], attr)
        k = (lts[1] / lts[2]) ** power
        extrap = (k * v_small - v_mid) / (k - 1.0)
        assert abs(extrap - ref) < 1e-8


def test_unequal_damping_rejected():
    with pytest.raises(ConfigError, match="damping"):
        make_ic(gamma2=0.02)


def test_undamped_mode_beside_a_damped_bath_rejected():
    """gamma1 = 0 beside gamma2 = 1e-16 would give bath 2 a spectrum with
    modes of delta = 0; equal damping is checked to rel_tol 1e-12."""
    with pytest.raises(ConfigError, match="damping"):
        make_ic(gamma=0.0, gamma2=1e-16)


@pytest.mark.parametrize("kw", [dict(gamma=1.5),
                                dict(lam_tilde=0.0, w02=1.0)])
def test_overdamped_or_coinciding_modes_rejected(kw):
    """A mode with w_k <= gamma has no Omega_k, and two equal Omega_k leave
    the modes undetermined: the config is refused when it is built."""
    with pytest.raises(DegenerateModes):
        make_ic(**kw)


def test_caustic_detection(modes_fig3):
    t_bad = math.pi / modes_fig3.Omega1
    with pytest.raises(CausticTime):
        check_caustic(modes_fig3, t_bad)
    check_caustic(modes_fig3, t_bad + 0.1)  # should not raise


def test_mode_functions_derivative_consistency(modes_fig3):
    tau = np.linspace(0.2, 9.0, 41)
    h = 1e-6
    for sign in (-1.0, +1.0):
        phi, dphi = mode_functions(modes_fig3, tau, sign)
        pp, _ = mode_functions(modes_fig3, tau + h, sign)
        pm, _ = mode_functions(modes_fig3, tau - h, sign)
        fd = (pp - pm) / (2 * h)
        assert np.max(np.abs(fd - dphi)) < 1e-6 * np.max(np.abs(dphi))


@settings(max_examples=30, deadline=None)
@given(
    e=st.tuples(*[st.floats(-2.0, 2.0) for _ in range(4)]),
    t=st.floats(0.5, 25.0),
)
def test_boundary_paths_hit_endpoints(modes_fig3, e, t):
    try:
        check_caustic(modes_fig3, t)
    except CausticTime:
        return
    xi, xf = (e[0], e[1]), (e[2], e[3])
    X1, X2 = homogeneous_X_paths(modes_fig3, (*xi, *xf), t, np.array([0.0, t]))
    assert math.isclose(X1[0], e[0], rel_tol=1e-8, abs_tol=1e-8)
    assert math.isclose(X2[0], e[1], rel_tol=1e-8, abs_tol=1e-8)
    assert math.isclose(X1[1], e[2], rel_tol=1e-8, abs_tol=1e-8)
    assert math.isclose(X2[1], e[3], rel_tol=1e-8, abs_tol=1e-8)
    Y1, Y2 = homogeneous_xi_paths(modes_fig3, (*xi, *xf), None, t,
                                  np.array([0.0, t]))
    assert math.isclose(Y1[0], e[0], rel_tol=1e-8, abs_tol=1e-8)
    assert math.isclose(Y2[1], e[3], rel_tol=1e-8, abs_tol=1e-8)


def test_basis_paths_satisfy_homogeneous_eom(ic_fig3, modes_fig3):
    """Each basis path solves the coupled homogeneous equations of motion."""
    t = 7.3
    tau = np.linspace(0.5, t - 0.5, 3001)
    h = tau[1] - tau[0]
    for sign in (-1.0, +1.0):
        P1, P2, dP1, dP2 = basis_paths(modes_fig3, t, tau, sign)
        # second derivative as a central difference of the exact first one
        dd1 = (dP1[:, 2:] - dP1[:, :-2]) / (2 * h)
        dd2 = (dP2[:, 2:] - dP2[:, :-2]) / (2 * h)
        d1, d2 = dP1[:, 1:-1], dP2[:, 1:-1]
        mid1, mid2 = P1[:, 1:-1], P2[:, 1:-1]
        # damped sector has +2 gamma xdot, anti-damped -2 gamma xdot
        sgn = 1.0 if sign < 0 else -1.0
        r1 = (ic_fig3.m1 * (dd1 + sgn * 2 * ic_fig3.gamma1 * d1
                            + ic_fig3.w01 ** 2 * mid1) - ic_fig3.lam * mid2)
        r2 = (ic_fig3.m2 * (dd2 + sgn * 2 * ic_fig3.gamma2 * d2
                            + ic_fig3.w02 ** 2 * mid2) - ic_fig3.lam * mid1)
        scale = max(np.max(np.abs(mid1)), np.max(np.abs(mid2)), 1.0)
        assert np.max(np.abs(r1)) < 5e-4 * scale
        assert np.max(np.abs(r2)) < 5e-4 * scale


def test_coefficient_matrices_are_inverse_maps(modes_fig3):
    # mapping endpoints -> coefficients -> endpoint values is the identity
    t = 4.2
    for W, sign in ((x_coefficient_matrix(modes_fig3, t), -1.0),
                    (xi_coefficient_matrix(modes_fig3, t), +1.0)):
        P1, P2, _, _ = basis_paths(modes_fig3, t, np.array([0.0, t]), sign)
        # endpoint order (f1, f2, i1, i2): path j must equal delta_j there
        vals = np.stack([P1[:, 1], P2[:, 1], P1[:, 0], P2[:, 0]], axis=1)
        assert np.max(np.abs(vals - np.eye(4))) < 1e-9


def _mpmath_ratios(ic):
    """r1, r2 from the mass-weighted stiffness eigenproblem at 40 digits."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    m1, m2, lam = mp.mpf(ic.m1), mp.mpf(ic.m2), mp.mpf(ic.lam)
    w1sq, w2sq = mp.mpf(ic.w01) ** 2, mp.mpf(ic.w02) ** 2
    a, b = (w1sq + w2sq) / 2, (w1sq - w2sq) / 2
    h = mp.sqrt(b * b + lam * lam / (m1 * m2))
    # mode 1 is the eigenvalue nearer w01^2, mode 2 the other one
    near, far = (a + h, a - h) if b >= 0 else (a - h, a + h)
    return (m1 / lam) * (w1sq - near), (m2 / lam) * (w2sq - far)


@pytest.mark.parametrize("lam_tilde", [1e-8, 1e-6, 1e-4])
def test_weak_coupling_ratios_against_mpmath(lam_tilde):
    """The closed-form amplitude ratios do not cancel at weak coupling, and
    the modes stay orthogonal under the mass matrix."""
    ic = make_ic(lam_tilde=lam_tilde)
    modes = solve_determinant(ic)
    r1, r2 = _mpmath_ratios(ic)
    assert abs(modes.r1 - float(r1)) <= 1e-14 * abs(float(r1))
    assert abs(modes.r2 - float(r2)) <= 1e-14 * abs(float(r2))
    assert abs(ic.m1 * modes.r2 + ic.m2 * modes.r1) \
        <= 1e-15 * ic.m2 * abs(modes.r1)


def test_flow_maps_start_at_the_identity(ic_fig3, modes_fig3):
    """B(0) K0 = 1, and B(t) K0 solves the homogeneous damped equations."""
    K0 = initial_amplitude_map(modes_fig3)
    np.testing.assert_allclose(response_matrices(modes_fig3, [0.0])[0] @ K0,
                               np.eye(4), atol=1e-15)
    h = 1e-4
    tau = np.linspace(0.5, 9.0, 35)
    flow = response_matrices(modes_fig3, np.concatenate(
        [tau - h, tau, tau + h])).reshape(3, tau.size, 4, 4) @ K0
    x, p = flow[1, :, :2], flow[1, :, 2:]
    m = np.array([ic_fig3.m1, ic_fig3.m2])[:, None]
    # p = m dx/dt, and m x'' = -m (w0^2 x + 2 gamma x') + lam x_other
    dx = (flow[2, :, :2] - flow[0, :, :2]) / (2 * h)
    dp = (flow[2, :, 2:] - flow[0, :, 2:]) / (2 * h)
    w0sq = np.array([ic_fig3.w01, ic_fig3.w02])[:, None] ** 2
    force = (-m * w0sq * x - 2.0 * ic_fig3.gamma1 * p
             + ic_fig3.lam * x[:, ::-1])
    assert np.max(np.abs(m * dx - p)) < 1e-7 * np.max(np.abs(p))
    assert np.max(np.abs(dp - force)) < 1e-7 * np.max(np.abs(dp))
