import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from duosc.cli import preset_config
from duosc.config import InternalForce, to_internal, validate_config
from duosc.engine import simulate
from duosc.oracle import (fdt_stationary_variance, mean_ode,
                          phase_space_covariance, susceptibility)

from crosscheck.brute import brute_double_integral, brute_square_form
from test_modes import make_ic


def test_zero_force_stays_at_rest(ic_fig2):
    ic = replace(ic_fig2, force1=InternalForce(kind="zero"),
                 force2=InternalForce(kind="zero"))
    times = np.linspace(0.0, 20.0, 41)
    tr = mean_ode(ic, times)
    assert np.all(tr.x1 == 0.0) and np.all(tr.p2 == 0.0)


def test_decoupled_driven_damped_closed_form():
    """lam = 0: oscillator 1 has the elementary Duhamel response
    x(t) = (f0/m) Im[(e^{s1 t} - e^{(s1 + a) t0 - a t}) / a] / Omega
    with s1 = -gamma + i Omega and a = gamma - i Omega - decay."""
    f = InternalForce(kind="exponential_step", f0=0.35, t0=1.0, decay=0.1)
    ic = make_ic(lam_tilde=0.0, force1=f)
    g, w0, m = ic.gamma1, ic.w01, ic.m1
    Om = math.sqrt(w0 ** 2 - g ** 2)
    times = np.linspace(0.0, 25.0, 97)
    tr = mean_ode(ic, times)

    def exact(t):
        if t <= f.t0:
            return 0.0
        s1 = complex(-g, Om)
        a = complex(g - f.decay, -Om)
        val = (cmath.exp(s1 * t) * (cmath.exp(a * t) - cmath.exp(a * f.t0)))
        return (f.f0 / (m * Om)) * (val / a).imag

    ref = np.array([exact(t) for t in times])
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(tr.x1 - ref)) < 1e-8 * scale
    assert np.max(np.abs(tr.x2)) == 0.0


def test_momentum_is_mass_times_velocity():
    f = InternalForce(kind="exponential_step", f0=0.35, t0=1.0, decay=0.1)
    ic = make_ic(lam_tilde=0.3, force1=f)
    times = np.linspace(0.0, 12.0, 2401)
    tr = mean_ode(ic, times)
    h = times[1] - times[0]
    v1 = (tr.x1[2:] - tr.x1[:-2]) / (2 * h)
    keep = np.abs(times[1:-1] - f.t0) > 2 * h
    dev = np.abs(ic.m1 * v1 - tr.p1[1:-1])[keep]
    assert np.max(dev) < 1e-4 * max(np.max(np.abs(tr.p1)), 1e-300)


def test_susceptibility_structure(ic_fig3):
    chi = susceptibility(ic_fig3, 1.3)
    assert cmath.isclose(chi[0, 1], chi[1, 0], rel_tol=1e-12)  # reciprocity
    # static limit: chi(0) = inverse stiffness matrix
    chi0 = susceptibility(ic_fig3, 0.0)
    K = np.array([[ic_fig3.m1 * ic_fig3.w01 ** 2, -ic_fig3.lam],
                  [-ic_fig3.lam, ic_fig3.m2 * ic_fig3.w02 ** 2]])
    np.testing.assert_allclose(chi0.real, np.linalg.inv(K), rtol=1e-12)
    np.testing.assert_allclose(chi0.imag, 0.0, atol=1e-15)


def test_fdt_weak_damping_single_oscillator():
    # lam = 0, small gamma: var_x1 -> (sigma0^2) * coth(1 / 2T) for the
    # unit-frequency oscillator (internal units)
    ic = make_ic(lam_tilde=0.0, gamma=0.001, T1=2.5, T2=2.5)
    out = fdt_stationary_variance(ic)
    assert out["equal_temperatures"]
    ref = 0.5 * (1.0 / math.tanh(1.0 / (2.0 * 2.5)))
    assert math.isclose(out["var_x1"], ref, rel_tol=5e-3)
    # momentum spread of the same mode, m^2 w^2 heavier by w0^2 = 1
    assert math.isclose(out["var_p1"], ref, rel_tol=5e-3)


def test_fdt_unequal_temperatures_bracket(ic_fig4):
    out = fdt_stationary_variance(ic_fig4)
    assert not out["equal_temperatures"]
    lo, hi = out["var_x1"]
    assert lo < hi  # hotter bath, wider spread


def test_brute_integrals_on_trivial_kernel():
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    const = lambda s: np.ones_like(np.asarray(s, dtype=float))
    t = 2.0
    tri = brute_double_integral(one, one, const, t, n=256)
    sq = brute_square_form(one, one, const, t, n=256)
    assert math.isclose(tri, t * t / 2.0, rel_tol=1e-10)
    assert math.isclose(sq, t * t, rel_tol=1e-12)
    with pytest.raises(ValueError):
        brute_square_form(one, one, const, t, n=255)


def test_brute_integrals_polynomial_kernel():
    # a(t') = t', b(t'') = 1, K(s) = s^2:
    # triangle integral = int_0^t t' (t'^3 / 3) dt' = t^5 / 15
    a = lambda s: np.asarray(s, dtype=float)
    b = lambda s: np.ones_like(np.asarray(s, dtype=float))
    K = lambda s: np.asarray(s, dtype=float) ** 2
    t = 1.5
    tri = brute_double_integral(a, b, K, t, n=2048)
    assert math.isclose(tri, t ** 5 / 15.0, rel_tol=1e-5)
    # square rule with Simpson is exact for this cubic-in-each-variable case
    sq = brute_square_form(a, b, K, t, n=64)
    # int_0^t dt' t' int_0^t dt'' (t'-t'')^2 expanded term by term
    val = 0.0
    # t'^3 t'' term: int t'^3 dt' * t = t^4/4 * t
    val += (t ** 4 / 4.0) * t
    # -2 t'^2 t'' term: -2 * t^3/3 * t^2/2
    val += -2.0 * (t ** 3 / 3.0) * (t ** 2 / 2.0)
    # t' t''^2 term: t^2/2 * t^3/3
    val += (t ** 2 / 2.0) * (t ** 3 / 3.0)
    assert math.isclose(sq, val, rel_tol=1e-12)


def test_oracle_runs_fig_presets(ic_fig3):
    times = np.linspace(0.0, 30.0, 31)
    tr = mean_ode(ic_fig3, times)
    # force 1 turns on at t0 = 1; nothing moves before that
    assert np.all(np.abs(tr.x1[times < 1.0]) == 0.0)
    assert np.any(np.abs(tr.x1[times > 2.0]) > 0.0)
    # coupling drags oscillator 2 before its own force onset at t = 10
    assert np.any(np.abs(tr.x2[(times > 3.0) & (times < 10.0)]) > 0.0)


def _covariance_config(which, ic_fig3, ic_fig4, ic_fig3_heavy2):
    if which == "fig3":
        return ic_fig3
    if which == "m2=1e8m1":
        return ic_fig3_heavy2
    if which == "fig4-cutoff200":
        return replace(ic_fig4, numax1=200.0, numax2=200.0)
    if which == "0.3K":
        cfg = preset_config("fig3")
        return to_internal(validate_config(replace(
            cfg, bath1=replace(cfg.bath1, temperature=0.3),
            bath2=replace(cfg.bath2, temperature=0.3))))
    knots = np.linspace(0.0, ic_fig3.t_end, 65)
    values = 0.05 * np.sin(0.8 * knots) * np.exp(-0.05 * knots)
    return replace(ic_fig3, force1=InternalForce(kind="sampled", times=knots,
                                                 values=values))


_COVARIANCE_TIMES = {"fig3": (0.005, 0.5, 3.1, 29.0),
                     "fig4-cutoff200": (0.5, 3.1, 29.0),
                     "0.3K": (0.5, 12.3, 29.0),
                     "sampled": (3.1, 12.3, 30.0),
                     "m2=1e8m1": (0.005, 0.5, 29.0)}


@pytest.mark.parametrize("which", list(_COVARIANCE_TIMES))
def test_phase_space_covariance_matches_simulate(which, ic_fig3, ic_fig4,
                                                 ic_fig3_heavy2):
    """The engine's covariance B (A0 + R) B^T against the resolvent route,
    which shares no code with it, entry by entry over sqrt(C_ii C_jj).
    Measured on these configs up to t = 30: at most 1.3e-13.  fig3 at
    t = 0.005 lies in the short-time window where rs_min_eig < 0;
    m2 = 1e8 m1 is physical at every time, though its entries span many
    decades."""
    ic = _covariance_config(which, ic_fig3, ic_fig4, ic_fig3_heavy2)
    res = simulate(ic, times=_COVARIANCE_TIMES[which])
    for t, cov in zip(res.times, res.cov):
        want = phase_space_covariance(ic, t)
        scale = np.sqrt(np.diag(want))
        dev = np.abs(cov - want) / np.outer(scale, scale)
        assert np.max(dev) <= 1e-12, t


def test_phase_space_covariance_starts_at_the_packets(ic_fig3):
    want = np.diag([ic_fig3.sigma01_sq, ic_fig3.sigma02_sq,
                    0.25 / ic_fig3.sigma01_sq, 0.25 / ic_fig3.sigma02_sq])
    np.testing.assert_array_equal(phase_space_covariance(ic_fig3, 0.0), want)


def test_sampled_force_means_match_simulate_at_every_knot(ic_fig3):
    """A sampled force is linear between its knots and kinked at each one;
    integrated knot interval by knot interval, the oracle means agree with
    `simulate` to 1e-12 of each column's scale."""
    knots = np.linspace(0.0, ic_fig3.t_end, 257)
    values = (0.5 * np.sin(0.8 * knots)
              * np.sin(math.pi * knots / ic_fig3.t_end) ** 2)
    ic = replace(ic_fig3, force1=InternalForce(kind="sampled", times=knots,
                                               values=values),
                 force2=InternalForce(kind="zero"))
    times = np.linspace(0.0, ic.t_end, 512)
    res = simulate(ic, times=times)
    tr = mean_ode(ic, times)
    for name, want in (("mean_x1", tr.x1), ("mean_x2", tr.x2),
                       ("mean_p1", tr.p1), ("mean_p2", tr.p2)):
        dev = np.max(np.abs(res.column(name) - want))
        assert dev <= 1e-12 * np.max(np.abs(want)), name


def test_random_sampled_forces_means_match_simulate_at_the_defaults(ic_fig3):
    """A coarse random sampled force on each oscillator leaves the
    integrator long steps between kinks; at its default tolerances the
    oracle still agrees with `simulate` to 1e-11 of each column's scale."""
    rng = np.random.default_rng(7)
    knots = np.linspace(0.0, ic_fig3.t_end, 31)
    f1, f2 = (InternalForce(kind="sampled", times=knots,
                            values=0.05 * rng.standard_normal(knots.size))
              for _ in range(2))
    ic = replace(ic_fig3, force1=f1, force2=f2)
    times = np.linspace(0.0, ic.t_end, 300)
    res = simulate(ic, times=times)
    tr = mean_ode(ic, times)
    for name, want in (("mean_x1", tr.x1), ("mean_x2", tr.x2),
                       ("mean_p1", tr.p1), ("mean_p2", tr.p2)):
        dev = np.max(np.abs(res.column(name) - want))
        assert dev <= 1e-11 * np.max(np.abs(want)), name
