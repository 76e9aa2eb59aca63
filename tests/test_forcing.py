import math

import numpy as np
import pytest
from scipy.integrate import quad

from duosc.config import (ForceSpec, InternalForce, OscillatorParams,
                          default_amplitude)
from duosc.forcing import force_value, oscillatory_moments

from crosscheck.action import classical_action_form
from crosscheck.forcing import force_moments, oscillatory_moment
from crosscheck.particular import particular_solution

STEP = InternalForce(kind="exponential_step", f0=0.078, t0=1.0, decay=0.1)
ZERO = InternalForce(kind="zero")


def sampled_copy(f, t_max, n=4801):
    # n chosen so the onset kink falls exactly on a sample point
    times = np.linspace(0.0, t_max, n)
    return InternalForce(kind="sampled", times=times,
                         values=force_value(f, times))


def test_force_value_step_profile():
    assert force_value(STEP, 0.5) == 0.0
    assert math.isclose(force_value(STEP, 2.0),
                        0.078 * math.exp(-0.2), rel_tol=1e-14)
    arr = force_value(STEP, np.array([0.0, 1.0, 3.0]))
    assert arr[0] == 0.0
    assert arr[1] > 0.0  # onset is inclusive


def test_zero_force_moments_vanish():
    M, N = oscillatory_moment(ZERO, 1.3, 0.01, 10.0)
    assert M == 0.0 and N == 0.0
    M, N = oscillatory_moment(STEP, 1.3, 0.01, 0.5)  # before onset
    assert M == 0.0 and N == 0.0


@pytest.mark.parametrize("Omega,delta,t", [
    (0.9486305919587454, 0.01, 12.3),
    (3.0166040509155327, 0.01, 12.3),
    (1.0, 0.0, 30.0),
    (2.5, 0.05, 4.0),
])
def test_oscillatory_moment_against_adaptive_quad(Omega, delta, t):
    M, N = oscillatory_moment(STEP, Omega, delta, t)

    def integrand_sin(s):
        return force_value(STEP, s) * math.sin(Omega * s) * math.exp(delta * s)

    def integrand_cos(s):
        return force_value(STEP, s) * math.cos(Omega * s) * math.exp(delta * s)

    pts = [STEP.t0] if STEP.t0 < t else []
    Mq, _ = quad(integrand_sin, 0.0, t, points=pts, limit=200)
    Nq, _ = quad(integrand_cos, 0.0, t, points=pts, limit=200)
    assert math.isclose(M, Mq, rel_tol=1e-10, abs_tol=1e-12)
    assert math.isclose(N, Nq, rel_tol=1e-10, abs_tol=1e-12)


def test_sampled_moments_match_closed_form():
    """The sampled branch converges to the closed form as samples refine.

    The limiting error is the linear ramp interpolation draws across the
    onset jump, ~ h*f(t0)/2 per refinement level, so the check is first-
    order convergence plus an absolute cap, not a fixed tight tolerance.
    """
    t = 9.7
    for Omega, delta in ((0.95, 0.01), (3.02, 0.01)):
        Mc, Nc = oscillatory_moment(STEP, Omega, delta, t)
        errs = []
        for n in (4801, 9601):
            fs = sampled_copy(STEP, 12.0, n=n)
            Ms, Ns = oscillatory_moment(fs, Omega, delta, t)
            errs.append(max(abs(Mc - Ms), abs(Nc - Ns)))
        assert errs[0] < 2e-4
        assert errs[1] < 0.65 * errs[0]  # halving h ~ halves the error


def test_amplitude_heuristic_impulse():
    # the integrated impulse of the heuristic amplitude equals m*w0*sigma0
    osc = OscillatorParams(mass=2.0, eigenfrequency=1.5, damping_rate=0.0,
                           initial_variance=0.7 ** 2)
    f = ForceSpec(kind="exponential_step", onset=1.0, decay=0.1)
    f0 = default_amplitude(osc, f)
    impulse = quad(lambda s: f0 * math.exp(-0.1 * s), 1.0, np.inf)[0]
    assert math.isclose(impulse, 2.0 * 1.5 * 0.7, rel_tol=1e-10)


def test_endpoint_coefficients_match_action_extraction(ic_fig3, modes_fig3):
    """Closed-form drive coefficients vs the polarization-extracted linear
    part of the integrated action."""
    for t in (2.7, 8.1, 12.3):
        fm = force_moments(modes_fig3, ic_fig3.force1, ic_fig3.force2, t)
        ps = particular_solution(modes_fig3, ic_fig3.force1,
                                 ic_fig3.force2, t)
        af = classical_action_form(ic_fig3, modes_fig3, ps, t)
        scale = max(abs(fm.lambda1), abs(fm.lambda2),
                    abs(fm.phi_f1), abs(fm.phi_f2))
        assert abs(fm.lambda1 - af.lambda1) < 1e-8 * scale
        assert abs(fm.lambda2 - af.lambda2) < 1e-8 * scale
        assert abs(fm.phi_f1 - af.phi_f1) < 1e-8 * scale
        assert abs(fm.phi_f2 - af.phi_f2) < 1e-8 * scale


def test_moments_additive_in_force():
    # moments are linear functionals of the force profile
    t = 7.0
    f_half = InternalForce(kind="exponential_step", f0=0.039, t0=1.0,
                           decay=0.1)
    M, N = oscillatory_moment(STEP, 1.1, 0.02, t)
    Mh, Nh = oscillatory_moment(f_half, 1.1, 0.02, t)
    assert math.isclose(M, 2.0 * Mh, rel_tol=1e-13)
    assert math.isclose(N, 2.0 * Nh, rel_tol=1e-13)


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def looped_sampled_moment(f, Omega, delta, t):
    """Reference: Gauss-Legendre panels bounded by the samples and an eighth
    of a period, one sub-panel at a time."""
    h_max = 0.25 * math.pi / max(abs(Omega), abs(delta), 1.0)
    breaks = [x for x in f.times if 0.0 < x < t]
    edges = np.unique(np.concatenate(([0.0], breaks, [t])))
    val = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        sub = np.linspace(a, b, max(1, int(math.ceil((b - a) / h_max))) + 1)
        for sa, sb in zip(sub[:-1], sub[1:]):
            mid, half = 0.5 * (sa + sb), 0.5 * (sb - sa)
            nodes = mid + half * GL_NODES
            val += half * np.sum(GL_WEIGHTS * force_value(f, nodes)
                                 * np.exp(complex(delta, Omega) * nodes))
    return val.imag, val.real


@pytest.mark.parametrize("Omega,delta,t", [
    (0.9486305919587454, 0.01, 12.3),
    (3.0166040509155327, 0.01, 29.1),
    (40.0, 0.0, 7.7),          # sub-panels much shorter than the samples
])
def test_sampled_moment_matches_looped_reference(Omega, delta, t):
    times = np.linspace(0.0, 30.0, 257)
    f = InternalForce(kind="sampled", times=times,
                      values=np.sin(0.7 * times) * np.exp(-0.05 * times))
    M, N = oscillatory_moment(f, Omega, delta, t)
    Mr, Nr = looped_sampled_moment(f, Omega, delta, t)
    scale = max(abs(Mr), abs(Nr))
    assert abs(M - Mr) <= 1e-13 * scale and abs(N - Nr) <= 1e-13 * scale


@pytest.mark.parametrize("start, first, last", [
    (-2.3, 0.4, -0.7),         # knots begin below 0: the first one clipped
    (0.8, 0.4, -0.7),          # jumps at both ends of np.interp's support
    (0.0, 0.0, 0.0),
])
@pytest.mark.parametrize("Omega, delta", [
    (0.9486305919587454, 0.01),
    (3.0166040509155327, 0.01),
    (1e-3, 0.0),               # |alpha h| < 1e-3 on every interval
])
def test_sampled_moments_in_closed_form(start, first, last, Omega, delta):
    """The per-interval closed form against the panel rule: times before
    the first knot, on knots, between them and past the last one."""
    times = np.linspace(start, 21.7, 186)
    values = np.sin(0.7 * times) * np.exp(-0.05 * times) + 0.3
    values[0], values[-1] = first, last
    f = InternalForce(kind="sampled", times=times, values=values)
    grid = np.array([-1.0, 0.0, 0.5, times[1], times[2], times[90],
                     0.5 * (times[90] + times[91]), times[-2], times[-1],
                     23.0, 40.0])
    M, N = oscillatory_moments(f, Omega, delta, grid)
    for t, m, n in zip(grid, M, N):
        Mr, Nr = (looped_sampled_moment(f, Omega, delta, t) if t > 0.0
                  else (0.0, 0.0))
        scale = max(abs(Mr), abs(Nr))
        assert abs(m - Mr) <= 1e-13 * scale and abs(n - Nr) <= 1e-13 * scale
