import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

from duosc import influence
from duosc.cli import preset_config
from duosc.config import InternalForce, to_internal, validate_config
from duosc.errors import ConfigError
from duosc.influence import (BERNSTEIN_RHO, FILON_BASE_PANELS, FILON_MIN_T,
                             FILON_ORDER, _FILON_BLOCK, _bernstein_rho,
                             _graded_panels, _matsubara_pole, _mode_poles,
                             bath_spectra, grid_noise, spherical_jn_orders,
                             thermal_weight)
from duosc.modes import check_caustic, component_weights, solve_determinant

from crosscheck.brute import (brute_double_integral, brute_square_form,
                              clenshaw_curtis)
from crosscheck.influence import (grid_quadratic, influence_form,
                                  looped_transforms,
                                  pairwise_elementary_transforms,
                                  panel_width_index, row_product_transforms)
from crosscheck.modes import basis_paths, xi_coefficient_matrix
from test_modes import make_ic


def named_slots(q):
    """The slots A1 ... E4 of the conventional expansion of the bath phase
    in the xi endpoints (xi_f1, xi_f2, xi_i1, xi_i2)."""
    return {"A1": q[0, 0], "B1": 2.0 * q[0, 2], "C1": q[2, 2],
            "A2": q[1, 1], "B2": 2.0 * q[1, 3], "C2": q[3, 3],
            "E1": 2.0 * q[2, 3], "E2": 2.0 * q[1, 2], "E3": 2.0 * q[0, 3],
            "E4": 2.0 * q[0, 1]}


def grid_kernel_table(T, mass, gamma, numax, t, n, n_cc=2048):
    """Exact kernel values on the (n+1)^2 lattice of grid differences."""
    x, w = clenshaw_curtis(n_cc)
    om = 0.5 * numax * (x + 1.0)
    wt = 0.5 * numax * w * thermal_weight(om, T)
    pref = 2.0 * mass * gamma / math.pi
    line = pref * (np.cos(np.outer(np.arange(n + 1) * (t / n), om)) @ wt)

    def kernel(s):
        idx = np.rint(np.abs(np.asarray(s)) * (n / t)).astype(int)
        return line[idx]

    return kernel


def brute_quadratic(ic, modes, t, n=512):
    """All 16 endpoint-quadratic slots from the O(n^2) square-rule oracle."""
    tau = np.linspace(0.0, t, n + 1)
    P1, P2, _, _ = basis_paths(modes, t, tau, sign=+1.0)
    Q = np.zeros((4, 4))
    for T, m, g, nm, P in ((ic.T1, ic.m1, ic.gamma1, ic.numax1, P1),
                           (ic.T2, ic.m2, ic.gamma2, ic.numax2, P2)):
        kern = grid_kernel_table(T, m, g, nm, t, n)
        for i in range(4):
            for j in range(i, 4):
                val = 0.5 * brute_square_form(
                    lambda s, i=i, P=P: P[i], lambda s, j=j, P=P: P[j],
                    kern, t, n=n)
                Q[i, j] += val
                if i != j:
                    Q[j, i] += val
    return Q


def test_thermal_weight_limits():
    w = np.array([0.0, 1e-9, 1.0, 40.0])
    T = 3.9
    out = thermal_weight(w, T)
    assert np.all(np.isfinite(out))
    assert math.isclose(out[0], 2.0 * T, rel_tol=1e-12)
    assert math.isclose(out[2], 1.0 / math.tanh(1.0 / (2 * T)), rel_tol=1e-12)
    # zero temperature: weight reduces to |omega|
    np.testing.assert_allclose(thermal_weight(w, 0.0), np.abs(w))


def test_clenshaw_curtis_integrates_polynomials():
    x, w = clenshaw_curtis(64)
    for k in range(0, 12):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert math.isclose(float(np.sum(w * x ** k)), exact,
                            rel_tol=1e-12, abs_tol=1e-13)
    with pytest.raises(ConfigError):
        clenshaw_curtis(1)


def test_quadratic_form_positive_semidefinite(ic_fig3, modes_fig3):
    for t in (1.3, 6.2, 12.3):
        inf = influence_form(ic_fig3, modes_fig3, t)
        eig = np.linalg.eigvalsh(inf.quadratic)
        assert eig.min() > -1e-12 * max(eig.max(), 1.0)


def test_decoupled_cross_slots_vanish():
    ic = make_ic(lam_tilde=0.0)
    modes = solve_determinant(ic)
    inf = influence_form(ic, modes, 4.4)
    scale = np.max(np.abs(inf.quadratic))
    slots = named_slots(inf.quadratic)
    for e in (slots["E1"], slots["E2"], slots["E3"], slots["E4"]):
        assert abs(e) < 1e-12 * scale


def test_quadratic_block_is_drive_independent(ic_fig3, modes_fig3):
    # the drive never enters the bath phase, on either route
    t = 8.1
    zero = InternalForce(kind="zero")
    ic0 = replace(ic_fig3, force1=zero, force2=zero)
    a = influence_form(ic_fig3, modes_fig3, t)
    b = influence_form(ic0, modes_fig3, t)
    np.testing.assert_array_equal(a.quadratic, b.quadratic)
    times = np.array([0.5, t])
    np.testing.assert_array_equal(grid_quadratic(ic_fig3, modes_fig3, times),
                                  grid_quadratic(ic0, modes_fig3, times))


def test_named_slots_match_matrix(ic_fig3, modes_fig3):
    inf = influence_form(ic_fig3, modes_fig3, 3.3)
    q = inf.quadratic
    n = named_slots(q)
    assert n["A1"] == q[0, 0] and n["C1"] == q[2, 2]
    assert n["B1"] == 2 * q[0, 2] and n["E4"] == 2 * q[0, 1]
    e = np.array([0.3, -0.7, 1.1, 0.4])
    direct = float(e @ q @ e)
    expanded = (n["A1"] * e[0] ** 2 + n["A2"] * e[1] ** 2
                + n["C1"] * e[2] ** 2 + n["C2"] * e[3] ** 2
                + n["B1"] * e[0] * e[2] + n["B2"] * e[1] * e[3]
                + n["E1"] * e[2] * e[3] + n["E2"] * e[1] * e[2]
                + n["E3"] * e[0] * e[3] + n["E4"] * e[0] * e[1])
    assert math.isclose(direct, expanded, rel_tol=1e-13)


def test_fast_route_matches_square_rule_oracle(ic_fig3, modes_fig3):
    for t in (2.0, 5.0):
        inf = influence_form(ic_fig3, modes_fig3, t)
        Q = brute_quadratic(ic_fig3, modes_fig3, t, n=512)
        scale = np.max(np.abs(inf.quadratic))
        rel = np.abs(Q - inf.quadratic) / np.maximum(
            np.abs(inf.quadratic), 1e-9 * scale)
        assert np.max(rel) < 1e-5


def test_triangle_trapezoid_agrees_at_its_own_order(ic_fig3, modes_fig3):
    # the first-order triangle oracle converges to the same numbers, just
    # with O(h^2) error; check one diagonal slot at two resolutions
    t = 2.0
    inf = influence_form(ic_fig3, modes_fig3, t)
    errs = []
    for n in (512, 1024):
        tau = np.linspace(0.0, t, n + 1)
        P1, P2, _, _ = basis_paths(modes_fig3, t, tau, sign=+1.0)
        tot = 0.0
        for T, m, g, nm, P in (
                (ic_fig3.T1, ic_fig3.m1, ic_fig3.gamma1, ic_fig3.numax1, P1),
                (ic_fig3.T2, ic_fig3.m2, ic_fig3.gamma2, ic_fig3.numax2, P2)):
            kern = grid_kernel_table(T, m, g, nm, t, n)
            tot += brute_double_integral(lambda s, P=P: P[2],
                                         lambda s, P=P: P[2], kern, t, n=n)
        errs.append(abs(tot - inf.quadratic[2, 2]))
    assert errs[0] < 1e-3 * abs(inf.quadratic[2, 2])
    assert errs[1] < 0.35 * errs[0]  # second-order shrink


# ---------------------------------------------------------------------------
# whole-grid (Filon) route against the per-t route and dense references

_GL32 = np.polynomial.legendre.leggauss(32)


def physical_ic(name="fig3", cutoff=None, kelvin=None, kelvin1=None,
                cutoff1=None):
    """A preset with an optional cutoff (x omega01) and bath temperature;
    `kelvin1` and `cutoff1` set bath 1's alone."""
    cfg = preset_config(name)
    b1, b2 = cfg.bath1, cfg.bath2
    w = cfg.osc1.eigenfrequency
    if cutoff is not None:
        b1, b2 = replace(b1, cutoff=cutoff * w), replace(b2, cutoff=cutoff * w)
    if cutoff1 is not None:
        b1 = replace(b1, cutoff=cutoff1 * w)
    if kelvin is not None:
        b1 = replace(b1, temperature=kelvin)
        b2 = replace(b2, temperature=kelvin)
    if kelvin1 is not None:
        b1 = replace(b1, temperature=kelvin1)
    ic = to_internal(validate_config(replace(cfg, bath1=b1, bath2=b2)))
    return ic, solve_determinant(ic)


def _path_transforms(modes, t, omega):
    """int_0^t {sin, cos}(O s) exp(d s - i w s) ds, rows [s1, c1, s2, c2],
    with expm1 so that nothing cancels at small |(d + i(O - w)) t|."""
    rows = []
    for O, d in ((modes.Omega1, modes.delta1), (modes.Omega2, modes.delta2)):
        up, dn = d + 1j * (O - omega), d - 1j * (O + omega)
        e_up, e_dn = np.expm1(up * t) / up, np.expm1(dn * t) / dn
        rows += [(e_up - e_dn) / 2j, (e_up + e_dn) / 2.0]
    return np.array(rows)


def dense_quadratic(ic, modes, t, per_period=8, levels=60):
    """Reference bath-phase block: composite GL-32 with `per_period`
    panels per 2 pi / t (at least 256) and `levels` halvings of the first
    panel towards w = 0, below the thermal scale 2 pi T of any bath here."""
    V = xi_coefficient_matrix(modes, t)
    Q = np.zeros((4, 4))
    for m, g, T, numax, c in zip((ic.m1, ic.m2), (ic.gamma1, ic.gamma2),
                                 (ic.T1, ic.T2), (ic.numax1, ic.numax2),
                                 component_weights(modes)):
        n = max(256, per_period * math.ceil(numax * t / (2.0 * math.pi)))
        edges = np.linspace(0.0, numax, n + 1)
        graded = edges[1] * 0.5 ** np.arange(levels, 0, -1)
        edges = np.concatenate([[0.0], graded, edges[1:]])
        mids, halfs = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        om = (mids[:, None] + halfs[:, None] * _GL32[0]).ravel()
        wt = ((halfs[:, None] * _GL32[1]).ravel() * thermal_weight(om, T)
              * 2.0 * m * g / math.pi)
        for lo in range(0, om.size, 1 << 16):
            Fb = (V * c[:, None]).T @ _path_transforms(modes, t,
                                                       om[lo:lo + (1 << 16)])
            Q += 0.5 * np.real((Fb * wt[lo:lo + (1 << 16)]) @ Fb.conj().T)
    return 0.5 * (Q + Q.T)


def block_rel(Q, ref):
    """max |Q - ref|_ij / sqrt(ref_ii ref_jj): scale-free per entry, so a
    long-time block whose entries span e^(2 delta t) is judged fairly."""
    d = np.sqrt(np.abs(np.diagonal(ref, axis1=-2, axis2=-1)))
    return float(np.max(np.abs(Q - ref) / (d[..., :, None] * d[..., None, :])))


def off_caustic(modes, t):
    try:
        check_caustic(modes, t)
    except Exception:
        return t + 1e-6 * 2.0 * math.pi / max(modes.Omega1, modes.Omega2)
    return t


def test_spherical_jn_orders_against_scipy():
    z = np.concatenate([np.geomspace(1e-12, 1.0, 200),
                        np.linspace(1.0, 150.0, 20001),
                        np.pi * np.arange(1, 48),           # j_0 = 0 here
                        1.0 + np.array([-1e-9, 0.0, 1e-9]),  # branch switches
                        23.999999 + np.arange(3) * 1e-6])
    ref = np.array([spherical_jn(k, z) for k in range(24)])
    # scipy's own error reaches 1.4e-15 here (mpmath test below)
    assert np.max(np.abs(spherical_jn_orders(z) - ref)) < 3e-15


def test_spherical_jn_orders_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    z = np.concatenate([[1e-6, 0.3, 9.921500933856667, 23.9, 24.1],
                        1.0 + np.array([-1e-9, 0.0, 1e-9]),
                        np.linspace(0.05, 150.0, 61)])
    got = spherical_jn_orders(z)
    for i, zi in enumerate(z):
        x = mpmath.mpf(zi)
        for k in range(24):
            want = (mpmath.sqrt(mpmath.pi / (2 * x))
                    * mpmath.besselj(k + 0.5, x))
            assert abs(got[k, i] - float(want)) < 3e-16, (zi, k)


def test_spherical_jn_orders_down_to_the_smallest_admitted_z():
    """The power series runs down to z = 1e-30, where z^k underflows for
    the higher orders: the values must stay finite and match j_k(z) =
    z^k / (2k+1)!! (the next term is smaller by z^2 / (4k+6))."""
    z = np.array([1e-30, 1e-24, 1e-18, 1e-12])
    want = np.array([[zi ** k / math.prod(range(1, 2 * k + 2, 2)) for zi in z]
                     for k in range(24)])
    np.testing.assert_allclose(spherical_jn_orders(z), want, rtol=1e-14,
                               atol=1e-300)


def test_spherical_jn_orders_value_depends_on_its_own_z_only():
    """Each column is bit-identical whether z comes alone or with others,
    on all three branches (the Miller normalization sums in one order),
    and whether 20 000 series-range arguments come in one array or in
    64-wide slices (a broadcast power of z rounds with the array)."""
    z = np.outer(np.linspace(1.0, 30.0, 9),
                 [0.004, 0.03, 0.2, 0.9, 1.7, 3.3]).ravel()
    whole = spherical_jn_orders(z)
    for i, zi in enumerate(z):
        assert np.array_equal(spherical_jn_orders(np.array([zi]))[:, 0],
                              whole[:, i])
    z = np.random.default_rng(0).uniform(1e-3, 1.0, 20_000)
    whole = spherical_jn_orders(z)
    for lo in range(0, z.size, 64):
        assert np.array_equal(spherical_jn_orders(z[lo:lo + 64]),
                              whole[:, lo:lo + 64])


def test_per_t_route_resolves_thermal_scale():
    # at 0.3 K, w coth(w / 2T) bends on 2 pi T = 0.025 internal units; the
    # per-t panels used to start with one 0.78 wide (5.7e-8 off at t = 1)
    ic, modes = physical_ic(kelvin=0.3)
    for t in (1.0, 2.7):
        ref = dense_quadratic(ic, modes, t)
        Q = influence_form(ic, modes, t).quadratic
        assert np.max(np.abs(Q - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("name, cutoff", [
    ("fig2", None), ("fig3", None), ("fig4", None), ("fig4", 200.0),
    ("fig3", 123.4)])
def test_grid_route_matches_per_t_route_on_preset_grids(name, cutoff):
    """Every 25th point of the 2000-point grid, plus probes at small t,
    at caustics (stepped 1e-6 of a period past them: both endpoint forms
    are singular there) and at 50 / gamma."""
    ic, modes = physical_ic(name, cutoff)
    grid = np.linspace(0.0, ic.t_end, 2000)[1::25]
    probes = [1e-4, 0.005, 0.02, 0.999, FILON_MIN_T, math.pi / modes.Omega1,
              2.0 * math.pi / modes.Omega2]
    times = np.array([off_caustic(modes, t) for t in [*grid, *probes]])
    if cutoff is None:
        times = np.append(times, 50.0 / ic.gamma1)
    G = grid_quadratic(ic, modes, times)
    worst = max(block_rel(g, influence_form(ic, modes, t).quadratic)
                for t, g in zip(times, G))
    assert worst <= 1e-11


@pytest.mark.parametrize("kelvin", [0.0, 0.3])
def test_grid_route_matches_per_t_route_at_low_temperature(kelvin):
    ic, modes = physical_ic(kelvin=kelvin)
    times = np.array([1e-4, 0.005, 0.02, 0.999, 1.0, 1.3, 2.7, 7.7, 14.9,
                      29.9])
    G = grid_quadratic(ic, modes, times)
    for t, g in zip(times, G):
        assert block_rel(g, influence_form(ic, modes, t).quadratic) \
            <= 1e-11
        assert block_rel(g, dense_quadratic(ic, modes, t)) <= 1e-11


def test_small_t_routes_against_dense_reference():
    """Both routes used to differ by 3e-11 to 3e-9 at t <= 0.005.  The
    error sat in neither quadrature but in exp(a t) - 1 of the shared
    closed-form transforms (cancellation near w = Omega); with expm1 both
    match a 2x denser, deeper-graded reference."""
    for name, cutoff in (("fig3", None), ("fig4", 200.0)):
        ic, modes = physical_ic(name, cutoff)
        times = np.array([1e-5, 1e-4, 1e-3, 0.005])
        G = grid_quadratic(ic, modes, times)
        for t, g in zip(times, G):
            ref = dense_quadratic(ic, modes, t, per_period=16, levels=80)
            assert block_rel(g, ref) <= 1e-11
            assert block_rel(influence_form(ic, modes, t).quadratic,
                             ref) <= 1e-11


@pytest.mark.parametrize("name, cutoff, kelvin", [
    ("fig3", None, None), ("fig4", 200.0, None), ("fig2", None, 0.0),
    ("fig2", None, 0.3)])
def test_small_t_layout_against_dense_reference(name, cutoff, kelvin):
    """Below FILON_MIN_T the phase is summed on its own pole-free layout
    (64 to 256 nodes); it matches the 2x denser, deeper-graded reference to
    rounding, down to t = 1e-5 and up to the Filon branch."""
    ic, modes = physical_ic(name, cutoff, kelvin)
    times = np.array([1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.999])
    G = grid_quadratic(ic, modes, times)
    for t, g in zip(times, G):
        ref = dense_quadratic(ic, modes, t, per_period=16, levels=80)
        assert block_rel(g, ref) <= 1e-13


def test_panel_half_widths_come_from_bisection_depth():
    """Panels of one bisection depth share one half-width, so a cutoff that
    is not a binary fraction needs no more distinct widths (spherical
    Bessel evaluations in `transforms`) than cutoff 200."""
    def distinct_widths(cutoff):
        ic, modes = physical_ic("fig3", cutoff)
        return sum(sp.widths.size for sp in bath_spectra(ic, modes))

    assert distinct_widths(123.4) <= distinct_widths(200.0)
    assert distinct_widths(37.7) <= distinct_widths(200.0)


def small_t_panels(numax):
    """Base panels of the small-t layout: at most two periods of
    exp(-i w t) per GL-16 panel at t = FILON_MIN_T."""
    return max(4, math.ceil(numax * FILON_MIN_T / (4.0 * math.pi)))


def looped_graded_panels(numax, panels, singular):
    """Reference: the bisection loop that re-tests every panel each round."""
    edges = np.linspace(0.0, numax, panels + 1)
    for s in singular:
        while True:
            lo, hi = edges[:-1], edges[1:]
            bad = _bernstein_rho(lo, hi, s) < BERNSTEIN_RHO
            if not bad.any():
                break
            edges = np.sort(np.concatenate(
                [edges, 0.5 * (lo[bad] + hi[bad])]))
    h0 = 0.5 * numax / panels
    depth = np.rint(np.log2(h0 / (0.5 * np.diff(edges)))).astype(int)
    return 0.5 * (edges[:-1] + edges[1:]), np.ldexp(h0, -depth)


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
@pytest.mark.parametrize("kelvin", [None, 0.0, 0.3])
def test_graded_panels_match_the_looped_reference(name, kelvin):
    """Re-testing only the halves of bisected panels gives the layout of
    the loop that re-tests every panel, bit for bit."""
    for cutoff in (None, 123.4, 200.0):
        ic, modes = physical_ic(name, cutoff, kelvin)
        for numax, T in ((ic.numax1, ic.T1), (ic.numax2, ic.T2)):
            singular = tuple(_mode_poles(modes)) + _matsubara_pole(T)
            for panels in (FILON_BASE_PANELS, 256):
                got = _graded_panels(numax, panels, singular)
                want = looped_graded_panels(numax, panels, singular)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and np.array_equal(g, w)
            # the small-t layout: graded to the Matsubara pole alone
            small = small_t_panels(numax)
            got = _graded_panels(numax, small, _matsubara_pole(T))
            want = looped_graded_panels(numax, small, _matsubara_pole(T))
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)


@settings(max_examples=300, deadline=None)
@given(numax=st.floats(1e-2, 1e5), panels=st.integers(1, 64),
       modes=st.lists(st.tuples(st.floats(1e-3, 3.0), st.floats(1e-7, 0.5)),
                      min_size=1, max_size=2),
       temperatures=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                             max_size=2))
def test_mirror_mode_poles_never_change_the_layout(numax, panels, modes,
                                                   temperatures):
    """On [0, numax], -Omega - i delta is no nearer a panel's ends than
    Omega - i delta, so the layout graded to Omega_k - i delta_k alone is,
    bit for bit, the layout graded to all four mode poles: modes at
    Omega = a numax with damping delta = b Omega, and up to two Matsubara
    poles."""
    poles = [complex(a * numax, -b * a * numax) for a, b in modes]
    matsubara = tuple(s for T in temperatures for s in _matsubara_pole(T))
    mirrored = [s for p in poles for s in (p, complex(-p.real, p.imag))]
    got = _graded_panels(numax, panels, tuple(poles) + matsubara)
    want = _graded_panels(numax, panels, tuple(mirrored) + matsubara)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("name, kelvin", [
    ("fig3", None), ("fig2", 0.0), ("fig2", 0.3), ("fig4", None)])
def test_shared_spectrum_equals_the_bath_by_bath_sum(name, kelvin):
    """Baths of one cutoff share one spectrum, of one temperature (fig2,
    fig3) or two on one layout (fig4, 300 K and 900 K); the phase is linear
    in the spectral density, so it must equal the sum of the two one-bath
    phases (other bath's damping 0, so skipped), modes held fixed, on both
    the small-t and the Filon branch."""
    ic, modes = physical_ic(name, kelvin=kelvin)
    times = np.array([1e-4, 0.02, 0.5, 0.999, FILON_MIN_T, 2.7, 9.1, 29.9])
    assert len(bath_spectra(ic, modes)) == 1
    shared = grid_quadratic(ic, modes, times)
    apart = (grid_quadratic(replace(ic, gamma2=0.0), modes, times)
             + grid_quadratic(replace(ic, gamma1=0.0), modes, times))
    for g, ref in zip(shared, apart):
        assert block_rel(g, ref) <= 1e-13


def test_one_spectrum_per_cutoff_and_temperature():
    """One spectrum per distinct cutoff, carrying each distinct temperature
    on that cutoff once."""
    def temperatures(name, cutoff1=None):
        cfg = preset_config(name)
        if cutoff1 is not None:
            cfg = replace(cfg, bath1=replace(
                cfg.bath1, cutoff=cutoff1 * cfg.osc1.eigenfrequency))
        ic = to_internal(validate_config(cfg))
        return [sp.temperatures
                for sp in bath_spectra(ic, solve_determinant(ic))]

    assert [len(T) for T in temperatures("fig2")] == [1]
    assert [len(T) for T in temperatures("fig3")] == [1]
    # 300 K and 900 K on one layout
    ic = to_internal(validate_config(preset_config("fig4")))
    assert temperatures("fig4") == [(ic.T1, ic.T2)]
    assert [len(T) for T in temperatures("fig3", cutoff1=200.0)] == [1, 1]


def test_grid_route_matches_square_rule_oracle(ic_fig3, modes_fig3):
    times = np.array([0.7, 2.0, 5.0])
    for t, Q in zip(times, grid_quadratic(ic_fig3, modes_fig3, times)):
        ref = brute_quadratic(ic_fig3, modes_fig3, t, n=512)
        scale = np.max(np.abs(Q))
        rel = np.abs(ref - Q) / np.maximum(np.abs(Q), 1e-9 * scale)
        assert np.max(rel) < 1e-5


def test_grid_route_is_batch_independent(ic_fig3, modes_fig3):
    times = np.array([0.3, 1.0, 2.2, 17.5, 29.9])
    whole = grid_quadratic(ic_fig3, modes_fig3, times)
    spectra = bath_spectra(ic_fig3, modes_fig3)
    for i, t in enumerate(times):
        alone = grid_quadratic(ic_fig3, modes_fig3, [t], spectra)[0]
        assert np.array_equal(alone, whole[i])
    # two temperatures (300 K and 900 K) on one layout
    ic, modes = physical_ic("fig4", 200.0)
    whole = grid_quadratic(ic, modes, times)
    spectra = bath_spectra(ic, modes)
    assert len(spectra) == 1 and len(spectra[0].temperatures) == 2
    for i, t in enumerate(times):
        alone = grid_quadratic(ic, modes, [t], spectra)[0]
        assert np.array_equal(alone, whole[i])


def test_one_bessel_table_per_call(monkeypatch):
    """The spectra of one call share one width array, so `grid_quadratic`
    evaluates the spherical Bessel functions once, however many spectra
    and temperatures: two temperatures on one layout (fig4), and one on
    each of two layouts (fig3 with bath 1 at cutoff 200)."""
    fig4 = physical_ic("fig4", 200.0)
    spectra = bath_spectra(*fig4)
    assert len(spectra) == 1 and len(spectra[0].temperatures) == 2
    cfg = preset_config("fig3")
    cfg = replace(cfg, bath1=replace(
        cfg.bath1, cutoff=200.0 * cfg.osc1.eigenfrequency))
    ic = to_internal(validate_config(cfg))
    fig3 = ic, solve_determinant(ic)
    assert len(bath_spectra(*fig3)) == 2
    calls = []

    def counted(z, out=None):
        calls.append(z.size)
        return spherical_jn_orders(z, out)

    monkeypatch.setattr(influence, "spherical_jn_orders", counted)
    for ic, modes in (fig4, fig3):
        spectra = bath_spectra(ic, modes)
        assert all(sp.widths is spectra[0].widths for sp in spectra)
        for times in ([0.5, 1.0, 2.2, 29.9], [7.5],
                      np.linspace(1.0, 30.0, 64)):
            calls.clear()
            grid_quadratic(ic, modes, times, spectra)
            n_filon = np.count_nonzero(np.asarray(times) >= FILON_MIN_T)
            assert calls == [n_filon * spectra[0].widths.size]
        calls.clear()
        grid_quadratic(ic, modes, [1e-3, 0.5], spectra)   # small-t only
        assert calls == []


def test_temperatures_on_a_cutoff_share_its_layout(monkeypatch):
    """On fig4 (300 K and 900 K on one cutoff) a call grades one Filon and
    one small-t layout, the second on first read, and `grid_noise` forms
    the small-t transforms once per block of times for both temperatures."""
    ic, modes = physical_ic("fig4")
    calls = {"_graded_panels": 0, "_elementary_transforms": 0}

    def counting(name):
        real = getattr(influence, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(influence, name, counting(name))
    spectra = bath_spectra(ic, modes)
    assert calls["_graded_panels"] == 1
    times = np.concatenate([np.geomspace(1e-4, 0.9, 2 * _FILON_BLOCK + 3),
                            [1.0, 7.7]])
    grid_noise(modes, times, spectra)
    assert calls["_elementary_transforms"] == 3
    assert calls["_graded_panels"] == 2


SPECTRA_CASES = [("fig2", {}), ("fig3", {}), ("fig4", {}),
                 ("fig4", {"cutoff": 200.0}), ("fig3", {"cutoff1": 200.0})]


@pytest.mark.parametrize("name, kw", SPECTRA_CASES)
def test_small_t_layout_is_built_on_first_read(monkeypatch, name, kw):
    """A grid with every time at or above FILON_MIN_T grades one layout
    per cutoff, the Filon one; a grid with times below reads the small-t
    layout, and its blocks are the same, bit for bit, as on spectra whose
    small-t layout was built before the call."""
    ic, modes = physical_ic(name, **kw)
    calls = []

    def counted(*args):
        calls.append(args[0])
        return _graded_panels(*args)

    monkeypatch.setattr(influence, "_graded_panels", counted)
    spectra = bath_spectra(ic, modes)
    grid_noise(modes, np.array([FILON_MIN_T, 2.7, 29.9]), spectra)
    assert len(calls) == len(spectra)
    mixed = np.array([1e-4, 0.3, 0.999, FILON_MIN_T, 7.7])
    lazy = grid_noise(modes, mixed, spectra)
    assert len(calls) == 2 * len(spectra)
    eager = bath_spectra(ic, modes)
    for sp in eager:
        nodes, weights = sp.small_layout
        assert weights.shape == (len(sp.temperatures), nodes.size)
    assert np.array_equal(grid_noise(modes, mixed, eager), lazy)


def concatenated_coefficients(sp, modes):
    """Reference for `coef` and `C`: per temperature, one concatenated
    (8, J, K) block from the real node-to-Legendre matrix, cast by each
    product, scaled by out-of-place products, then all temperatures
    stacked and transposed into a contiguous (K, J, 8S) copy."""
    poles = _mode_poles(modes)
    halfs = sp.widths[panel_width_index(sp)]
    gl_x, gl_w, _, _ = influence._filon_rule()
    vander = np.polynomial.legendre.legvander(gl_x, FILON_ORDER - 1)
    to_legendre = (np.arange(FILON_ORDER) + 0.5)[:, None] * vander.T * gl_w
    nodes = (sp.mids[:, None] + halfs[:, None] * gl_x).ravel()
    wts = (halfs[:, None] * gl_w).ravel()
    i_k = np.array([1.0, -1j, -1.0, 1j])[np.arange(FILON_ORDER) % 4]
    blocks = []
    C = np.empty((len(sp.temperatures), 8), dtype=complex)
    for s, T in enumerate(sp.temperatures):
        f = thermal_weight(nodes, T) / (nodes - poles[:, None])
        c = f.reshape(4, halfs.size, FILON_ORDER) @ to_legendre.T
        blocks.append(np.concatenate([c, c.conj()])
                      * (2.0 * halfs)[:, None] * i_k)
        C[s, :4] = f @ wts
        C[s, 4:] = C[s, :4].conj()
    coef = np.ascontiguousarray(np.concatenate(blocks).transpose(2, 1, 0))
    return coef, C


def width_ordered_panels(sp, modes):
    """Reference for `mids` and `groups`: the layout of the spectrum's
    cutoff graded to all four mode poles and its Matsubara poles, stably
    sorted by width, and the runs of equal width in it."""
    poles = tuple(_mode_poles(modes)) + tuple(
        s for T in sp.temperatures for s in _matsubara_pole(T))
    mids, halfs = _graded_panels(sp.numax, FILON_BASE_PANELS, poles)
    order = sorted(range(mids.size), key=lambda j: halfs[j])
    groups = []
    for j, u in enumerate(np.searchsorted(sp.widths, halfs[order]).tolist()):
        if groups and groups[-1][0] == u:
            groups[-1][2] = j + 1
        else:
            groups.append([u, j, j + 1])
    return mids[order], tuple(map(tuple, groups))


@pytest.mark.parametrize("name, kw", SPECTRA_CASES)
def test_coefficients_match_the_concatenated_reference(name, kw):
    """`coef` and `C`, written in place per temperature, are bit for bit
    the concatenate-and-transpose construction on the graded layout with
    its panels stably sorted by width: one temperature (fig2, fig3), two
    on one layout (fig4), and two spectra (fig3 with bath 1 at cutoff
    200)."""
    ic, modes = physical_ic(name, **kw)
    for sp in bath_spectra(ic, modes):
        mids, groups = width_ordered_panels(sp, modes)
        assert np.array_equal(sp.mids, mids)
        assert sp.groups == groups
        coef, C = concatenated_coefficients(sp, modes)
        assert sp.coef.shape == coef.shape and sp.coef.flags.c_contiguous
        assert np.array_equal(sp.coef, coef) and np.array_equal(sp.C, C)


@pytest.mark.parametrize("name, kw", [("fig3", {}),
                                      ("fig4", {"cutoff": 200.0})])
def test_spectra_set_up_allocates_little_beyond_its_result(name, kw):
    """The traced peak of `bath_spectra` stays within 3 times the bytes of
    the Filon coefficients it returns (fig3; wideband: fig4 baths at
    cutoff 200), so a call's set-up makes no stacked or transposed copies
    of them."""
    ic, modes = physical_ic(name, **kw)
    spectra = bath_spectra(ic, modes)      # first-use tables built here
    tracemalloc.start()
    try:
        spectra = bath_spectra(ic, modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sum(sp.coef.nbytes for sp in spectra)


BIT_CASES = [("fig3", {}), ("fig4", {"cutoff": 200.0}),
             ("fig2", {"kelvin": 0.3})]
#: 9 times below FILON_MIN_T and 21 at or above
MIXED_TIMES = np.concatenate([np.geomspace(1e-5, 0.99, 9),
                              np.linspace(FILON_MIN_T, 29.9, 21)])


@pytest.mark.parametrize("name, kw", BIT_CASES)
def test_transforms_match_the_looped_references_bit_for_bit(name, kw):
    """The Filon transforms, built from the arguments-first Bessel table
    with one product per width group into one buffer and one phase
    product, and the small-t transforms, built with one expm1 over all four
    exponents, are the looped references byte for byte: fig3, fig4 at
    cutoff 200 (two temperatures on one layout) and fig2 at 0.3 K."""
    ic, modes = physical_ic(name, **kw)
    spectra = bath_spectra(ic, modes)
    z = np.outer(MIXED_TIMES, spectra[0].widths)
    table = spherical_jn_orders(z)
    by_order = np.ascontiguousarray(table)
    bessel = table.T.reshape(MIXED_TIMES.size, -1, FILON_ORDER)
    for sp in spectra:
        got = sp.transforms(MIXED_TIMES, bessel)
        want = looped_transforms(sp, MIXED_TIMES, by_order)
        assert got.tobytes() == want.tobytes()
        got = influence._elementary_transforms(modes, MIXED_TIMES,
                                               sp.small_nodes)
        want = pairwise_elementary_transforms(modes, MIXED_TIMES,
                                              sp.small_nodes)
        assert got.tobytes() == want.tobytes()


def _bessel_table(spectra, times):
    """The (n, U, K) Bessel table `grid_noise` hands to the Filon product."""
    return spherical_jn_orders(np.outer(times, spectra[0].widths)).T \
        .reshape(times.size, -1, FILON_ORDER)


@pytest.mark.parametrize("name, kw", BIT_CASES)
def test_transforms_match_the_row_product(name, kw):
    """Contracting the orders first moves each transform by at most 1e-14
    of its column's largest value from the retired product of the complex
    (panel, order) row with `coef`: fig3, fig4 at cutoff 200 and fig2 at
    0.3 K, over MIXED_TIMES."""
    ic, modes = physical_ic(name, **kw)
    spectra = bath_spectra(ic, modes)
    bessel = _bessel_table(spectra, MIXED_TIMES)
    for sp in spectra:
        got = sp.transforms(MIXED_TIMES, bessel)
        want = row_product_transforms(sp, MIXED_TIMES, bessel)
        scale = np.abs(want).max(axis=0)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("name, kw", BIT_CASES)
def test_transforms_rows_do_not_depend_on_the_batch(name, kw):
    """Each row of a batched Filon product is, byte for byte, the product
    for that time alone, where BLAS takes its one-row path."""
    ic, modes = physical_ic(name, **kw)
    spectra = bath_spectra(ic, modes)
    bessel = _bessel_table(spectra, MIXED_TIMES)
    for sp in spectra:
        batched = sp.transforms(MIXED_TIMES, bessel)
        for i in range(MIXED_TIMES.size):
            alone = sp.transforms(MIXED_TIMES[i:i + 1], bessel[i:i + 1])
            assert alone.tobytes() == batched[i:i + 1].tobytes()


def test_scratch_contents_never_reach_a_result():
    """Filling this thread's scratch with NaN (all bits set) between two
    calls leaves the second call byte for byte the first: each call writes
    every scratch element it reads.  fig3 and fig4 at cutoff 200, times on
    both branches and on all three Bessel branches."""
    def fill_with_nan():
        assert vars(influence._scratch)
        for buf in vars(influence._scratch).values():
            buf.fill(0xFF)

    for ic, modes in (physical_ic("fig3"), physical_ic("fig4", 200.0)):
        spectra = bath_spectra(ic, modes)
        first = grid_noise(modes, MIXED_TIMES, spectra)
        fill_with_nan()
        again = bath_spectra(ic, modes)
        for sp, ref in zip(again, spectra):
            assert sp.coef.tobytes() == ref.coef.tobytes()
            assert sp.C.tobytes() == ref.C.tobytes()
        fill_with_nan()
        assert grid_noise(modes, MIXED_TIMES, spectra).tobytes() \
            == first.tobytes()


def test_results_do_not_share_the_scratch():
    """A result of `spherical_jn_orders`, `BathSpectrum.transforms` or
    `grid_noise` is unchanged by a second call on other arguments, which
    rewrites this thread's scratch."""
    ic, modes = physical_ic("fig4", 200.0)
    spectra = bath_spectra(ic, modes)
    other = np.linspace(1.5, 28.0, 40)
    z = np.outer(MIXED_TIMES, spectra[0].widths)
    jn = spherical_jn_orders(z)
    kept = jn.copy()
    spherical_jn_orders(np.outer(other, spectra[0].widths))
    assert jn.tobytes() == kept.tobytes()
    bessel = _bessel_table(spectra, MIXED_TIMES)
    D = spectra[0].transforms(MIXED_TIMES, bessel)
    kept = D.copy()
    spectra[0].transforms(other, _bessel_table(spectra, other))
    assert D.tobytes() == kept.tobytes()
    R = grid_noise(modes, MIXED_TIMES, spectra)
    kept = R.copy()
    grid_noise(modes, other, spectra)
    assert R.tobytes() == kept.tobytes()


def test_filon_product_reads_a_contiguous_bessel_table(monkeypatch):
    """`grid_noise` hands `BathSpectrum.transforms` a C-contiguous (n, U, K)
    table, so each width group's row of orders is contiguous, as the
    per-time products read it."""
    ic, modes = physical_ic("fig4", 200.0, cutoff1=123.4)
    spectra = bath_spectra(ic, modes)
    assert len(spectra) == 2
    seen = []
    real = influence.BathSpectrum.transforms

    def recorded(self, times, bessel):
        seen.append((bessel.shape, bessel.flags.c_contiguous))
        return real(self, times, bessel)

    monkeypatch.setattr(influence.BathSpectrum, "transforms", recorded)
    grid_noise(modes, MIXED_TIMES, spectra)
    n_filon = np.count_nonzero(MIXED_TIMES >= FILON_MIN_T)
    shape = (n_filon, spectra[0].widths.size, FILON_ORDER)
    assert seen == [(shape, True)] * len(spectra)


def test_mixed_temperatures_on_one_layout_against_dense_reference():
    """Bath 1 at 0.3 K and bath 2 at 900 K on cutoff 200: the shared
    layouts are graded to both Matsubara poles.  Below t = 1 the block
    matches the 2x denser, deeper-graded reference to rounding, and from
    t = 1 on the per-t route."""
    ic, modes = physical_ic("fig4", 200.0, kelvin1=0.3)
    (sp,) = bath_spectra(ic, modes)
    assert sp.temperatures == (ic.T1, ic.T2) and ic.T1 != ic.T2
    small = np.array([1e-5, 1e-3, 0.1, 0.5, 0.999])
    for t, g in zip(small, grid_quadratic(ic, modes, small)):
        ref = dense_quadratic(ic, modes, t, per_period=16, levels=80)
        assert block_rel(g, ref) <= 1e-13
    times = np.array([off_caustic(modes, t)
                      for t in (1.0, 2.7, 7.7, 14.9, 29.9)])
    for t, g in zip(times, grid_quadratic(ic, modes, times)):
        assert block_rel(g, influence_form(ic, modes, t).quadratic) <= 1e-11


@pytest.mark.parametrize("name, cutoff, small_nodes", [
    ("fig2", None, 64), ("fig3", None, 64), ("fig4", None, 64),
    ("fig3", 123.4, 160), ("fig4", 200.0, 256)])
def test_layout_sizes_stay_small(name, cutoff, small_nodes):
    """Each layout is sized for its own integrand: the Filon panels are
    graded by the poles from a base of FILON_BASE_PANELS, and the small-t
    nodes follow the cutoff.  Re-inflating either layout fails here."""
    ic, modes = physical_ic(name, cutoff)
    for sp in bath_spectra(ic, modes):
        assert sp.mids.size <= 48
        assert sp.small_nodes.size == small_nodes


def test_spectra_log_their_layouts(caplog, capsys):
    """One DEBUG line per layout on the `duosc` logger, naming its cutoff
    and every temperature on it; nothing printed."""
    ic, modes = physical_ic("fig4")
    with caplog.at_level(logging.DEBUG, logger="duosc"):
        spectra = bath_spectra(ic, modes)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "duosc" and r.levelno == logging.DEBUG]
    assert len(lines) == len(spectra) == 1
    assert f"numax={ic.numax1:.6g} T={ic.T1:.6g}, {ic.T2:.6g}:" in lines[0]
    for line, sp in zip(lines, spectra):
        assert (f"{sp.mids.size} Filon panels, "
                f"{sp.mids.size * FILON_ORDER} nodes, "
                f"{len({u for u, _, _ in sp.groups})} distinct widths; "
                f"{sp.small_nodes.size} small-t nodes") in line
    assert "42 Filon panels, 1008 nodes" in lines[0]
    assert "64 small-t nodes" in lines[0]
    assert capsys.readouterr() == ("", "")


def test_grid_route_rejects_nonpositive_times(ic_fig3, modes_fig3):
    with pytest.raises(ConfigError):
        grid_quadratic(ic_fig3, modes_fig3, [1.0, 0.0])
    assert grid_quadratic(ic_fig3, modes_fig3, []).shape == (0, 4, 4)
