import logging
import math
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from duosc import engine, influence
from duosc.action import endpoint_action_arrays, endpoint_action_form
from duosc.config import MAX_GAMMA_T, InternalForce
from duosc.engine import simulate
from duosc.errors import CausticTime, ConfigError, NotNormalizable
from duosc.influence import bath_spectra, grid_noise
from duosc.modes import CAUSTIC_TOL, check_caustic, solve_determinant
from duosc.observables import (REPORT_FIELDS, CovarianceReport,
                               reports_from_moments)
from duosc.oracle import fdt_stationary_variance
from duosc.reduction import GaussianStateParams, initial_state

from crosscheck.influence import grid_quadratic
from crosscheck.modes import coefficient_matrices
from crosscheck.observables import report_table
from crosscheck.reduction import reduce_to_states
from test_modes import make_ic


def test_simulation_grid_and_columns(ic_fig3):
    times = np.linspace(0.0, 6.0, 7)
    res = simulate(ic_fig3, times=times)
    assert res.times.shape == (7,)
    assert len(res.states) == 7 and len(res.reports) == 7
    col = res.column("var_x1")
    assert col.shape == (7,)
    assert math.isclose(col[0], ic_fig3.sigma01_sq, rel_tol=1e-12)
    with pytest.raises(KeyError, match="'var_x3'.*mean_x1, mean_x2"):
        res.column("var_x3")


def stratum_midpoints(ic, n):
    """n times, the midpoints of n equal strata of [0, t_end]: one chunk
    over both branches of the bath noise, as a benchmark call has."""
    return (np.arange(n) + 0.5) * (ic.t_end / n)


def test_concurrent_calls_match_their_serial_results(ic_fig3, ic_wideband):
    """Two threads running different configs at once, fig3 and wideband
    (two temperatures on one cutoff), give their serial results byte for
    byte: each thread's chunks work on that thread's scratch."""
    cases = [(ic_fig3, stratum_midpoints(ic_fig3, 64)),
             (ic_wideband, stratum_midpoints(ic_wideband, 48))]
    want = [simulate(ic, t) for ic, t in cases]
    got = [[], []]
    start = threading.Barrier(len(cases))

    def work(i):
        start.wait()
        got[i] = [simulate(*cases[i]) for _ in range(15)]

    workers = [threading.Thread(target=work, args=(i,))
               for i in range(len(cases))]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    for results, ref in zip(got, want):
        assert len(results) == 15
        for res in results:
            assert res.means.tobytes() == ref.means.tobytes()
            assert res.cov.tobytes() == ref.cov.tobytes()


@pytest.mark.parametrize("which, n, limit_kib", [
    ("ic_fig3", 64, 383), ("ic_wideband", 48, 538)])
def test_a_warm_chunk_keeps_its_heap_peak_low(request, which, n, limit_kib):
    """A warm call on one chunk allocates at most half the heap that it
    did when each chunk allocated its own Bessel table, recurrences and
    Filon buffers (tracemalloc peaks then: 767.5 KiB on fig3 at 64 times,
    1077.1 KiB on wideband at 48): the thread's scratch keeps them."""
    ic = request.getfixturevalue(which)
    times = stratum_midpoints(ic, n)
    simulate(ic, times)
    tracemalloc.start()
    try:
        simulate(ic, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_kib * 1024


@pytest.mark.parametrize("which", ["ic_fig3", "ic_fig4"])
def test_small_t_sum_stays_small_at_the_largest_cutoff(request, monkeypatch,
                                                        which):
    """At a cutoff of 1e5 omega01 (127 328 small-t nodes) a warm 64-time
    call with 2 times below 1 peaks at most 8 MiB traced; when the small-t
    sum took every node at once it peaked at about 50 MiB.  Its node slices
    agree with the sum over all nodes at once to 1e-14 of max |R|."""
    ic = replace(request.getfixturevalue(which), numax1=1e5, numax2=1e5)
    times = stratum_midpoints(ic, 64)
    assert np.count_nonzero(times < 1.0) == 2
    simulate(ic, times)
    tracemalloc.start()
    try:
        simulate(ic, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20
    modes = solve_determinant(ic)
    small = times[times < 1.0]
    sliced = grid_noise(modes, small, bath_spectra(ic, modes))
    nodes = bath_spectra(ic, modes)[0].small_nodes.size
    assert nodes > 50 * influence._SMALL_T_NODES
    monkeypatch.setattr(influence, "_SMALL_T_NODES", nodes)
    whole = grid_noise(modes, small, bath_spectra(ic, modes))
    assert np.max(np.abs(sliced - whole)) <= 1e-14 * np.max(np.abs(whole))


def test_caustic_grid_point_is_nudged_not_dropped(ic_fig3, modes_fig3,
                                                  caplog):
    """Grid times exactly on a caustic of either mode, sin(Omega_k t) = 0,
    stay in the result. They are no longer nudged: each is evaluated at its
    own t, and nothing is logged about it."""
    times = np.array([1.0, math.pi / modes_fig3.Omega1,
                      2.0 * math.pi / modes_fig3.Omega2])
    with caplog.at_level(logging.INFO, logger="duosc"):
        res = simulate(ic_fig3, times=times)
    assert caplog.records == []
    assert [s.t for s in res.states] == times.tolist()
    assert np.all(np.isfinite(res.state_array))
    assert all(s.g1 > 0 and s.beta_det > 0 for s in res.states)
    assert np.min(res.column("rs_min_eig")) >= -1e-10


def test_heavy_second_oscillator_is_physical_at_every_time(ic_fig3_heavy2):
    """fig3 with m2 = 1e8 m1 is physical on its 2000-point grid (its
    covariance matches the resolvent oracle in test_oracle).  Unbalanced,
    rounding put the uncertainty eigenvalue below -1e-10 at 4 times, down
    to -3.0e-9."""
    res = simulate(ic_fig3_heavy2)
    assert res.times.size == 2000
    assert np.min(res.column("rs_min_eig")) >= -1e-10


def test_regular_grid_has_no_nudges(ic_fig3, caplog):
    """Every time of a regular grid is evaluated as requested, unlogged."""
    times = np.linspace(0.0, 6.0, 4)
    with caplog.at_level(logging.INFO, logger="duosc"):
        res = simulate(ic_fig3, times=times)
    assert caplog.records == []
    assert np.array_equal(res.times, times)
    assert [s.t for s in res.states] == times.tolist()


def test_time_on_caustics_of_both_modes_gives_a_physical_state():
    """Decoupled modes with Omega2 = 3 Omega1 share the caustic t = pi /
    Omega1, where the endpoint route cannot even start."""
    gamma = 0.01
    ic = make_ic(lam_tilde=0.0, gamma=gamma,
                 w02=math.sqrt(9.0 - 8.0 * gamma ** 2))
    modes = solve_determinant(ic)
    t = math.pi / modes.Omega1
    sines = np.sin(np.array([modes.Omega1, modes.Omega2]) * t)
    assert np.all(np.abs(sines) < CAUSTIC_TOL)
    with pytest.raises(CausticTime):
        coefficient_matrices(modes, np.array([t]), -1.0)
    res = simulate(ic, times=[t * (1.0 - 1e-9), t])
    s = res.states[1]
    assert s.t == t and s.g1 > 0 and s.g2 > 0 and s.beta_det > 0
    assert np.all(np.isfinite(res.report_array))
    assert np.min(res.column("rs_min_eig")) >= -1e-10
    # the undriven means are 0 throughout; the other columns move O(1e-9)
    scale = np.max(np.abs(simulate(ic, times=np.linspace(
        0.0, 4.0 * t, 200)).report_array), axis=0)
    jump = np.abs(res.report_array[1] - res.report_array[0])
    assert np.all(jump[scale == 0.0] == 0.0)
    assert np.max(jump[scale > 0.0] / scale[scale > 0.0]) <= 1e-7


def test_simulate_validated_roundtrip():
    from duosc.cli import preset_config
    from duosc.config import TimeGrid, to_internal, validate_config
    from dataclasses import replace
    cfg = preset_config("fig2")
    cfg = replace(cfg, time_grid=TimeGrid(t_end=3e-13, n_points=5))
    res = simulate(to_internal(validate_config(cfg)))
    assert len(res.states) == 5
    assert res.times[0] == 0.0


def test_state_at_negative_time_returns_initial(ic_fig3):
    s = simulate(ic_fig3, times=[-1.0]).states[0]
    assert s.t == 0.0 and s.mx1 == 0.0
    assert s == initial_state(ic_fig3)


def _wideband(ic_fig4):
    """fig4 baths, no forces, cutoff 200 omega01 (internal numax 200)."""
    zero = InternalForce(kind="zero")
    return replace(ic_fig4, numax1=200.0, numax2=200.0, force1=zero,
                   force2=zero)


def _sampled(ic_fig3):
    """fig3 physics with a sampled force on oscillator 1 only."""
    knots = np.linspace(0.0, ic_fig3.t_end, 65)
    values = 0.05 * np.sin(0.8 * knots) * np.exp(-0.05 * knots)
    return replace(ic_fig3, force1=InternalForce(kind="sampled", times=knots,
                                                 values=values),
                   force2=InternalForce(kind="zero"))


@pytest.mark.parametrize("which", ["fig3", "wideband", "sampled"])
def test_state_is_a_function_of_time_alone(which, ic_fig3, ic_fig4):
    """All 19 state fields and all 16 report fields are bit-identical
    however a time is batched: alone, in a 3-point grid, in the full grid,
    and in a grid longer than one chunk."""
    ic = {"fig3": ic_fig3, "wideband": _wideband(ic_fig4),
          "sampled": _sampled(ic_fig3)}[which]
    full = np.linspace(0.0, ic.t_end, 2000)
    probe = [1, 40, 77, 1300, 1999]     # t < 1 (direct branch) and Filon
    assert len(fields(GaussianStateParams)) == 19
    assert len(REPORT_FIELDS) == 16

    def values(res, k):
        return (res.state_array[k].tolist(), res.report_array[k].tolist())

    want = [values(simulate(ic, times=[full[i]]), 0) for i in probe]
    runs = [simulate(ic, times=full[[i, 5, 1000]]) for i in probe]
    serial = simulate(ic, times=full)
    # a grid longer than one chunk
    longer = simulate(ic, times=full[np.r_[probe, 2:2 + engine.CHUNK]])
    for k, i in enumerate(probe):
        assert values(runs[k], 0) == want[k]
        assert values(serial, i) == want[k]
        assert values(longer, k) == want[k]


@pytest.mark.parametrize("which", ["fig2", "fig3", "fig4_200", "sampled"])
def test_chunk_size_does_not_change_a_bit(monkeypatch, which, ic_fig2,
                                          ic_fig3, ic_fig4):
    """Means and covariance are byte-identical for any chunk size, from one
    time per chunk to the whole 2000-point grid in one chunk: fig2, fig3,
    fig4 at cutoff 200 and fig3 with a sampled force, on a grid with a
    time below 0, one at 0 and times on both branches of the bath noise."""
    ic = {"fig2": ic_fig2, "fig3": ic_fig3,
          "fig4_200": replace(ic_fig4, numax1=200.0, numax2=200.0),
          "sampled": _sampled(ic_fig3)}[which]
    times = np.concatenate([[-1.0], np.linspace(0.0, ic.t_end, 2000)])
    assert np.count_nonzero((times > 0.0) & (times < 1.0)) > 16
    runs = []
    for chunk in (1, 16, 64, engine.CHUNK, 2000):
        monkeypatch.setattr(engine, "CHUNK", chunk)
        runs.append(simulate(ic, times=times))
    for res in runs[1:]:
        assert res.means.tobytes() == runs[0].means.tobytes()
        assert res.cov.tobytes() == runs[0].cov.tobytes()


def test_nonfinite_times_are_rejected(ic_fig3):
    with pytest.raises(ConfigError):
        simulate(ic_fig3, times=np.array([1.0, float("nan")]))


@pytest.mark.parametrize("times, shape", [(5.0, "()"),
                                          ([[1.0, 2.0]], "(1, 2)"),
                                          ([[1.0], [2.0]], "(2, 1)")])
def test_times_must_be_one_dimensional(ic_fig3, times, shape):
    """A scalar or a 2-D grid is a ConfigError naming its shape, not an
    IndexError in the chunking or a result with 2-D times."""
    with pytest.raises(ConfigError, match=re.escape(f"got shape {shape}")):
        simulate(ic_fig3, times=times)


@pytest.mark.parametrize("times, match", [
    (np.array([1.0 + 1.0j]), "dtype complex128"),
    (["abc"], "dtype <U3"), (["1.0"], "dtype <U3"),
    (object(), "dtype object"), ([True], "dtype bool"),
    ([[1.0], [1.0, 2.0]], "1-D array of real times")])
def test_times_must_be_real_numbers(ic_fig3, times, match):
    """Complex, string, boolean, object and ragged times are a ConfigError,
    not a complex time run at its real part (with numpy's ComplexWarning)
    or a bare ValueError or TypeError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=re.escape(match)):
            simulate(ic_fig3, times=times)


def test_integer_times_run_as_floats(ic_fig3):
    ints = simulate(ic_fig3, times=[0, 1, 3])
    floats = simulate(ic_fig3, times=[0.0, 1.0, 3.0])
    assert ints.times.dtype == float
    assert ints.times.tobytes() == floats.times.tobytes()
    assert ints.cov.tobytes() == floats.cov.tobytes()


def test_stationary_state_at_the_longest_supported_time(ic_fig3):
    """At gamma t = MAX_GAMMA_T fig3 (equal bath temperatures) holds the
    stationary spreads of the fluctuation-dissipation integral, with no
    float warning; a time past it is a ConfigError naming the limit."""
    t = MAX_GAMMA_T / ic_fig3.gamma1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = simulate(ic_fig3, times=[t])
    want = fdt_stationary_variance(ic_fig3)
    for name in ("var_x1", "var_x2", "var_p1", "var_p2"):
        assert math.isclose(res.column(name)[0], want[name], rel_tol=1e-12)
    with pytest.raises(ConfigError, match=f"at most {MAX_GAMMA_T:g} is"):
        simulate(ic_fig3, times=[1.0, t * (1.0 + 1e-9)])


def test_simulate_builds_no_table(monkeypatch, ic_fig3):
    """The result is the moments: `simulate` builds neither table, the
    first read of each builds it in one call over the grid, and later
    reads reuse it.  The builders are counted wherever the package holds
    them."""
    calls = {}

    def counted(name, build):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return build(*args, **kwargs)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "duosc" or name.startswith("duosc."):
            for attr in ("states_from_moments", "reports_from_moments"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr,
                                        counted(attr, getattr(module, attr)))

    res = simulate(ic_fig3, times=np.linspace(-1.0, 9.0, 11))
    assert calls == {}
    assert [f.name for f in fields(res)] == ["config", "times", "means",
                                             "cov"]
    assert res.means.shape == (11, 4) and res.cov.shape == (11, 4, 4)
    for array in (res.times, res.means, res.cov):
        assert not array.flags.writeable
    assert res.states[3] == GaussianStateParams(*res.state_array[3])
    assert calls == {"states_from_moments": 1}
    assert res.reports[2].var_x1 == res.column("var_x1")[2]
    assert res.report_array.shape == (11, 16)
    assert calls == {"states_from_moments": 1, "reports_from_moments": 1}


def test_simulate_raises_not_normalizable_eagerly(monkeypatch, ic_fig3):
    """A covariance whose position block is not positive definite makes
    `simulate` itself raise, naming the first such time, before any table
    is read."""
    def broken(modes, times, spectra):
        R = grid_noise(modes, times, spectra)
        R[times == 5.0] -= 1e6 * np.eye(4)
        return R

    monkeypatch.setattr(engine, "grid_noise", broken)
    with pytest.raises(NotNormalizable,
                       match="^position quadratic form not positive "
                             "definite at t=5.0:"):
        simulate(ic_fig3, times=[2.0, 5.0, 9.0])


def test_caustic_inside_a_batch_names_its_time(ic_fig3, modes_fig3):
    """Every batched layer of the endpoint cross-check route raises
    CausticTime for the time on a caustic, not for the batch."""
    t_bad = 3.0 * math.pi / modes_fig3.Omega1
    times = np.array([0.5, 2.0, t_bad, 7.0])
    spectra = bath_spectra(ic_fig3, modes_fig3)
    for call in (lambda: endpoint_action_arrays(ic_fig3, modes_fig3, times),
                 lambda: grid_quadratic(ic_fig3, modes_fig3, times, spectra),
                 lambda: coefficient_matrices(modes_fig3, times, -1.0),
                 lambda: check_caustic(modes_fig3, times)):
        with pytest.raises(CausticTime, match=f"t={t_bad};"):
            call()


def test_result_views_read_the_tables(ic_fig3):
    times = np.linspace(0.0, 9.0, 11)
    res = simulate(ic_fig3, times=times)
    for rows, table, cls in ((res.states, res.state_array,
                              GaussianStateParams),
                             (res.reports, res.report_array,
                              CovarianceReport)):
        assert len(rows) == len(times) == table.shape[0]
        names = [f.name for f in fields(cls)]
        assert table.shape[1] == len(names)
        items = list(rows)
        assert len(items) == len(times)
        assert all(type(r) is cls for r in items)
        assert rows[-1] == items[-1] == rows[len(times) - 1]
        assert rows[2:4] == tuple(items[2:4])
        with pytest.raises(IndexError):
            rows[len(times)]
        for k, name in enumerate(names):
            assert [getattr(r, name) for r in items] == table[:, k].tolist()
    for name in ("t", "mean_x1", "var_p2", "cov_x2p1", "rs_min_eig"):
        col = res.column(name)
        assert col.tolist() == [getattr(r, name) for r in res.reports]
        with pytest.raises(ValueError):
            col[0] = 1.0            # the result is read-only
    assert res.states[-1].t == times[-1]
    assert res.states[0] == initial_state(ic_fig3)


def test_reports_are_one_pass_over_the_state_table(ic_fig3):
    """The report table and the state table hold the same moments: the
    state table's `report_table` agrees with the report table to 1e-12 of
    each column's scale, start rows (t <= 0) and several chunks included.
    The start rows are the report of zero means and the initial packets'
    covariance C0."""
    times = np.concatenate([[0.0, -1.0],
                            np.linspace(0.0, 29.0, 2 * engine.CHUNK + 22)])
    res = simulate(ic_fig3, times=times)
    assert np.count_nonzero(times > 0.0) > 2 * engine.CHUNK
    want = report_table(res.state_array, hbar=ic_fig3.hbar)
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(res.report_array - want) <= 1e-12 * scale)
    var = np.array([ic_fig3.sigma01_sq, ic_fig3.sigma02_sq])
    C0 = np.diag(np.concatenate([var, 0.25 * ic_fig3.hbar ** 2 / var]))
    start = reports_from_moments(np.zeros(1), np.zeros((1, 4)), C0[None],
                                 ic_fig3.hbar)
    for i in np.flatnonzero(times <= 0.0):
        assert np.array_equal(res.report_array[i], start[0])


@pytest.mark.parametrize("mode, half_periods", [(1, 3), (2, 5)])
def test_reports_are_continuous_across_a_caustic(ic_fig3, modes_fig3,
                                                 mode, half_periods):
    """Stepping off a caustic t_c = k pi / Omega by +-delta moves every
    report column by O(delta): the boundary-value representation is
    singular at t_c, the state is not."""
    O = (modes_fig3.Omega1, modes_fig3.Omega2)[mode - 1]
    t_c, period = half_periods * math.pi / O, 2.0 * math.pi / O
    scale = np.max(np.abs(simulate(ic_fig3).report_array), axis=0)
    for frac in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12):
        res = simulate(ic_fig3, times=t_c + frac * period * np.array([-1, 1]))
        jump = np.abs(res.report_array[1] - res.report_array[0]) / scale
        assert np.max(jump) <= 100.0 * frac, frac


def test_simulate_never_calls_the_endpoint_route(monkeypatch, ic_fig3):
    """With the endpoint route's singular pieces made to raise wherever the
    package holds them, `simulate` still runs."""
    def endpoint_route(*args, **kwargs):
        raise AssertionError("the endpoint route was called")

    for name, module in list(sys.modules.items()):
        if name == "duosc" or name.startswith("duosc."):
            for attr in ("coefficient_matrices", "endpoint_action_arrays",
                         "check_caustic"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, endpoint_route)
    with pytest.raises(AssertionError):
        endpoint_action_form(ic_fig3, solve_determinant(ic_fig3), 2.0)
    for ic in (ic_fig3, _sampled(ic_fig3)):
        res = simulate(ic, times=np.linspace(0.0, ic.t_end, 300))
        assert np.all(np.isfinite(res.report_array))


@pytest.mark.parametrize("which", ["fig3", "sampled"])
def test_production_route_matches_the_endpoint_route(which, ic_fig3):
    """Away from the caustics, where the endpoint route is well conditioned
    (min_k |sin Omega_k t| >= 0.03), both routes give the same reports to
    5e-12 of each column's scale."""
    ic = {"fig3": ic_fig3, "sampled": _sampled(ic_fig3)}[which]
    modes = solve_determinant(ic)
    times = np.linspace(0.0, ic.t_end, 2000)[1:]
    sines = np.sin(np.outer([modes.Omega1, modes.Omega2], times))
    times = times[np.min(np.abs(sines), axis=0) >= 0.03]
    bilinear, linear_xi = endpoint_action_arrays(ic, modes, times)
    want = report_table(reduce_to_states(
        ic, times, bilinear, linear_xi, grid_quadratic(ic, modes, times)),
        ic.hbar)
    got = simulate(ic, times=times).report_array
    scale = np.max(np.abs(want), axis=0)
    assert np.max(np.abs(got - want) / scale) <= 5e-12
