"""Bath-phase cost per time point, and per call, warm and cold.

    python3 tools/bath_phase_ms.py

For the fig3 preset, the wideband configuration (fig4 baths, cutoff 200
omega01, no forces) and fig3 with a sampled force on oscillator 1, on
their 2000-point grids, prints one line per bath spectrum (one per
distinct cutoff) with the temperatures that share its two omega layouts
and their sizes (Filon panels and nodes for t >= 1, nodes of the direct
sum below), the wall time per point of influence.bath_spectra once plus
influence.grid_noise over the full grid in the engine's chunks, and the
fixed cost every engine.simulate call pays, in ms per call:
influence.bath_spectra, the spherical Bessel table of a 2-time grid
(influence.spherical_jn_orders over both times' Filon widths) and a whole
2-time engine.simulate call.  For fig3 and wideband it adds the stages of
one benchmark call of CALL_TIMES = 64 times, the midpoints of 64 equal
strata of [0, t_end]: their Bessel table, the Filon product
(BathSpectrum.transforms of every spectrum on the times at or above
FILON_MIN_T), the small-t sum (influence.grid_noise on the times below)
and a whole 64-time engine.simulate call.  Last, for each preset (fig2,
fig3, fig4), a whole engine.simulate call on its 2000-point grid: best ms
of a few warm calls and the warm heap peak.

Each per-call figure is given twice.  Warm is the best of several timeit
repeats of back-to-back calls.  Cold is the median over calls that each
follow a kernel of a pure-Python loop and small numpy calls, as a caller's
own work between calls would run: it evicts the caches and lets the
allocator hand freed heap back to the system, so a call that allocates
large temporaries pays page faults again.  The minor page faults per cold
call (median, from resource.getrusage) are printed beside it.  Each cold
row comes from a fresh interpreter that runs that row alone, since the
allocator's thresholds depend on what the process allocated before.

That count still depends on the harness: the same code faults up to twice
as often in one process as in another, because glibc's trim threshold
follows the largest block freed so far.  So each row also prints its warm
heap peak, the most tracemalloc saw allocated at once during one call that
follows a first one, in KiB.  It repeats to the byte in any process, so it
is the figure to compare between versions.

BLAS is pinned to one thread.
"""

import math
import multiprocessing
import os
import resource
import statistics
import sys
import time
import timeit
import tracemalloc
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from duosc.cli import preset_config  # noqa: E402
from duosc.config import ForceSpec, to_internal, validate_config  # noqa: E402
from duosc.engine import CHUNK, simulate  # noqa: E402
from duosc.influence import (FILON_MIN_T, FILON_ORDER,  # noqa: E402
                             bath_spectra, grid_noise, spherical_jn_orders)
from duosc.modes import solve_determinant  # noqa: E402

COLD_CALLS = 25
CALL_TIMES = 64                       # times per fig3-driven benchmark call
CALL_ROWS = ("fig3", "wideband")      # configurations with 64-time rows
PRESETS = ("fig2", "fig3", "fig4")    # whole 2000-point simulate rows


def sampled_force(cfg):
    """Three tones under a sin^2 envelope on oscillator 1, 257 samples over
    [0, t_end], one packet width of static displacement in scale."""
    osc = cfg.osc1
    t_end = cfg.time_grid.t_end
    ts = np.linspace(0.0, t_end, 257)
    tones = np.sin(np.outer(ts, [0.45, 0.8, 1.3]) * osc.eigenfrequency
                   + [0.3, 2.1, 4.0]) @ [0.9, -0.6, 0.7]
    scale = osc.mass * osc.eigenfrequency ** 2 * math.sqrt(osc.sigma0_sq)
    values = scale * np.sin(math.pi * ts / t_end) ** 2 * tones
    return ForceSpec(kind="sampled", times=tuple(ts), values=tuple(values))


def configs():
    fig3 = preset_config("fig3")
    fig4 = preset_config("fig4")
    cut = 200.0 * fig4.osc1.eigenfrequency
    zero = ForceSpec(kind="zero")
    wide = replace(fig4, bath1=replace(fig4.bath1, cutoff=cut),
                   bath2=replace(fig4.bath2, cutoff=cut),
                   force1=zero, force2=zero)
    sampled = replace(fig3, force1=sampled_force(fig3), force2=zero)
    return {"fig3": fig3, "wideband": wide, "sampled": sampled}


def ms_per_call(fn, number: int = 200) -> float:
    return 1e3 * min(timeit.repeat(fn, number=number, repeat=5)) / number


def disturb() -> float:
    """About 50 ms of a caller's own work: a pure-Python loop, then an
    interpreter loop over small numpy calls."""
    acc = 0
    for j in range(250_000):
        acc += (j * j) % 7
    x = np.linspace(0.0, 1.0, 12)
    for j in range(6_000):
        acc += float(np.sum(np.exp(x * (j * 1e-5))))
    return acc


def cold(fn) -> tuple:
    """Median ms and minor page faults of `fn` over COLD_CALLS calls, each
    after `disturb`."""
    ms, faults = [], []
    for _ in range(COLD_CALLS):
        disturb()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        fn()
        ms.append(1e3 * (time.perf_counter() - start))
        faults.append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return statistics.median(ms), statistics.median(faults)


def per_call_fns(name: str) -> dict:
    """The per-call functions of configuration `name`, by label."""
    ic = to_internal(validate_config(configs()[name]))
    modes = solve_determinant(ic)
    times = np.linspace(0.0, ic.t_end, ic.n_points)[1:]
    pair = times[[times.size // 4, times.size // 2]]
    spectra = bath_spectra(ic, modes)
    two = np.outer(pair, spectra[0].widths).ravel()
    fns = {"bath_spectra": lambda: bath_spectra(ic, modes),
           f"2-time Bessel table ({two.size} arguments)":
               lambda: spherical_jn_orders(two),
           "2-time simulate": lambda: simulate(ic, pair)}
    if name in CALL_ROWS:
        call = (np.arange(CALL_TIMES) + 0.5) * (ic.t_end / CALL_TIMES)
        small = call[call < FILON_MIN_T]
        tf = call[call >= FILON_MIN_T]
        z = np.outer(tf, spectra[0].widths).ravel()
        # the table in the layout grid_noise hands to the Filon product
        bessel = spherical_jn_orders(z).T.reshape(tf.size, -1, FILON_ORDER)
        fns.update({
            f"{CALL_TIMES}-time Bessel table ({z.size} arguments)":
                lambda: spherical_jn_orders(z),
            f"{CALL_TIMES}-time Filon product ({tf.size} times)":
                lambda: [sp.transforms(tf, bessel) for sp in spectra],
            f"{CALL_TIMES}-time small-t sum ({small.size} times)":
                lambda: grid_noise(modes, small, spectra),
            f"{CALL_TIMES}-time simulate": lambda: simulate(ic, call)})
    return fns


def warm_peak_kib(fn) -> float:
    """tracemalloc's peak over one call of `fn` after a first, in KiB."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def cold_figure(row: tuple) -> tuple:
    name, label = row
    return cold(per_call_fns(name)[label])


def main() -> None:
    names = list(configs())
    rows = [(name, label) for name in names for label in per_call_fns(name)]
    # one fresh interpreter per row
    with multiprocessing.get_context("spawn").Pool(
            1, maxtasksperchild=1) as pool:
        cold_rows = dict(zip(rows, pool.map(cold_figure, rows, chunksize=1)))
    for name in names:
        ic = to_internal(validate_config(configs()[name]))
        modes = solve_determinant(ic)
        times = np.linspace(0.0, ic.t_end, ic.n_points)[1:]

        start = time.perf_counter()
        spectra = bath_spectra(ic, modes)
        for lo in range(0, times.size, CHUNK):
            grid_noise(modes, times[lo:lo + CHUNK], spectra)
        whole = (time.perf_counter() - start) / times.size

        for sp in spectra:
            temps = ", ".join(f"{T:.6g}" for T in sp.temperatures)
            print(f"{name:9s} layout T = {temps}: {sp.mids.size} panels / "
                  f"{sp.mids.size * FILON_ORDER} Filon nodes + "
                  f"{sp.small_nodes.size} small-t nodes")
        print(f"{'':9s} "
              f"whole-grid {1e3 * whole:6.3f} ms/point "
              f"({times.size} points)")

        for label, fn in per_call_fns(name).items():
            cold_ms, faults = cold_rows[name, label]
            print(f"{'':9s} per call: {label} {ms_per_call(fn):6.3f} warm, "
                  f"{cold_ms:6.3f} cold ms ({faults:g} faults, "
                  f"{warm_peak_kib(fn):.0f} KiB warm peak)")

    for name in PRESETS:
        ic = to_internal(validate_config(preset_config(name)))
        print(f"{name:9s} whole {ic.n_points}-point simulate "
              f"{ms_per_call(lambda: simulate(ic), number=5):6.1f} warm ms "
              f"({warm_peak_kib(lambda: simulate(ic)):.0f} KiB warm peak)")


if __name__ == "__main__":
    main()
