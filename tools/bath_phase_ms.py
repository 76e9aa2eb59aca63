"""Bath-phase cost per time point: per-t route against the whole-grid route.

    python3 tools/bath_phase_ms.py [--stride 25]

For the fig3 preset and the wideband configuration (fig4 baths, cutoff 200
omega01, no forces) on their 2000-point grids, prints the number of bath
spectra (one per distinct cutoff and temperature), the size of each
spectrum's two omega layouts (Filon panels and nodes for t >= 1, nodes of
the direct sum below), and the wall time per point of

  per-t       influence.influence_form at every `stride`-th grid point: a
              fresh omega quadrature per time, as the engine did up to the
              whole-grid route;
  whole-grid  influence.bath_spectra once plus influence.grid_noise over
              the full grid in the engine's chunks;

and the fixed cost every engine.simulate call pays, in ms per call (best of
several repeats): influence.bath_spectra, and the spherical Bessel table of
a 2-time grid (influence.spherical_jn_orders over both times' Filon widths).

BLAS is pinned to one thread, as in the benchmark.
"""

import argparse
import os
import sys
import time
import timeit
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from duosc.cli import preset_config  # noqa: E402
from duosc.config import ForceSpec, to_internal, validate_config  # noqa: E402
from duosc.engine import CHUNK  # noqa: E402
from duosc.influence import (bath_spectra, grid_noise,  # noqa: E402
                             influence_form, spherical_jn_orders)
from duosc.modes import solve_determinant  # noqa: E402


def configs():
    fig3 = preset_config("fig3")
    fig4 = preset_config("fig4")
    cut = 200.0 * fig4.osc1.eigenfrequency
    zero = ForceSpec(kind="zero")
    wide = replace(fig4, bath1=replace(fig4.bath1, cutoff=cut),
                   bath2=replace(fig4.bath2, cutoff=cut),
                   force1=zero, force2=zero)
    return {"fig3": fig3, "wideband": wide}


def ms_per_call(fn, number: int = 200) -> float:
    return 1e3 * min(timeit.repeat(fn, number=number, repeat=5)) / number


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--stride", type=int, default=25,
                   help="per-t route: time every stride-th grid point")
    args = p.parse_args(argv)
    for name, cfg in configs().items():
        ic = to_internal(validate_config(cfg))
        modes = solve_determinant(ic)
        times = np.linspace(0.0, ic.t_end, ic.n_points)[1:]

        sample = times[::args.stride]
        start = time.perf_counter()
        for t in sample:
            influence_form(ic, modes, t)
        per_t = (time.perf_counter() - start) / sample.size

        start = time.perf_counter()
        spectra = bath_spectra(ic, modes)
        for lo in range(0, times.size, CHUNK):
            grid_noise(ic, modes, times[lo:lo + CHUNK], spectra)
        whole = (time.perf_counter() - start) / times.size

        layouts = ", ".join(
            f"{sp.mids.size} panels / {sp.coef.shape[0]} Filon nodes + "
            f"{sp.small_nodes.size} small-t nodes" for sp in spectra)
        print(f"{name:9s} {len(spectra)} spectra ({layouts})")
        print(f"{'':9s} "
              f"per-t {1e3 * per_t:8.3f} ms/point "
              f"({sample.size} points)   whole-grid {1e3 * whole:6.3f} "
              f"ms/point ({times.size} points)   x{per_t / whole:.0f}")

        two = np.outer(times[[times.size // 4, times.size // 2]],
                       spectra[0].widths).ravel()
        print(f"{'':9s} "
              f"per call: bath_spectra "
              f"{ms_per_call(lambda: bath_spectra(ic, modes)):6.3f} ms   "
              f"2-time Bessel table "
              f"{ms_per_call(lambda: spherical_jn_orders(two)):6.3f} ms "
              f"({two.size} arguments)")


if __name__ == "__main__":
    main()
