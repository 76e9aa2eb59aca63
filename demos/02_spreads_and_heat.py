"""Demo 2: packet spreads ignore the drive and saturate at thermal values.

Two separate points are made here.

First, the position and momentum spreads of the driven pair are compared
against a second run with both forces switched off: the drive displaces
the packets but leaves every second moment untouched, and the construction
reproduces that exactly (to the last floating-point digit).

Second, the late-time spreads are compared against the independent
fluctuation-dissipation integral: after many damping times each variance
must land on the equilibrium value set by the bath temperature, and for
unequal bath temperatures it must land between the two single-temperature
values.
"""

import math
from dataclasses import replace

import numpy as np

from duosc.cli import preset_config
from duosc.config import InternalForce, to_internal, validate_config
from duosc.engine import simulate
from duosc.oracle import fdt_stationary_variance


def zero_forces(ic):
    return replace(ic, force1=InternalForce(kind="zero"),
                   force2=InternalForce(kind="zero"))


def main():
    ic = to_internal(validate_config(preset_config("fig3")))
    times = np.linspace(0.0, ic.t_end, 120)
    on = simulate(ic, times=times)
    off = simulate(zero_forces(ic), times=times)

    print("drive independence of the spreads (fig3, 120 grid points):")
    for col in ("var_x1", "var_x2", "var_p1", "var_p2", "cov_x1x2"):
        dev = np.max(np.abs(on.column(col) - off.column(col)))
        print(f"  {col:9s}: max |driven - undriven| = {dev:.1e}")
    print()

    print("late-time spreads vs the fluctuation-dissipation integral:")
    for name in ("fig3", "fig4"):
        icn = zero_forces(to_internal(validate_config(preset_config(name))))
        t_long = 50.0 / icn.gamma1
        rep = simulate(icn, times=[t_long]).reports[0]
        fdt = fdt_stationary_variance(icn)
        if fdt["equal_temperatures"]:
            print(f"  {name} (equal bath temperatures), t = 50 damping times:")
            for col in ("var_x1", "var_x2"):
                val, ref = getattr(rep, col), fdt[col]
                print(f"    {col}: engine {val:.6f}  integral {ref:.6f}  "
                      f"rel dev {abs(val - ref) / ref:.1e}")
        else:
            print(f"  {name} (bath 2 three times hotter), soft brackets:")
            for col in ("var_x1", "var_x2"):
                val = getattr(rep, col)
                lo, hi = sorted(fdt[col])
                inside = "inside" if lo <= val <= hi else "OUTSIDE"
                print(f"    {col}: engine {val:.4f} is {inside} "
                      f"[{lo:.4f}, {hi:.4f}]")


if __name__ == "__main__":
    main()
