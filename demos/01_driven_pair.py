"""Demo 1: kick two coupled oscillators and watch the means ring down.

Runs the bundled `fig3` scenario (two oscillators of different mass and
frequency, bilinearly coupled, each in contact with its own 300 K bath,
kicked by two exponential-step forces of opposite sign) and prints a small
text plot of the mean positions, normalized by the initial packet widths.
A fully independent Runge-Kutta oracle integrates the same mean equations
of motion, and the worst disagreement over the grid is reported at the end.
"""

import numpy as np

from duosc.cli import preset_config
from duosc.config import to_internal, validate_config
from duosc.engine import simulate
from duosc.oracle import mean_ode


def sparkline(values, width=61, height=9):
    """Plain-text trace of a 1D signal."""
    v = np.asarray(values)
    idx = np.linspace(0, len(v) - 1, width).astype(int)
    v = v[idx]
    lo, hi = v.min(), v.max()
    rows = [[" "] * width for _ in range(height)]
    for col, val in enumerate(v):
        r = int(round((val - lo) / (hi - lo + 1e-300) * (height - 1)))
        rows[height - 1 - r][col] = "*"
    return "\n".join("".join(r) for r in rows), lo, hi


def main():
    ic = to_internal(validate_config(preset_config("fig3")))
    times = np.linspace(0.0, ic.t_end, 400)
    print("scenario fig3: coupled pair, both baths at 300 K")
    print(f"  internal coupling  {ic.lam:.4f}")
    print(f"  first kick at  t = {ic.force1.t0:g}  (internal time)")
    print(f"  second kick at t = {ic.force2.t0:g}, opposite sign")
    print()

    res = simulate(ic, times=times)
    s1 = np.sqrt(ic.sigma01_sq)
    s2 = np.sqrt(ic.sigma02_sq)

    for label, col, s0 in (("oscillator 1", "mean_x1", s1),
                           ("oscillator 2", "mean_x2", s2)):
        art, lo, hi = sparkline(res.column(col) / s0)
        print(f"{label}: mean position / initial packet width "
              f"(range {lo:+.2f} .. {hi:+.2f})")
        print(art)
        print()

    oracle = mean_ode(ic, times)
    worst = 0.0
    for col, ref in (("mean_x1", oracle.x1), ("mean_x2", oracle.x2),
                     ("mean_p1", oracle.p1), ("mean_p2", oracle.p2)):
        scale = np.max(np.abs(ref))
        worst = max(worst, np.max(np.abs(res.column(col) - ref)) / scale)
    print(f"worst relative deviation from the independent ODE oracle, "
          f"all four mean channels: {worst:.2e}")


if __name__ == "__main__":
    main()
