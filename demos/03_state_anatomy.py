"""Demo 3: anatomy of one reduced Gaussian state.

Builds the state of the driven pair at a single time and walks through
what the library actually produces: the quadratic/linear parameters of
the two-oscillator density matrix, the physical moments they are built
from, the built-in self-checks (unit trace, Hermiticity, and the
Robertson-Schrodinger uncertainty bound that certifies the state is a
valid quantum state), and the covariance against an independent oracle.
"""

import numpy as np

from duosc.cli import preset_config
from duosc.config import to_internal, validate_config
from duosc.engine import simulate
from duosc.observables import hermiticity_error, numeric_trace
from duosc.oracle import phase_space_covariance


def main():
    ic = to_internal(validate_config(preset_config("fig3")))
    t = 12.3
    res = simulate(ic, times=[t])
    s = res.states[0]

    print(f"reduced state of the driven pair at internal time t = {t}")
    print()
    print("density-matrix parameters (diagonal / off-diagonal / mixed "
          "quadratic blocks, then the drive-induced linear part):")
    for name in ("g1", "g2", "g12", "gp1", "gp2", "gp12",
                 "gpp11", "gpp12", "gpp21", "gpp22",
                 "mx1", "mx2", "mp1", "mp2", "log_norm"):
        print(f"  {name:8s} = {getattr(s, name):+.6e}")
    print()

    rep = res.reports[0]
    print("physical moments (internal units):")
    print(f"  mean x   = ({rep.mean_x1:+.4f}, {rep.mean_x2:+.4f})")
    print(f"  mean p   = ({rep.mean_p1:+.4f}, {rep.mean_p2:+.4f})")
    print(f"  var x    = ({rep.var_x1:.4f}, {rep.var_x2:.4f})")
    print(f"  var p    = ({rep.var_p1:.4f}, {rep.var_p2:.4f})")
    print(f"  cov x1x2 = {rep.cov_x1x2:+.4f}")
    print()
    print("full 4x4 covariance matrix over (x1, x2, p1, p2):")
    with np.printoptions(precision=4, suppress=True):
        print(res.cov[0])
    print()

    print("self-checks:")
    print(f"  trace (quadrature)             = {numeric_trace(s):.12f}")
    print(f"  Hermiticity residual (sampled) = {hermiticity_error(s):.1e}")
    print(f"  uncertainty-bound min eig      = {rep.rs_min_eig:+.3e} "
          "(must be >= 0 up to rounding)")
    print()
    print("covariance against the oracle (resolvent of the Langevin drift, "
          "adaptive quadrature in omega; no engine code):")
    want = phase_space_covariance(ic, t)
    scale = np.sqrt(np.diag(want))
    dev = np.max(np.abs(res.cov[0] - want) / np.outer(scale, scale))
    print(f"  max |C - C_oracle| / sqrt(C_ii C_jj) = {dev:.1e}")


if __name__ == "__main__":
    main()
