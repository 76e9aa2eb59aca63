"""Command-line scenario runner.

`duosc run <scenario> <outdir>` evaluates the state over the configured time
grid and writes plot-ready CSV artifacts (no rendering).  Scenarios fig2,
fig3, fig4 carry the built-in demonstration parameters of the reference
setup; `custom` reads everything from `--config`.  `--verify` additionally
runs the independent oracle suite and fails the run (exit 3) if any check
misses its tolerance.  Exit codes: 0 success, 2 configuration problem,
3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import engine, observables
from .action import endpoint_action_form
from .config import (BathParams, ForceSpec, OscillatorParams, SystemConfig,
                     TimeGrid, default_amplitude, load_config, to_internal,
                     validate_config)
from .errors import DuoscError
from .forcing import force_value
from .modes import solve_determinant
from .reduction import STATE_FIELDS

SCENARIOS = ("fig2", "fig3", "fig4", "custom")

# built-in demonstration parameters (CGS)
_M1 = 1e-23            # g
_W01 = 1e13            # rad/s
_GAMMA = 0.01 * _W01
_DECAY = 10.0 * _GAMMA
_T01 = 1e-13           # s
_T02 = 1e-12           # s
_T_END = 3e-12         # s


def preset_config(name: str) -> SystemConfig:
    """The three built-in demonstration scenarios."""
    if name not in ("fig2", "fig3", "fig4"):
        raise ValueError(f"no preset named {name!r}")
    osc1 = OscillatorParams(mass=_M1, eigenfrequency=_W01, damping_rate=_GAMMA)
    osc2 = OscillatorParams(mass=5.0 * _M1, eigenfrequency=3.0 * _W01,
                            damping_rate=_GAMMA)
    f1 = ForceSpec(kind="exponential_step", onset=_T01, decay=_DECAY)
    f2 = ForceSpec(kind="exponential_step", onset=_T02, decay=_DECAY)
    # force 2 pushes in the opposite direction; amplitude from the impulse
    # heuristic, sign applied explicitly
    f2 = replace(f2, amplitude=-default_amplitude(osc2, f2))
    coupling = 0.0 if name == "fig2" else 0.3
    T2 = 900.0 if name == "fig4" else 300.0
    return SystemConfig(
        osc1=osc1, osc2=osc2,
        bath1=BathParams(temperature=300.0),
        bath2=BathParams(temperature=T2),
        coupling_dimensionless=coupling,
        force1=f1, force2=f2,
        time_grid=TimeGrid(t_end=_T_END, n_points=2000),
    )


def _apply_overrides(cfg: SystemConfig, args) -> SystemConfig:
    if args.cutoff is not None:
        w = cfg.osc1.eigenfrequency
        cfg = replace(cfg,
                      bath1=replace(cfg.bath1, cutoff=args.cutoff * w),
                      bath2=replace(cfg.bath2, cutoff=args.cutoff * w))
    tg = cfg.time_grid
    if args.t_end is not None:
        tg = replace(tg, t_end=args.t_end)
    if args.grid is not None:
        tg = replace(tg, n_points=args.grid)
    return replace(cfg, time_grid=tg)


def _write_csv(path: str, header, table: np.ndarray) -> None:
    np.savetxt(path, table, fmt="%.12e", delimiter=",",
               header=",".join(header), comments="")


# the state fields up to log_norm; the non-Hermitian residues are left out
_STATE_CSV = STATE_FIELDS[:STATE_FIELDS.index("log_norm") + 1]


def _write_outputs(outdir: str, result, args, action=None) -> None:
    ic = result.config
    u = ic.units
    ts = result.times * u.time_unit
    L, P = u.length_unit, u.momentum_unit
    # the moments over (x1, x2, p1, p2), straight from the result: the
    # report table would also find the uncertainty bound, which no CSV holds
    m, c = result.means, result.cov
    scale = np.array([L, L, P, P])
    _write_csv(os.path.join(outdir, "report.csv"),
               ["t", "x1_mean", "x2_mean", "p1_mean", "p2_mean",
                "var_x1", "var_x2", "var_p1", "var_p2", "cov_x1x2",
                "sym_xp1", "sym_xp2"],
               np.column_stack([ts, m * scale,
                                np.diagonal(c, axis1=1, axis2=2)
                                * scale * scale,
                                c[:, 0, 1] * L * L, c[:, 0, 2] * L * P,
                                c[:, 1, 3] * L * P]))

    s1, s2 = math.sqrt(ic.sigma01_sq), math.sqrt(ic.sigma02_sq)
    _write_csv(os.path.join(outdir, "means_normalized.csv"),
               ["t", "x1_mean_over_sigma01", "x2_mean_over_sigma02"],
               np.column_stack([ts, m[:, 0] / s1, m[:, 1] / s2]))

    _write_csv(os.path.join(outdir, "forces.csv"), ["t", "f1", "f2"],
               np.column_stack([ts] + [force_value(f, result.times)
                                       * u.force_unit
                                       for f in (ic.force1, ic.force2)]))

    if args.dump_state:
        _write_csv(os.path.join(outdir, "state_params.csv"), _STATE_CSV,
                   result.state_array[:, :len(_STATE_CSV)])

    if action is not None:
        with open(os.path.join(outdir, "action_form.csv"), "w") as fh:
            fh.write("slot,value\n")
            for name, val in action.labeled_entries():
                fh.write(f"{name},{val:.12e}\n")


#: evenly spaced times over [0, t_end] that fix `--verify`'s mean scale
_SCALE_POINTS = 512


def _verify(outdir: str, result) -> int:
    """Oracle comparison and invariant suite; returns number of failures."""
    from . import oracle   # scipy: load it only when verifying

    ic = result.config
    u = ic.units
    # deviations at the grid times, relative to the largest oracle mean over
    # the grid and a dense grid on [0, t_end]: a coarse grid's times may all
    # lie after the means have decayed
    dense = np.union1d(np.linspace(0.0, ic.t_end, _SCALE_POINTS),
                       result.times)
    traj = oracle.mean_ode(ic, dense)
    at = np.searchsorted(dense, result.times)
    ode = {k: getattr(traj, k) for k in ("x1", "x2", "p1", "p2")}
    devs = []
    for pair in (("x1", "x2"), ("p1", "p2")):
        scale = max(np.max(np.abs([ode[k] for k in pair])), 1e-300)
        devs.append(max(np.max(np.abs(result.column("mean_" + k)
                                      - ode[k][at])) for k in pair) / scale)
    dev_x, dev_p = devs
    # the covariance at the last grid time against the resolvent route
    want = oracle.phase_space_covariance(ic, max(result.times[-1], 0.0))
    scale = np.sqrt(np.diag(want))
    cov_dev = float(np.max(np.abs(result.cov[-1] - want)
                           / np.outer(scale, scale)))
    rs_min = np.min(result.column("rs_min_eig"))
    # sampled numeric trace on a thinned subgrid (the closed form is exact
    # by construction; this re-derives it from rho directly)
    idx = np.linspace(0, result.times.size - 1, 9).astype(int)
    trace_err = max(abs(observables.numeric_trace(result.states[i]) - 1.0)
                    for i in idx)
    herm_pts = max(observables.hermiticity_error(result.states[i])
                   for i in idx)

    checks = [
        ("mean_x_vs_oracle", dev_x, 1e-3),
        ("mean_p_vs_oracle", dev_p, 1e-3),
        # measured: <= 9.3e-14 on the presets, 2.6e-13 at t = 2000 on fig3
        ("covariance_vs_oracle", cov_dev, 1e-11),
        ("sampled_hermiticity", herm_pts, 1e-10),
        ("numeric_trace", trace_err, 1e-6),
        ("uncertainty_min_eig", -rs_min, 1e-10),
    ]
    failures = 0
    lines = []
    for name, val, tol in checks:
        ok = val <= tol
        failures += 0 if ok else 1
        lines.append(f"{name}: {val:.3e} (tol {tol:.1e}) "
                     f"{'PASS' if ok else 'FAIL'}")
    _write_csv(os.path.join(outdir, "oracle_means.csv"),
               ["t", "x1_mean", "x2_mean", "p1_mean", "p2_mean"],
               np.column_stack([result.times * u.time_unit,
                                ode["x1"][at] * u.length_unit,
                                ode["x2"][at] * u.length_unit,
                                ode["p1"][at] * u.momentum_unit,
                                ode["p2"][at] * u.momentum_unit]))
    with open(os.path.join(outdir, "verify_summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return failures


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="duosc",
        description="Driven coupled dissipative oscillator pair: exact "
                    "Gaussian state evolution")
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="evaluate a scenario and write CSVs")
    run.add_argument("scenario", choices=SCENARIOS)
    run.add_argument("out", help="output directory (created if missing)")
    run.add_argument("--config", help="flat JSON config (required for "
                                      "scenario 'custom', overrides presets)")
    run.add_argument("--verify", action="store_true",
                     help="also run the oracle/invariant suite")
    run.add_argument("--cutoff", type=float, default=None,
                     help="bath cutoff as a multiple of omega01")
    run.add_argument("--grid", type=int, default=None,
                     help="number of time grid points")
    run.add_argument("--t-end", dest="t_end", type=float, default=None,
                     help="grid end time in seconds")
    run.add_argument("--dump-action", action="store_true")
    run.add_argument("--dump-state", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.scenario == "custom":
            if not args.config:
                raise DuoscError("scenario 'custom' requires --config")
            cfg = load_config(args.config)
        elif args.config:
            cfg = load_config(args.config)
        else:
            cfg = preset_config(args.scenario)
        cfg = _apply_overrides(cfg, args)
        ic = to_internal(validate_config(cfg))
        result = engine.simulate(ic)
        # the endpoint form of the action at the last grid time; it does not
        # exist on a caustic (CausticTime)
        action = (endpoint_action_form(ic, solve_determinant(ic),
                                       result.times[-1])
                  if args.dump_action else None)
    except (DuoscError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    _write_outputs(args.out, result, args, action)
    if args.verify:
        failures = _verify(args.out, result)
        if failures:
            print(f"{failures} verification check(s) failed",
                  file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
