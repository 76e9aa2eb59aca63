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
                     TimeGrid, load_config, to_internal, validate_config)
from .errors import DuoscError
from .forcing import default_amplitude

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


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_outputs(outdir: str, result, args) -> None:
    ic = result.config
    u = ic.units
    ts = result.times * u.time_unit
    L, P = u.length_unit, u.momentum_unit

    rows = []
    for t, r, s in zip(ts, result.reports, result.states):
        herm = max(s.nonherm_quadratic, s.nonherm_linear_X,
                   s.nonherm_linear_xi)
        rows.append((t, r.mean_x1 * L, r.mean_x2 * L,
                     r.mean_p1 * P, r.mean_p2 * P,
                     r.var_x1 * L * L, r.var_x2 * L * L,
                     r.var_p1 * P * P, r.var_p2 * P * P,
                     r.cov_x1x2 * L * L,
                     r.cov_x1p1 * L * P, r.cov_x2p2 * L * P, herm))
    _write_csv(os.path.join(outdir, "report.csv"),
               ["t", "x1_mean", "x2_mean", "p1_mean", "p2_mean",
                "var_x1", "var_x2", "var_p1", "var_p2", "cov_x1x2",
                "sym_xp1", "sym_xp2", "herm_residual"], rows)

    s1, s2 = math.sqrt(ic.sigma01_sq), math.sqrt(ic.sigma02_sq)
    _write_csv(os.path.join(outdir, "means_normalized.csv"),
               ["t", "x1_mean_over_sigma01", "x2_mean_over_sigma02"],
               [(t, r.mean_x1 / s1, r.mean_x2 / s2)
                for t, r in zip(ts, result.reports)])

    from .forcing import force_value
    _write_csv(os.path.join(outdir, "forces.csv"),
               ["t", "f1", "f2"],
               [(tp, force_value(ic.force1, ti) * u.force_unit,
                 force_value(ic.force2, ti) * u.force_unit)
                for tp, ti in zip(ts, result.times)])

    if args.dump_state:
        fields = ("t", "g1", "g2", "g12", "gp1", "gp2", "gp12",
                  "gpp11", "gpp12", "gpp21", "gpp22",
                  "mx1", "mx2", "mp1", "mp2", "log_norm")
        _write_csv(os.path.join(outdir, "state_params.csv"), list(fields),
                   [tuple(getattr(s, f) for f in fields)
                    for s in result.states])

    if args.dump_action:
        from .modes import solve_determinant
        modes = solve_determinant(ic)
        form = endpoint_action_form(ic, modes, result.states[-1].t)
        with open(os.path.join(outdir, "action_form.csv"), "w") as fh:
            fh.write("slot,value\n")
            for name, val in form.labeled_entries():
                fh.write(f"{name},{_fmt(val)}\n")


def _verify(outdir: str, result) -> int:
    """Oracle comparison and invariant suite; returns number of failures."""
    from . import oracle   # scipy.integrate: load it only when verifying

    ic = result.config
    u = ic.units
    traj = oracle.mean_ode(ic, result.times)
    ex1 = result.column("mean_x1")
    ex2 = result.column("mean_x2")
    ep1 = result.column("mean_p1")
    ep2 = result.column("mean_p2")
    scale_x = max(np.max(np.abs(traj.x1)), np.max(np.abs(traj.x2)), 1e-300)
    scale_p = max(np.max(np.abs(traj.p1)), np.max(np.abs(traj.p2)), 1e-300)
    dev_x = max(np.max(np.abs(ex1 - traj.x1)),
                np.max(np.abs(ex2 - traj.x2))) / scale_x
    dev_p = max(np.max(np.abs(ep1 - traj.p1)),
                np.max(np.abs(ep2 - traj.p2))) / scale_p
    herm = max(max(s.nonherm_quadratic, s.nonherm_linear_X,
                   s.nonherm_linear_xi) for s in result.states)
    rs_min = min(r.rs_min_eig for r in result.reports)
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
        ("nonhermitian_residual", herm, 1e-10),
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
               [(t * u.time_unit, x1 * u.length_unit, x2 * u.length_unit,
                 p1 * u.momentum_unit, p2 * u.momentum_unit)
                for t, x1, x2, p1, p2 in zip(result.times, traj.x1, traj.x2,
                                             traj.p1, traj.p2)])
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
    run.add_argument("--threads", type=int, default=1)
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
        vc = validate_config(cfg)
        ic = to_internal(vc)
    except (DuoscError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    try:
        result = engine.simulate(ic, threads=max(1, args.threads))
    except DuoscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_outputs(args.out, result, args)
    if args.verify:
        failures = _verify(args.out, result)
        if failures:
            print(f"{failures} verification check(s) failed",
                  file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
