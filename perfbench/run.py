"""duosc benchmark: grid throughput through the public library path.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

One caller in a closed loop: the run generates the workload's SystemConfig
and time grid from the seed, then calls
`validate_config -> to_internal -> engine.simulate(ic, times, threads)` on
the same grid until `--seconds` have run, and reports points over the
total call time.  Every result passes a correctness gate outside the timed
region; a failing point makes the run print `"correct": false` and exit 1.

BLAS runs single-threaded, so a run uses at most `threads` cores.  The
speed of a shared host drifts by up to 2x within minutes.  So a fixed
reference kernel is timed after every call and every set-up interpreter,
and `points_per_s` and `setup_s` are scaled to the host speed at which
that kernel takes CALIB_REF_S (see README.md); the raw figures are printed
on a comment line.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from spans around the layer entry points as the engine calls them (see
README.md).  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread per engine thread, set before numpy loads its BLAS (the
# set-up interpreters inherit it).  With the default, OpenBLAS adds a
# spinning worker to every calling thread: a threads=1 run then keeps two
# cores busy and slows up to 2.5x whenever the second one is taken, and
# fig3-driven-mt runs four threads on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5            # fresh interpreters; setup_s is their median
CALIB_REF_S = 0.100          # reference kernel seconds at the reference speed
SETUP_TIMEOUT_S = 60.0
VALIDATE_REPEATS = 20
MEANS_RTOL = 1e-3            # acceptance criterion 01
RS_TOL = -1e-10              # Robertson-Schrodinger bound, acceptance gate
TWIN_POINTS = 3              # drive-independence subset (criterion 04)
ORACLE_SCALE_POINTS = 512    # dense grid fixing the oracle's mean scale

MOMENTS = ("mean_x1", "mean_x2", "mean_p1", "mean_p2",
           "var_x1", "var_x2", "var_p1", "var_p2",
           "cov_x1x2", "cov_p1p2", "cov_x1p1", "cov_x2p2",
           "cov_x1p2", "cov_x2p1", "rs_min_eig")
MEANS = MOMENTS[:4]
SECOND_MOMENTS = MOMENTS[4:14]

# layer = duosc module; span name -> engine attribute it wraps
LAYER_SPANS = {
    "engine": "state_at",
    "modes": "solve_determinant",
    "particular": "particular_solution",
    "action": "classical_action_form",
    "influence": "influence_form",
    "reduction": "reduce_to_state",
    "observables": "report",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def reference_kernel_s() -> float:
    """Wall time of a fixed kernel that does not depend on duosc.

    A pure-Python loop and an interpreter loop over small numpy calls, as
    in the sampled-force quadrature.  Sweeps over large arrays were tried
    as a third part and tracked the workloads' drift no better.
    """
    start = time.perf_counter()
    acc = 0
    for j in range(500_000):
        acc += (j * j) % 7
    x = np.linspace(0.0, 1.0, 12)
    for j in range(12_000):
        acc += float(np.sum(np.exp(x * (j * 1e-5))))
    return time.perf_counter() - start


def host_slowdown(kernel_s) -> float:
    """Mean reference-kernel time over CALIB_REF_S: > 1 on a slow host.

    A mean, not a median: the host stalls in bursts that a long call always
    absorbs but a short kernel mostly misses, so only totals over the same
    stretch of time track each other.
    """
    return statistics.fmean(kernel_s) / CALIB_REF_S


def setup_seconds(workload: str, seed: int):
    """Median set-up time over SETUP_REPEATS fresh interpreters.

    Returns the median and the reference-kernel times taken around the
    interpreters.
    """
    samples, kernel_s = [], [reference_kernel_s()]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        kernel_s.append(reference_kernel_s())
    return statistics.median(samples), kernel_s


@dataclass
class Call:
    seconds: float
    result: object = None          # SimulationResult, None if it raised
    error: str = ""


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    means_rel_err: float = 0.0
    nonherm_max: float = 0.0
    rs_mins: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def timed_call(engine, ic, times, threads) -> Call:
    start = time.perf_counter()
    try:
        res = engine.simulate(ic, times, threads)
    except Exception as exc:  # a raising run is a failed batch, not a crash
        return Call(time.perf_counter() - start,
                    error=f"{type(exc).__name__}: {exc}")
    return Call(time.perf_counter() - start, result=res)


def oracle_means(oracle, ic, times):
    """Oracle means at `times`, and each column's scale over the horizon."""
    dense = np.linspace(0.0, ic.t_end, ORACLE_SCALE_POINTS)
    grid = np.union1d(dense, times)
    traj = oracle.mean_ode(ic, grid)
    at = np.searchsorted(grid, times)
    cols = {"mean_x1": traj.x1, "mean_x2": traj.x2,
            "mean_p1": traj.p1, "mean_p2": traj.p2}
    return {k: (v[at], max(float(np.max(np.abs(v))), 1e-300))
            for k, v in cols.items()}


def run_gate(w, ic, times, calls) -> Gate:
    """Check every timed result; count failing points."""
    from duosc import engine, oracle
    from duosc.config import to_internal, validate_config

    g = Gate()
    ref = oracle_means(oracle, ic, times) if w.driven else None
    twin = None
    if w.driven_twin is not None:
        twin_idx = np.linspace(0, times.size - 1, TWIN_POINTS).astype(int)
        twin_ic = to_internal(validate_config(w.driven_twin))
        twin = timed_call(engine, twin_ic, times[twin_idx], 1)
        if twin.result is None:
            g.problems.append(f"driven twin raised {twin.error}")
    for call in calls:
        g.attempted += times.size
        if call.result is None:
            g.failed += times.size
            g.problems.append(f"simulate raised {call.error}")
            continue
        res = call.result
        cols = {k: res.column(k) for k in MOMENTS}
        bad = np.zeros(times.size, dtype=bool)
        for k in MOMENTS:
            bad |= ~np.isfinite(cols[k])
        rs = cols["rs_min_eig"]
        bad |= ~(rs >= RS_TOL)
        g.rs_mins.append(float(np.min(rs)))
        g.nonherm_max = max(g.nonherm_max, max(
            max(s.nonherm_quadratic, s.nonherm_linear_X, s.nonherm_linear_xi)
            for s in res.states))
        if ref is not None:
            for k in MEANS:
                want, scale = ref[k]
                err = np.abs(cols[k] - want) / scale
                g.means_rel_err = max(g.means_rel_err, float(np.max(err)))
                bad |= ~(err <= MEANS_RTOL)
        if twin is not None:
            for k in SECOND_MOMENTS:
                want = None if twin.result is None else twin.result.column(k)
                bad[twin_idx] |= want is None or cols[k][twin_idx] != want
        if bad.any():
            g.problems.append(f"{int(bad.sum())} failing points at t = "
                              f"{times[bad][:5].tolist()}")
        g.failed += int(bad.sum())
    return g


def install_spans(tracer, engine, action, influence) -> None:
    """Spans around the engine's layer calls, counters inside them."""
    counts = {"particular": {"grid_nodes": lambda ps: ps.grid.size}}
    for layer, attr in LAYER_SPANS.items():
        tracer.wrap_span(engine, attr, layer, counts.get(layer))
    tracer.wrap_counter(action, "quadrature_nodes", "quad_nodes",
                        lambda r: r[0].size)
    tracer.wrap_counter(influence, "_omega_panels", "omega_nodes",
                        lambda r: r[0].size)


def layer_metrics(spans, points: int, calls: int, threads: int,
                  simulate_wall: float) -> dict:
    """Per-layer metrics from the traced calls' spans."""
    from tracing import self_times

    by = {name: [sp for sp in spans if sp.name == name]
          for name in LAYER_SPANS}
    selfs = self_times(spans)

    def total(name):
        return sum(sp.duration for sp in by[name])

    def counted(name, key):
        return sum(sp.counts.get(key, 0) for sp in by[name])

    point_ms = [1e3 * sp.duration for sp in by["engine"]] or [0.0]
    m = {}
    for layer in ("particular", "action", "influence", "reduction",
                  "observables"):
        m[f"{layer}.ms_per_point"] = (1e3 * total(layer) / points, "ms")
    m["particular.calls_per_point"] = (len(by["particular"]) / points,
                                       "count")
    m["particular.grid_nodes"] = (counted("particular", "grid_nodes")
                                  / points, "count")
    m["action.quad_nodes_per_point"] = (counted("action", "quad_nodes")
                                        / points, "count")
    m["influence.omega_nodes_per_point"] = (
        counted("influence", "omega_nodes") / points, "count")
    m["engine.point_ms_p50"] = (float(np.percentile(point_ms, 50)), "ms")
    m["engine.point_ms_p99"] = (float(np.percentile(point_ms, 99)), "ms")
    m["engine.self_ms_per_point"] = (
        1e3 * sum(selfs[sp.id] for sp in by["engine"]) / points, "ms")
    m["engine.caustic_nudges"] = (
        sum(sp.error == "CausticTime" for sp in by["engine"]) / calls,
        "count")
    m["engine.thread_busy_frac"] = (
        total("engine") / (threads * simulate_wall), "fraction")
    solve_ms = [1e3 * sp.duration for sp in by["modes"]] or [0.0]
    m["modes.solve_ms"] = (statistics.median(solve_ms), "ms")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import duosc from this checkout: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.N_POINTS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.N_POINTS)}", file=sys.stderr)
        return 2
    from duosc import action, engine, influence
    from duosc.config import to_internal, validate_config
    from tracing import Tracer

    if not args.trace:
        setup, setup_kernel_s = setup_seconds(args.workload, args.seed)

    w = workloads.build(args.workload, args.seed)
    validate_ms = []
    for _ in range(VALIDATE_REPEATS if args.trace else 1):
        start = time.perf_counter()
        ic = to_internal(validate_config(w.config))
        validate_ms.append(1e3 * (time.perf_counter() - start))
    times = w.times_s / ic.units.time_unit
    timed_call(engine, ic, times, w.threads)       # warm-up, untimed

    calls, traced, spans = [], [], []
    kernel_s = [] if args.trace else [reference_kernel_s()]
    spent = 0.0
    while spent < args.seconds:
        call = timed_call(engine, ic, times, w.threads)
        calls.append(call)
        spent += call.seconds
        if not args.trace:
            kernel_s.append(reference_kernel_s())
            spent += kernel_s[-1]
        else:
            with Tracer() as tracer:
                install_spans(tracer, engine, action, influence)
                with tracer.span("simulate"):
                    call = timed_call(engine, ic, times, w.threads)
            traced.append(call)
            spans.extend(tracer.spans)
            spent += call.seconds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gate = run_gate(w, ic, times, calls + traced)
    n = times.size
    pps = n * len(calls) / sum(c.seconds for c in calls)
    if args.trace:
        traced_pps = n * len(traced) / sum(c.seconds for c in traced)
        metrics = layer_metrics(spans, n * len(traced), len(traced),
                                w.threads, sum(c.seconds for c in traced))
        metrics["config.validate_ms"] = (statistics.median(validate_ms), "ms")
        metrics["reduction.nonherm_max"] = (gate.nonherm_max, "internal")
        metrics["observables.rs_min_eig_min"] = (
            min(gate.rs_mins, default=0.0), "internal")
        metrics["oracle.means_rel_err"] = (gate.means_rel_err, "fraction")
        metrics["trace.overhead_frac"] = (1.0 - traced_pps / pps, "fraction")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps([sp.as_dict() for sp in spans]))
        print(f"# {len(spans)} spans written to {path}")
    else:
        slow, setup_slow = host_slowdown(kernel_s), host_slowdown(
            setup_kernel_s)
        print(f"# raw: points_per_s = {pps:.6g}, setup_s = {setup:.6g}; "
              f"host slowdown {slow:.4g} in the calls, {setup_slow:.4g} "
              f"in set-up")
        metrics = {
            "points_per_s": (pps * slow, "points/s"),
            "setup_s": (setup / setup_slow, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    fail_frac = gate.failed / gate.attempted
    print(f"# workload {w.name}: {n} points x {len(calls)} timed calls, "
          f"threads={w.threads}, seed={args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"point_fail_frac = {fail_frac:.6g} fraction "
          f"({gate.failed} of {gate.attempted} points)")
    for problem in gate.problems:
        print(f"# gate: {problem}", file=sys.stderr)
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
