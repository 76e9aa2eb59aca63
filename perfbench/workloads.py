"""Seeded workload generator for the duosc benchmark.

Each workload fixes the physics; the seed chooses only the inputs: the
sorted evaluation times over the horizon and, for `sampled-drive`, the
force profile.  The program under test receives nothing but the generated
`SystemConfig` and the time grid.

Importing this module puts the checkout's own `src/` first on `sys.path`
and refuses any other copy of `duosc`, so the benchmark always measures the
source tree it sits in.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import duosc  # noqa: E402

if Path(duosc.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"duosc imported from {duosc.__file__}, not from {SRC}")

from duosc.cli import preset_config  # noqa: E402
from duosc.config import ForceSpec, SystemConfig  # noqa: E402

# Each grid is sized so that one engine.simulate call takes one to two
# seconds on one core, so a run times several calls and reports their median.
N_POINTS = {
    "fig3-driven": 64,
    "wideband-undriven": 48,
    "sampled-drive": 2,
    "fig3-driven-mt": 64,
}
# the two fig3 workloads share one input stream: same times for a seed
STREAM = {"fig3-driven": 0, "fig3-driven-mt": 0,
          "wideband-undriven": 1, "sampled-drive": 2}
WIDEBAND_CUTOFF = 200.0      # bath cutoff, multiples of omega01
PROFILE_SAMPLES = 257        # samples of the sampled force over [0, t_end]
PROFILE_TONES = 3


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one benchmark workload."""
    name: str
    config: SystemConfig
    times_s: np.ndarray                   # sorted evaluation times, seconds
    threads: int
    driven: bool
    #: driven copy of an undriven config, for the drive-independence check
    driven_twin: Optional[SystemConfig] = None


def jittered_times(rng: np.random.Generator, t_end: float,
                   n: int) -> np.ndarray:
    """One draw inside each of n equal strata of (0, t_end], antithetic.

    Stratum k and its mirror n-1-k take offsets u and 1-u, so the times of
    every grid of even size sum to n*t_end/2 whatever the seed.  A point's
    cost grows with t, so this keeps the total work of a grid close to
    seed-independent (exactly so for a cost linear in t), while each seed
    still gets new times.
    """
    half = (n + 1) // 2
    u = 1.0 - rng.random(half)               # in (0, 1]
    mirrored = 1.0 - u[: n // 2][::-1]       # in [0, 1)
    offsets = np.concatenate([u, mirrored])
    offsets[half:] = np.maximum(offsets[half:], 1e-9)   # keep t > stratum start
    return np.minimum((np.arange(n) + offsets) * (t_end / n), t_end)


def sampled_profile(rng: np.random.Generator, cfg: SystemConfig) -> ForceSpec:
    """Smooth random drive on oscillator 1, sampled over [0, t_end].

    A few tones between 0.3 and 1.5 omega01 under a sin^2 envelope, so the
    force starts and ends at zero; the scale m1 omega01^2 sigma01 is the
    force that holds oscillator 1 one packet width off centre.
    """
    osc = cfg.osc1
    t_end = cfg.time_grid.t_end
    ts = np.linspace(0.0, t_end, PROFILE_SAMPLES)
    freqs = rng.uniform(0.3, 1.5, PROFILE_TONES) * osc.eigenfrequency
    phases = rng.uniform(0.0, 2.0 * math.pi, PROFILE_TONES)
    amps = rng.uniform(0.5, 1.0, PROFILE_TONES) * rng.choice(
        [-1.0, 1.0], PROFILE_TONES)
    scale = osc.mass * osc.eigenfrequency ** 2 * math.sqrt(osc.sigma0_sq)
    tones = np.sin(np.outer(ts, freqs) + phases) @ amps
    values = scale * np.sin(math.pi * ts / t_end) ** 2 * tones
    return ForceSpec(kind="sampled", times=tuple(ts), values=tuple(values))


def _with_cutoff(cfg: SystemConfig, multiple: float) -> SystemConfig:
    cutoff = multiple * cfg.osc1.eigenfrequency
    return replace(cfg, bath1=replace(cfg.bath1, cutoff=cutoff),
                   bath2=replace(cfg.bath2, cutoff=cutoff))


def build(name: str, seed: int) -> Workload:
    """Generate the inputs of workload `name` from `seed`."""
    if name not in N_POINTS:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng([seed, STREAM[name]])
    threads = 1
    twin = None
    driven = True
    if name in ("fig3-driven", "fig3-driven-mt"):
        cfg = preset_config("fig3")
        if name == "fig3-driven-mt":
            threads = len(os.sched_getaffinity(0))    # usable cores
    elif name == "wideband-undriven":
        twin = _with_cutoff(preset_config("fig4"), WIDEBAND_CUTOFF)
        cfg = replace(twin, force1=ForceSpec(), force2=ForceSpec())
        driven = False
    else:
        base = preset_config("fig3")
        cfg = replace(base, force1=sampled_profile(rng, base),
                      force2=ForceSpec())
    times = jittered_times(rng, cfg.time_grid.t_end, N_POINTS[name])
    return Workload(name=name, config=cfg, times_s=times, threads=threads,
                    driven=driven, driven_twin=twin)
