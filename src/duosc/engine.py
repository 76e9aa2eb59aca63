"""End-to-end pipeline: configuration to Gaussian state on a time grid.

Each requested time is an independent boundary-value computation, not a
step of a time stepper.  `simulate` first moves grid times that fall in a
caustic window slightly later, then evaluates fixed-size chunks of times:
one whole-chunk bath phase (`influence.grid_quadratic`, a Filon quadrature
in omega on t-independent spectral data built once per run), then per time
the closed-form classical action (`action.endpoint_action_form`), the
Gaussian reduction and the moment report.  The drive never enters the bath
phase (Feynman & Vernon 1963): the phase is a quadratic form in the xi
endpoints alone.

A state is a function of (cfg, t) alone, bit for bit: the chunking and the
thread pool (which maps the same chunks) do not change any value.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .action import endpoint_action_form
from .config import InternalConfig
from .errors import CausticTime, ConfigError
from .influence import InfluenceForm, bath_spectra, grid_quadratic
from .modes import NormalModes, check_caustic, solve_determinant
from .observables import report
from .reduction import GaussianStateParams, initial_state, reduce_to_state

log = logging.getLogger("duosc")

CHUNK = 64      # times per grid_quadratic call and per thread-pool task


def _chunk_states(cfg: InternalConfig, modes: NormalModes, spectra: tuple,
                  times: np.ndarray) -> list:
    """States at positive times off the caustics, one bath-phase call."""
    quadratic = grid_quadratic(cfg, modes, times, spectra)
    return [reduce_to_state(cfg, endpoint_action_form(cfg, modes, t),
                            InfluenceForm(t=t, quadratic=q))
            for t, q in zip(times, quadratic)]


def state_at(cfg: InternalConfig, modes: NormalModes,
             t: float) -> GaussianStateParams:
    """Reduced Gaussian state at one time (CausticTime on a caustic)."""
    if t <= 0.0:
        return initial_state(cfg)
    return _chunk_states(cfg, modes, bath_spectra(cfg, modes),
                         np.array([t], dtype=float))[0]


@dataclass(frozen=True)
class SimulationResult:
    """States and moment reports over the requested time grid.

    `nudged` lists the grid indices whose state was evaluated slightly past
    the requested time because it fell in a caustic window; such a state
    carries its own time in `states[i].t`.
    """
    config: InternalConfig
    times: np.ndarray
    states: tuple
    reports: tuple
    nudged: tuple = ()

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.reports])


def _nudge(t: float, modes: NormalModes) -> float:
    # step past a caustic window; the window width is ~1e-8 of a period
    return t + 1e-6 * 2.0 * np.pi / max(modes.Omega1, modes.Omega2)


def _off_caustic(t: float, modes: NormalModes) -> float:
    """t itself, or the nudged time if t lies in a caustic window."""
    try:
        check_caustic(modes, t)
    except CausticTime:
        return _nudge(t, modes)
    return t


def simulate(cfg: InternalConfig, times: Optional[Sequence[float]] = None,
             threads: int = 1) -> SimulationResult:
    """Evaluate the state on a time grid (default: the configured grid)."""
    if times is None:
        times = np.linspace(0.0, cfg.t_end, cfg.n_points)
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ConfigError("simulate needs finite times")
    modes = solve_determinant(cfg)
    spectra = bath_spectra(cfg, modes)

    evals = np.array([_off_caustic(t, modes) if t > 0.0 else t
                      for t in times])
    nudged = tuple(int(i) for i in np.flatnonzero(evals != times))
    for i in nudged:
        log.warning("t = %.17g (grid index %d) lies in a caustic window; "
                    "evaluated at t = %.17g instead", times[i], i, evals[i])

    def run(idx: np.ndarray) -> list:
        states = _chunk_states(cfg, modes, spectra, evals[idx])
        return [(s, report(s, hbar=cfg.hbar)) for s in states]

    positive = np.flatnonzero(evals > 0.0)
    chunks = [positive[lo:lo + CHUNK]
              for lo in range(0, positive.size, CHUNK)]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            done = list(ex.map(run, chunks))
    else:
        done = [run(idx) for idx in chunks]

    start = initial_state(cfg)
    pairs = [(start, report(start, hbar=cfg.hbar))] * times.size
    for idx, results in zip(chunks, done):
        for i, pair in zip(idx, results):
            pairs[i] = pair
    return SimulationResult(config=cfg, times=times,
                            states=tuple(s for s, _ in pairs),
                            reports=tuple(r for _, r in pairs),
                            nudged=nudged)

