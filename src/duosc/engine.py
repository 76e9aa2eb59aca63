"""End-to-end pipeline: configuration to Gaussian state on a time grid.

Each requested time is independent (the construction is a boundary-value
problem, not a time stepper), so the grid is embarrassingly parallel.  The
classical action is endpoint algebra (action.endpoint_action_form), so the
driven particular path is never built.  The drive's cross term inside the
bath phase only produces anti-Hermitian residue that is measured separately
(see influence.influence_form); the production pipeline therefore evaluates
the bath phase on the boundary paths alone.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .action import endpoint_action_form
from .config import InternalConfig, ValidatedConfig, to_internal
from .errors import CausticTime
from .influence import influence_form
from .modes import NormalModes, solve_determinant
from .observables import report
from .reduction import GaussianStateParams, initial_state, reduce_to_state

log = logging.getLogger("duosc")


def state_at(cfg: InternalConfig, modes: NormalModes,
             t: float) -> GaussianStateParams:
    """Reduced Gaussian state at one time."""
    if t <= 0.0:
        return initial_state(cfg)
    action = endpoint_action_form(cfg, modes, t)
    infl = influence_form(cfg, modes, None, t)
    return reduce_to_state(cfg, action, infl)


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


def simulate(cfg: InternalConfig, times: Optional[Sequence[float]] = None,
             threads: int = 1) -> SimulationResult:
    """Evaluate the state on a time grid (default: the configured grid)."""
    if times is None:
        times = np.linspace(0.0, cfg.t_end, cfg.n_points)
    times = np.asarray(times, dtype=float)
    modes = solve_determinant(cfg)

    def one(t: float) -> GaussianStateParams:
        try:
            return state_at(cfg, modes, t)
        except CausticTime:
            return state_at(cfg, modes, _nudge(t, modes))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            states = tuple(ex.map(one, times))
    else:
        states = tuple(one(t) for t in times)
    # a state evaluated at a positive time carries that time exactly
    nudged = tuple(i for i, (t, s) in enumerate(zip(times, states))
                   if t > 0.0 and s.t != t)
    for i in nudged:
        log.warning("t = %.17g (grid index %d) lies in a caustic window; "
                    "evaluated at t = %.17g instead", times[i], i,
                    states[i].t)
    reports = tuple(report(s, hbar=cfg.hbar) for s in states)
    return SimulationResult(config=cfg, times=times, states=states,
                            reports=reports, nudged=nudged)


def simulate_validated(vc: ValidatedConfig,
                       threads: int = 1) -> SimulationResult:
    """Convenience wrapper accepting a validated physical configuration."""
    return simulate(to_internal(vc), threads=threads)
