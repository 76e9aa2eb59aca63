"""End-to-end pipeline: configuration to Gaussian state on a time grid.

Each requested time is an independent boundary-value computation, not a
step of a time stepper.  `simulate` first moves grid times that fall in a
caustic window slightly later, then evaluates fixed-size chunks of times,
each as arrays from start to finish: the bath phase
(`influence.grid_quadratic` with the spectrum of each distinct bath cutoff
and temperature, built once per run: per time t >= 1 one Filon product in
omega on pole-graded panels, with one Bessel table per chunk for all
spectra; below t = 1 a direct sum on 64-256 pole-free nodes), the
closed-form classical action (`action.endpoint_action_arrays`) and the
stacked Gaussian reduction (`reduction.reduce_to_states`); the moment table
(`observables.report_table`) then takes one pass over the whole grid.  The
drive never enters the bath phase (Feynman & Vernon 1963): the phase is a
quadratic form in the xi endpoints alone.

A state is a function of (cfg, t) alone, bit for bit: the chunking and the
thread pool (which maps the same chunks) do not change any value.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence as SequenceABC
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .action import endpoint_action_arrays
from .config import InternalConfig
from .errors import ConfigError
from .influence import bath_spectra, grid_quadratic
from .modes import NormalModes, caustic_mask, solve_determinant
from .observables import REPORT_FIELDS, CovarianceReport, report_table
from .reduction import (GaussianStateParams, initial_state, reduce_to_states,
                        state_row)

log = logging.getLogger("duosc")

CHUNK = 64      # times per chunk: one array pass and one thread-pool task


def _chunk_states(cfg: InternalConfig, modes: NormalModes, spectra: tuple,
                  times: np.ndarray) -> np.ndarray:
    """State table (n, 19) at positive times off the caustics."""
    bilinear, linear_xi = endpoint_action_arrays(cfg, modes, times)
    return reduce_to_states(cfg, times, bilinear, linear_xi,
                            grid_quadratic(cfg, modes, times, spectra))


def state_at(cfg: InternalConfig, modes: NormalModes,
             t: float) -> GaussianStateParams:
    """Reduced Gaussian state at one time (CausticTime on a caustic)."""
    if t <= 0.0:
        return initial_state(cfg)
    row = _chunk_states(cfg, modes, bath_spectra(cfg, modes),
                        np.array([t], dtype=float))[0]
    return GaussianStateParams(*row.tolist())


class _Rows(SequenceABC):
    """Read-only sequence over a table's rows; reading an index builds the
    row's dataclass."""
    __slots__ = ("_table", "_cls")

    def __init__(self, table: np.ndarray, cls):
        self._table = table
        self._cls = cls

    def __len__(self) -> int:
        return self._table.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return self._cls(*self._table[i].tolist())


@dataclass(frozen=True)
class SimulationResult:
    """States and moment reports over the requested time grid.

    Held as read-only tables, one row per grid time: `state_array` with the
    GaussianStateParams fields as columns, `report_array` with the
    CovarianceReport fields.  `states` and `reports` read them as
    sequences of those dataclasses.

    `nudged` lists the grid indices whose state was evaluated slightly past
    the requested time because it fell in a caustic window; such a state
    carries its own time in `states[i].t`.
    """
    config: InternalConfig
    times: np.ndarray
    state_array: np.ndarray      # (n, 19)
    report_array: np.ndarray     # (n, 16)
    nudged: tuple = ()

    @property
    def states(self) -> Sequence[GaussianStateParams]:
        return _Rows(self.state_array, GaussianStateParams)

    @property
    def reports(self) -> Sequence[CovarianceReport]:
        return _Rows(self.report_array, CovarianceReport)

    def column(self, name: str) -> np.ndarray:
        """One CovarianceReport field over the grid (a read-only view)."""
        return self.report_array[:, REPORT_FIELDS.index(name)]


def _nudge(t: np.ndarray, modes: NormalModes) -> np.ndarray:
    # step past a caustic window; the window width is ~1e-8 of a period
    return t + 1e-6 * 2.0 * np.pi / max(modes.Omega1, modes.Omega2)


def off_caustic(times: np.ndarray, modes: NormalModes) -> np.ndarray:
    """The times, each positive one in a caustic window nudged past it."""
    times = np.asarray(times, dtype=float)
    hit = (times > 0.0) & caustic_mask(modes, times)
    return np.where(hit, _nudge(times, modes), times)


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

    evals = off_caustic(times, modes)
    nudged = tuple(int(i) for i in np.flatnonzero(evals != times))
    for i in nudged:
        log.warning("t = %.17g (grid index %d) lies in a caustic window; "
                    "evaluated at t = %.17g instead", times[i], i, evals[i])

    def run(idx: np.ndarray) -> np.ndarray:
        return _chunk_states(cfg, modes, spectra, evals[idx])

    positive = np.flatnonzero(evals > 0.0)
    chunks = [positive[lo:lo + CHUNK]
              for lo in range(0, positive.size, CHUNK)]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            done = list(ex.map(run, chunks))
    else:
        done = [run(idx) for idx in chunks]

    states = np.repeat(state_row(initial_state(cfg))[None], times.size,
                       axis=0)
    for idx, s in zip(chunks, done):
        states[idx] = s
    # one pass over every row, the start rows included: each report row is
    # a function of its state row alone
    reports = report_table(states, hbar=cfg.hbar)
    states.flags.writeable = False
    reports.flags.writeable = False
    return SimulationResult(config=cfg, times=times, state_array=states,
                            report_array=reports, nudged=nudged)
