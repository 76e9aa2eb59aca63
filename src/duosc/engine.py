"""End-to-end pipeline: configuration to Gaussian state on a time grid.

Each requested time is evaluated on its own, exactly as requested; nothing
steps from one time to the next.  The state is built from its moments in
phase space: with B(t) the regular map from mode amplitudes to (x1, x2, p1,
p2) (`modes.response_matrices`), the covariance is B (A0 + R) B^T and the
means are B m.  A0 = K0 C0 K0^T carries the initial wave packets
(`modes.initial_amplitude_map`), R(t) is the bath noise block
(`influence.grid_noise`, with one spectrum per distinct bath cutoff, built
once per call and carrying every temperature on that cutoff on one omega
layout: per time t >= 1 one Filon product in omega on pole-graded panels
for all those temperatures, with one Bessel table per chunk for all
spectra; below t = 1 a direct sum on 64-256 pole-free nodes, whose
transforms serve every temperature) and m(t) the drive's moments
(`forcing.drive_amplitudes`).  `reduction.states_from_moments` maps the
moments to the state parameters in closed form, and the moment table
(`observables.report_table`) takes one pass over the whole grid.  No step
divides by sin(Omega t), so no time is special.  The drive never enters
the covariance (Feynman & Vernon 1963).

Fixed-size chunks of times run as arrays from start to finish.  A state is
a function of (cfg, t) alone, bit for bit: the chunking and the thread pool
(which maps the same chunks) do not change any value.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import InternalConfig
from .errors import ConfigError
from .forcing import drive_amplitudes
from .influence import bath_spectra, grid_noise
from .modes import (NormalModes, initial_amplitude_map, response_matrices,
                    solve_determinant)
from .observables import REPORT_FIELDS, CovarianceReport, report_table
from .reduction import (GaussianStateParams, initial_state, state_row,
                        states_from_moments)

CHUNK = 64      # times per chunk: one array pass and one thread-pool task


def _initial_amplitudes(cfg: InternalConfig, modes: NormalModes) -> np.ndarray:
    """A0 = K0 C0 K0^T: the initial wave packets' covariance, carried to the
    mode amplitudes; C0 = diag(sigma01^2, sigma02^2, hbar^2 / 4 sigma01^2,
    hbar^2 / 4 sigma02^2) over (x1, x2, p1, p2)."""
    var = np.array([cfg.sigma01_sq, cfg.sigma02_sq])
    K0 = initial_amplitude_map(modes)
    return (K0 * np.concatenate([var, 0.25 * cfg.hbar ** 2 / var])) @ K0.T


def _chunk_states(cfg: InternalConfig, modes: NormalModes, spectra: tuple,
                  A0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """State table (n, 19) at positive times."""
    B = response_matrices(modes, times)
    cov = B @ (A0 + grid_noise(cfg, modes, times, spectra)) \
        @ np.swapaxes(B, 1, 2)
    means = B @ drive_amplitudes(modes, cfg.force1, cfg.force2,
                                 times)[:, :, None]
    return states_from_moments(times, means[:, :, 0], cov, cfg.hbar)


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
    """
    config: InternalConfig
    times: np.ndarray
    state_array: np.ndarray      # (n, 19)
    report_array: np.ndarray     # (n, 16)

    @property
    def states(self) -> Sequence[GaussianStateParams]:
        return _Rows(self.state_array, GaussianStateParams)

    @property
    def reports(self) -> Sequence[CovarianceReport]:
        return _Rows(self.report_array, CovarianceReport)

    def column(self, name: str) -> np.ndarray:
        """One CovarianceReport field over the grid (a read-only view)."""
        return self.report_array[:, REPORT_FIELDS.index(name)]


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
    A0 = _initial_amplitudes(cfg, modes)

    def run(idx: np.ndarray) -> np.ndarray:
        return _chunk_states(cfg, modes, spectra, A0, times[idx])

    positive = np.flatnonzero(times > 0.0)
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
                            report_array=reports)
