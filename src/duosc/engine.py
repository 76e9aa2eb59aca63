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
(`forcing.drive_amplitudes`).  From the same (means, cov)
`reduction.states_from_moments` builds the state parameters in closed form
and `observables.reports_from_moments` lays out the report rows; the times
t <= 0 take the initial packets, zero means and C0.  No step
divides by sin(Omega t), so no time is special; the paper's boundary-value
route, which does, is a cross-check of the test suite.  The drive never
enters the covariance (Feynman & Vernon 1963).

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
from .observables import (REPORT_FIELDS, CovarianceReport,
                          reports_from_moments)
from .reduction import (GaussianStateParams, initial_state, state_row,
                        states_from_moments)

CHUNK = 64      # times per chunk: one array pass and one thread-pool task


def _initial_variances(cfg: InternalConfig) -> np.ndarray:
    """The diagonal of C0, the initial wave packets' covariance over
    (x1, x2, p1, p2): (sigma01^2, sigma02^2, hbar^2 / 4 sigma01^2,
    hbar^2 / 4 sigma02^2)."""
    var = np.array([cfg.sigma01_sq, cfg.sigma02_sq])
    return np.concatenate([var, 0.25 * cfg.hbar ** 2 / var])


def _chunk(cfg: InternalConfig, modes: NormalModes, spectra: tuple,
           A0: np.ndarray, times: np.ndarray) -> tuple:
    """State table (n, 19) and report table (n, 16) at positive times, both
    from the moments (means, cov)."""
    B = response_matrices(modes, times)
    cov = B @ (A0 + grid_noise(cfg, modes, times, spectra)) \
        @ np.swapaxes(B, 1, 2)
    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    means = (B @ drive_amplitudes(modes, cfg.force1, cfg.force2,
                                  times)[:, :, None])[:, :, 0]
    return (states_from_moments(times, means, cov, cfg.hbar),
            reports_from_moments(times, means, cov, cfg.hbar))


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
    c0 = _initial_variances(cfg)
    K0 = initial_amplitude_map(modes)
    A0 = (K0 * c0) @ K0.T           # C0 carried to the mode amplitudes

    def run(idx: np.ndarray) -> tuple:
        return _chunk(cfg, modes, spectra, A0, times[idx])

    positive = np.flatnonzero(times > 0.0)
    chunks = [positive[lo:lo + CHUNK]
              for lo in range(0, positive.size, CHUNK)]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            done = list(ex.map(run, chunks))
    else:
        done = [run(idx) for idx in chunks]

    # the rows at t <= 0 hold the initial state
    states = np.repeat(state_row(initial_state(cfg))[None], times.size,
                       axis=0)
    reports = np.repeat(reports_from_moments(
        np.zeros(1), np.zeros((1, 4)), np.diag(c0)[None], cfg.hbar),
        times.size, axis=0)
    for idx, (s, r) in zip(chunks, done):
        states[idx] = s
        reports[idx] = r
    states.flags.writeable = False
    reports.flags.writeable = False
    return SimulationResult(config=cfg, times=times, state_array=states,
                            report_array=reports)
