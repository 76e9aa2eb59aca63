"""End-to-end pipeline: configuration to Gaussian state on a time grid.

Each requested time is evaluated on its own, exactly as requested; nothing
steps from one time to the next.  The state is built from its moments in
phase space: with B(t) the regular map from mode amplitudes to (x1, x2, p1,
p2) (`modes.response_matrices`), the covariance is B (A0 + R) B^T and the
means are B m.  A0 = K0 C0 K0^T carries the initial wave packets
(`modes.initial_amplitude_map`), R(t) is the bath noise block
(`influence.grid_noise`, with one spectrum per distinct bath cutoff, built
once per call and carrying every temperature on that cutoff on one omega
layout: per time t >= 1 a Filon product in omega on pole-graded panels
for all those temperatures, which contracts the Legendre orders first in
one real product per panel width and then sums the panels in one complex
product with their phases, with one Bessel table per chunk for all
spectra; below t = 1 a direct sum on 64-256 pole-free nodes, whose
transforms serve every temperature) and m(t) the drive's moments
(`forcing.drive_amplitudes`); the times t <= 0 keep zero means and C0.
Those moments are the result, and they fix the Gaussian state: its table
(`reduction.states_from_moments`) and the report table
(`observables.reports_from_moments`) are built from them on first read.
No step divides by sin(Omega t), so no time is special; the paper's
boundary-value route, which does, is a cross-check of the test suite.  The
drive never enters the covariance (Feynman & Vernon 1963).

Fixed-size chunks of times run as arrays from start to finish, one after
the other on the calling thread.  A state is a function of (cfg, t) alone,
bit for bit: the chunk size does not change any value, so CHUNK only bounds
a chunk's temporaries.  The largest of them, its Bessel table, recurrences
and Filon buffers, live on a scratch of the calling thread (`influence`);
it grows to the largest chunk and serves that thread's later calls, so a
warm call does not fault those pages in again.  It holds no values between
calls.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .config import MAX_GAMMA_T, InternalConfig
from .errors import ConfigError
from .forcing import drive_amplitudes
from .influence import bath_spectra, grid_noise
from .modes import initial_amplitude_map, response_matrices, solve_determinant
from .observables import (REPORT_FIELDS, CovarianceReport,
                          reports_from_moments)
from .reduction import (GaussianStateParams, check_normalizable,
                        initial_variances, states_from_moments)

CHUNK = 256     # times per chunk: one array pass


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


def _table(build, res: "SimulationResult") -> np.ndarray:
    """A read-only table of the result's moments; t <= 0 reads as 0."""
    table = build(np.where(res.times > 0.0, res.times, 0.0), res.means,
                  res.cov, res.config.hbar)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class SimulationResult:
    """The state's moments over the requested time grid, read-only and one
    row per time: `means` (n, 4) and `cov` (n, 4, 4) over (x1, x2, p1, p2).

    Tables built from them on first read: `state_array` (n, 19) with the
    GaussianStateParams fields as columns, `report_array` (n, 16) with the
    CovarianceReport fields.  `states` and `reports` read them as
    sequences of those dataclasses.
    """
    config: InternalConfig
    times: np.ndarray
    means: np.ndarray
    cov: np.ndarray

    @cached_property
    def state_array(self) -> np.ndarray:
        return _table(states_from_moments, self)

    @cached_property
    def report_array(self) -> np.ndarray:
        return _table(reports_from_moments, self)

    @property
    def states(self) -> Sequence[GaussianStateParams]:
        return _Rows(self.state_array, GaussianStateParams)

    @property
    def reports(self) -> Sequence[CovarianceReport]:
        return _Rows(self.report_array, CovarianceReport)

    def column(self, name: str) -> np.ndarray:
        """One CovarianceReport field over the grid (a read-only view)."""
        if name not in REPORT_FIELDS:
            raise KeyError(f"no report field {name!r}; the fields are "
                           f"{', '.join(REPORT_FIELDS)}")
        return self.report_array[:, REPORT_FIELDS.index(name)]


def simulate(cfg: InternalConfig, times: Optional[Sequence[float]] = None,
             threads: int = 1) -> SimulationResult:
    """Evaluate the state on a time grid (default: the configured grid):
    a 1-D sequence of finite integer or floating times, else ConfigError.

    Every chunk runs on the calling thread.  `threads` is accepted and
    ignored: the benchmark's runner still passes it positionally, and it
    goes when that runner is rebuilt."""
    if times is None:
        times = np.linspace(0.0, cfg.t_end, cfg.n_points)
    try:
        given = np.asarray(times)
    except (TypeError, ValueError) as exc:      # ragged or unreadable
        raise ConfigError(f"simulate needs a 1-D array of real times: "
                          f"{exc}") from None
    if given.dtype.kind not in "iuf":
        raise ConfigError(f"simulate needs integer or floating times, got "
                          f"dtype {given.dtype}")
    times = np.array(given, dtype=float)
    if times.ndim != 1:
        raise ConfigError(f"simulate needs a 1-D array of times, got "
                          f"shape {times.shape}")
    if not np.all(np.isfinite(times)):
        raise ConfigError("simulate needs finite times")
    gamma_t = max(cfg.gamma1, cfg.gamma2) * np.max(times, initial=0.0)
    if gamma_t > MAX_GAMMA_T:
        raise ConfigError(
            f"simulate got gamma t = {gamma_t:.6g}; at most "
            f"{MAX_GAMMA_T:g} is supported")
    modes = solve_determinant(cfg)
    spectra = bath_spectra(cfg, modes)
    c0 = initial_variances(cfg)
    K0 = initial_amplitude_map(modes)
    A0 = (K0 * c0) @ K0.T           # C0 carried to the mode amplitudes
    means = np.zeros((times.size, 4))
    cov = np.empty((times.size, 4, 4))
    cov[:] = np.diag(c0)            # t <= 0 keeps C0
    positive = np.flatnonzero(times > 0.0)
    for lo in range(0, positive.size, CHUNK):
        idx = positive[lo:lo + CHUNK]
        t = times[idx]
        B = response_matrices(modes, t)
        C = B @ (A0 + grid_noise(modes, t, spectra)) \
            @ np.swapaxes(B, 1, 2)
        cov[idx] = 0.5 * (C + np.swapaxes(C, 1, 2))
        means[idx] = (B @ drive_amplitudes(modes, cfg.force1, cfg.force2,
                                           t)[:, :, None])[:, :, 0]
    check_normalizable(times, cov)      # raises for the first bad time
    for array in (times, means, cov):
        array.flags.writeable = False
    return SimulationResult(config=cfg, times=times, means=means, cov=cov)
