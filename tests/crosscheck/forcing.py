"""Force moments at one time: one row of `duosc.forcing.force_moment_table`
as named fields, and the scalar moment of `oscillatory_moments`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from duosc.errors import ConfigError
from duosc.forcing import force_moment_table, oscillatory_moments
from duosc.modes import NormalModes


def oscillatory_moment(f, Omega: float, delta: float, t: float
                       ) -> tuple[float, float]:
    """(M, N) = int_0^t f(tau) (sin, cos)(Omega tau) exp(delta tau) dtau."""
    M, N = oscillatory_moments(f, Omega, delta, np.array([t]))
    return float(M[0]), float(N[0])


@dataclass(frozen=True)
class ForceMoments:
    """The eight mode-projected force integrals at time t, plus the
    endpoint-linear combinations they enter the classical action through.

    M1, N1, M2, N2 use force 1; the primed set uses force 2.  lambda1 and
    lambda2 multiply the initial difference-variable endpoints; phi_f1 and
    phi_f2 multiply the final ones.
    """
    t: float
    M1: float
    N1: float
    M2: float
    N2: float
    M1p: float
    N1p: float
    M2p: float
    N2p: float
    lambda1: float
    lambda2: float
    phi_f1: float
    phi_f2: float


def force_moments(modes: NormalModes, f1, f2, t: float) -> ForceMoments:
    """Assemble all force moments and their endpoint coefficients at time t."""
    if t <= 0.0:
        raise ConfigError(f"force_moments needs t > 0, got {t}")
    row = force_moment_table(modes, f1, f2, np.array([t]))[0]
    return ForceMoments(t, *row.tolist())
