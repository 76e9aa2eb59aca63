"""The drive's endpoint coefficients at one time, as named fields of the
package's endpoint form, and the scalar moment of `oscillatory_moments`."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from duosc.action import endpoint_action_form
from duosc.errors import ConfigError
from duosc.forcing import oscillatory_moments
from duosc.modes import NormalModes


def oscillatory_moment(f, Omega: float, delta: float, t: float
                       ) -> tuple[float, float]:
    """(M, N) = int_0^t f(tau) (sin, cos)(Omega tau) exp(delta tau) dtau."""
    M, N = oscillatory_moments(f, Omega, delta, np.array([t]))
    return float(M[0]), float(N[0])


@dataclass(frozen=True)
class ForceMoments:
    """The endpoint-linear coefficients the forces enter the classical
    action through at time t: lambda1 and lambda2 multiply the initial
    difference-variable endpoints, phi_f1 and phi_f2 the final ones."""
    t: float
    lambda1: float
    lambda2: float
    phi_f1: float
    phi_f2: float


def force_moments(modes: NormalModes, f1, f2, t: float) -> ForceMoments:
    """The drive's endpoint coefficients at time t, from
    `duosc.action.endpoint_action_form` (CausticTime on a caustic)."""
    if t <= 0.0:
        raise ConfigError(f"force_moments needs t > 0, got {t}")
    # the endpoint form reads nothing of its config but the two forces
    form = endpoint_action_form(SimpleNamespace(force1=f1, force2=f2),
                                modes, t)
    return ForceMoments(t, form.lambda1, form.lambda2,
                        form.phi_f1, form.phi_f2)
