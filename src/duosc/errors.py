"""Exception types shared across the duosc package."""


class DuoscError(Exception):
    """Base class for all duosc-specific errors."""


class ConfigError(DuoscError):
    """Invalid configuration input."""


class CouplingTooStrong(ConfigError):
    """Dimensionless coupling at or beyond the bilinear-model breakdown point."""


class DegenerateModes(DuoscError):
    """The two mode frequencies coincide within tolerance."""


class CausticTime(DuoscError):
    """sin(Omega*t) is too close to zero; the boundary-value form is singular.

    Raised only where the endpoint form of the action inverts the flow's
    position-momentum block (determinant proportional to sin(Omega1 t)
    sin(Omega2 t)), which `duosc run --dump-action` evaluates, and by the
    test suite's cross-checks; `engine.simulate` evaluates every time as
    requested.
    """


class NotNormalizable(DuoscError):
    """The reduced Gaussian state is not normalizable (beta determinant <= 0)."""
