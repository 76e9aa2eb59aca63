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

    Raised only by the endpoint (boundary-value) cross-check route;
    `engine.simulate` evaluates every time as requested.
    """


class QuadratureNonConvergence(DuoscError):
    """Two independent quadrature routes disagree beyond tolerance."""


class NotNormalizable(DuoscError):
    """The reduced Gaussian state is not normalizable (beta determinant <= 0)."""


class NonHermitianLarge(DuoscError):
    """Dropped non-Hermitian coefficients exceed the allowed fraction of kept ones.

    Raised only by the endpoint-route reduction (`reduction.reduce_to_states`).
    """
