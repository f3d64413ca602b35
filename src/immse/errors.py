"""Exception types shared across the package."""


class ImmseError(Exception):
    """Base class for package-specific failures."""


class NonConvergence(ImmseError):
    """Adaptive quadrature refinement stalled above the requested tolerance."""


class StepTooLarge(ImmseError):
    """Simulation time step exceeds the discretisation bound."""


class DegenerateCovariance(ImmseError):
    """Covariance matrix too ill-conditioned for reliable factorization."""


class TailNotResolved(ImmseError):
    """An snr integral leaves too much beyond its end: truncated at an
    overriding snr_max, or closed on a tail that diverges."""
