"""Exception types shared across the package."""


class ImmseError(Exception):
    """Base class for package-specific failures."""


class NonConvergence(ImmseError):
    """Adaptive quadrature refinement stalled above the requested tolerance."""


class StepTooLarge(ImmseError):
    """Simulation time step exceeds the discretisation bound."""


class TailNotResolved(ImmseError):
    """An snr integral was to be closed beyond its end on a tail that
    diverges: its integrand falls no faster than 1/snr there."""
