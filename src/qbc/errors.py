"""Exception types raised by the library beyond plain ValueError usage errors."""


class InfeasibleParamsError(ValueError):
    """Cloning parameters violate the isometry constraints beyond tolerance."""


class SingularExpansionError(ValueError):
    """Requested expansion is undefined for the given inputs (overlap angle 0)."""


class ProjectionError(RuntimeError):
    """Feasibility projection has no nearest point: U P(theta)^T is zero."""


class OptimizationFailure(RuntimeError):
    """No optimizer start converged; carries diagnostics in the message."""
