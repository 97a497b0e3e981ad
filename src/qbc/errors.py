"""Exception types raised by the library beyond plain ValueError usage errors."""


class InfeasibleParamsError(ValueError):
    """Cloning parameters violate the isometry constraints beyond tolerance."""


class OptimizationFailure(RuntimeError):
    """No optimizer start converged; carries diagnostics in the message."""
