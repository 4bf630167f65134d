"""Exception types shared across the package."""


class WavetorusError(Exception):
    """Base class for all package-specific errors."""


class GridTooCoarse(WavetorusError):
    """Grid cannot hold the requested bandwidth without aliasing."""


class NotHermitian(WavetorusError):
    """A real-valued field was required but the coefficients lack Hermitian symmetry."""


class NotInEperp(WavetorusError):
    """Field carries too much mass on the resonant lines k = +-2j, the kernel
    of the wave operator (``norms.OFF_KERNEL_TOL``)."""


class OrderUnavailable(WavetorusError):
    """Requested derivative order is not provided."""


class NonlinearityRejected(WavetorusError):
    """Nonlinearity failed admissibility validation.

    ``reason`` is one of ``"NonpositiveLeading"``, ``"RatioCondition"``,
    ``"NoMonotoneFloor"``, ``"SmoothnessExponent"``.
    """

    def __init__(self, reason, detail=""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class NoConvergence(WavetorusError):
    """Newton iteration exhausted its budget; carries the best iterate."""

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)


class SingularJacobian(WavetorusError):
    """Newton linear system is singular (penalty too small or degeneracy)."""


class StallAt(WavetorusError):
    """Continuation failed at some penalty value; carries the partial trace."""

    def __init__(self, beta, cause, trace=None):
        self.beta = beta
        self.cause = cause
        self.trace = trace
        super().__init__(f"continuation stalled at beta={beta:g}: {cause}")


class ParseError(WavetorusError):
    """Configuration rejected; ``errors`` lists per-field problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
