"""Exception types shared across the package."""


class CocircularError(Exception):
    """Base class for all package errors."""


class InvalidArity(CocircularError):
    """Too few bodies for the requested construction."""


class DimensionError(CocircularError):
    """Mass and angle inputs have inconsistent lengths."""


class CollisionError(CocircularError):
    """Two bodies sit closer than the collision threshold."""


class DomainError(CocircularError):
    """An input lies outside the operation's domain."""


class UnsupportedExponent(CocircularError):
    """The potential exponent is outside the supported range."""


class KTooSmall(CocircularError):
    """The convexity constant is below 2**(3 + alpha) / alpha."""


class ConvergenceFailure(CocircularError):
    """Iteration did not reach its tolerance.

    Carries the last iterate as ``result`` when one is available.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NoBracket(CocircularError):
    """No sign change found while bracketing a root."""


class RegionNotClosed(CocircularError):
    """A region scan holds at some n but fails at a smaller one."""
