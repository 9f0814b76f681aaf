"""Exception types shared across the package."""


class BackflowLabError(Exception):
    """Base class for all errors raised by this package.  ``time`` is the
    grid time of the failure where one is known, else None."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class ContractViolationError(BackflowLabError):
    """An input does not satisfy a documented precondition or invariant."""


class NotPsdError(ContractViolationError):
    """A matrix expected to be positive semidefinite has a genuinely
    negative eigenvalue (below the noise-clipping band)."""


class InvalidStateError(ContractViolationError):
    """A trajectory state leaves its state set (unit trace, Hermitian, in
    the PSD cone; or on the probability simplex) at grid time ``time``."""


class IntegrationDivergedError(BackflowLabError):
    """A propagated state stopped satisfying its invariants mid-run."""


class GeneratorSingularityError(BackflowLabError):
    """The propagator is singular or too ill-conditioned to invert, so the
    time-local generator is undefined there."""


class ConfigError(BackflowLabError):
    """A run configuration failed schema validation."""
