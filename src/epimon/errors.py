"""Exception types shared across the package."""


class EpimonError(Exception):
    """Base class for all epimon-specific errors."""


class InvalidDataError(EpimonError, ValueError):
    """Input data is malformed: non-finite values, shape mismatch, bad parse,
    a sigma0 that is not positive definite, a JSON file missing a key."""


class InsufficientDataError(EpimonError, ValueError):
    """Not enough reference episodes for the requested estimation."""


class NotTunedError(EpimonError, RuntimeError):
    """A bootstrap distribution or threshold is missing and cannot be built."""


class ResolutionError(EpimonError, RuntimeError):
    """The tuned p-value threshold hit the bootstrap resolution floor.

    A monitor tuned at the floor could never distinguish a degradation from
    the null model. Either increase B or reduce significance requirements
    (shorter run length h_tilde, or larger alpha0).
    """


class TerminalStateError(EpimonError, RuntimeError):
    """The monitor already fired; it must be reset before ingesting more data."""
