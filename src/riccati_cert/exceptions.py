"""Exception types raised by the riccati_cert package."""


class RiccatiError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RiccatiError, ValueError):
    """Matrix or coefficient dimensions are inconsistent or out of range.

    Also a ``ValueError``: a wrong dimension is a wrong value, and the
    dimension rule serves callers that raise ``ValueError`` for their
    other fields."""


class DomainError(RiccatiError):
    """A time value lies outside the declared domain of a function."""


class NotHermitianError(RiccatiError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPositiveDefiniteError(RiccatiError):
    """A matrix required to be positive definite is not.

    The offending minimum eigenvalue is stored in ``min_eigenvalue``.
    """

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class EigenSolverError(RiccatiError):
    """The underlying eigenvalue solver failed to converge.

    Raised instead of silently reporting a negative verdict.
    """


class InstanceFormatError(RiccatiError):
    """An input value is refused: a field of an instance file, status
    sidecar or trajectory CSV, or a command-line flag.

    The message names the offending field (a CSV line and column) or flag.
    """


class IntegrationError(RiccatiError):
    """An integration run could not proceed (bad options, collapsed steps
    on a linear flow, or no usable data for a post-hoc check)."""


def named_refusal(prefix: str, owner, /, *args, **kwargs):
    """``owner(*args, **kwargs)``, where ``owner`` is the library type or rule
    that takes an input value. Its refusal, a ``ValueError`` or a
    ``RiccatiError``, is raised as an ``InstanceFormatError`` whose message is
    ``prefix`` (naming the field or flag) followed by the owner's message."""
    try:
        return owner(*args, **kwargs)
    except (ValueError, RiccatiError) as exc:
        raise InstanceFormatError(f"{prefix}{exc}") from exc
