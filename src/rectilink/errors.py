"""Exception types shared across the package."""


class RectilinkError(Exception):
    """Base class for all library errors."""


class InstanceFormatError(RectilinkError):
    """The instance document is malformed (syntax, shape, or edge errors)."""


class InvalidDomainError(RectilinkError):
    """A domain failed validation and cannot be processed further."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class OutsidePointError(RectilinkError):
    """A query point lies outside the domain."""


class ResourceLimitError(RectilinkError):
    """The input exceeds a stated size limit; raised before anything is allocated."""


class CappedLevelsError(RectilinkError):
    """A far relation or extreme needs levels past those a radius-only search computed exactly."""


class DisconnectedGraphError(RectilinkError):
    """Some rectangle cannot be reached in the crossing graph."""


class UnknownChoiceError(RectilinkError, ValueError):
    """A name that selects a method, algorithm or target is not one of the known choices."""
