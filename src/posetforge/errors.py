"""Exception types shared across the package."""


class PosetForgeError(Exception):
    """Base class for every error raised by this package."""


class DuplicateLabel(PosetForgeError):
    """Two elements were given the same label."""


class UnknownLabel(PosetForgeError):
    """A label does not name any element of the poset at hand."""


class CycleDetected(PosetForgeError):
    """The supplied relation is not antisymmetric, so it is not an order."""


class SizeLimitExceeded(PosetForgeError):
    """An enumeration or search grew past its configured cap."""


class BadParameters(PosetForgeError):
    """Arguments are outside the domain of the requested construction."""


class NotAnAntichain(PosetForgeError):
    """The given member set contains a comparable pair."""


class SizeMismatch(PosetForgeError):
    """Two antichains that must share a cardinality do not."""


class UnknownCheck(PosetForgeError):
    """No verification check is registered under the requested id."""
