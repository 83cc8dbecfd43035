"""Shared exception types."""


class CycleLatticeError(Exception):
    """Base class for errors raised by this package."""


class ParseError(CycleLatticeError):
    """Malformed edge-list input; message names the offending line."""


class ArgumentError(CycleLatticeError):
    """Invalid arguments: unknown ids, overlapping sets, mismatched universes."""


class StructureError(CycleLatticeError):
    """Graph structure violates what the operation requires."""


class PreconditionError(CycleLatticeError):
    """A documented precondition does not hold (e.g. not 3-edge-connected)."""


class MembershipError(CycleLatticeError):
    """Vector is not a member of the cycle lattice."""


class CapacityError(CycleLatticeError):
    """Guard tripped: instance too large for exhaustive work or past a bound."""


class InternalError(CycleLatticeError):
    """Invariant violated; indicates a bug rather than bad input."""
