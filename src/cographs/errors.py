"""Exception hierarchy shared by all modules.

``CographError`` is the base for every domain error this library raises on
purpose; ``PostconditionFailedError`` is reserved for internal verification
failures (a constructive routine produced something its own re-check
rejected), which indicates a bug rather than bad input.
"""

from __future__ import annotations


class CographError(Exception):
    """Base class for all domain errors raised by this library."""


# -- graph construction and surgery ----------------------------------------

class EmptySetError(CographError):
    """An operation received an empty vertex set where one is required."""


class UnknownVertexError(CographError):
    """A referenced vertex label is not present in the graph."""


class UnknownEdgeError(CographError):
    """A referenced edge is not present in the graph."""


class WouldBeEmptyError(CographError):
    """Vertex deletion would remove every vertex of the graph."""


class EdgeListSyntaxError(CographError, ValueError):
    """Malformed edge-list text (a ValueError too, for older callers)."""


# -- cotree parsing and recognition -----------------------------------------

class ExpressionSyntaxError(CographError):
    """Malformed expression text; carries the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(CographError):
    """An operator node would be built with fewer than two operands."""


class NotACographError(CographError):
    """The input graph contains an induced P4; carries a witness 4-tuple."""

    def __init__(self, witness: tuple[int, int, int, int]):
        super().__init__(f"not a cograph: vertices {witness} induce a P4")
        self.witness = witness


# -- tree embedding ----------------------------------------------------------

class DegreeTooLowError(CographError):
    """The working vertex set cannot host the requested subtree."""


class PartTooSmallError(CographError):
    """A bipartition side is larger than the set it must map into."""


class MissingCrossEdgeError(CographError):
    """A required cross pair between the two sides is not adjacent."""


class BoundViolatedError(CographError):
    """The input minimum degree is below the theorem's lower bound."""

    def __init__(self, message: str, required_delta: int | None = None,
                 case: str | None = None):
        super().__init__(message)
        self.required_delta = required_delta
        self.case = case


class NotKConnectedError(CographError):
    """The input graph is not k-connected."""


class NotKEdgeConnectedError(CographError):
    """The input graph is not k-edge-connected."""


class NotMaximallyConnectedError(CographError):
    """The input graph is not maximally connected."""


class NotSuperError(CographError):
    """The input graph is not super edge-connected."""


class IsKmError(CographError):
    """The input graph is the complete graph of order m (excluded case)."""


class PostconditionFailedError(CographError):
    """A constructed object failed its own verification; internal bug."""


# -- brute-force oracle -------------------------------------------------------

class TooLargeError(CographError):
    """The instance exceeds the oracle's configured size cap, or an input
    asks for more vertices or edges than the library builds."""


class DisconnectedError(CographError):
    """The operation requires a connected graph."""


# -- generators ---------------------------------------------------------------

class ParamViolationError(CographError):
    """Parameters fail a side condition of the requested construction."""


class BadSpecError(CographError):
    """A tree specification string cannot be parsed."""
