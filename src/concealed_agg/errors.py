"""Protocol error hierarchy.

Every error that crosses a module boundary derives from ProtocolError so
callers can distinguish protocol violations from programming mistakes.
"""

from __future__ import annotations


class ProtocolError(Exception):
    """Base class for all protocol-level failures."""


class AuthFailure(ProtocolError):
    """Sealed payload failed authentication."""


class StaleRound(ProtocolError):
    """Query round replayed or decreasing."""


class AlreadyEmitted(ProtocolError):
    """A node tried to emit twice in one round."""


class NoSuchRound(ProtocolError):
    """Attestation probe for a round the node never ran."""


class DisconnectedGraph(ProtocolError):
    """Spanning-tree construction found unreachable nodes."""


class ReadingOutOfRange(ProtocolError):
    """A (possibly forged) reading falls outside the sensor domain."""


class ScenarioInvalid(ProtocolError):
    """A scenario file or scenario object failed validation."""
