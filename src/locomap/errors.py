"""Exception types shared across the package."""

from __future__ import annotations


class LocomapError(Exception):
    """Base class for every error this package raises deliberately."""


class RoleError(LocomapError):
    """An agent was asked to do something its role does not allow."""


class DuplicateVisit(LocomapError):
    """A node was appended to an itinerary that already contains it."""


class EnvelopeError(LocomapError):
    """Base class for wire-envelope encode/decode failures."""


class PayloadTooLarge(EnvelopeError):
    """The payload does not fit the 32-bit length field."""


class BadMagic(EnvelopeError):
    """The byte stream does not start with the envelope magic."""


class UnsupportedVersion(EnvelopeError):
    """The envelope declares a version this codec does not speak."""


class Truncated(EnvelopeError):
    """Envelope length is inconsistent with its declared structure."""


class ChecksumMismatch(EnvelopeError):
    """The integrity checksum does not cover the received bytes."""


class VerifyFailure(LocomapError):
    """An envelope failed verification at the destination and was discarded.

    The sender still holds its copy of the agent; whether to resend is the
    job layer's call.
    """


class TransportFailure(LocomapError):
    """A send did not reach the destination; the agent stays at the source.

    ``report`` carries the attempted delivery's timing when the transport
    can say anything about it (the simulator always can).
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConnectRefused(TransportFailure):
    """TCP destination is not listening."""


class SendTimeout(TransportFailure):
    """TCP peer accepted the connection but never acknowledged."""


class UnknownFunction(LocomapError):
    """A function id does not resolve in the registry."""


class ExecutionError(LocomapError):
    """A map function raised while an agent was processing a node.

    ``agent`` is the agent with the node recorded as visited and the
    payload unchanged, so the tour can continue past the bad node.
    """

    def __init__(self, message: str, agent=None):
        super().__init__(message)
        self.agent = agent


class DecodeError(LocomapError):
    """A partial result could not be decoded."""


class NoNodes(LocomapError):
    """The job resolved to zero target nodes and zero slaves."""


class AllSlavesFailed(LocomapError):
    """Every slave in the job failed; ``result`` holds the accounting."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class ConfigError(LocomapError):
    """Bad run configuration (missing file, malformed value, ...)."""


class TopologyError(ConfigError):
    """Topology description is malformed or references unknown nodes."""
