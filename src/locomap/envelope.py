"""Agent wire format and the five-phase migration procedure.

Envelope layout (all integers big-endian):

    offset  size  field
    0       4     magic "LMAP"
    4       1     version (0x01)
    5       8     agent id (u64)
    13      1     role (0 mapper, 1 slave, 2 reducer)
    14      8     job id (u64)
    22      2     itinerary count (u16), then count * u32 node ids
    ..      4     payload length (u32)
    ..      n     payload bytes
    ..      4     CRC-32 over every preceding byte

An empty agent with an empty itinerary is exactly 32 bytes. The checksum
is computed last on pack and checked before any field is trusted on
unpack, so a flipped bit anywhere yields a typed rejection, never a
silently different agent.

A migration has five timed phases: preparing (pack, with the departure
hook), opening the connection, transferring, unpacking (with the arrival
hook) and verification. Exactly two lifecycle callbacks fire per event.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from zlib import crc32

from .agents import Agent, AgentRole, LifecycleCallbacks, NodeId
from .errors import (
    BadMagic,
    ChecksumMismatch,
    EnvelopeError,
    PayloadTooLarge,
    TransportFailure,
    Truncated,
    UnsupportedVersion,
    VerifyFailure,
)

MAGIC = b"LMAP"
VERSION = 1
_HEAD = struct.Struct(">4sBQBQH")  # magic, version, agent_id, role, job_id, itinerary_count
_U32 = struct.Struct(">I")
FIXED_BYTES = 32  # header + payload length field + checksum trailer
_MAX_U32 = 0xFFFFFFFF
_MAX_U64 = 0xFFFFFFFFFFFFFFFF


def envelope_size(payload_len: int, itinerary_count: int = 0) -> int:
    return FIXED_BYTES + 4 * itinerary_count + payload_len


def pack(agent: Agent, callbacks: LifecycleCallbacks | None = None) -> bytes:
    """Serialize an agent, firing its departure hook first."""
    payload_len = len(agent.payload)
    if payload_len > _MAX_U32:
        raise PayloadTooLarge(f"payload of {payload_len} bytes exceeds the u32 length field")
    if len(agent.itinerary) > 0xFFFF:
        raise EnvelopeError("itinerary exceeds the u16 count field")
    if not 0 <= agent.id <= _MAX_U64 or not 0 <= agent.job_id <= _MAX_U64:
        raise EnvelopeError("agent id and job id must fit in u64")
    if any(not 0 <= n <= _MAX_U32 for n in agent.itinerary):
        raise EnvelopeError("itinerary node ids must fit in u32")

    if callbacks is not None:
        callbacks.fire_depart(agent)
    parts = [_HEAD.pack(MAGIC, VERSION, agent.id, int(agent.role), agent.job_id, len(agent.itinerary))]
    parts.extend(_U32.pack(n) for n in agent.itinerary)
    parts.append(_U32.pack(payload_len))
    parts.append(agent.payload)
    body = b"".join(parts)
    return body + _U32.pack(crc32(body) & 0xFFFFFFFF)


def check_structure(data: bytes) -> tuple[int, int]:
    """Validate framing without touching the checksum.

    Returns (itinerary_count, payload_len). Raises BadMagic,
    UnsupportedVersion or Truncated.
    """
    if data[:4] != MAGIC:
        raise BadMagic("not an agent envelope")
    if len(data) < FIXED_BYTES:
        raise Truncated(f"envelope of {len(data)} bytes is shorter than the fixed minimum")
    version = data[4]
    if version != VERSION:
        raise UnsupportedVersion(f"envelope version {version} is not supported")
    count = int.from_bytes(data[22:24], "big")
    payload_off = 24 + 4 * count
    if len(data) < payload_off + 4:
        raise Truncated("itinerary extends past the end of the envelope")
    payload_len = int.from_bytes(data[payload_off : payload_off + 4], "big")
    expected = envelope_size(payload_len, count)
    if len(data) != expected:
        raise Truncated(f"envelope is {len(data)} bytes but declares {expected}")
    return count, payload_len


def check_integrity(data: bytes) -> None:
    """CRC-32 check over everything before the trailer."""
    stated = int.from_bytes(data[-4:], "big")
    if crc32(data[:-4]) & 0xFFFFFFFF != stated:
        raise ChecksumMismatch("envelope checksum does not match its contents")


def unpack(data: bytes, callbacks: LifecycleCallbacks | None = None) -> Agent:
    """Reconstruct an agent, firing its arrival hook after decoding.

    Any structural or integrity problem rejects the envelope before the
    hook runs. ``origin`` is not carried on the wire and comes back as 0.
    """
    count, payload_len = check_structure(data)
    check_integrity(data)
    return _decode(data, count, payload_len, callbacks)


def _decode(data: bytes, count: int, payload_len: int, callbacks: LifecycleCallbacks | None) -> Agent:
    _, _, agent_id, role_value, job_id, _ = _HEAD.unpack_from(data, 0)
    try:
        role = AgentRole(role_value)
    except ValueError:
        raise EnvelopeError(f"unknown agent role {role_value}") from None
    itinerary = struct.unpack_from(f">{count}I", data, 24) if count else ()
    payload_off = 24 + 4 * count + 4
    agent = Agent(
        id=agent_id,
        role=role,
        job_id=job_id,
        payload=data[payload_off : payload_off + payload_len],
        itinerary=tuple(itinerary),
    )
    if callbacks is not None:
        callbacks.fire_arrive(agent)
    return agent


@dataclass(frozen=True)
class MigrationPhases:
    """Per-phase timing of one migration, in seconds."""

    prepare_s: float
    connect_s: float
    transfer_s: float
    unpack_s: float
    verify_s: float

    def __post_init__(self):
        for name in ("prepare_s", "connect_s", "transfer_s", "unpack_s", "verify_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total_s(self) -> float:
        return self.prepare_s + self.connect_s + self.transfer_s + self.unpack_s + self.verify_s


@dataclass(frozen=True)
class MigrationOutcome:
    """What a completed migration produced: the agent as it exists at the
    destination, the phase breakdown, and where it sits on the timeline."""

    agent: Agent
    phases: MigrationPhases
    bytes: int
    started_at: float
    completed_at: float


def migrate(
    agent: Agent,
    src: NodeId,
    dst: NodeId,
    transport,
    callbacks: LifecycleCallbacks | None = None,
    at: float = 0.0,
) -> MigrationOutcome:
    """Move an agent across one link, timing all five phases.

    On TransportFailure the agent simply never left the source; the caller
    keeps its copy and decides about retries. On VerifyFailure the
    destination discarded the envelope. Either way exactly one live copy
    of the agent exists afterwards.

    The simulated transport supplies modeled CPU phase times so runs are
    reproducible; the TCP transport leaves them None and the real work is
    measured with a wall clock.
    """
    if src == dst:
        raise ValueError("migration requires two distinct nodes")
    callbacks = callbacks if callbacks is not None else LifecycleCallbacks()

    t0 = time.perf_counter()
    data = pack(agent, callbacks)
    prepare_meas = time.perf_counter() - t0

    modeled = transport.cpu_phase_times(len(data))
    prepare_s = modeled[0] if modeled else prepare_meas

    report = transport.send(src, dst, data, at=at + prepare_s)
    if not report.delivered:
        raise TransportFailure(f"link {src}->{dst} dropped the envelope", report=report)

    t1 = time.perf_counter()
    try:
        count, payload_len = check_structure(data)
        check_integrity(data)
    except EnvelopeError as exc:
        raise VerifyFailure(f"envelope rejected at node {dst}: {exc}") from exc
    verify_meas = time.perf_counter() - t1

    t2 = time.perf_counter()
    arrived = _decode(data, count, payload_len, callbacks)
    unpack_meas = time.perf_counter() - t2

    if modeled:
        _, unpack_s, verify_s = modeled
    else:
        unpack_s, verify_s = unpack_meas, verify_meas
    phases = MigrationPhases(
        prepare_s=prepare_s,
        connect_s=report.connect_s,
        transfer_s=report.transfer_s,
        unpack_s=unpack_s,
        verify_s=verify_s,
    )
    return MigrationOutcome(
        agent=arrived,
        phases=phases,
        bytes=len(data),
        started_at=report.started_at,
        completed_at=report.completed_at + unpack_s + verify_s,
    )
