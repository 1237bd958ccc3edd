"""Control frames for TCP mode: the messages that announce each node and
whether it holds data for the job's selector, hand each node the routes
the master plans from those answers, report arrivals and failures, and
shut nodes down. The job and every node's address never cross a socket:
each node holds them from the fork.

Each kind is one frozen dataclass whose fields are the frame's JSON
fields, and both ends build and read every control frame through one
codec, ``pack_control`` and ``unpack_control``, over the JSON pair
``encode_control``/``decode_control``. A frame whose ``type`` names no
kind, or whose fields are not exactly its kind's, each of its declared
type, is a ``DecodeError``; so is an object that repeats a key. Fields
are read by ``transport.typed``, the reader that also reads topology
files. The master's node watchers queue ``orchestration.NodeExited``,
which is no kind here: it never crosses a socket.
"""

import json
from dataclasses import dataclass, fields
from typing import ClassVar, TypedDict

from .agents import NodeId
from .errors import DecodeError
from .transport import typed, unique_keys

CONTROL_MAGIC = b"LCTL"


def encode_control(doc: dict) -> bytes:
    return CONTROL_MAGIC + json.dumps(doc, sort_keys=True).encode("utf-8")


def decode_control(data: bytes) -> dict:
    return json.loads(data[4:].decode("utf-8"), object_pairs_hook=unique_keys)


class ControlFrame:
    """A control frame. Each kind is a frozen dataclass subclass whose
    fields are the frame's JSON fields; ``kind`` is its ``type`` tag."""

    kind: ClassVar[str]

    def __init_subclass__(cls, kind: str) -> None:
        cls.kind = kind


@dataclass(frozen=True)
class NodeReady(ControlFrame, kind="node_ready"):
    """Node to master, once it serves: where it listens, what it holds,
    and whether its heap holds a record for the job's selector. The
    master bound the listener itself, and reads neither ``host`` nor
    ``port``."""

    node: NodeId
    host: str
    port: int
    heap_bytes: int
    dropped: int
    has_data: bool


@dataclass(frozen=True)
class RegisterJob(ControlFrame, kind="register_job"):
    """Master to node: what the master learns only after it forks the
    nodes, ``routes``, each slave's agent id to its planned route."""

    job_id: int
    routes: dict[int, tuple[NodeId, ...]]


@dataclass(frozen=True)
class Arrived(ControlFrame, kind="arrived"):
    """Node to master, before it acks an envelope: the hop ``hop`` (the
    slave's itinerary length) of ``bytes`` envelope bytes reached ``node``."""

    agent_id: int
    job_id: int
    hop: int
    bytes: int
    node: NodeId


@dataclass(frozen=True)
class SlaveFailed(ControlFrame, kind="slave_failed"):
    """Node to master, or the master's own dispatch failure: the slave is lost."""

    agent_id: int
    job_id: int
    reason: str


@dataclass(frozen=True)
class Shutdown(ControlFrame, kind="shutdown"):
    """Master to node: stop serving and exit."""


# Each kind's class and the schema of its fields, every one required, by ``type``.
_KINDS = {cls.kind: (cls, TypedDict(cls.kind, {f.name: f.type for f in fields(cls)})) for cls in ControlFrame.__subclasses__()}


def pack_control(frame: ControlFrame) -> bytes:
    """The frame's ``type`` and fields as sorted-key JSON behind ``LCTL``.
    Int keys stay ints until ``json`` writes them, so they sort as numbers."""
    return encode_control({"type": frame.kind, **vars(frame)})


def unpack_control(data: bytes) -> ControlFrame:
    """The control frame in ``data``. Raises DecodeError unless it is an
    ``LCTL`` JSON object whose ``type`` names a kind and whose other fields
    are exactly that kind's, each of its declared type (a JSON ``true`` is
    not an ``int``)."""
    if data[:4] != CONTROL_MAGIC:
        raise DecodeError("not a control frame")
    try:
        doc = decode_control(data)
        cls, schema = _KINDS[doc.pop("type")]
        return cls(**typed(doc, schema, cls.kind, DecodeError))
    except (ValueError, AttributeError, TypeError, KeyError) as exc:
        # Not JSON, not a JSON object, a repeated key, no known type, or
        # an int key past the interpreter's digit limit.
        raise DecodeError(f"unreadable control frame: {exc!r}") from None
