"""Control frames for TCP mode: the messages that announce nodes, register
a job, report arrivals and failures, and shut nodes down.

Each kind is one frozen dataclass whose fields are the frame's JSON
fields, and both ends build and read every control frame through one
codec, ``pack_control`` and ``unpack_control``, over the JSON pair
``encode_control``/``decode_control``. A frame whose ``type`` names no
kind, or whose fields are not exactly its kind's, each of its declared
type (a selector as hex digit pairs), is a ``DecodeError``. The master's
node watchers queue ``orchestration.NodeExited``, which is no kind here:
it never crosses a socket. The kinds live in a module of their own so
that ``python -m locomap.tcp_node``, which runs that module twice (as
``__main__`` and as itself), builds them once.
"""

import json
import re
from dataclasses import dataclass, fields
from typing import ClassVar, NewType, get_args, get_origin

from .agents import JobSpec, NodeId, TaskDescriptor
from .errors import DecodeError

CONTROL_MAGIC = b"LCTL"

# A selector's bytes as hex digit pairs, since JSON holds no bytes.
Hex = NewType("Hex", str)
_HEX_PAIRS = re.compile("(?:[0-9a-fA-F]{2})*")


def encode_control(doc: dict) -> bytes:
    return CONTROL_MAGIC + json.dumps(doc, sort_keys=True).encode("utf-8")


def decode_control(data: bytes) -> dict:
    return json.loads(data[4:].decode("utf-8"))


class ControlFrame:
    """A control frame. Each kind is a frozen dataclass subclass whose
    fields are the frame's JSON fields; ``kind`` is its ``type`` tag."""

    kind: ClassVar[str]

    def __init_subclass__(cls, kind: str) -> None:
        cls.kind = kind


@dataclass(frozen=True)
class NodeReady(ControlFrame, kind="node_ready"):
    """Node to master, once it serves: where it listens, what it holds."""

    node: NodeId
    host: str
    port: int
    heap_bytes: int
    dropped: int


@dataclass(frozen=True)
class QueryData(ControlFrame, kind="query_data"):
    """Master to node: does the heap hold a record for the selector?"""

    job_id: int
    selector_hex: Hex


@dataclass(frozen=True)
class HasData(ControlFrame, kind="has_data"):
    """Node to master: the answer to a ``QueryData``."""

    node: NodeId
    job_id: int
    has_data: bool


@dataclass(frozen=True)
class RegisterJob(ControlFrame, kind="register_job"):
    """Master to node: everything a node needs to route agents for one
    job. ``addresses`` maps each node to its listener and ``routes`` each
    slave's agent id to its planned route."""

    job_id: int
    map_fn_id: str
    reduce_fn_id: str
    selector_hex: Hex
    combine: str
    results_only: bool
    master: NodeId
    addresses: dict[NodeId, tuple[str, int]]
    routes: dict[int, tuple[NodeId, ...]]

    @classmethod
    def of(cls, spec: JobSpec, results_only: bool, master: NodeId, addresses, routes) -> "RegisterJob":
        task = spec.task
        return cls(spec.job_id, task.map_fn_id, task.reduce_fn_id, task.input_selector.hex(), spec.combine, results_only, master, addresses, routes)

    @property
    def spec(self) -> JobSpec:
        task = TaskDescriptor(self.map_fn_id, self.reduce_fn_id, bytes.fromhex(self.selector_hex))
        return JobSpec(job_id=self.job_id, task=task, combine=self.combine)


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


# Each kind's class and the declared type of each of its fields, by ``type``.
_KINDS = {cls.kind: (cls, {f.name: f.type for f in fields(cls)}) for cls in ControlFrame.__subclasses__()}


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
        cls, types = _KINDS[doc.pop("type")]
    except (ValueError, AttributeError, TypeError, KeyError) as exc:
        # Not JSON, not a JSON object, or no known type.
        raise DecodeError(f"unreadable control frame: {exc!r}") from None
    if doc.keys() != types.keys():
        raise DecodeError(f"{cls.kind} frame has fields {sorted(doc)}, not {sorted(types)}")
    return cls(**{name: _typed(doc[name], hint, name) for name, hint in types.items()})


def _typed(value, hint, name: str):
    """``value``, read from JSON, as ``hint``: a scalar of exactly that
    type, a string of hex digit pairs, a tuple from a list, or a dict with
    int keys from string keys."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is None and type(value) is hint:
        return value
    if hint is Hex and type(value) is str and _HEX_PAIRS.fullmatch(value):
        return value
    if origin is tuple and type(value) is list:
        items = args[:1] * len(value) if args[1:] == (Ellipsis,) else args
        if len(items) == len(value):
            return tuple(_typed(item, t, name) for item, t in zip(value, items))
    if origin is dict and type(value) is dict and all(key.isdecimal() for key in value):
        return {int(key): _typed(item, args[1], name) for key, item in value.items()}
    raise DecodeError(f"control field {name!r} holds {value!r:.80}, not {hint}")
