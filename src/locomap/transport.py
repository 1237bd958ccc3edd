"""Network transports: a deterministic simulator and a real TCP mode.

The simulator is discrete-event: no sleeps, no wall clock, no unseeded
randomness. A send on a link takes exactly latency + bytes/bandwidth
seconds and fails with the link's seeded failure probability. That makes
desk-scale tests able to sweep gigabyte-scale scenarios instantly and
byte-for-byte reproducibly.

TCP mode speaks the same envelope bytes over real sockets. Framing is a
4-byte big-endian length prefix followed by the payload; the receiver
answers with a single 0x06 acknowledgement byte. One fresh connection is
opened per send, so connection setup is paid per migration.
"""

import json
import logging
import math
import random
import socket
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TypedDict, get_args, get_origin, is_typeddict

from .agents import NodeId
from .errors import ConnectRefused, FrameTooLarge, SendTimeout, TopologyError, TransportFailure

logger = logging.getLogger("locomap.transport")

ACK = b"\x06"
MAX_FRAME = 256 * 1024 * 1024

# Named link presets. The bandwidth figures are the interesting part
# (wired lab gear vs a constrained radio); the latencies are plausible
# defaults, not measurements.
LINK_PRESETS: dict[str, dict[str, float]] = {
    "lab": {"bandwidth_bytes_per_s": 125e6, "latency_s": 0.0005},
    "iot": {"bandwidth_bytes_per_s": 250e3, "latency_s": 0.02},
}


@dataclass(frozen=True)
class SimLink:
    """One directed link in the simulated network."""

    src: NodeId
    dst: NodeId
    bandwidth_bytes_per_s: float
    latency_s: float = 0.0
    failure_prob: float = 0.0

    def __post_init__(self):
        # Each range is closed to NaN: every comparison with NaN is false.
        if not 0 < self.bandwidth_bytes_per_s < math.inf:
            raise TopologyError(f"link {self.src}->{self.dst} bandwidth must be positive and finite, not {self.bandwidth_bytes_per_s}")
        if not 0 <= self.latency_s < math.inf:
            raise TopologyError(f"link {self.src}->{self.dst} latency must be non-negative and finite, not {self.latency_s}")
        if not 0.0 <= self.failure_prob <= 1.0:
            raise TopologyError(f"link {self.src}->{self.dst} failure probability must be in [0, 1], not {self.failure_prob}")


@dataclass(frozen=True)
class DeliveryReport:
    """Outcome of one send. A send that fails raises TransportFailure, which
    carries the report when the transport has one (the simulator's always);
    there ``delivered`` is False and ``bytes`` were attempted, not
    delivered. ``completed_at`` is on the sim clock; TCP leaves it 0."""

    delivered: bool
    elapsed_s: float
    bytes: int
    connect_s: float = 0.0
    transfer_s: float = 0.0
    completed_at: float = 0.0


def sim_send(link: SimLink, payload_bytes: int, rng: random.Random) -> DeliveryReport:
    """The simulator's timing primitive: the report of a send issued at 0.

    elapsed is exactly latency + bytes/bandwidth on success; a failed send
    costs the latency (the envelope died in flight).
    """
    if rng.random() < link.failure_prob:
        return DeliveryReport(
            delivered=False,
            elapsed_s=link.latency_s,
            bytes=payload_bytes,
            connect_s=link.latency_s,
            transfer_s=0.0,
            completed_at=link.latency_s,
        )
    transfer = payload_bytes / link.bandwidth_bytes_per_s
    return DeliveryReport(
        delivered=True,
        elapsed_s=link.latency_s + transfer,
        bytes=payload_bytes,
        connect_s=link.latency_s,
        transfer_s=transfer,
        completed_at=link.latency_s + transfer,
    )


def typed(value, hint, path: str, error: type[Exception]):
    """``value``, read from JSON, as ``hint``; anything else raises ``error``
    naming ``path``. It reads control frames (``control.unpack_control``)
    and topology files (``Topology.from_dict``). A scalar is of exactly its
    type (a JSON ``true`` is no ``int``); a ``float`` is a finite JSON int
    or float; a ``tuple[T, ...]`` is read from a list, and a dict with int
    keys from an object whose every key is an int as ``str`` writes it (no
    sign, no leading zero, ASCII digits only). A ``TypedDict`` is an object
    with its required keys, any of its optional keys and no other key."""
    origin, args = get_origin(hint), get_args(hint)
    if hint is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif origin is None and type(value) is hint:
        return value
    if origin is tuple and type(value) is list:
        return tuple(typed(item, args[0], f"{path}[{i}]", error) for i, item in enumerate(value))
    if origin is dict and type(value) is dict and all(key.isdecimal() and str(int(key)) == key for key in value):
        return {int(key): typed(item, args[1], f"{path}[{key}]", error) for key, item in value.items()}
    if is_typeddict(hint) and type(value) is dict:
        required, optional = hint.__required_keys__, hint.__optional_keys__
        if not required <= value.keys() <= required | optional:
            raise error(f"{path} has keys {sorted(value)}, not {sorted(required)} and any of {sorted(optional)}")
        return {key: typed(item, hint.__annotations__[key], f"{path}.{key}", error) for key, item in value.items()}
    raise error(f"{path} holds {value!r:.80}, not {hint}")


# The topology file's schema. Each required key sits in a functional
# TypedDict base: ``from`` is a keyword, and Python 3.10 has no NotRequired.
class LinkParams(TypedDict, total=False):
    """A link's numbers; one left out keeps its default."""

    bandwidth_bytes_per_s: float
    latency_s: float
    failure_prob: float


class LinkOverride(TypedDict("LinkEnds", {"from": NodeId, "to": NodeId}), LinkParams):
    """A ``links`` entry: the directed link ``from`` -> ``to`` and the numbers it sets."""


class TopologyFile(TypedDict("TopologyNodes", {"master": NodeId, "nodes": tuple[NodeId, ...]}), total=False):
    """A topology file: its master, its sensor nodes and, optionally, the
    rest. ``default_link`` overrides the preset's numbers on every link."""

    preset: str
    rng_seed: int
    default_link: LinkParams
    links: tuple[LinkOverride, ...]


@dataclass
class Topology:
    """Nodes, directed links and the master designation for one network."""

    master: NodeId
    nodes: tuple[NodeId, ...]
    links: dict[tuple[NodeId, NodeId], SimLink] = field(default_factory=dict)
    rng_seed: int = 0

    def __post_init__(self):
        self.nodes = tuple(sorted(self.nodes))
        if len(set(self.nodes)) != len(self.nodes):
            raise TopologyError(f"topology.nodes lists a node twice: {self.nodes!r:.80}")
        if self.master in self.nodes:
            raise TopologyError(f"topology.nodes lists the master {self.master}")
        if not all(0 <= n <= 0xFFFFFFFF for n in (self.master, *self.nodes)):
            # An envelope's itinerary carries each node id as a u32.
            raise TopologyError("topology.master and topology.nodes must be u32 ids")

    def link(self, src: NodeId, dst: NodeId) -> SimLink:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link {src} -> {dst} in topology") from None

    @classmethod
    def full_mesh(
        cls,
        master: NodeId,
        nodes,
        bandwidth_bytes_per_s: float,
        latency_s: float = 0.0,
        failure_prob: float = 0.0,
        rng_seed: int = 0,
    ) -> "Topology":
        """Fully connected topology with uniform link parameters."""
        everyone = sorted((master, *nodes))
        links = {
            (a, b): SimLink(a, b, bandwidth_bytes_per_s, latency_s, failure_prob)
            for a in everyone
            for b in everyone
            if a != b
        }
        return cls(master=master, nodes=nodes, links=links, rng_seed=rng_seed)

    @classmethod
    def from_preset(
        cls, name: str, master: NodeId, nodes, rng_seed: int = 0
    ) -> "Topology":
        try:
            params = LINK_PRESETS[name]
        except KeyError:
            raise TopologyError(f"unknown link preset {name!r}, have {sorted(LINK_PRESETS)}") from None
        return cls.full_mesh(master, nodes, rng_seed=rng_seed, **params)

    @classmethod
    def from_dict(cls, doc) -> "Topology":
        """Build from a topology file's JSON value, read as ``TopologyFile``:
        any other key, or a value of another type, is a TopologyError that
        names its path."""
        doc = typed(doc, TopologyFile, "topology", TopologyError)
        preset = doc.get("preset", "iot")
        if preset not in LINK_PRESETS:
            raise TopologyError(f"topology.preset holds {preset!r:.80}, not one of {sorted(LINK_PRESETS)}")
        defaults = {**LINK_PRESETS[preset], "failure_prob": 0.0, **doc.get("default_link", {})}
        topo = cls.full_mesh(doc["master"], doc["nodes"], rng_seed=doc.get("rng_seed", 0), **defaults)
        for i, entry in enumerate(doc.get("links", ())):
            ends = entry.pop("from"), entry.pop("to")
            if ends not in topo.links:
                raise TopologyError(f"topology.links[{i}] names {ends[0]}->{ends[1]}, no link between two nodes")
            topo.links[ends] = SimLink(*ends, **{**defaults, **entry})
        return topo

    @classmethod
    def from_file(cls, path) -> "Topology":
        return cls.from_dict(read_topology_file(path))


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json``'s object hook: the object as a dict, or a ValueError if
    it repeats a key, which would leave only the last of its values."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ValueError(f"an object repeats one of its keys {[key for key, _ in pairs]!r:.80}")
    return doc


def read_topology_file(path) -> object:
    """The JSON value a topology file holds; TopologyError if the file
    cannot be read or is not UTF-8 JSON, or repeats a key in an object."""
    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except OSError as exc:
        raise TopologyError(f"cannot read topology file: {exc}") from exc
    except ValueError as exc:
        raise TopologyError(f"topology file is not valid JSON: {exc}") from exc


# Deterministic CPU-side costs for the simulator. Real pack/unpack work
# still runs; only the *reported* durations come from these rates, so
# repeated runs produce identical timing files. They are roughly
# memcpy-class hardware: they set the scale, and the tests only rely on
# ordering and monotonicity.
SIM_COPY_BYTES_PER_S = 1.0e9
SIM_CHECKSUM_BYTES_PER_S = 4.0e9
SIM_FIXED_OP_S = 200e-6
SIM_CALLBACK_S = 50e-6
SIM_VERIFY_OVERHEAD_S = 25e-6


def sim_duplication_times(payload_bytes: int) -> tuple[float, float]:
    """Modeled (copy_s, callback_s) for duplicating one agent."""
    return SIM_FIXED_OP_S + payload_bytes / SIM_COPY_BYTES_PER_S, 2 * SIM_CALLBACK_S


class SimTransport:
    """Seeded simulated network with no queue: a send issued at ``at``
    completes at ``at + elapsed_s``, whatever else is on its link.

    A dropped send raises TransportFailure carrying its undelivered report,
    as a failed TCP send raises; the only state is the seeded drop draw.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self._rng = random.Random(topology.rng_seed)

    def send(self, src: NodeId, dst: NodeId, payload: bytes, at: float = 0.0) -> DeliveryReport:
        report = sim_send(self.topology.link(src, dst), len(payload), self._rng)
        report = replace(report, completed_at=at + report.elapsed_s)
        if not report.delivered:
            raise TransportFailure(f"link {src}->{dst} dropped {len(payload)} bytes", report=report)
        return report

    def cpu_phase_times(self, envelope_bytes: int) -> tuple[float, float, float]:
        """Modeled (prepare_s, unpack_s, verify_s) for one migration."""
        side = SIM_FIXED_OP_S + envelope_bytes / SIM_COPY_BYTES_PER_S + SIM_CALLBACK_S
        verify = SIM_VERIFY_OVERHEAD_S + envelope_bytes / SIM_CHECKSUM_BYTES_PER_S
        return side, side, verify


# --- TCP framing -----------------------------------------------------------


def recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly n bytes; None on clean EOF before any byte."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if remaining == n:
                return None
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def write_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(len(payload).to_bytes(4, "big") + payload)


def read_frame(sock: socket.socket) -> bytes | None:
    header = recv_exact(sock, 4)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME:
        raise ConnectionError(f"declared frame of {length} bytes exceeds the cap")
    payload = recv_exact(sock, length)
    if payload is None and length:
        raise ConnectionError("peer closed after the frame header")
    return payload if payload is not None else b""


class TcpTransport:
    """Connection-per-send TCP transport over a node address map."""

    def __init__(self, addresses: dict[NodeId, tuple[str, int]], timeout_s: float = 5.0):
        self.addresses = dict(addresses)
        self.timeout_s = timeout_s

    def send(self, src: NodeId, dst: NodeId, payload: bytes, at: float = 0.0) -> DeliveryReport:
        try:
            host, port = self.addresses[dst]
        except KeyError:
            raise TransportFailure(f"no address known for node {dst}") from None
        if len(payload) > MAX_FRAME:
            raise FrameTooLarge(f"a frame of {len(payload)} bytes to node {dst} exceeds the {MAX_FRAME} byte cap")
        t0 = time.perf_counter()
        try:
            sock = socket.create_connection((host, port), timeout=self.timeout_s)
        except ConnectionRefusedError as exc:
            raise ConnectRefused(f"node {dst} at {host}:{port} refused the connection") from exc
        except OSError as exc:
            raise TransportFailure(f"connect to node {dst} failed: {exc}") from exc
        connect_s = time.perf_counter() - t0
        logger.info("tcp connection opened %s -> %s (%d bytes)", src, dst, len(payload))
        try:
            sock.settimeout(self.timeout_s)
            write_frame(sock, payload)
            ack = recv_exact(sock, 1)
        except socket.timeout as exc:
            raise SendTimeout(f"node {dst} did not acknowledge within {self.timeout_s}s") from exc
        except OSError as exc:
            raise TransportFailure(f"send to node {dst} failed: {exc}") from exc
        finally:
            sock.close()
        if ack != ACK:
            raise SendTimeout(f"node {dst} closed without acknowledging")
        elapsed = time.perf_counter() - t0
        return DeliveryReport(
            delivered=True,
            elapsed_s=elapsed,
            bytes=len(payload),
            connect_s=connect_s,
            transfer_s=elapsed - connect_s,
        )

    def cpu_phase_times(self, envelope_bytes: int) -> None:
        return None
